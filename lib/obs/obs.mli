(** Observability substrate: a metrics registry (counters, gauges,
    mergeable integer histograms) and a span/trace API emitting Chrome
    trace-event / Perfetto-compatible JSON plus a line-oriented JSONL
    event log.

    Design constraints (DESIGN.md §4e):

    - {e Near-zero disabled path.}  With neither tracing nor metrics
      enabled every entry point reduces to an atomic load and a branch;
      in particular the injected clock is {e never} sampled, so the
      CDCL inner loop carries no timing syscalls unless the user asked
      for observability.  This is testable: {!clock_samples} counts
      every read of the injected clock.
    - {e Timestamps at edges only.}  The clock is sampled at span
      boundaries and at [Budget] checkpoint ticks, never per-conflict
      or per-propagation.
    - {e Injected clock.}  There is no monotonic-clock dependency in
      the toolchain, so the time source is a plain [unit -> float]
      (seconds), defaulting to [Unix.gettimeofday].  Tests inject
      deterministic clocks; a monotonic source can be swapped in
      without touching call sites.
    - {e Domain safety.}  Portfolio workers on separate domains record
      into the same sinks under a mutex; contention is bounded by the
      checkpoint cadence (every [Budget.check_every] conflicts), not by
      the search loop.  Worker histograms merge associatively
      ({!Hist.merge_into}), so per-worker tallies equal the tally of
      the concatenated samples. *)

(** {1 Clock injection} *)

val set_clock : (unit -> float) -> unit
(** Replace the time source (seconds; default [Unix.gettimeofday]).
    Affects all subsequent samples. *)

val default_clock : unit -> float

val now : unit -> float
(** Sample the injected clock.  Every call is counted in
    {!clock_samples}. *)

val clock_samples : unit -> int
(** Total number of clock samples taken through {!now} since the last
    {!clear} — the "null sink" test asserts this stays at zero while
    observability is disabled. *)

(** {1 Switches} *)

val enable : ?tracing:bool -> ?metrics:bool -> unit -> unit
(** Turn sinks on (both default [false], i.e. [enable ()] disables).
    Enabling (re)stamps the trace epoch [t0]. *)

val disable : unit -> unit
(** Turn both sinks off.  Recorded data is retained so it can still be
    written out. *)

val clear : unit -> unit
(** Drop all recorded events, metrics, hooks, and the clock-sample
    counter; restore the default clock; disable both sinks. *)

val tracing_on : unit -> bool
val metrics_on : unit -> bool

val on : unit -> bool
(** [tracing_on () || metrics_on ()]. *)

(** {1 Mergeable integer histograms}

    Fixed power-of-two bucket boundaries: bucket 0 holds values
    [<= 0]; bucket [i >= 1] holds values in [[2{^i-1}, 2{^i})].  Fixed
    boundaries make {!Hist.merge_into} exact: merging per-worker
    histograms yields bit-for-bit the histogram of the concatenated
    sample streams (a QCheck property in [test_obs.ml]). *)
module Hist : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val merge_into : into:t -> t -> unit
  val copy : t -> t
  val count : t -> int
  val sum : t -> int

  val min_value : t -> int
  (** [0] when empty. *)

  val max_value : t -> int
  (** [0] when empty. *)

  val mean : t -> float
  (** [0.] when empty. *)

  val bucket_index : int -> int

  val buckets : t -> (int * int) list
  (** Non-empty buckets as [(inclusive upper bound, count)]; the
      bucket for values [<= 0] reports upper bound [0]. *)

  val quantile : t -> float -> int
  (** [quantile t q] (with [q] clamped to [0,1]) estimates the q-th
      quantile as the inclusive upper bound of the power-of-two bucket
      holding the sample of rank [ceil (q * count)], clamped to the
      observed maximum (so [quantile t 1. = max_value t] exactly).
      The estimate never under-reports: the true quantile lies in the
      same bucket, at most 2x below.  [0] when empty. *)

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** {1 Metrics registry}

    A process-global string-keyed registry.  All writers are no-ops
    unless {!metrics_on}; readers work regardless (so a CLI can print
    a snapshot after {!disable}). *)
module Metrics : sig
  val incr : ?by:int -> string -> unit
  val set : string -> int -> unit
  val observe : string -> int -> unit

  val get_counter : string -> int
  (** [0] when absent. *)

  val get_gauge : string -> int option
  val get_hist : string -> Hist.t option

  val counters : unit -> (string * int) list
  (** Sorted by name; likewise below. *)

  val gauges : unit -> (string * int) list
  val hists : unit -> (string * Hist.t) list
end

(** {1 Request context}

    A request-scoped attribution context, carried in domain-local
    storage.  While a context is installed, {e every} event recorded
    through this module — spans, instants, samples, flight-recorder
    entries — is tagged with a [("request", id)] attribute, so a
    server executing many concurrent requests can split one shared
    trace by owning request ({!trace_json}'s [?request] filter).

    The context does not cross [Domain.spawn] by itself; code that
    fans work out to helper domains (the portfolio and cube-and-conquer
    runners) captures {!current_request} at spawn time and re-installs
    it inside the worker, so deep solver telemetry stays attributed.
    Reading the context is a few loads — no lock, no clock — so the
    disabled-path cost of tagging is zero. *)

val with_request : string -> (unit -> 'a) -> 'a
(** [with_request id f] runs [f] with [id] as the current request
    context (restoring the outer context afterwards, also on
    exceptions — contexts nest). *)

val current_request : unit -> string option

(** {1 Spans and events} *)

val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a complete trace event (begin
    timestamp + duration) when tracing is on and observing the
    duration into histogram ["span.<name>.us"] when metrics are on.
    When both sinks are off this is exactly [f ()] — no clock sample.
    If [f] raises, the event is still recorded (with an ["error"]
    attribute) and the exception is re-raised, so traces stay
    well-formed when a [Budget] stop or a failure fires mid-span. *)

val instant : ?attrs:(string * string) list -> string -> unit
(** A zero-duration marker event (trace sink only). *)

val complete : ?attrs:(string * string) list -> string -> start:float -> stop:float -> unit
(** Record a complete event from timestamps previously sampled with
    {!now} — no clock sample happens here.  Used where a section's
    boundaries are marked imperatively (the per-family encode
    telemetry) rather than bracketed by a closure.  Also observes the
    duration into ["span.<name>.us"] when metrics are on. *)

val emit_sample : string -> (string * float) list -> unit
(** [emit_sample name kvs] records a progress sample: a counter-style
    trace event when tracing is on, and delivery to the installed
    {!set_sample_hook} (live [--progress] lines).  The caller supplies
    any timestamps inside [kvs]; this function samples the clock only
    when tracing. *)

val set_sample_hook : (string -> (string * float) list -> unit) option -> unit
(** Hook invoked synchronously on every {!emit_sample}; used by the
    CLIs to print one-line live progress at budget ticks.  Installing
    a hook makes instrumented code sample even when both sinks are
    off. *)

val sample_hook_installed : unit -> bool

(** {1 Output} *)

type event = {
  ev_name : string;
  ev_ts : float;  (** microseconds since the trace epoch *)
  ev_dur : float;  (** microseconds; [< 0.] for instants and samples *)
  ev_tid : int;  (** recording domain id *)
  ev_attrs : (string * string) list;
}

val events : ?request:string -> unit -> event list
(** Recorded events in chronological (begin-timestamp) order;
    [?request] keeps only the events tagged with that request id. *)

val request_ids : unit -> string list
(** Distinct request ids appearing in the recorded events, in order of
    first appearance. *)

val trace_json : ?request:string -> unit -> Taskalloc_json.Json.t
(** Chrome trace-event JSON: [{"traceEvents": [...]}] with ["X"]
    (complete), ["i"] (instant), and ["C"] (counter) phases — loadable
    in Perfetto / chrome://tracing.  [ts] and [dur] are microseconds,
    rounded to the nanosecond.  [?request] restricts the trace to one
    request's events ({!with_request} tagging). *)

val jsonl : unit -> string
(** The same events, one [Json.to_string] object per line. *)

val metrics_json : unit -> Taskalloc_json.Json.t
(** Snapshot of the registry as one JSON object with [counters],
    [gauges], and [histograms] members. *)

val phase_breakdown : unit -> (string * float) list
(** Total seconds per span name (from the ["span.<name>.us"]
    histograms), sorted by name — the end-to-end phase breakdown of a
    run. *)

val write_trace : string -> unit
val write_jsonl : string -> unit
val write_metrics : string -> unit
(** Write {!trace_json}, {!jsonl} and {!metrics_json} to a file; the
    trace and the metrics snapshot are one line each. *)

(** {1 Flight recorder}

    A fixed-size ring of recent events that is {e always} on —
    post-mortem visibility for a long-running server whose failure
    cannot be re-run with tracing enabled.  Three properties keep it
    free enough to leave on unconditionally:

    - {e Zero extra clock reads.}  {!Flight.record} never samples a
      clock; callers pass timestamps they already read for other
      purposes (per-request latency accounting, budget-checkpoint
      progress samples).  The null-sink invariant — zero clock samples
      while observability is disabled — holds with the recorder
      recording.
    - {e Amortized O(1).}  An append is one slot store and an index
      bump under a leaf mutex; the ring never grows and never
      allocates beyond the recorded event itself.
    - {e Bounded memory.}  The ring holds the last {!Flight.capacity}
      events (default 1024) and silently overwrites the oldest.

    Entries are tagged with the current request context like every
    other event.  The server dumps the ring as a Chrome trace on
    SIGUSR1, on a worker crash, and on the [dump] protocol verb. *)
module Flight : sig
  val record :
    ?ts:float -> ?dur:float -> ?attrs:(string * string) list -> string -> unit
  (** [record ?ts ?dur ?attrs name] appends one event.  [ts] is
      absolute seconds from a clock the caller already read; omitted,
      the newest recorded timestamp is reused (ordering preserved, no
      clock touched).  [dur] is in seconds; negative (the default)
      records an instant. *)

  val set_capacity : int -> unit
  (** Resize (and clear) the ring; clamped to [>= 1]. *)

  val capacity : unit -> int

  val size : unit -> int
  (** Events currently retained. *)

  val total : unit -> int
  (** Events ever recorded (monotone; [total - size] have been
      overwritten). *)

  val clear : unit -> unit

  val snapshot : unit -> event list
  (** Oldest-first copy of the retained events ([ev_ts] in absolute
      seconds, [ev_dur] in seconds — unlike the trace-sink events,
      which are in microseconds since the epoch). *)

  val dump_json : unit -> Taskalloc_json.Json.t
  (** The ring as Chrome trace-event JSON, in the format of
      {!trace_json}, timestamps rebased to the oldest retained event. *)
end
