(** Allocation-as-a-service: a long-running daemon core that holds
    {e warm incremental sessions} per client and serves solve /
    what-if / explain / repair traffic over a newline-delimited JSON
    protocol (Unix-domain socket by default, TCP optionally).

    Why a server at all: [BENCH_explain.json] shows incremental
    what-if re-solves are ~6x faster than fresh solves and
    [BENCH_repair.json] shows warm repair is >= 2x faster — wins that
    only compound when the encoded formula and its solver stay
    resident between requests.  The daemon keeps them resident:

    - {b Session table.}  [open] a problem once (inline problem text,
      a server-side problem file, or a named workload) and get a
      session id; subsequent [solve] / [whatif] / [explain] / [repair]
      requests run against that session's live state.  The table is
      bounded ([max_sessions]); opening past the bound evicts the
      least-recently-used {e idle} session (a busy session — one
      mid-request — is never evicted), and requests against an evicted
      or closed id fail with a clean [unknown_session] error.
    - {b Encode cache.}  Sessions are keyed by a canonical problem
      hash (the round-tripping problem-file rendering plus the
      encoding options); clients opening identical problems share one
      encoded formula and one incremental
      {!Taskalloc_explain.Explain.Whatif} session, so the second
      client's [open] is a cache hit that pays no encode.  A session
      whose problem diverges from the shared bundle (a successful
      [repair] changes the problem) detaches first; shared state never
      tears.
    - {b Concurrency.}  A fixed pool of OCaml 5 domains executes
      requests.  Requests on one session (or on one shared bundle)
      serialize under that session's mutex — the incremental-solver
      invariants from the CEGAR and inprocessing work (DESIGN.md
      §4g-4i) assume single-threaded sessions — while requests on
      distinct sessions run in parallel; a request may additionally
      use the in-request [--jobs]/[--parallel] machinery, which
      spawns its own worker domains below this pool.
    - {b Admission control.}  Every request may carry a
      [deadline_ms]; the serving layer converts it to an anytime
      {!Taskalloc_sat.Budget.t} armed with the time {e remaining} when
      the request leaves the queue, so queue wait counts against the
      deadline and every request gets an answer by it — optimal,
      anytime-bounded (with gap), heuristic, or a clean unknown.  The
      work queue is bounded; when it is full, new requests are
      rejected immediately with an [overloaded] error instead of
      piling up.
    - {b Lifecycle.}  [SIGPIPE] is ignored (a client disconnecting
      mid-request costs that client its response, never the daemon);
      {!stop} (wired to SIGTERM/SIGINT by the executable) stops
      accepting, drains the queue, answers every in-flight request,
      closes client connections, joins the worker domains and removes
      the socket file.  Observability sinks flush through the
      executable's [at_exit] paths as for every other CLI.
    - {b Request-scoped observability.}  Every pooled request carries
      a wire-visible ["request_id"] (client-supplied or generated,
      echoed in the answer).  The executing worker installs it as the
      {!Taskalloc_obs.Obs.with_request} context, so every span, metric
      and budget-checkpoint sample the request records anywhere down
      the stack — solver conflict rates, optimizer bounds, CEGAR
      rounds, queue wait — is tagged with the owning request and
      [Obs.trace_json ?request] can split a shared trace cleanly.
      [watch] streams those samples live to another connection;
      [cancel] trips the request's {!Taskalloc_sat.Budget.t}
      [should_stop] hook, so the request still answers promptly with
      its anytime/heuristic best-so-far.  A fixed-size {e flight
      recorder} ring ({!Taskalloc_obs.Obs.Flight}) retains the most
      recent events always — dumped on SIGUSR1 (via
      {!request_flight_dump}), on a worker crash, and by the [dump]
      verb — and [--prometheus] serves the counters and latency
      histograms as a plaintext [/metrics] endpoint.

    {2 Protocol}

    One JSON object per line in, one per line out.  Every request has
    a ["kind"] and may carry an ["id"] (echoed verbatim in the
    response).  Responses carry ["ok"] — [true] with kind-specific
    payload, or [false] with ["error"] (a stable code:
    [parse], [bad_request], [unknown_kind], [unknown_session],
    [invalid_problem], [invalid_event], [infeasible], [overloaded],
    [shutting_down], [internal], [duplicate_request],
    [unknown_request]) and a human ["message"].

    Kinds: [ping], [open] (["workload"]+["seed"] | ["problem"] |
    ["problem_file"]; optional ["lazy"], ["cache"]), [solve]
    (["objective"], ["jobs"], ["parallel"], ["fallback"]), [whatif]
    (["deltas"], the {!Taskalloc_explain.Explain.Whatif.parse_deltas}
    grammar), [explain] (["max_relaxations"], ["jobs"]), [repair]
    (["event"], the scenario grammar; ["allow_shed"], ["explain"]),
    [stats], [metrics], [close].  [solve], [whatif], [explain] and
    [repair] accept ["deadline_ms"], ["max_conflicts"] and
    ["request_id"] (generated when absent; answering with it either
    way).  [watch] (["request"]) subscribes its connection to that
    request's progress stream: newline-JSON
    [{"event":"progress","request_id":...,"sample":...,...}] lines at
    budget-checkpoint cadence, ending with the request's final answer
    (retained briefly after completion, so a watch racing the finish
    still gets it).  [cancel] (["request"]) trips the request's
    budget hook.  [dump] returns the flight-recorder ring as Chrome
    trace JSON.  See the README's "Running as a service" and
    "Observability" sections for transcripts. *)

open Taskalloc_rt

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  workers : int;  (** worker domains executing requests (>= 1) *)
  max_sessions : int;  (** session-table bound; LRU idle eviction *)
  queue_depth : int;  (** bounded work queue; beyond it: [overloaded] *)
  options : Taskalloc_core.Encode.options;
      (** default encoding options for [open]; a request's ["lazy"]
          field overrides per session *)
  verbose : bool;  (** log one line per request to stderr *)
  prometheus : (string * int) option;
      (** serve a plaintext Prometheus [/metrics] endpoint on this
          TCP [host, port] ([0] picks an ephemeral port — see
          {!prometheus_port}) *)
  flight : string option;
      (** file the flight-recorder ring is dumped to on SIGUSR1, on a
          worker crash, and on the [dump] verb ([None] = the [dump]
          verb still answers inline; nothing is written to disk) *)
}

val default_config : config
(** Unix socket ["taskallocd.sock"], 2 workers, 64 sessions, queue
    128, no Prometheus endpoint, no flight-dump file. *)

val named_workloads : (string * (int -> Model.problem)) list
(** The named workload table shared with the [taskalloc] CLI:
    [(name, fun seed -> problem)]. *)

type t

val create : config -> t
(** Bind and listen (unlinking a stale Unix socket file first).  The
    socket exists when this returns, so a client may connect before
    {!run} is entered; pending connections sit in the backlog.  Raises
    [Unix.Unix_error] on bind failures. *)

val run : t -> unit
(** Serve until {!stop}: spawns the worker domains, accepts
    connections (one lightweight thread per connection, blocking I/O),
    and on stop drains the queue, answers everything in flight, closes
    connections, joins workers, and cleans up the socket. *)

val stop : t -> unit
(** Request shutdown.  Only sets an atomic flag — safe to call from a
    signal handler or another domain; {!run} notices within its accept
    poll interval (<= 0.2s). *)

val stats_json : t -> Json.t
(** The same snapshot the [stats] request returns: uptime, session /
    cache / queue occupancy, request and error totals, cache hit and
    eviction counts, watch/cancel totals, flight-ring occupancy, and
    latency histograms (count, mean, p50/p95/p99, max — quantiles via
    {!Taskalloc_obs.Obs.Hist.quantile}) overall and per kind.  Counts
    are authoritative server-side state (kept under the stats mutex),
    mirrored into {!Taskalloc_obs.Obs.Metrics} when metrics are
    enabled. *)

val prometheus_text : t -> string
(** The Prometheus text-format (0.0.4) rendering the [/metrics]
    endpoint serves: [taskalloc_*] counters and gauges, request
    latency as exact cumulative-[le] histograms (the registry's
    power-of-two buckets are inclusive integer upper bounds, so the
    translation is lossless) overall and per protocol verb
    ([taskalloc_request_kind_duration_us{kind="solve"}]), quantile
    summary gauges, and — when {!Taskalloc_obs.Obs.metrics_on} — the
    obs registry mirrored under [taskalloc_obs_*]. *)

val prometheus_port : t -> int option
(** The bound port of the exposition endpoint, when configured —
    useful with port [0] (ephemeral) in tests. *)

val request_flight_dump : t -> unit
(** Ask the accept loop to write the flight-recorder ring to the
    configured [flight] file.  Only sets an atomic flag — safe from a
    signal handler (the executable wires SIGUSR1 here). *)
