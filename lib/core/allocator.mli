(** Top-level optimal allocator: encode, minimize with BIN_SEARCH,
    extract, and validate with the independent analytical checker.

    Under a {!Budget.t} the allocator is {e anytime}: it degrades
    gracefully from the proven optimum, to the best
    checker-re-validated incumbent of the interrupted search (with a
    proven lower bound), to a heuristic fallback, to a clean
    {!outcome.Unknown} — never an exception, and every answer carries
    its provenance in {!result.quality}. *)

open Taskalloc_rt

module Budget = Taskalloc_sat.Budget

(** Provenance of a returned allocation — which rung of the
    degradation ladder produced it. *)
type quality =
  | Optimal  (** proven optimal by a completed binary search *)
  | Anytime of { lower_bound : int }
      (** budget expired mid-search; the true optimum lies in
          [[lower_bound, cost]] *)
  | Heuristic of string
      (** named fallback heuristic; feasible but no bound proved *)

type result = {
  allocation : Model.allocation;
  cost : int;  (** objective value of [allocation] *)
  quality : quality;
  stats : Taskalloc_opt.Opt.stats;
  violations : Check.violation list;
      (** independent validation of the extracted allocation; non-empty
          only if encoder and analyzer disagree (a bug, surfaced loudly) *)
  bool_vars : int;  (** formula size of the final encoding *)
  literals : int;
}

type outcome =
  | Solved of result
  | Infeasible  (** proved: no allocation exists *)
  | Unknown
      (** budget expired before any incumbent, and the heuristic
          fallback was disabled or also failed *)

val gap : result -> float option
(** Relative optimality gap: [Some 0.] for [Optimal],
    [(cost - lower_bound) / cost] for [Anytime], [None] for
    [Heuristic] results (no bound proved). *)

val pp_quality : Format.formatter -> quality -> unit

val solve :
  ?options:Encode.options ->
  ?mode:Taskalloc_opt.Opt.mode ->
  ?jobs:int ->
  ?budget:Budget.t ->
  ?gap_tol:float ->
  ?fallback:bool ->
  Model.problem ->
  Encode.objective ->
  outcome
(** Allocate optimally, degrading per the ladder above when [budget]
    (total spend across all probes) expires.  [gap_tol] stops early
    once the relative optimality gap is within tolerance.  Every
    returned allocation — including anytime incumbents and heuristic
    fallbacks — is re-checked with {!Taskalloc_rt.Check}.  [fallback]
    (default true) enables the heuristic rung.  [Encode.Feasible] asks
    for any allocation, without optimization.  Never raises on budget
    expiry.  An [Infeasible] answer is diagnosed by
    [Taskalloc_explain.Explain.explain].

    [jobs > 1] runs the underlying binary search in parallel
    ({!Taskalloc_opt.Opt.minimize} with [~jobs]): each worker
    re-encodes the problem in its own solver, so encodings never cross
    domains, and the workers race diversified copies of the whole
    search.
    [jobs = 1] (default) is exactly the sequential solve. *)

val pp_result : Format.formatter -> result -> unit

val solve_incremental :
  ?options:Encode.options ->
  ?mode:Taskalloc_opt.Opt.mode ->
  ?jobs:int ->
  ?budget:Budget.t ->
  ?gap_tol:float ->
  ?fallback:bool ->
  existing:Model.allocation ->
  Model.problem ->
  Encode.objective ->
  outcome
(** Incremental integration (the paper's §6 closing remark): the first
    [Array.length existing.task_ecu] tasks of [problem] keep their ECU
    from [existing]; only the remaining (new) tasks are placed freely.
    Message routes, TDMA slots and priorities are re-optimized
    globally.  Raises {!Model.Invalid_model} if an existing placement
    is inadmissible in the new problem; budget expiry degrades like
    {!solve}. *)
