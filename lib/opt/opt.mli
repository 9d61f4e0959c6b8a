(** Binary-search minimization of a SAT-encoded integer cost (§5.2).

    [minimize] wraps the solver in the paper's BIN_SEARCH loop.  Two
    modes reproduce the §7 observation on learned-clause reuse:

    - [Fresh] rebuilds the formula for every probe in a fresh solver
      (the paper's baseline);
    - [Incremental] builds once and runs every probe through one
      incremental session: each upper bound [cost <= M] is a reified
      comparator bit, cached per bound and assumed for that probe only;
      all learned clauses survive across probes.  Monotone lower bounds
      are added permanently.  This is the configuration the paper
      reports as >= 2x faster.

    The loop is {e anytime}: pass a {!Budget.t} and budget expiry
    yields the best model found so far together with the lower bound
    already proved — a validated incumbent and an optimality gap, never
    an exception. *)

open Taskalloc_bv

module Budget = Taskalloc_sat.Budget

type mode = Fresh | Incremental

type stats = {
  mutable probes : int;
  mutable sat_probes : int;
  mutable unsat_probes : int;
  mutable interrupted_probes : int;
      (** probes that ran out of budget before an answer *)
  mutable conflicts : int;
      (** summed per-probe deltas ({!Taskalloc_sat.Solver.last_solve_stats}),
          so a reused incremental session's earlier history is never
          double-counted; likewise [decisions] and [propagations] *)
  mutable decisions : int;
  mutable propagations : int;
  mutable bool_vars : int;
  mutable literals : int;
  mutable time_s : float;
}

val empty_stats : unit -> stats
val pp_stats : Format.formatter -> stats -> unit

(** How a [minimize] run ended. *)
type resolution =
  | Optimal  (** binary search closed the interval: incumbent is proven optimal *)
  | Feasible_budget_exhausted
      (** a feasible incumbent exists, but the budget (or the gap
          tolerance) stopped the search before optimality was proved *)
  | Infeasible  (** the constraints admit no model at all *)
  | Unknown
      (** the budget expired before even one model or an infeasibility
          proof was found *)

val pp_resolution : Format.formatter -> resolution -> unit

(** Anytime answer: the incumbent (best model found, with its cost and
    the caller's payload), the proven bounds on the true optimum, and
    how the run ended.  Invariants: [incumbent = None] iff [resolution]
    is [Infeasible] or [Unknown]; [upper_bound] is the incumbent cost;
    [lower_bound <= optimum <= upper_bound] whenever an optimum
    exists. *)
type 'a anytime = {
  incumbent : (int * 'a) option;
  lower_bound : int;
  upper_bound : int option;
  resolution : resolution;
}

val gap : 'a anytime -> float option
(** Relative optimality gap [(ub - lb) / ub]; [Some 0.] when optimal,
    [None] when there is no incumbent. *)

val minimize :
  ?mode:mode ->
  ?jobs:int ->
  ?assumptions:Taskalloc_sat.Lit.t list ->
  ?refine:(Bv.ctx -> int) ->
  ?budget:Budget.t ->
  ?gap_tol:float ->
  build:(unit -> Bv.ctx * Bv.t) ->
  on_sat:(Bv.ctx -> int -> 'a) ->
  unit ->
  'a anytime * stats
(** Minimize the cost term produced by [build].  [on_sat ctx cost] runs
    on every improving model (the context holds the fresh model); the
    final call corresponds to the incumbent.  In [Fresh] mode [build]
    is called once per probe and must construct the same formula each
    time.

    [refine] (default none) is the CEGAR interlock for lazy encodings:
    after every [Sat] probe it is called with the probe's context and
    may grow the formula (returning the number of refinements it
    installed); the probe is re-run until it returns 0, so [on_sat]
    only ever sees models that survived the exact check.  Unsat
    answers and proved lower bounds need no interlock — the lazy
    formula is a relaxation of the exact one.  With [jobs > 1] the
    hook must be thread-safe and is called with each worker's own
    context.

    [assumptions] (default none) are assumed on every probe; the
    minimum found is then the minimum {e under those assumptions}.
    They must refer to variables [build] creates deterministically.
    Each proved lower bound [cost >= l] is asserted permanently into
    the incremental session iff [assumptions] is empty.  A bound proved
    under assumptions need not hold without them, so a {e shared}
    session — one reused later under different assumptions, such as a
    what-if or repair session — is never poisoned by it; learnt clauses
    (kept either way) are assumption-independent and remain sound.

    [budget] is shared across the whole probe sequence and governs the
    total spend.  A [gap_tol] > 0 stops the search as soon as the relative gap is
    within the tolerance (reported as [Feasible_budget_exhausted]).
    This function never raises on exhaustion.

    [jobs > 1] races that many workers on separate domains, each
    running the whole search, diversified both in solver configuration
    ({!Taskalloc_portfolio.Portfolio.diversify}) and in probe-point
    strategy (bisection, top-down certification, pessimistic quartile
    probing).  The first worker to prove optimality or infeasibility
    (or reach [gap_tol]) wins and cancels the rest; if none concludes,
    the workers' proved bounds and incumbents are merged, so the
    combined anytime answer dominates each worker's.  The returned
    stats sum the workers' probes and search counters; a cancelled
    worker's last probe counts as interrupted.  [build] and [on_sat]
    are then called concurrently from several domains and must be
    thread-safe; only the coordinator polls [budget] and its user
    hook.  [jobs = 1] is exactly the sequential search, bit for bit.

    Parallel workers also exchange learnt clauses of LBD at most 4 or
    binary size, restricted to variables of the base encoding — such
    clauses are consequences of the shared formula and of
    already-proved lower bounds, so they transfer soundly even between
    workers probing different cost bounds.  This relies on [build]
    constructing the same formula with the same variable numbering in
    every worker (the same contract [Fresh] mode already imposes
    across probes). *)
