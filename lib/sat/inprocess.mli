(** Inprocessing scheduler.

    Wires {!Solver.vivify_pass}, {!Solver.subsume_pass} and
    {!Solver.bve_pass} onto a solver's inprocess hook: the passes run
    once up front and then every [every] conflicts, between restart
    episodes, at decision level 0.  Every pass runs under an [Obs]
    span ([inprocess.vivify] / [inprocess.subsume] / [inprocess.bve])
    with change counts recorded as metrics.

    Inprocessing composes with proof logging (derived clauses are
    logged, see {!Solver}) and with incremental solving (assumption
    variables are frozen automatically; variables an elimination pass
    removed are transparently reintroduced when named again). *)

val install : ?every:int -> Solver.t -> unit
(** Install the scheduler on the solver's inprocess hook.  [every] is
    the conflict cadence between runs (default 3000); the first hook
    invocation always runs, acting as preprocessing. *)

val run_passes : Solver.t -> int
(** Run one round of all three passes immediately (regardless of
    cadence), returning the total number of changes.  Exposed for
    tests and benches. *)
