(** Differential and certifying fuzzing of the solver stack.

    Every generated instance is small enough for a brute-force
    enumeration oracle.  A case passes only if the CDCL(+PB) solver
    {ul
    {- agrees with the oracle on satisfiability,}
    {- returns a model that re-evaluates to true clause-by-clause
       (constraint-by-constraint) when it answers [Sat], and}
    {- emits a DRUP trace that {!Taskalloc_proof.Proof.check} certifies
       when it answers [Unsat].}}

    Failures are shrunk to a local minimum before being reported, and
    every case is identified by the integer seed that regenerates it:
    [check_case (gen_case ~seed ~max_vars)] replays a report line
    exactly. *)

open Taskalloc_sat

(** A pseudo-Boolean instance: [constraints] over DIMACS literals of
    variables [1..pb_vars], each in the normalized [>=] form of
    {!Taskalloc_proof.Proof.pb}. *)
type pb_instance = {
  pb_vars : int;
  constraints : Taskalloc_proof.Proof.pb list;
}

type case = Cnf of Dimacs.cnf | Pb of pb_instance

val pp_case : Format.formatter -> case -> unit
(** CNF cases print as DIMACS, PB cases as OPB-style [>=] lines —
    ready to paste into a regression test. *)

(** {1 Generation} *)

val gen_cnf : seed:int -> max_vars:int -> Dimacs.cnf
(** Random 3-CNF (with occasional shorter clauses) over at most
    [max_vars] variables, clause count drawn around the hard
    sat/unsat-threshold ratio. *)

val gen_pb : seed:int -> max_vars:int -> pb_instance
(** Random normalized PB [>=] constraints: positive coefficients,
    mixed polarities, degrees spanning trivial to infeasible. *)

val gen_case : seed:int -> max_vars:int -> case
(** Half CNF, half PB, decided by the seed. *)

(** {1 Oracle and differential driver} *)

val oracle : case -> bool
(** Brute-force satisfiability by enumerating all assignments.  Only
    use on instances from the generators ([max_vars] small). *)

val check_case : ?jobs:int -> case -> (unit, string) result
(** Solve, cross-check against {!oracle}, re-evaluate Sat models, and
    certify Unsat answers with the proof checker.  With [jobs > 1] the
    case is solved by a parallel portfolio; every worker records its
    own proof (so none imports shared clauses) and the {e winner's}
    Unsat trace is the one certified — the certifying interlock holds
    in both modes. *)

val shrink : ?jobs:int -> case -> case
(** Greedily minimize a failing case (drop constraints, then literals
    and degrees) while {!check_case} still fails.  Returns the case
    unchanged if it does not fail. *)

(** {1 Campaigns}

    One driver runs four differential campaigns.  Every iteration is
    deterministic in the campaign, its seed and its index.
    {ul
    {- [Sat]: one generated CNF/PB case per iteration through
       {!check_case}.}
    {- [Lazy]: one small full-featured allocation problem (both bus
       kinds, messages, jitter, blocking) solved through the whole
       stack with the eager and the CEGAR encoding
       ({!Taskalloc_core.Encode.options.lazy_mode}), the latter with
       inprocessing on odd iterations.  Both must reach
       the same verdict and the same proven optimum, and both
       allocations must pass the independent analytical checker.  The
       eager encoding is the oracle: a divergence is a bug in the
       abstraction, its refinement loop or the relaxation cuts.}
    {- [Inprocess]: the [Sat] check with the CDCL inprocessing passes
       ({!Taskalloc_sat.Inprocess}) installed on an aggressive cadence,
       so Unsat traces recorded with vivification, subsumption and BVE
       active must still certify; then the [Lazy] allocation-level
       check with plain against inprocessed solving, which exercises
       the frozen-variable interface (selector and assumption literals
       must survive elimination).}
    {- [Disruptions]: a small feasible system, then a stream of 2–4
       disruption events (ECU failures, WCET overruns, task arrivals,
       bus degradations) repaired with
       {!Taskalloc_repair.Repair.repair}.  Accepted repairs must pass
       the analyzer and simulate without a deadline miss; failed
       repairs must leave the state untouched.  The first event is
       also cross-checked against a brute-force minimal-migration
       oracle: the repair must migrate exactly as few tasks as an
       exhaustive placement search, and report [Irreparable] exactly
       when no feasible placement exists.}} *)

type campaign = Sat | Lazy | Inprocess | Disruptions

(** Outcome counts; each campaign fills the fields it names. *)
type counts = {
  sat : int;  (** [Sat], [Inprocess]: cases the oracle satisfies *)
  unsat : int;  (** [Sat], [Inprocess]: cases the oracle refutes *)
  certified : int;  (** refuted cases whose Unsat trace the checker accepted *)
  solved : int;  (** [Lazy], [Inprocess]: allocations both sides solved *)
  infeasible : int;  (** allocations both sides proved infeasible *)
  unknown : int;  (** unbudgeted Unknown answers; each is also a failure *)
  events : int;  (** [Disruptions]: events injected (oracle phase aside) *)
  repaired : int;
  degraded : int;  (** repaired rungs that shed at least one task *)
  irreparable : int;
  skipped : int;  (** generated systems with no initial allocation *)
  oracle_checked : int;  (** first events cross-checked by the oracle *)
}

type failure = {
  fail_iter : int;  (** iteration index within the campaign *)
  fail_seed : int;
      (** SAT-level failures: the case seed ([gen_case ~seed] regenerates
          the case); otherwise the seed of the iteration's generator *)
  fail_case : case option;  (** SAT-level failures: shrunk reproducer *)
  fail_error : string;  (** first discrepancy, before shrinking *)
}

type report = {
  campaign : campaign;
  iters : int;
  counts : counts;
  failures : failure list;  (** in iteration order *)
  solve_us : Taskalloc_obs.Obs.Hist.t;
      (** per-iteration wall time (µs): the campaign's perf-canary
          distribution, printed by {!pp_report} *)
}

val run :
  ?max_vars:int ->
  ?jobs:int ->
  ?log:(string -> unit) ->
  campaign:campaign ->
  iters:int ->
  seed:int ->
  unit ->
  report
(** Run [iters] iterations of [campaign] derived deterministically from
    [seed].  [max_vars] (default 10, clamped to [2..16]) bounds the
    SAT-level instance size of [Sat] and [Inprocess].  For [Sat],
    [jobs > 1] solves every case with a portfolio of that many workers
    (see {!check_case}); for the other campaigns it spreads iterations
    over at most [min jobs iters] domains, and the report does not
    depend on it.  [log] receives one line per failure. *)

val pp_report : Format.formatter -> report -> unit

val partition : jobs:int -> int -> int list list
(** [partition ~jobs n] splits the iteration indices [0 .. n-1] into
    at most [min jobs n] non-empty contiguous blocks, one per domain
    [run] uses. *)
