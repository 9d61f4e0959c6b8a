(** Parallel portfolio solving on OCaml 5 domains.

    N diversified CDCL workers race on the same instance; the first
    conclusive answer wins and cancels the rest cooperatively through
    their budget [should_stop] hooks, so losers unwind to a clean,
    resumable state.  Workers optionally exchange low-LBD learnt
    clauses through a lock-light shared pool.

    Determinism contract: with [jobs = 1] everything runs inline in the
    calling domain — no domains are spawned, no budget is derived, no
    hooks are installed and the reference {!Solver.default_config} is
    used — so the answer {e and} the solver statistics are bit-for-bit
    those of the plain sequential solver.

    Proof interlock: a worker whose solver logs proofs
    ({!Solver.proof_on}) never gets an import hook, so its DRUP trace
    stays self-contained and an Unsat winner still verifies. *)

open Taskalloc_sat

val diversify : int -> Solver.config
(** Configuration of worker [i].  [diversify 0 = Solver.default_config];
    higher indices sweep polarity, branching randomness, VSIDS decay
    and restart cadence, with the worker index as RNG seed. *)

(** {1 Shared clause pool} *)

(** The lock-light mailbox behind {!solve}'s clause sharing, exposed
    for layers that install their own solver hooks (the optimizer
    filters shared clauses down to the base-encoding variables, a
    condition only it can check).  Exporters [try_lock] and drop the
    clause on contention; importers read the suffix added since their
    cursor, skipping their own contributions. *)
module Pool : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] (default 65536) bounds the number of pooled clauses;
      once full, further exports are dropped. *)

  val export : t -> origin:int -> int array -> lbd:int -> bool
  (** Offer a clause (as solver literals).  The array is copied.
      Returns [false] if the clause was dropped (contention or a full
      pool) — always sound, sharing is best-effort. *)

  val import : t -> origin:int -> cursor:int -> int * (int array * int) list
  (** Clauses other workers added at or after [cursor], oldest first,
      with the new cursor to pass next time. *)
end

(** {1 Generic racing} *)

type 'r race_outcome = {
  results : 'r option array;  (** per-worker results, in worker order *)
  winner : int;  (** first conclusive worker, or -1 *)
}

val race :
  ?jobs:int ->
  ?budget:Budget.t ->
  worker:(int -> Solver.config -> budget:Budget.t option -> 'r) ->
  conclusive:('r -> bool) ->
  unit ->
  'r race_outcome
(** Run [worker i (diversify i) ~budget:child] on [jobs] domains.  Each
    worker receives a {!Budget.derive}d child of [budget] whose
    [should_stop] hook is the shared cancel flag; the flag is raised as
    soon as any worker returns a [conclusive] result, or when the
    coordinator — the only thread that polls [budget] and its user
    hook — finds the parent exhausted.  With [jobs <= 1] the single
    worker runs inline with the caller's budget and the default config.
    If a worker raises, the race is cancelled, all domains are joined
    and the first exception is re-raised. *)

(** {1 SAT portfolio} *)

type worker_stats = {
  worker : int;
  result : Solver.result;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_total : int;
  shared_out : int;  (** clauses this worker placed in the pool *)
  shared_in : int;  (** clauses this worker adopted from the pool *)
}

type 'a outcome = {
  result : Solver.result;
  winner : int;  (** winning worker index, or -1 when no one concluded *)
  payload : 'a option;  (** the winner's payload *)
  workers : worker_stats array;
}

val solve :
  ?jobs:int ->
  ?budget:Budget.t ->
  ?share:bool ->
  ?share_lbd:int ->
  ?assumptions:Lit.t list ->
  build:(int -> 'a * Solver.t) ->
  unit ->
  'a outcome
(** Race [jobs] solvers built by [build i] — each worker constructs its
    own solver over the same instance (called inside the worker's
    domain) and returns it with an arbitrary payload (e.g. a proof
    trace thunk, or the solver itself for model extraction).  Workers
    [> 0] are diversified with {!diversify}; with [share] (default on)
    they exchange learnt clauses of LBD at most [share_lbd] (default 4)
    or binary size.  Every worker solves under the same [assumptions]
    (default none); learnt clauses mention the assumption negations
    explicitly, so sharing stays sound and the winner's
    failed-assumption core ({!Solver.unsat_core}) is meaningful.  The
    caller's [budget] is charged with the maximum worker spend.
    [result] is the winner's answer, [Unknown] if every worker was
    cancelled or exhausted — solver states are intact, so the caller
    may re-solve with a fresh budget to resume. *)

(** {1 Cube-and-conquer}

    Instead of racing duplicated searches, split the instance: a
    lookahead pass over candidate decision variables (the VSIDS top)
    picks the [d] variables whose unit
    propagations simplify both branches most, the [2^d] sign patterns
    become cubes, and workers drain the cube queue with work stealing.
    The first Sat cube cancels everyone; if {e every} cube comes back
    Unsat the instance is Unsat, because the cubes cover the whole
    assignment space by construction.

    In proof mode each cube runs on a fresh solver whose trace steps
    are tagged with the negated cube, making them valid derivations
    from the shared formula; the per-cube refutations become
    cube-blocking clauses and a final resolution tree stitches them
    into the empty clause, so the combined trace passes the independent
    checker. *)

type cube_stats = {
  cube_index : int;  (** index into the generated cube list *)
  cube_worker : int;
  cube_result : Solver.result;
  cube_conflicts : int;  (** conflicts this cube cost its worker *)
  cube_stolen : bool;  (** claimed outside the worker's own share *)
}

type 'a cube_outcome = {
  c_result : Solver.result;
  c_payload : 'a option;
      (** the deciding build's payload: the Sat cube's solver, or the
          probe solver when the presolve already decided *)
  c_winner : int;  (** deciding worker, or -1 *)
  n_cubes : int;  (** 0 when the plan was [Decided] *)
  unsat_cubes : int;
  cube_details : cube_stats list;  (** per-cube accounting, in run order *)
}

val solve_cubes :
  ?jobs:int ->
  ?budget:Budget.t ->
  ?target:int ->
  ?presolve_conflicts:int ->
  ?share:bool ->
  ?share_lbd:int ->
  ?proof:(Solver.proof_step -> unit) ->
  build:(proof:(Solver.proof_step -> unit) option -> int -> 'a * Solver.t) ->
  unit ->
  'a cube_outcome
(** Cube-and-conquer over the instance constructed by [build].

    [build ~proof w] must construct the {e same} instance (same
    variable numbering) on every call: cubes are generated on worker
    0's solver and interpreted by every other build.  The builder must
    install the given [proof] sink {e before} adding constraints, and
    pass [None] through when absent.  [target] defaults to
    [max 16 (4 * jobs)].

    Without [proof], each worker keeps one persistent solver and solves
    each claimed cube under it as assumptions, sharing learnt clauses
    through the pool as {!solve} does.  With [proof], each cube gets a
    fresh solver (cube literals as unit clauses) whose trace steps are
    tagged with the negated cube and flushed into [proof] when the cube
    is refuted; when all cubes are Unsat the stitched trace ends with
    the empty clause and verifies against the original formula.
    Clause sharing is disabled in proof mode.

    [c_result] is [Sat] as soon as one cube is satisfiable, [Unsat]
    only when every cube was refuted, and [Unknown] if the budget
    tripped first.  The caller's [budget] is charged with the maximum
    worker spend, as in {!solve}. *)
