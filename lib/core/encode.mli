(** The paper's contribution: transformation of the task and message
    allocation problem into integer formulae (§3), extended to
    hierarchical architectures (§4), over the {!Taskalloc_bv.Bv} layer.

    The encoding comprises allocation selectors with placement and
    separation restrictions (eq. 4), WCET selection (eq. 5), response
    times as preemption-cost sums (eqs. 6-8) with the ceiling replaced
    by two-sided integer bounds on the preemption counters (eqs. 11-12),
    deadline checks (eq. 13), deadline-monotonic priorities with
    solver-resolved ties (eqs. 9-10), per-ECU memory capacities as
    pseudo-Boolean constraints, and the §4 routing machinery: per-message
    one-hot route choice over admissible simple media paths, medium
    usage bits K^k_m, local deadlines d^k_m, inherited jitter J^k_m, and
    per-medium response times — priority buses per eq. 2, TDMA buses per
    eq. 3 including the nonlinear blocking product Imb * (Lambda - osl).

    A flat single-bus architecture is the special case where every
    admissible path has length one. *)

open Taskalloc_rt

(** Optimization objective, minimized by BIN_SEARCH. *)
type objective =
  | Feasible  (** constant cost 0: pure feasibility *)
  | Min_trt of int  (** token rotation time of one TDMA medium (Table 1) *)
  | Min_sum_trt  (** sum of all TDMA rounds (Table 4) *)
  | Min_bus_load of int  (** permille bus load U of one medium (Table 1) *)
  | Min_max_util  (** maximum ECU utilization in permille *)

(** Representation of the allocation variables a_i. *)
type alloc_encoding =
  | One_hot  (** selector bit per (task, ECU) + exactly-one (default) *)
  | Binary  (** the paper's integer a_i with reified equalities *)

(** Resolution of equal-deadline priority ties (eqs. 9-10). *)
type tie_breaking =
  | Solver_ties
      (** free tie bits with transitivity constraints: the solver picks
          "an arbitrary, but consistent" order (default) *)
  | Static_ties  (** ties resolved by task id at transformation time *)

type options = {
  pb_mode : Taskalloc_pb.Pb.mode;
  alloc_encoding : alloc_encoding;
  tie_breaking : tie_breaking;
  max_slot : int;
      (** upper bound on TDMA slot variables; [0] = derive from the
          largest possible frame *)
  lazy_mode : bool;
      (** CEGAR: encode only the structural constraints plus sound
          necessary conditions on eqs. 6-12 up-front; exact
          response-time machinery is installed per task/medium by
          {!Lazy.refine} when a candidate model mispredicts it. *)
  inprocess : bool option;
      (** CDCL inprocessing for the encoded solver (see
          {!Taskalloc_bv.Bv.create}); [None] is the same as
          [Some false]. *)
}

val default_options : options
(** Native PB, one-hot allocation, solver-chosen ties, derived slot
    bound, eager encoding, no inprocessing. *)

type t
(** An encoded problem: the constraint system plus the handles needed
    to extract an allocation from a model. *)

(** {1 Constraint groups} (grouped mode, [encode ~groups:true])

    Soft-constraint families tagged with named selector literals so the
    explanation engine ([lib/explain]) can enforce or relax them per
    solve call through assumptions: assuming a group's selector true
    enforces the family; leaving it free (or assuming its negation)
    relaxes it.  With every selector assumed true the grouped system is
    equisatisfiable with the plain encoding.  Relaxation is made
    non-vacuous by widening deadline-derived variable bounds to the
    period and extending placement domains to all non-barred ECUs
    (extras forbidden under the placement selector, with optimistic
    best-known WCETs). *)

type group_kind =
  | G_deadline of int  (** task id: eq. 13 deadline check *)
  | G_msg_deadline of int  (** message id: end-to-end deadline budget *)
  | G_separation of int * int  (** task pair [(i, j)], [i < j]: eq. 4 *)
  | G_placement of int  (** task id: eq. 4 admissible-set restriction *)
  | G_capacity of int  (** ECU id: memory capacity *)

type group = {
  selector : Taskalloc_sat.Lit.t;  (** assume true to enforce the family *)
  kind : group_kind;
  descr : string;  (** model-level description, e.g. ["deadline of brake (d=20)"] *)
}

val group_id : group -> string
(** Stable machine-readable id, e.g. ["deadline:3"], ["separation:1:4"]. *)

val groups : t -> group list
(** The selector registry, in deterministic encoding order; [[]] unless
    encoded with [~groups:true]. *)

val find_group : t -> group_kind -> group option

val encode : ?options:options -> ?groups:bool -> Model.problem -> objective -> t
(** Build the constraint system.  [~groups:true] (default false)
    selects the grouped mode described above.  Raises
    {!Model.Invalid_model} when the problem admits no encoding (e.g. a
    task with no admissible ECU, a message with no admissible route, or
    a TRT objective on a priority bus). *)

val context : t -> Taskalloc_bv.Bv.ctx
val cost_term : t -> Taskalloc_bv.Bv.t

val extract : t -> Model.allocation
(** Read a complete allocation (placement, routes, slots, priority
    order) out of the solver's current model.  Only valid right after a
    [Sat] answer.  Under grouped-mode relaxations the placement may use
    ECUs outside a task's declared WCET domain — such allocations are
    design suggestions ("allow t3 on ECU2"), not checkable schedules. *)

(** {1 What-if handles} (grouped mode) *)

val task_selector : t -> task:int -> ecu:int -> Taskalloc_pb.Circuits.bit
(** Selector bit of a task on an ECU, for pin/forbid assumptions;
    [Zero] when the ECU is outside the task's (possibly extended)
    domain. *)

val response_time : t -> int -> Taskalloc_bv.Bv.t
(** The response-time term r_i of a task, for what-if deadline
    tightenings reified against it.  On a lazy encoding this forces the
    task's exact machinery in first (one-time refinement). *)

val decision_hints : t -> int list
(** Solver variables of the allocation selector bits a_{i,j}, in
    task-major encoding order — the decision structure cube-and-conquer
    splits on ({!Taskalloc_portfolio.Portfolio.solve_cubes}'s
    [split_vars]).  Fixing them decides the whole placement.  Stable
    across re-encodings of the same problem with the same options. *)

(** {1 CEGAR refinement} (lazy mode, [options.lazy_mode])

    The lazy abstraction is a relaxation of the eager formula: every
    constraint it contains is implied by the eager encoding, so [Unsat]
    answers, optimization lower bounds, and shared clauses over
    abstraction variables remain sound.  A [Sat] answer is only
    trustworthy once {!Lazy.refine} reports 0 — callers must loop
    solve/refine until then.  Each task and each medium is refined at
    most once, so the loop terminates after at most
    [n_tasks + n_media] refinements with a formula no larger than the
    eager one. *)

module Lazy : sig
  val is_lazy : t -> bool

  val refine : t -> int
  (** Check the solver's current model (valid only right after [Sat])
      against exact response-time fixpoints and install the violated
      tasks'/media's eager constraints.  Returns the number of
      entities refined; [0] means the model is genuine (also on eager
      encodings, which are always exact). *)

  val rounds : t -> int
  (** Completed refinement rounds (calls to {!refine} that installed
      at least one entity). *)

  val refined_tasks : t -> int
  (** Tasks with exact machinery installed (eager: all of them). *)

  val refined_media : t -> int
  (** Media with exact response equations installed. *)
end

(** {1 Formula-size statistics} (the paper's Var./Lit. columns) *)

val n_bool_vars : t -> int
val n_literals : t -> int
