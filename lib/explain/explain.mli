(** Infeasibility explanation: turn a bare [Infeasible] answer into a
    diagnosis an engineer can act on.

    The engine works on the grouped encoding
    ({!Taskalloc_core.Encode.encode}[ ~groups:true]), where every soft
    constraint family — per-task deadlines (eq. 13), per-pair
    separation, per-task placement restrictions (eq. 4), per-ECU memory
    capacities and per-message end-to-end deadlines — is guarded by a
    named selector literal.  Solving under the assumption that all
    selectors hold reproduces the original instance; an Unsat answer
    then yields a failed-assumption core ({!Taskalloc_sat.Solver.unsat_core})
    over whole constraint families, which is

    - shrunk to a minimal unsatisfiable subset (MUS) by deletion with
      clause-set refinement, optionally racing [~jobs] candidate
      deletions in parallel over diversified sessions
      ({!Taskalloc_portfolio.Portfolio.race});
    - complemented by up to K minimal correction sets: smallest group
      sets whose relaxation restores feasibility, verified by
      re-solving and enumerated with selector blocking clauses.

    All probes run on incremental solver sessions — the encoding is
    built once per session and every learnt clause prunes later probes.
    The whole pass is anytime: with an exhausted {!Budget.t} the
    current (valid, possibly non-minimal) core is returned. *)

open Taskalloc_rt
open Taskalloc_core
module Budget = Taskalloc_sat.Budget

(** Long-lived grouped-encoding solver sessions.  One session = one
    grouped encoding + one incremental solver; every probe is an
    assumption-only re-solve, so clauses learnt by any probe prune all
    later ones.  This is the machinery {!explain}, {!Whatif} and the
    online repair engine ([Taskalloc_repair.Repair]) all share. *)
module Session : sig
  type t

  val create :
    ?options:Encode.options ->
    ?config:Taskalloc_sat.Solver.config ->
    Model.problem ->
    t
  (** Build the grouped encoding and its solver.  [config] overrides
      the solver configuration (portfolio diversification). *)

  val encoding : t -> Encode.t
  val solver : t -> Taskalloc_sat.Solver.t
  val groups : t -> Encode.group array
  val solves : t -> int

  val solve :
    ?budget:Budget.t ->
    ?extra:Taskalloc_sat.Lit.t list ->
    t ->
    int list ->
    Taskalloc_sat.Solver.result
  (** Solve with the groups of the given indices enforced, every other
      group free, and [extra] literals assumed. *)

  val solve_all :
    ?budget:Budget.t ->
    ?extra:Taskalloc_sat.Lit.t list ->
    t ->
    Taskalloc_sat.Solver.result
  (** {!solve} with every group enforced. *)

  val core_indices : t -> int list
  (** Failed-assumption groups of the last Unsat answer, as indices
      into {!groups}, sorted. *)
end

val shrink :
  ?budget:Budget.t ->
  ?extra:Taskalloc_sat.Lit.t list ->
  sessions:Session.t array ->
  int list ->
  int list * bool
(** Deletion MUS with clause-set refinement over a working group set.
    [sessions.(0)] is the caller's session; further sessions race
    candidate deletions in parallel.  [extra] literals are assumed on
    every probe, so the result is a MUS {e under those assumptions}
    (the repair engine pins a task's old seat this way).  Returns the
    shrunk set and whether it was proven minimal (false when the
    budget tripped). *)

type status =
  | Feasible  (** nothing to explain: all groups are satisfiable together *)
  | Explained of { core : Encode.group list; minimal : bool }
      (** jointly unsatisfiable groups; [minimal] is false when the
          budget expired mid-shrink (the core is still a valid unsat
          core).  An empty core means the instance is infeasible
          regardless of the tagged groups (structural infeasibility). *)
  | Unknown  (** budget exhausted before the first answer *)

type report = {
  status : status;
  relaxations : Encode.group list list;
      (** minimal correction sets: dropping all groups of any one set
          restores feasibility (verified by re-solving) *)
  solves : int;  (** solver calls across all sessions *)
  time_s : float;
}

val explain :
  ?options:Encode.options ->
  ?jobs:int ->
  ?budget:Budget.t ->
  ?max_relaxations:int ->
  Model.problem ->
  report
(** Diagnose a problem.  [jobs] (default 1) races that many candidate
    deletions per MUS round on diversified sessions;
    [max_relaxations] (default 3) caps the correction sets reported. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> Taskalloc_json.Json.t

val groups_json : Encode.group list -> Taskalloc_json.Json.t
(** [[{"id": ..., "descr": ...}, ...]], the form every JSON answer names
    constraint groups in. *)

val placement_json : Model.problem -> Model.allocation -> Taskalloc_json.Json.t
(** [[["task name", ecu], ...]] in task order, the placement of every
    JSON answer that carries an allocation. *)

(** Incremental what-if sessions: one grouped encoding and one solver
    kept alive across queries, each query a set of deltas installed as
    assumptions — no re-encoding, and clauses learnt answering one
    query prune the next. *)
module Whatif : sig
  type t

  type delta =
    | Pin of { task : int; ecu : int }  (** force a task onto an ECU *)
    | Forbid of { task : int; ecu : int }
    | Set_deadline of { task : int; deadline : int }
        (** tighten (or, together with dropping the original deadline
            group, loosen) a task's deadline *)
    | Drop of Encode.group_kind  (** relax a tagged constraint group *)

  type verdict =
    | Feasible of { allocation : Model.allocation; relaxed : bool }
        (** [relaxed] when the query disabled at least one group: the
            placement may then use ECUs outside declared WCET domains
            and is a design suggestion, not a checkable schedule *)
    | Infeasible of { groups : Encode.group list; deltas : delta list }
        (** the failed-assumption core, mapped back to constraint
            groups and to the query's own deltas *)
    | Unknown

  val create : ?options:Encode.options -> Model.problem -> t
  (** Build the session: one grouped encoding, one solver. *)

  val of_session :
    extra:Taskalloc_sat.Lit.t list -> Model.problem -> Session.t -> t
  (** Answer queries on an existing session whose encoding numbers
      tasks as [problem] does, with [extra] literals assumed on every
      query beside the deltas.  The session is shared, not copied: the
      online repair engine hands out the session its last repair solved
      this way, with its standing ECU-failure assumptions as [extra]. *)

  val query : ?budget:Budget.t -> t -> delta list -> verdict
  (** Re-solve under the deltas.  Queries are independent: deltas do
      not accumulate, and the session is reusable after any verdict.  A
      [Set_deadline] beyond the declared deadline automatically drops
      the task's original deadline group. *)

  val solves : t -> int
  val queries : t -> int

  val cached_deadline_bits : t -> int
  (** Entries currently held in the deadline-delta bit cache.  The
      cache is bounded (LRU eviction), so this never exceeds a fixed
      cap no matter how many distinct [Set_deadline] deltas a session
      has answered; deltas a caller keeps re-applying stay cached. *)

  val session_vars : t -> int
  (** Boolean variables in the session's solver.  Observability for
      cache regression tests: re-applying a cached [Set_deadline]
      delta must not grow the formula (the comparator is reified
      once), even after the cache has seen eviction pressure. *)

  val describe : t -> delta -> string

  val parse_deltas : Model.problem -> string -> (delta list, string) result
  (** Parse a CLI query: comma/semicolon-separated clauses of
      ["pin <task> <ecu>"], ["forbid <task> <ecu>"],
      ["deadline <task> <d>"], ["drop deadline <task>"],
      ["drop separation <t1> <t2>"], ["drop placement <task>"],
      ["drop capacity <ecu>"], ["drop msg-deadline <id>"].  Tasks may
      be named or numbered. *)

  val verdict_to_json : t -> verdict -> Taskalloc_json.Json.t
end
