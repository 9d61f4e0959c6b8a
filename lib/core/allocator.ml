(* Top-level optimal allocator: encode the problem, minimize the
   objective with BIN_SEARCH, extract the allocation from the optimal
   model, and validate it with the independent fixed-point checker of
   [taskalloc_rt].  The validation step is not part of the paper's
   pipeline — it is our guard against encoder/checker divergence, and
   it runs on every result.

   The allocator is deadline-aware: under a {!Budget.t} it degrades
   gracefully instead of failing —

     proven optimum
       -> anytime incumbent from the interrupted binary search,
          re-validated by the analytical checker, with the proven
          lower bound and optimality gap
       -> heuristic fallback (greedy / random search / annealing)
          when the budget expired before any incumbent existed
       -> [Unknown]

   Every answer carries its provenance in [quality], so callers always
   know which rung of the ladder they got. *)

open Taskalloc_rt
open Taskalloc_opt
open Taskalloc_heuristics
module Budget = Taskalloc_sat.Budget
module Obs = Taskalloc_obs.Obs

(* Provenance of a returned allocation. *)
type quality =
  | Optimal  (** proven optimal by a completed binary search *)
  | Anytime of { lower_bound : int }
      (** best incumbent of a budget-interrupted search; the true
          optimum lies in [lower_bound, cost] *)
  | Heuristic of string
      (** produced by the named fallback heuristic; no bound proved *)

type result = {
  allocation : Model.allocation;
  cost : int;
  quality : quality;
  stats : Opt.stats;
  violations : Check.violation list; (* empty unless the encoder disagrees
                                        with the analytical checker *)
  bool_vars : int; (* formula size of the final encoding *)
  literals : int;
}

type outcome = Solved of result | Infeasible | Unknown

let gap (r : result) =
  match r.quality with
  | Optimal -> Some 0.
  | Anytime { lower_bound } ->
    if r.cost <= lower_bound then Some 0.
    else Some (float_of_int (r.cost - lower_bound) /. float_of_int r.cost)
  | Heuristic _ -> None

let pp_quality ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Anytime { lower_bound } ->
    Fmt.pf ppf "anytime (search stopped early, optimum in [%d, cost])" lower_bound
  | Heuristic name -> Fmt.pf ppf "heuristic fallback (%s)" name

(* Objective mapping for the heuristic fallback rung.  [Feasible] has
   no cost to preserve, so any total objective will do. *)
let heuristic_objective : Encode.objective -> Heuristics.objective = function
  | Encode.Min_trt k -> Heuristics.Trt k
  | Encode.Min_sum_trt -> Heuristics.Sum_trt
  | Encode.Min_bus_load k -> Heuristics.Bus_load k
  | Encode.Min_max_util | Encode.Feasible -> Heuristics.Max_util

let solve ?(options = Encode.default_options) ?(mode = Opt.Incremental)
    ?(jobs = 1) ?budget ?(gap_tol = 0.) ?(fallback = true)
    (problem : Model.problem) (objective : Encode.objective) : outcome =
  let last_size = ref (0, 0) in
  (* thread the encoding through on_sat so extraction sees the matching
     selector handles even in Fresh mode, where every probe re-encodes.
     In portfolio mode ([jobs > 1]) build/on_sat run concurrently on
     several domains, so the association is keyed by context under a
     lock rather than kept in a single "current" ref. *)
  let lock = Mutex.create () in
  let encs : (Taskalloc_bv.Bv.ctx * Encode.t) list ref = ref [] in
  let build () =
    let enc = Encode.encode ~options problem objective in
    let ctx = Encode.context enc in
    Mutex.lock lock;
    encs := (ctx, enc) :: !encs;
    last_size := (Encode.n_bool_vars enc, Encode.n_literals enc);
    Mutex.unlock lock;
    (ctx, Encode.cost_term enc)
  in
  let enc_of ctx =
    Mutex.lock lock;
    let enc = List.assq_opt ctx !encs in
    Mutex.unlock lock;
    enc
  in
  let on_sat ctx _cost =
    match enc_of ctx with
    | Some enc -> Obs.span "decode" (fun () -> Encode.extract enc)
    | None -> assert false
  in
  (* CEGAR driver: on lazy encodings every Sat probe is checked against
     the exact analysis and refined until the model is genuine; on
     eager encodings [Encode.Lazy.refine] is a constant 0 and the hook
     is inert *)
  let refine ctx =
    match enc_of ctx with
    | Some enc ->
      let n = Encode.Lazy.refine enc in
      if n > 0 then begin
        (* keep the reported formula size honest: refinements grow it *)
        Mutex.lock lock;
        last_size :=
          ( max (fst !last_size) (Encode.n_bool_vars enc),
            max (snd !last_size) (Encode.n_literals enc) );
        Mutex.unlock lock
      end;
      n
    | None -> 0
  in
  let anytime, stats =
    Obs.span "solve"
      ~attrs:[ ("jobs", string_of_int jobs) ]
      (fun () ->
        Opt.minimize ~mode ~jobs ~refine ?budget ~gap_tol ~build ~on_sat ())
  in
  (* optima, anytime incumbents and heuristic fallbacks alike are
     re-checked by the independent analyzer before being handed out *)
  let solved quality (cost, allocation) =
    let violations =
      Obs.span "validate" (fun () -> Check.check problem allocation)
    in
    let bool_vars, literals = !last_size in
    Solved { allocation; cost; quality; stats; violations; bool_vars; literals }
  in
  match (anytime.Opt.resolution, anytime.Opt.incumbent) with
  | Opt.Infeasible, _ -> Infeasible
  | Opt.Optimal, Some incumbent -> solved Optimal incumbent
  | Opt.Feasible_budget_exhausted, Some incumbent ->
    solved (Anytime { lower_bound = anytime.Opt.lower_bound }) incumbent
  | (Opt.Optimal | Opt.Feasible_budget_exhausted), None ->
    assert false (* the optimizer guarantees an incumbent here *)
  | Opt.Unknown, _ ->
    (* no incumbent at all: last rung of the ladder *)
    if not fallback then Unknown
    else begin
      match
        Obs.span "heuristic" (fun () ->
            Heuristics.best_effort problem (heuristic_objective objective))
      with
      | None -> Unknown
      | Some (name, allocation, cost) ->
        solved (Heuristic name) (cost, allocation)
    end

(* -- incremental integration (§6) -------------------------------------- *)

(* The paper notes that industrial systems are integrated incrementally:
   "typically only parts of the complete system (so called functions or
   features) are integrated at a time".  [solve_incremental] supports
   this workflow: tasks already integrated keep their ECU (their
   admissible set is narrowed to the existing placement) and only the
   new tasks are free.  Routes and slots are re-optimized globally so
   the new traffic is accommodated. *)
let solve_incremental ?options ?mode ?jobs ?budget ?gap_tol ?fallback
    ~(existing : Model.allocation)
    (problem : Model.problem) (objective : Encode.objective) : outcome =
  let n_existing = Array.length existing.Model.task_ecu in
  let tasks =
    Array.to_list problem.Model.tasks
    |> List.map (fun task ->
           if task.Model.task_id < n_existing then begin
             let e = existing.Model.task_ecu.(task.Model.task_id) in
             match List.assoc_opt e task.Model.wcets with
             | Some c -> { task with Model.wcets = [ (e, c) ] }
             | None ->
               Model.invalid
                 "existing placement puts task %d on ECU %d it cannot run on"
                 task.Model.task_id e
           end
           else task)
  in
  let pinned = Model.make_problem ~arch:problem.Model.arch ~tasks in
  solve ?options ?mode ?jobs ?budget ?gap_tol ?fallback pinned
    objective

let pp_result ppf { cost; quality; stats; violations; bool_vars; literals; _ } =
  Fmt.pf ppf "cost=%d [%a] %a vars=%d lits=%d%s" cost pp_quality quality
    Opt.pp_stats stats bool_vars literals
    (if violations = [] then "" else " INVALID")
