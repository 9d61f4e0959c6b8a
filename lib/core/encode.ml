(* Transformation of the allocation problem into integer formulae
   (§3), extended to hierarchical architectures (§4).

   The generated constraint system, over the {!Taskalloc_bv.Bv} integer
   layer, comprises:

   - allocation selectors for every task (eq. 4: placement and
     separation restrictions are built into the selector domain and
     pairwise exclusion clauses);
   - WCET selection (eq. 5) via one-hot constant selection;
   - response times (eq. 6) as sums of preemption-cost variables
     pc_i^j (eqs. 7-8), with the ceiling replaced by the two-sided
     integer bounds on the preemption counters I_i^j (eqs. 11-12);
   - deadline checks (eq. 13);
   - deadline-monotonic priorities (eqs. 9-10), with ties resolved
     consistently at transformation time;
   - per-ECU memory capacities as pseudo-Boolean constraints;
   - message routing over path closures (§4): a one-hot route choice
     per message whose alternatives are the simple media paths
     admissible for the message's endpoints (plus a Local alternative
     for co-located endpoints), medium-usage bits K^k_m, per-medium
     local deadlines d^k_m summing with gateway service cost to the
     end-to-end deadline, inherited jitter J^k_m along the chosen path,
     and per-medium response-time analysis — priority buses as eq. 2,
     TDMA buses as eq. 3 including the genuinely nonlinear blocking
     product Imb * (Lambda - osl).

   A flat (single-bus) architecture is simply the special case where
   every admissible path has length one. *)

open Taskalloc_sat
open Taskalloc_pb
open Taskalloc_bv
open Taskalloc_rt
open Taskalloc_topology

type objective =
  | Feasible (* no optimization: cost is constant 0 *)
  | Min_trt of int (* minimize the TDMA round (TRT) of one medium *)
  | Min_sum_trt (* minimize the sum of all TDMA rounds (Table 4) *)
  | Min_bus_load of int (* minimize permille bus load U of one medium *)
  | Min_max_util (* minimize the maximum ECU utilization (permille) *)

type alloc_encoding =
  | One_hot (* selector bit per (task, ECU) + exactly-one (default) *)
  | Binary (* the paper's integer a_i, selectors reified from equality *)

(* How the priority ties of eqs. 9-10 are resolved.  Deadlines order
   priorities (deadline-monotonic); when two deadlines are equal the
   paper lets the solver pick "an arbitrary, but consistent" order.
   [Solver_ties] gives the solver that freedom (with transitivity
   constraints making the chosen order consistent); [Static_ties]
   resolves ties by task id at transformation time. *)
type tie_breaking = Solver_ties | Static_ties

type options = {
  pb_mode : Pb.mode;
  alloc_encoding : alloc_encoding;
  tie_breaking : tie_breaking;
  max_slot : int; (* upper bound on TDMA slot-length variables *)
  lazy_mode : bool; (* CEGAR: abstract eqs. 6-12, refine on demand *)
  inprocess : bool option; (* CDCL inprocessing; None = off *)
}

let default_options =
  {
    pb_mode = Pb.Native;
    alloc_encoding = One_hot;
    tie_breaking = Solver_ties;
    max_slot = 0;
    lazy_mode = false;
    inprocess = None;
  }

(* Soft-constraint families the grouped mode tags with selector guards
   (see [encode ~groups:true]): assuming a group's selector true
   enforces the family, leaving it free (or assuming it false) relaxes
   it.  Everything else — the structural allocation, routing, and
   response-time definitions — stays hard. *)
type group_kind =
  | G_deadline of int (* task id: eq. 13 *)
  | G_msg_deadline of int (* message id: end-to-end budget *)
  | G_separation of int * int (* task pair, i < j: eq. 4 second conjunct *)
  | G_placement of int (* task id: eq. 4 admissible-set restriction *)
  | G_capacity of int (* ECU id: memory capacity *)

type group = { selector : Lit.t; kind : group_kind; descr : string }

let group_id g =
  match g.kind with
  | G_deadline i -> Printf.sprintf "deadline:%d" i
  | G_msg_deadline m -> Printf.sprintf "msg-deadline:%d" m
  | G_separation (i, j) -> Printf.sprintf "separation:%d:%d" i j
  | G_placement i -> Printf.sprintf "placement:%d" i
  | G_capacity e -> Printf.sprintf "capacity:%d" e

(* Candidate route of a message. *)
type candidate = C_local | C_path of int list

type msg_enc = {
  msg : Model.message;
  candidates : candidate array;
  route_bits : Circuits.bit array; (* one-hot over candidates *)
  use : (int, Circuits.bit) Hashtbl.t; (* medium -> K^k_m *)
  station : (int, Circuits.bit array) Hashtbl.t; (* medium -> per-ECU-index bit *)
  local_deadline : (int, Bv.t) Hashtbl.t; (* medium -> d^k_m *)
  jitter : (int, Bv.t) Hashtbl.t; (* medium -> J^k_m *)
  response : (int, Bv.t) Hashtbl.t; (* medium -> r^k_m *)
}

(* Mutable refinement state of a lazy (CEGAR) encoding.  The closures
   are built by [encode_sections] and capture the section-local
   machinery (selectors, tie bits, message encodings, slot variables)
   so a refinement emits exactly the constraints the eager encoder
   would have emitted for the same task or medium. *)
type lazy_state = {
  mutable lz_rounds : int; (* completed refinement rounds *)
  lz_task_refined : bool array; (* task id -> exact eqs. 5-13 installed *)
  lz_medium_refined : (int, unit) Hashtbl.t; (* med ids with exact eqs. 2-3 *)
  lz_refine : unit -> int; (* check model, install refinements, count *)
  lz_force_task : int -> unit; (* install one task's machinery eagerly *)
}

type t = {
  ctx : Bv.ctx;
  problem : Model.problem;
  options : options;
  allowed : int array array; (* task -> allowed ECUs *)
  sel : Circuits.bit array array; (* task -> bit per allowed-ECU index *)
  tie_bits : (int * int, Circuits.bit) Hashtbl.t;
      (* (i, j) with i < j, equal deadlines: bit <=> i higher priority *)
  response_times : Bv.t option array;
      (* task response-time terms; [None] while a lazy task is
         unrefined (eager encodings fill every slot) *)
  msg_encs : msg_enc array;
  slot_vars : (int * int, Bv.t) Hashtbl.t; (* (medium, ecu) -> slot *)
  rounds : (int, Bv.t) Hashtbl.t; (* TDMA medium -> Lambda *)
  cost : Bv.t;
  groups : group list; (* selector registry; [] unless encoded with ~groups *)
  lazy_ : lazy_state option; (* [Some] iff encoded with [lazy_mode] *)
}

let ceil_div a b = if a <= 0 then 0 else ((a - 1) / b) + 1

(* selector bit of task [i] on ECU [e] (Zero when not allowed) *)
let sel_on t i e =
  let rec find idx = function
    | [] -> Circuits.Zero
    | e' :: rest -> if e' = e then t.sel.(i).(idx) else find (idx + 1) rest
  in
  find 0 (Array.to_list t.allowed.(i))

(* ORs of selector conjunctions are ubiquitous below *)
let same_ecu_bit t i j =
  let ctx = t.ctx in
  let commons =
    Array.to_list t.allowed.(i) |> List.filter (fun e -> Array.mem e t.allowed.(j))
  in
  Bv.bor_list ctx
    (List.map (fun e -> Bv.band ctx (sel_on t i e) (sel_on t j e)) commons)

let encode_sections ?(options = default_options) ?(groups = false)
    (problem : Model.problem) (objective : objective) : t =
  let grouped = groups in
  let lazy_on = options.lazy_mode in
  let ctx = Bv.create ~mode:options.pb_mode ?inprocess:options.inprocess () in
  let arch = problem.Model.arch in
  let tasks = problem.Model.tasks in
  let topo = problem.Model.topology in
  (* selector-guard registry (grouped mode only) *)
  let reg = ref [] in
  let new_group kind descr =
    let g = Circuits.fresh (Bv.solver ctx) in
    reg := { selector = g; kind; descr } :: !reg;
    g
  in
  let tname i = tasks.(i).Model.task_name in
  let ename e = Printf.sprintf "ECU%d" e in
  (* In grouped mode every deadline-derived variable width is widened
     to the period: deadlines are baked into preemption-counter and
     response-time bounds, so without widening a dropped deadline guard
     would leave the relaxed response time clamped by the variables
     themselves and the relaxation would be vacuous.  Relaxing a
     deadline group therefore means "extend the deadline up to the
     period". *)
  let task_horizon (task : Model.task) =
    if grouped then max task.Model.deadline task.Model.period
    else task.Model.deadline
  in
  let msg_horizon (msg : Model.message) =
    if grouped then max msg.Model.msg_deadline (Model.message_period problem msg)
    else msg.Model.msg_deadline
  in
  (* WCET lookup tolerant of the extended domains of grouped mode:
     ECUs outside a task's declared set get the task's best (smallest)
     declared WCET — optimistic, so a relaxed placement never looks
     worse than reality *)
  let wcet_of (task : Model.task) e =
    match List.assoc_opt e task.Model.wcets with
    | Some c -> c
    | None -> List.fold_left (fun m (_, c) -> min m c) max_int task.Model.wcets
  in
  (* Per-constraint-family telemetry (DESIGN §4e): [obs_family name]
     closes the previous section and opens [name], charging the
     formula-size deltas (clauses / PB constraints / vars / literals)
     and the elapsed encode time to the closed family.  [""] closes
     without opening.  With observability off this is a single branch
     per section boundary. *)
  let obs_family =
    let module Obs = Taskalloc_obs.Obs in
    let s = Bv.solver ctx in
    let open_name = ref None in
    let mark = ref (0, 0, 0, 0, 0.) in
    fun name ->
      if Obs.on () then begin
        let c = Solver.n_clauses s
        and p = Solver.n_pbs s
        and v = Solver.n_vars s
        and l = Solver.n_literals s in
        let tnow = Obs.now () in
        (match !open_name with
        | None -> ()
        | Some prev ->
          let c0, p0, v0, l0, t0 = !mark in
          if Obs.metrics_on () then begin
            Obs.Metrics.incr ~by:(c - c0) ("encode." ^ prev ^ ".clauses");
            Obs.Metrics.incr ~by:(p - p0) ("encode." ^ prev ^ ".pbs");
            Obs.Metrics.incr ~by:(v - v0) ("encode." ^ prev ^ ".vars");
            Obs.Metrics.incr ~by:(l - l0) ("encode." ^ prev ^ ".lits")
          end;
          Obs.complete ("encode." ^ prev) ~start:t0 ~stop:tnow
            ~attrs:
              [
                ("clauses", string_of_int (c - c0));
                ("pbs", string_of_int (p - p0));
                ("vars", string_of_int (v - v0));
                ("lits", string_of_int (l - l0));
              ]);
        open_name := (if name = "" then None else Some name);
        mark := (c, p, v, l, tnow)
      end
  in

  (* ---- allocation selectors (eq. 4) ------------------------------- *)
  obs_family "alloc";
  let admissible =
    Array.map (fun task -> Array.of_list (Model.allowed_ecus problem task)) tasks
  in
  Array.iteri
    (fun i a ->
      if Array.length a = 0 then
        Model.invalid "task %d has no admissible ECU (all barred?)" i)
    admissible;
  (* grouped mode extends every task's domain to all non-barred ECUs
     (admissible first, extras after) so the eq. 4 restriction becomes
     relaxable; the extras are forbidden under the task's placement
     selector below *)
  let allowed =
    if not grouped then admissible
    else
      Array.map
        (fun adm ->
          let extras =
            List.init arch.Model.n_ecus Fun.id
            |> List.filter (fun e ->
                   (not (List.mem e arch.Model.barred)) && not (Array.mem e adm))
          in
          Array.append adm (Array.of_list extras))
        admissible
  in
  let sel =
    match options.alloc_encoding with
    | One_hot -> Array.map (fun a -> Bv.one_hot ctx (Array.length a)) allowed
    | Binary ->
      (* the paper's a_i: an integer variable whose equalities with the
         admissible ECU numbers are reified into selector bits *)
      Array.map
        (fun a ->
          let ai = Bv.var ctx ~hi:(arch.Model.n_ecus - 1) in
          let bits = Array.map (fun e -> Bv.eq_const ctx ai e) a in
          (* a_i must equal one of the admissible ECUs *)
          Bv.assert_ ctx (Bv.bor_list ctx (Array.to_list bits));
          bits)
        allowed
  in
  (* placement-restriction guards over the extended domains: the extra
     ECUs are only reachable when the task's placement group is off *)
  if grouped then
    Array.iteri
      (fun i adm ->
        let n_adm = Array.length adm in
        if Array.length allowed.(i) > n_adm then begin
          let adm_names =
            Array.to_list adm |> List.map ename |> String.concat ", "
          in
          let g =
            new_group (G_placement i)
              (Printf.sprintf "placement restriction of %s (allowed: %s)"
                 (tname i) adm_names)
          in
          for idx = n_adm to Array.length allowed.(i) - 1 do
            match sel.(i).(idx) with
            | Circuits.Lit l ->
              Solver.add_clause (Bv.solver ctx) [ Lit.neg g; Lit.neg l ]
            | Circuits.One -> Solver.add_clause (Bv.solver ctx) [ Lit.neg g ]
            | Circuits.Zero -> ()
          done
        end)
      admissible;
  (* priority relation p_i^j (eqs. 9-10): constants from the deadline
     order, free (but transitively consistent) bits on ties *)
  obs_family "priorities";
  let tie_bits = Hashtbl.create 8 in
  let n_tasks = Array.length tasks in
  (match options.tie_breaking with
  | Static_ties -> ()
  | Solver_ties ->
    for i = 0 to n_tasks - 1 do
      for j = i + 1 to n_tasks - 1 do
        if tasks.(i).Model.deadline = tasks.(j).Model.deadline then
          Hashtbl.replace tie_bits (i, j) (Bv.fresh_bool ctx)
      done
    done);
  (* [pr i j]: task i has higher priority than task j *)
  let pr i j =
    let di = tasks.(i).Model.deadline and dj = tasks.(j).Model.deadline in
    if di < dj then Circuits.One
    else if di > dj then Circuits.Zero
    else
      match Hashtbl.find_opt tie_bits (min i j, max i j) with
      | Some b -> if i < j then b else Circuits.bnot b
      | None -> if i < j then Circuits.One else Circuits.Zero
  in
  (* transitivity inside every equal-deadline group, so the chosen tie
     order is a genuine total order *)
  (match options.tie_breaking with
  | Static_ties -> ()
  | Solver_ties ->
    let groups = Hashtbl.create 8 in
    Array.iteri
      (fun i task ->
        let d = task.Model.deadline in
        let cur = try Hashtbl.find groups d with Not_found -> [] in
        Hashtbl.replace groups d (i :: cur))
      tasks;
    Hashtbl.iter
      (fun _ members ->
        if List.length members >= 3 then
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  List.iter
                    (fun z ->
                      if x <> y && y <> z && x <> z then
                        (* pr x y and pr y z -> pr x z *)
                        Circuits.assert_implies (Bv.solver ctx)
                          [ pr x y; pr y z ] (pr x z))
                    members)
                members)
            members)
      groups);
  let t_partial =
    {
      ctx;
      problem;
      options;
      allowed;
      sel;
      tie_bits;
      response_times = [||];
      msg_encs = [||];
      slot_vars = Hashtbl.create 16;
      rounds = Hashtbl.create 4;
      cost = Bv.const 0;
      groups = [];
      lazy_ = None;
    }
  in

  (* separation delta_i (second conjunct of eq. 4); one selector per
     unordered pair in grouped mode (declarations may be symmetric) *)
  obs_family "separation";
  let sep_groups = Hashtbl.create 8 in
  Array.iteri
    (fun i task ->
      List.iter
        (fun j ->
          let gbit =
            if not grouped then None
            else begin
              let key = (min i j, max i j) in
              match Hashtbl.find_opt sep_groups key with
              | Some g -> Some g
              | None ->
                let g =
                  new_group
                    (G_separation (min i j, max i j))
                    (Printf.sprintf "separation of %s and %s"
                       (tname (min i j)) (tname (max i j)))
                in
                Hashtbl.replace sep_groups key g;
                Some g
            end
          in
          Array.iter
            (fun e ->
              match (sel_on t_partial i e, sel_on t_partial j e) with
              | Circuits.Lit a, Circuits.Lit b ->
                let cl = [ Lit.neg a; Lit.neg b ] in
                let cl =
                  match gbit with None -> cl | Some g -> Lit.neg g :: cl
                in
                Solver.add_clause (Bv.solver ctx) cl
              | _ -> ())
            allowed.(i))
        task.Model.separation)
    tasks;

  (* memory capacities (pseudo-Boolean, per ECU) *)
  obs_family "capacities";
  for e = 0 to arch.Model.n_ecus - 1 do
    let cap = arch.Model.mem_capacity.(e) in
    if cap < max_int then begin
      let terms =
        Array.to_list tasks
        |> List.filter_map (fun task ->
               let b = sel_on t_partial task.Model.task_id e in
               if b = Circuits.Zero then None else Some (task.Model.memory, b))
      in
      if terms <> [] then begin
        let guard =
          if not grouped then None
          else
            Some
              (Circuits.Lit
                 (new_group (G_capacity e)
                    (Printf.sprintf "memory capacity of %s (%d units)"
                       (ename e) cap)))
        in
        Bv.assert_pb_le ?guard ctx terms cap
      end
    end
  done;

  (* ---- task response times (eqs. 5-13) ------------------------------ *)
  obs_family "response_times";
  let response_times = Array.make n_tasks None in
  (* deadline selectors (eq. 13 guards) exist up-front in grouped mode,
     for eager and lazy encodings alike: the Explain/Repair group
     registry must not depend on which tasks the CEGAR loop happens to
     refine *)
  let deadline_guard =
    Array.map
      (fun (task : Model.task) ->
        if not grouped then None
        else begin
          let slack = task.Model.deadline - task.Model.jitter in
          let g =
            new_group
              (G_deadline task.Model.task_id)
              (Printf.sprintf "deadline of %s (d=%d)" task.Model.task_name
                 task.Model.deadline)
          in
          if slack < 0 then Solver.add_clause (Bv.solver ctx) [ Lit.neg g ];
          Some g
        end)
      tasks
  in
  (* Exact per-task machinery of eqs. 5-13.  Eager encodings install it
     for every task here; lazy encodings call it from the refinement
     loop for exactly the tasks a spurious model touches. *)
  let install_task i =
    let task = tasks.(i) in
    (* wcet_i (eq. 5) by one-hot selection over the allowed ECUs *)
    let wcet_values = Array.map (fun e -> wcet_of task e) allowed.(i) in
    let wcet_i = Bv.select_const ctx sel.(i) wcet_values in
    (* blocking factor B_i is allocation-independent: a constant *)
    let blocking_i = Bv.const task.Model.blocking in
    (* preemption costs from every higher-priority co-locatable task *)
    let pcs = ref [] in
    let r_refs = ref [] in
    Array.iteri
      (fun j other ->
        let p_bit = pr j i in
        if j <> i && p_bit <> Circuits.Zero then begin
          let commons =
            Array.to_list allowed.(i)
            |> List.filter (fun e -> Array.mem e allowed.(j))
          in
          if commons <> [] then begin
            let same = same_ecu_bit t_partial i j in
            (* interference requires co-location AND higher priority
               of the interferer (eqs. 7-10) *)
            let guard = Bv.band ctx same p_bit in
            let i_hi =
              ceil_div (task_horizon task + other.Model.jitter)
                other.Model.period
            in
            let i_var = Bv.var ctx ~hi:i_hi in
            let pc_hi = i_hi * List.fold_left (fun m e -> max m (wcet_of other e)) 0 commons in
            let pc_var = Bv.var ctx ~hi:(min pc_hi (task_horizon task)) in
            (* eq. 8 / eq. 12: no co-location or lower priority *)
            Bv.assert_implies ctx [ Bv.bnot guard ] (Bv.eq_const ctx i_var 0);
            Bv.assert_implies ctx [ Bv.bnot guard ] (Bv.eq_const ctx pc_var 0);
            (* eq. 7: pc = I * c_j(Pi(t_j)); the product collapses to
               per-WCET-value linear cases because co-location fixes
               the ECU and hence the constant c_j *)
            let by_value = Hashtbl.create 4 in
            List.iter
              (fun e ->
                let v = wcet_of other e in
                let prev = try Hashtbl.find by_value v with Not_found -> [] in
                Hashtbl.replace by_value v (e :: prev))
              commons;
            Hashtbl.iter
              (fun v ecus ->
                let cond =
                  Bv.bor_list ctx
                    (List.map
                       (fun e ->
                         Bv.band ctx (sel_on t_partial i e) (sel_on t_partial j e))
                       ecus)
                in
                Bv.assert_implies ctx
                  [ Bv.band ctx cond p_bit ]
                  (Bv.eq ctx pc_var (Bv.mul_const ctx v i_var)))
              by_value;
            pcs := (guard, i_var, other.Model.period, other.Model.jitter) :: !pcs;
            r_refs := pc_var :: !r_refs
          end
        end)
      tasks;
    (* eq. 6: r_i = wcet_i + B_i + sum pc *)
    let r_i = Bv.sum ctx (wcet_i :: blocking_i :: !r_refs) in
    (* eq. 13, with the task's own release jitter consuming part of
       the deadline budget; guarded by the task's deadline selector
       in grouped mode *)
    let slack = task.Model.deadline - task.Model.jitter in
    (match deadline_guard.(i) with
    | Some g ->
      (* slack < 0 already forced the guard off at creation *)
      if slack >= 0 then
        Bv.assert_implies ctx [ Circuits.Lit g ] (Bv.le_const ctx r_i slack)
    | None -> Bv.assert_ ctx (Bv.le_const ctx r_i slack));
    (* eq. 11: the two-sided bound making I the ceiling of
       (r + J_j)/t_j — the interferer's release jitter inflates its
       preemption count *)
    List.iter
      (fun (guard, i_var, period, j_jitter) ->
        let prod = Bv.mul_const ctx period i_var in
        let r_plus_j =
          if j_jitter = 0 then r_i else Bv.add ctx r_i (Bv.const j_jitter)
        in
        Bv.assert_implies ctx [ guard ] (Bv.ge ctx prod r_plus_j);
        Bv.assert_implies ctx [ guard ]
          (Bv.lt ctx prod (Bv.add ctx r_plus_j (Bv.const period))))
      !pcs;
    response_times.(i) <- Some r_i
  in
  if not lazy_on then Array.iteri (fun i _ -> install_task i) tasks
  else begin
    (* Abstraction of eqs. 5-13: necessary conditions only, each one
       implied by the eager formula, so the abstraction is a relaxation
       and every Unsat answer (and every persisted lower bound) is
       final.  (a) a seat whose WCET + blocking alone overruns the
       slack is refuted under the task's deadline guard; *)
    Array.iteri
      (fun i (task : Model.task) ->
        let slack = task.Model.deadline - task.Model.jitter in
        Array.iteri
          (fun idx e ->
            if wcet_of task e + task.Model.blocking > slack then begin
              let ants =
                match deadline_guard.(i) with
                | Some g -> [ Circuits.Lit g; sel.(i).(idx) ]
                | None -> [ sel.(i).(idx) ]
              in
              Circuits.assert_implies (Bv.solver ctx) ants Circuits.Zero
            end)
          allowed.(i))
      tasks;
    (* (b) a per-ECU utilization cut, floor(1000 c/t) per task.  Sound
       only under deadline <= period for every task (then any response
       fixpoint within the horizon forces U <= 1; with deadline >
       period a task may legally overrun its period and the cut would
       refute feasible placements).  In grouped mode it additionally
       holds only while the deadline guards of the tasks on the ECU
       are enforced, so the cut is guarded by their conjunction. *)
    if Array.for_all (fun (tk : Model.task) -> tk.Model.deadline <= tk.Model.period) tasks
    then
      for e = 0 to arch.Model.n_ecus - 1 do
        let terms = ref [] and guards = ref [] in
        Array.iter
          (fun (task : Model.task) ->
            let b = sel_on t_partial task.Model.task_id e in
            if b <> Circuits.Zero then begin
              (match deadline_guard.(task.Model.task_id) with
              | Some g -> guards := Circuits.Lit g :: !guards
              | None -> ());
              let u = wcet_of task e * 1000 / task.Model.period in
              if u > 0 then terms := (u, b) :: !terms
            end)
          tasks;
        if !terms <> [] then begin
          let guard =
            if grouped then Some (Circuits.and_list (Bv.solver ctx) !guards)
            else None
          in
          Bv.assert_pb_le ?guard ctx !terms 1000
        end
      done
  end;

  (* ---- TDMA rounds and slots ------------------------------------------ *)
  obs_family "tdma";
  let max_slot =
    if options.max_slot > 0 then options.max_slot
    else begin
      (* default: the largest frame any message could put on any medium *)
      let msgs = Model.all_messages problem in
      List.fold_left
        (fun acc medium ->
          Array.fold_left
            (fun acc m -> max acc (Model.frame_time medium m))
            acc msgs)
        1 arch.Model.media
    end
  in
  let slot_vars = Hashtbl.create 16 in
  let rounds = Hashtbl.create 4 in
  List.iter
    (fun medium ->
      match medium.Model.kind with
      | Model.Priority -> ()
      | Model.Tdma ->
        let slots =
          List.map
            (fun e ->
              (* every station owns a slot of at least one tick (the
                 token must visit it), at most max_slot *)
              let s = Bv.var ctx ~hi:max_slot in
              Bv.assert_ ctx (Bv.ge_const ctx s 1);
              Hashtbl.replace slot_vars (medium.Model.med_id, e) s;
              s)
            medium.Model.ecus
        in
        Hashtbl.replace rounds medium.Model.med_id (Bv.sum ctx slots))
    arch.Model.media;

  (* ---- message routing and per-medium analysis (§4) ------------------- *)
  obs_family "routing";
  let msgs = Model.all_messages problem in
  let all_paths = Topology.simple_paths topo in
  let msg_encs =
    Array.map
      (fun (msg : Model.message) ->
        let src = msg.Model.src and dst = msg.Model.dst in
        let src_allowed = allowed.(src) and dst_allowed = allowed.(dst) in
        let can_be_local =
          Array.exists (fun e -> Array.mem e dst_allowed) src_allowed
        in
        let paths =
          List.filter
            (fun path ->
              let senders, receivers = Topology.endpoint_ecus topo path in
              List.exists (fun e -> Array.mem e src_allowed) senders
              && List.exists (fun e -> Array.mem e dst_allowed) receivers)
            all_paths
        in
        let candidates =
          Array.of_list
            ((if can_be_local then [ C_local ] else [])
            @ List.map (fun p -> C_path p) paths)
        in
        if Array.length candidates = 0 then
          Model.invalid "message %d has no admissible route" msg.Model.msg_id;
        let route_bits = Bv.one_hot ctx (Array.length candidates) in
        {
          msg;
          candidates;
          route_bits;
          use = Hashtbl.create 4;
          station = Hashtbl.create 4;
          local_deadline = Hashtbl.create 4;
          jitter = Hashtbl.create 4;
          response = Hashtbl.create 4;
        })
      msgs
  in

  let t =
    { t_partial with response_times; msg_encs; slot_vars; rounds }
  in

  (* route structural constraints *)
  Array.iter
    (fun enc ->
      let msg = enc.msg in
      let src = msg.Model.src and dst = msg.Model.dst in
      let same = same_ecu_bit t src dst in
      Array.iteri
        (fun c_idx cand ->
          let r = enc.route_bits.(c_idx) in
          match cand with
          | C_local ->
            (* Local <-> co-located *)
            Bv.assert_implies ctx [ r ] same
          | C_path path ->
            (* a bus route implies distinct ECUs *)
            Bv.assert_implies ctx [ r ] (Bv.bnot same);
            (* v(h): endpoint placement *)
            let senders, receivers = Topology.endpoint_ecus topo path in
            let sender_ok =
              Bv.bor_list ctx
                (List.filter_map
                   (fun e ->
                     if Array.mem e allowed.(src) then Some (sel_on t src e) else None)
                   senders)
            in
            let receiver_ok =
              Bv.bor_list ctx
                (List.filter_map
                   (fun e ->
                     if Array.mem e allowed.(dst) then Some (sel_on t dst e) else None)
                   receivers)
            in
            Bv.assert_implies ctx [ r ] sender_ok;
            Bv.assert_implies ctx [ r ] receiver_ok)
        enc.candidates;
      (* co-located -> Local (when a Local candidate exists; otherwise
         co-location is impossible and [same] is refuted above) *)
      (match enc.candidates.(0) with
      | C_local -> Bv.assert_implies ctx [ same ] enc.route_bits.(0)
      | C_path _ -> Bv.assert_implies ctx [ same ] Circuits.Zero);
      (* medium usage bits K^k_m *)
      let media_of_candidates =
        Array.to_list enc.candidates
        |> List.concat_map (function C_local -> [] | C_path p -> p)
        |> List.sort_uniq Int.compare
      in
      List.iter
        (fun k ->
          let bit =
            Bv.bor_list ctx
              (Array.to_list
                 (Array.mapi
                    (fun c_idx cand ->
                      match cand with
                      | C_path p when List.mem k p -> enc.route_bits.(c_idx)
                      | _ -> Circuits.Zero)
                    enc.candidates))
          in
          Hashtbl.replace enc.use k bit)
        media_of_candidates;
      (* station one-hot on each usable medium *)
      List.iter
        (fun k ->
          let medium = Model.medium_by_id problem k in
          let ecus = Array.of_list medium.Model.ecus in
          let bits =
            Array.map
              (fun e ->
                (* station is e iff some route puts m on k with e as the
                   emitting ECU *)
                let cases =
                  Array.to_list
                    (Array.mapi
                       (fun c_idx cand ->
                         match cand with
                         | C_local -> Circuits.Zero
                         | C_path p ->
                           if not (List.mem k p) then Circuits.Zero
                           else begin
                             let r = enc.route_bits.(c_idx) in
                             match p with
                             | first :: _ when first = k ->
                               (* sender's own ECU *)
                               Bv.band ctx r (sel_on t src e)
                             | _ ->
                               (* the gateway entering k *)
                               let rec entry prev = function
                                 | [] -> Circuits.Zero
                                 | k' :: rest ->
                                   if k' = k then
                                     match prev with
                                     | Some p_med ->
                                       (match Topology.gateway_between topo p_med k with
                                       | Some g when g = e -> r
                                       | _ -> Circuits.Zero)
                                     | None -> Circuits.Zero
                                   else entry (Some k') rest
                               in
                               entry None p
                           end)
                       enc.candidates)
                in
                Bv.bor_list ctx cases)
              ecus
          in
          Hashtbl.replace enc.station k bits)
        media_of_candidates;
      (* local deadlines, jitter, response variables per usable medium;
         widths follow the (possibly widened) message horizon *)
      let delta = msg.Model.msg_deadline in
      let hor = msg_horizon msg in
      List.iter
        (fun k ->
          let u = Hashtbl.find enc.use k in
          let d_k = Bv.var ctx ~hi:hor in
          let j_k = Bv.var ctx ~hi:hor in
          let r_k = Bv.var ctx ~hi:hor in
          Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx d_k 0);
          Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx j_k 0);
          Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx r_k 0);
          (* schedulability on the medium: r <= local deadline *)
          Bv.assert_implies ctx [ u ] (Bv.le ctx r_k d_k);
          let medium = Model.medium_by_id problem k in
          let rho = Model.frame_time medium msg in
          (* the response (eq. 2/3 right-hand side) starts at rho, so
             rho is a hard lower bound on both r and d whether or not
             the exact equations are installed yet — on the lazy path
             this prunes routes through over-slow media upfront *)
          if lazy_on then begin
            Bv.assert_implies ctx [ u ] (Bv.ge_const ctx r_k rho);
            Bv.assert_implies ctx [ u ] (Bv.ge_const ctx d_k rho)
          end;
          (* a TDMA station's slot must fit every frame it emits on the
             medium — structural (slot sizing), not response analysis,
             so it lives here in both eager and lazy encodings *)
          (match medium.Model.kind with
          | Model.Priority -> ()
          | Model.Tdma ->
            let st = Hashtbl.find enc.station k in
            List.iteri
              (fun idx e ->
                let slot = Hashtbl.find slot_vars (k, e) in
                Bv.assert_implies ctx [ st.(idx) ] (Bv.ge_const ctx slot rho))
              medium.Model.ecus);
          Hashtbl.replace enc.local_deadline k d_k;
          Hashtbl.replace enc.jitter k j_k;
          Hashtbl.replace enc.response k r_k)
        media_of_candidates;
      (* jitter chains per candidate path *)
      Array.iteri
        (fun c_idx cand ->
          match cand with
          | C_local -> ()
          | C_path path ->
            let r = enc.route_bits.(c_idx) in
            let rec walk upstream = function
              | [] -> ()
              | k :: rest ->
                let j_k = Hashtbl.find enc.jitter k in
                (match upstream with
                | [] -> Bv.assert_implies ctx [ r ] (Bv.eq_const ctx j_k 0)
                | ups ->
                  (* J^k = sum_{k' before k} (d^{k'} - beta^{k'})
                     encoded additively: J^k + sum beta = sum d *)
                  let betas =
                    List.fold_left
                      (fun acc k' ->
                        acc
                        + Model.best_case_time (Model.medium_by_id problem k') msg)
                      0 ups
                  in
                  let d_sum =
                    Bv.sum ctx (List.map (fun k' -> Hashtbl.find enc.local_deadline k') ups)
                  in
                  Bv.assert_implies ctx [ r ]
                    (Bv.eq ctx (Bv.add ctx j_k (Bv.const betas)) d_sum));
                walk (upstream @ [ k ]) rest
            in
            walk [] path)
        enc.candidates;
      (* end-to-end budget: sum of local deadlines + gateway service *)
      let serv_values =
        Array.map
          (function
            | C_local -> 0
            | C_path p -> (List.length p - 1) * arch.Model.gateway_service)
          enc.candidates
      in
      let serv = Bv.select_const ctx enc.route_bits serv_values in
      let d_total =
        Bv.sum ctx
          (serv
          :: List.map (fun k -> Hashtbl.find enc.local_deadline k) media_of_candidates)
      in
      if grouped then begin
        let g =
          new_group
            (G_msg_deadline msg.Model.msg_id)
            (Printf.sprintf "end-to-end deadline of message %d (%s -> %s, D=%d)"
               msg.Model.msg_id (tname src) (tname dst) delta)
        in
        Bv.assert_implies ctx [ Circuits.Lit g ] (Bv.le_const ctx d_total delta)
      end
      else Bv.assert_ ctx (Bv.le_const ctx d_total delta))
    msg_encs;

  (* Bus counterpart of the utilization cut (lazy only): messages that
     may share a priority bus must fit its bandwidth.  Sound because
     r <= d <= horizon is hard even in grouped mode (d's width is the
     horizon), provided every potential user's deadline is within its
     period — the same busy-window argument as for ECUs.  TDMA media
     are excluded: their capacity splits per station and the slot-fit
     constraints above already bound them. *)
  if lazy_on then
    List.iter
      (fun medium ->
        match medium.Model.kind with
        | Model.Tdma -> ()
        | Model.Priority ->
          let k = medium.Model.med_id in
          let users =
            Array.to_list msg_encs
            |> List.filter (fun enc -> Hashtbl.mem enc.use k)
          in
          let bounded_deadlines =
            List.for_all
              (fun enc ->
                enc.msg.Model.msg_deadline
                <= Model.message_period problem enc.msg)
              users
          in
          if bounded_deadlines then begin
            let terms =
              List.filter_map
                (fun enc ->
                  let u = Hashtbl.find enc.use k in
                  let w =
                    Model.frame_time medium enc.msg
                    * 1000
                    / Model.message_period problem enc.msg
                  in
                  if w > 0 && u <> Circuits.Zero then Some (w, u) else None)
                users
            in
            if terms <> [] then Bv.assert_pb_le ctx terms 1000
          end)
      arch.Model.media;

  (* Per-medium response-time equations, with cross-message
     interference (eq. 2 for priority buses, eq. 3 for TDMA).  Eager
     encodings install every medium here; lazy encodings install a
     medium from the refinement loop the first time a candidate model
     mispredicts a response on it. *)
  let medium_installed : (int, unit) Hashtbl.t = Hashtbl.create 4 in
  let install_medium k =
    if not (Hashtbl.mem medium_installed k) then begin
      Hashtbl.replace medium_installed k ();
      let medium = Model.medium_by_id problem k in
      let users =
        Array.to_list msg_encs |> List.filter (fun enc -> Hashtbl.mem enc.use k)
      in
      List.iter
        (fun enc ->
          let msg = enc.msg in
          let u = Hashtbl.find enc.use k in
          let r_k = Hashtbl.find enc.response k in
          let rho = Model.frame_time medium msg in
          let hor = msg_horizon msg in
          (* interference variables from higher-priority users *)
          let interference_terms = ref [] in
          List.iter
            (fun enc' ->
              let msg' = enc'.msg in
              if msg'.Model.msg_id <> msg.Model.msg_id
                 && Model.msg_higher_prio msg' msg
              then begin
                let u' = Hashtbl.find enc'.use k in
                let t_m' = Model.message_period problem msg' in
                let rho' = Model.frame_time medium msg' in
                let cond =
                  match medium.Model.kind with
                  | Model.Priority -> Bv.band ctx u u'
                  | Model.Tdma ->
                    (* same emitting station required *)
                    let st = Hashtbl.find enc.station k
                    and st' = Hashtbl.find enc'.station k in
                    let same_station =
                      Bv.bor_list ctx
                        (List.init (Array.length st) (fun idx ->
                             Bv.band ctx st.(idx) st'.(idx)))
                    in
                    Bv.band ctx (Bv.band ctx u u') same_station
                in
                let i_hi = ceil_div hor t_m' in
                let i_var = Bv.var ctx ~hi:(max i_hi 1) in
                Bv.assert_implies ctx [ Bv.bnot cond ] (Bv.eq_const ctx i_var 0);
                let j' = Hashtbl.find enc'.jitter k in
                let prod = Bv.mul_const ctx t_m' i_var in
                let r_plus_j = Bv.add ctx r_k j' in
                Bv.assert_implies ctx [ cond ] (Bv.ge ctx prod r_plus_j);
                Bv.assert_implies ctx [ cond ]
                  (Bv.lt ctx prod (Bv.add ctx r_plus_j (Bv.const t_m')));
                interference_terms := Bv.mul_const ctx rho' i_var :: !interference_terms
              end)
            users;
          (* TDMA blocking term (nonlinear: Imb * (Lambda - osl)) *)
          let block_terms =
            match medium.Model.kind with
            | Model.Priority -> []
            | Model.Tdma ->
              let lambda = Hashtbl.find rounds k in
              let st = Hashtbl.find enc.station k in
              let ecus = Array.of_list medium.Model.ecus in
              let osl = Bv.var ctx ~hi:max_slot in
              Array.iteri
                (fun idx e ->
                  let slot = Hashtbl.find slot_vars (k, e) in
                  (* slot-fit (slot >= rho) is asserted structurally in
                     the routing section *)
                  Bv.assert_implies ctx [ st.(idx) ] (Bv.eq ctx osl slot))
                ecus;
              Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx osl 0);
              let diff = Bv.sub_asserting ctx lambda osl in
              let n_stations = List.length medium.Model.ecus in
              let imb_hi = max 1 (ceil_div hor n_stations) in
              let imb = Bv.var ctx ~hi:imb_hi in
              Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx imb 0);
              let prod = Bv.mul ctx imb lambda in
              Bv.assert_implies ctx [ u ] (Bv.ge ctx prod r_k);
              Bv.assert_implies ctx [ u ] (Bv.lt ctx prod (Bv.add ctx r_k lambda));
              (* one-time blocking of (osl - 1) ticks: the frame may
                 just miss its own slot; see Analysis.tdma_response_time
                 for why this term is needed on top of the paper's
                 literal eq. 3 *)
              let own_slot_loss = Bv.var ctx ~hi:max_slot in
              Bv.assert_implies ctx [ Bv.bnot u ] (Bv.eq_const ctx own_slot_loss 0);
              Bv.assert_implies ctx [ u ]
                (Bv.eq ctx (Bv.add ctx own_slot_loss (Bv.const 1)) osl);
              [ own_slot_loss; Bv.mul ctx imb diff ]
          in
          let rhs = Bv.sum ctx ((Bv.const rho :: !interference_terms) @ block_terms) in
          Bv.assert_implies ctx [ u ] (Bv.eq ctx r_k rhs))
        users
    end
  in
  if not lazy_on then
    List.iter (fun medium -> install_medium medium.Model.med_id) arch.Model.media;

  (* ---- objective -------------------------------------------------------- *)
  obs_family "objective";
  let cost =
    match objective with
    | Feasible -> Bv.const 0
    | Min_trt k ->
      (match Hashtbl.find_opt rounds k with
      | Some lambda -> lambda
      | None -> Model.invalid "medium %d is not TDMA: no TRT to minimize" k)
    | Min_sum_trt ->
      let all = Hashtbl.fold (fun _ l acc -> l :: acc) rounds [] in
      if all = [] then Model.invalid "no TDMA medium in the architecture";
      Bv.sum ctx all
    | Min_bus_load k ->
      let medium = Model.medium_by_id problem k in
      let terms =
        Array.to_list msg_encs
        |> List.filter_map (fun enc ->
               match Hashtbl.find_opt enc.use k with
               | None -> None
               | Some u ->
                 let w =
                   Model.frame_time medium enc.msg
                   * 1000
                   / Model.message_period problem enc.msg
                 in
                 Some (Bv.ite ctx u (Bv.const (max w 1)) (Bv.const 0)))
      in
      Bv.sum ctx terms
    | Min_max_util ->
      let cost = Bv.var ctx ~hi:1000 in
      for e = 0 to arch.Model.n_ecus - 1 do
        let terms =
          Array.to_list tasks
          |> List.filter_map (fun task ->
                 let b = sel_on t task.Model.task_id e in
                 if b = Circuits.Zero then None
                 else begin
                   let u = wcet_of task e * 1000 / task.Model.period in
                   Some (Bv.ite ctx b (Bv.const (max u 1)) (Bv.const 0))
                 end)
        in
        if terms <> [] then
          Bv.assert_ ctx (Bv.ge ctx cost (Bv.sum ctx terms))
      done;
      cost
  in
  obs_family "";
  (* ---- CEGAR refinement state (lazy mode) ------------------------------ *)
  (* The checker re-derives, from the candidate model alone, the exact
     response-time fixpoints the eager formula would force — same
     priorities (deadline order + model tie bits), same optimistic
     WCETs, same variable caps, same deadline-guard semantics (a guard
     false in the model relaxes the deadline to the horizon).  A task
     or medium whose fixpoint the model cannot support is refined by
     installing its exact constraints; everything installed is implied
     by the eager formula, so refinement only ever shrinks the model
     set towards the eager one. *)
  let lazy_ =
    if not lazy_on then None
    else begin
      let module Obs = Taskalloc_obs.Obs in
      let task_refined = Array.make n_tasks false in
      let model_bit b = Bv.model_bool ctx b in
      let ecu_of i =
        let chosen = ref (-1) in
        Array.iteri
          (fun idx b -> if model_bit b then chosen := allowed.(i).(idx))
          sel.(i);
        !chosen
      in
      let task_ok seats i =
        let task = tasks.(i) in
        let e = seats.(i) in
        if e < 0 then false
        else begin
          let c = wcet_of task e and b = task.Model.blocking in
          let slack = task.Model.deadline - task.Model.jitter in
          let enforced =
            match deadline_guard.(i) with
            | None -> true
            | Some g -> model_bit (Circuits.Lit g)
          in
          let limit = if enforced then slack else task_horizon task in
          if limit < 0 then false
          else begin
            let intf = ref [] in
            Array.iteri
              (fun j (other : Model.task) ->
                if j <> i && seats.(j) = e && model_bit (pr j i) then
                  intf :=
                    (wcet_of other e, other.Model.period, other.Model.jitter)
                    :: !intf)
              tasks;
            let rec fix r =
              let r' =
                c + b
                + List.fold_left
                    (fun acc (cj, tj, jj) -> acc + (ceil_div (r + jj) tj * cj))
                    0 !intf
              in
              if r' > limit then false else if r' = r then true else fix r'
            in
            fix (c + b)
          end
        end
      in
      let medium_ok (medium : Model.medium) =
        let k = medium.Model.med_id in
        let active =
          Array.to_list msg_encs
          |> List.filter (fun enc ->
                 match Hashtbl.find_opt enc.use k with
                 | Some u -> model_bit u
                 | None -> false)
        in
        let station_idx enc =
          match Hashtbl.find_opt enc.station k with
          | None -> -1
          | Some st ->
            let r = ref (-1) in
            Array.iteri (fun idx b -> if model_bit b then r := idx) st;
            !r
        in
        List.for_all
          (fun enc ->
            let msg = enc.msg in
            let rho = Model.frame_time medium msg in
            let hor = msg_horizon msg in
            let d = Bv.model_int ctx (Hashtbl.find enc.local_deadline k) in
            let my_st = station_idx enc in
            let intf =
              List.filter_map
                (fun enc' ->
                  if
                    enc'.msg.Model.msg_id <> msg.Model.msg_id
                    && Model.msg_higher_prio enc'.msg msg
                    && (match medium.Model.kind with
                       | Model.Priority -> true
                       | Model.Tdma -> my_st >= 0 && station_idx enc' = my_st)
                  then begin
                    let t_m' = Model.message_period problem enc'.msg in
                    let rho' = Model.frame_time medium enc'.msg in
                    let j' = Bv.model_int ctx (Hashtbl.find enc'.jitter k) in
                    (* the eager counter's cap: exceeding it means no
                       extension of this model satisfies eq. 11 *)
                    let cap = max (ceil_div hor t_m') 1 in
                    Some (rho', t_m', j', cap)
                  end
                  else None)
                active
            in
            let tdma =
              match medium.Model.kind with
              | Model.Priority -> Some None
              | Model.Tdma ->
                if my_st < 0 then None (* no station: model inconsistent *)
                else begin
                  let lambda = Bv.model_int ctx (Hashtbl.find rounds k) in
                  let ecus = Array.of_list medium.Model.ecus in
                  let osl =
                    Bv.model_int ctx (Hashtbl.find slot_vars (k, ecus.(my_st)))
                  in
                  let imb_cap =
                    max 1 (ceil_div hor (List.length medium.Model.ecus))
                  in
                  Some (Some (lambda, osl, imb_cap))
                end
            in
            match tdma with
            | None -> false
            | Some tdma ->
              let step r =
                let acc =
                  List.fold_left
                    (fun acc (rho', t_m', j', cap) ->
                      match acc with
                      | None -> None
                      | Some a ->
                        let i = ceil_div (r + j') t_m' in
                        if i > cap then None else Some (a + (i * rho')))
                    (Some rho) intf
                in
                match (tdma, acc) with
                | Some (lambda, osl, imb_cap), Some a ->
                  let imb = ceil_div r lambda in
                  if imb > imb_cap then None
                  else Some (a + (osl - 1) + (imb * (lambda - osl)))
                | _ -> acc
              in
              let rec fix r =
                match step r with
                | None -> false
                | Some r' ->
                  if r' > d then false else if r' = r then true else fix r'
              in
              fix rho)
          active
      in
      let refine_model () =
        Obs.span "cegar.round" (fun () ->
            let seats = Array.init n_tasks ecu_of in
            let bad_tasks =
              List.init n_tasks Fun.id
              |> List.filter (fun i ->
                     (not task_refined.(i)) && not (task_ok seats i))
            in
            let bad_media =
              List.filter
                (fun (medium : Model.medium) ->
                  (not (Hashtbl.mem medium_installed medium.Model.med_id))
                  && not (medium_ok medium))
                arch.Model.media
            in
            (* all model reads above happen before any install below
               grows the formula *)
            List.iter
              (fun i ->
                install_task i;
                task_refined.(i) <- true)
              bad_tasks;
            List.iter
              (fun (m : Model.medium) -> install_medium m.Model.med_id)
              bad_media;
            let n = List.length bad_tasks + List.length bad_media in
            if n > 0 && Obs.metrics_on () then begin
              Obs.Metrics.incr "cegar.rounds";
              Obs.Metrics.incr ~by:(List.length bad_tasks) "cegar.refined_tasks";
              Obs.Metrics.incr ~by:(List.length bad_media) "cegar.refined_media";
              Obs.Metrics.set "cegar.bool_vars" (Bv.n_bool_vars ctx);
              Obs.Metrics.set "cegar.literals" (Bv.n_literals ctx)
            end;
            (* live watchers see each refinement round as it lands *)
            if n > 0 && Obs.sample_hook_installed () then
              Obs.emit_sample "cegar.round"
                [
                  ("refined_tasks", float_of_int (List.length bad_tasks));
                  ("refined_media", float_of_int (List.length bad_media));
                  ("bool_vars", float_of_int (Bv.n_bool_vars ctx));
                ];
            n)
      in
      let force_task i =
        if not task_refined.(i) then begin
          install_task i;
          task_refined.(i) <- true
        end
      in
      Some
        {
          lz_rounds = 0;
          lz_task_refined = task_refined;
          lz_medium_refined = medium_installed;
          lz_refine = refine_model;
          lz_force_task = force_task;
        }
    end
  in
  { t with cost; groups = List.rev !reg; lazy_ }

let encode ?options ?groups problem objective =
  let module Obs = Taskalloc_obs.Obs in
  Obs.span "encode" (fun () ->
      let t = encode_sections ?options ?groups problem objective in
      if Obs.metrics_on () then begin
        Obs.Metrics.set "encode.bool_vars" (Bv.n_bool_vars t.ctx);
        Obs.Metrics.set "encode.literals" (Bv.n_literals t.ctx);
        Obs.Metrics.set "encode.int_vars" (Bv.n_int_vars t.ctx);
        Obs.Metrics.incr ~by:(List.length t.groups) "encode.groups";
        Obs.Metrics.incr "encode.count";
        if t.lazy_ <> None then begin
          (* size of the CEGAR abstraction before any refinement *)
          Obs.Metrics.set "encode.abstraction.bool_vars" (Bv.n_bool_vars t.ctx);
          Obs.Metrics.set "encode.abstraction.literals" (Bv.n_literals t.ctx)
        end
      end;
      t)

(* ---- model extraction ---------------------------------------------------- *)

(* Read a complete allocation out of the solver's current model. *)
let extract t : Model.allocation =
  let ctx = t.ctx in
  let task_ecu =
    Array.mapi
      (fun i sel_row ->
        let chosen = ref (-1) in
        Array.iteri
          (fun idx b -> if Bv.model_bool ctx b then chosen := t.allowed.(i).(idx))
          sel_row;
        if !chosen < 0 then Model.invalid "task %d has no selected ECU in model" i;
        !chosen)
      t.sel
  in
  let msg_route =
    Array.map
      (fun enc ->
        let chosen = ref None in
        Array.iteri
          (fun idx b -> if Bv.model_bool ctx b then chosen := Some enc.candidates.(idx))
          enc.route_bits;
        match !chosen with
        | Some C_local -> Model.Local
        | Some (C_path p) -> Model.Path p
        | None -> Model.invalid "message %d has no selected route in model" enc.msg.Model.msg_id)
      t.msg_encs
  in
  let slots = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (k, e) var -> Hashtbl.replace slots (k, e) (Bv.model_int ctx var))
    t.slot_vars;
  (* priority order: deadline-monotonic with the model's tie choices.
     Transitivity constraints make the tie relation a strict total
     order, so sorting with it is well defined. *)
  let tasks = t.problem.Model.tasks in
  let higher i j =
    let di = tasks.(i).Model.deadline and dj = tasks.(j).Model.deadline in
    if di <> dj then di < dj
    else
      match Hashtbl.find_opt t.tie_bits (min i j, max i j) with
      | Some b ->
        let b_val = Bv.model_bool ctx b in
        if i < j then b_val else not b_val
      | None -> i < j
  in
  let order =
    List.sort
      (fun i j -> if higher i j then -1 else 1)
      (List.init (Array.length tasks) Fun.id)
  in
  let rank = Array.make (Array.length tasks) 0 in
  List.iteri (fun pos i -> rank.(i) <- pos) order;
  { Model.task_ecu; msg_route; slots; priority_rank = Some rank }

let cost_term t = t.cost
let context t = t.ctx
let groups t = t.groups
let find_group t kind = List.find_opt (fun g -> g.kind = kind) t.groups

(* selector bit of task [i] on ECU [e] for what-if pinning; [Zero] when
   the ECU is outside the task's (possibly extended) domain *)
let task_selector t ~task ~ecu = sel_on t task ecu

(* In lazy mode a caller asking for a response-time term (e.g. a
   what-if deadline delta) forces that task's exact machinery in. *)
let response_time t i =
  (match t.lazy_ with
  | Some lz when not lz.lz_task_refined.(i) -> lz.lz_force_task i
  | Some _ | None -> ());
  match t.response_times.(i) with
  | Some r -> r
  | None -> assert false (* eager encodings fill every slot *)

(* ---- CEGAR refinement interface ------------------------------------- *)

module Lazy = struct
  let is_lazy t = t.lazy_ <> None

  let refine t =
    match t.lazy_ with
    | None -> 0
    | Some lz ->
      let n = lz.lz_refine () in
      if n > 0 then lz.lz_rounds <- lz.lz_rounds + 1;
      n

  let rounds t = match t.lazy_ with None -> 0 | Some lz -> lz.lz_rounds

  let refined_tasks t =
    match t.lazy_ with
    | None -> Array.length t.problem.Model.tasks
    | Some lz ->
      Array.fold_left (fun n r -> if r then n + 1 else n) 0 lz.lz_task_refined

  let refined_media t =
    match t.lazy_ with
    | None -> List.length t.problem.Model.arch.Model.media
    | Some lz -> Hashtbl.length lz.lz_medium_refined
end

(* Formula-size statistics, as reported in the paper's tables. *)
let n_bool_vars t = Bv.n_bool_vars t.ctx
let n_literals t = Bv.n_literals t.ctx
