(* Differential and certifying fuzzing of the solver stack.

   Instances are kept small enough (<= 16 variables) that a brute-force
   enumeration over all assignments is an unimpeachable oracle.  The
   solver's Sat answers are re-evaluated semantically; its Unsat
   answers must come with a DRUP trace the independent checker accepts.
   Every case derives from one integer seed, so a report line is a
   complete reproduction recipe. *)

open Taskalloc_sat
module Rng = Taskalloc_workloads.Rng
module Proof = Taskalloc_proof.Proof
module Portfolio = Taskalloc_portfolio.Portfolio

type pb_instance = {
  pb_vars : int;
  constraints : Proof.pb list;
}

type case = Cnf of Dimacs.cnf | Pb of pb_instance

let pp_case ppf = function
  | Cnf cnf -> Dimacs.print_cnf ppf cnf
  | Pb { pb_vars; constraints } ->
    Fmt.pf ppf "p pb %d %d@." pb_vars (List.length constraints);
    List.iter
      (fun { Proof.terms; degree } ->
        List.iter (fun (a, l) -> Fmt.pf ppf "%+d x%d " a l) terms;
        Fmt.pf ppf ">= %d@." degree)
      constraints

(* -- generation --------------------------------------------------------- *)

(* [len] distinct variables drawn from [1..nvars]. *)
let distinct_vars rng nvars len =
  List.filteri (fun i _ -> i < len) (Rng.shuffle rng (List.init nvars (fun v -> v + 1)))

let gen_cnf ~seed ~max_vars =
  let rng = Rng.create ((2 * seed) + 1) in
  let nvars = Rng.range rng 3 (max 3 max_vars) in
  (* clause counts spanning the under- and over-constrained regimes,
     centred near the 3-SAT threshold ratio so both answers are common *)
  let nclauses = Rng.range rng nvars ((9 * nvars / 2) + 2) in
  let clause () =
    let len = if Rng.bool rng 0.15 then Rng.range rng 1 2 else 3 in
    distinct_vars rng nvars len
    |> List.map (fun v -> if Rng.bool rng 0.5 then v else -v)
  in
  { Dimacs.num_vars = nvars; clauses = List.init nclauses (fun _ -> clause ()) }

let gen_pb ~seed ~max_vars =
  let rng = Rng.create ((2 * seed) + 1) in
  let nvars = Rng.range rng 2 (max 2 max_vars) in
  let ncons = Rng.range rng 1 (2 * nvars) in
  let constraint_ () =
    let k = Rng.range rng 1 (min 5 nvars) in
    let terms =
      distinct_vars rng nvars k
      |> List.map (fun v ->
             (Rng.range rng 1 4, if Rng.bool rng 0.5 then v else -v))
    in
    let total = List.fold_left (fun s (a, _) -> s + a) 0 terms in
    (* degrees from trivially-true (0) to just-infeasible (total + 2) *)
    { Proof.terms; degree = Rng.range rng 0 (total + 2) }
  in
  { pb_vars = nvars; constraints = List.init ncons (fun _ -> constraint_ ()) }

let gen_case ~seed ~max_vars =
  if seed land 1 = 0 then Cnf (gen_cnf ~seed ~max_vars)
  else Pb (gen_pb ~seed ~max_vars)

(* -- brute-force oracle ------------------------------------------------- *)

(* DIMACS literal value under assignment bitmask [m]. *)
let lit_true m l = (m lsr (abs l - 1)) land 1 = if l > 0 then 1 else 0

let eval_cnf cnf m =
  List.for_all (fun c -> List.exists (lit_true m) c) cnf.Dimacs.clauses

let eval_pb { pb_vars = _; constraints } m =
  List.for_all
    (fun { Proof.terms; degree } ->
      List.fold_left (fun s (a, l) -> if lit_true m l then s + a else s) 0 terms
      >= degree)
    constraints

let nvars_of = function
  | Cnf cnf -> cnf.Dimacs.num_vars
  | Pb { pb_vars; _ } -> pb_vars

let eval case m =
  match case with Cnf cnf -> eval_cnf cnf m | Pb pb -> eval_pb pb m

let oracle case =
  let n = nvars_of case in
  let rec go m = m < 1 lsl n && (eval case m || go (m + 1)) in
  go 0

(* -- differential driver ------------------------------------------------ *)

(* Load a case into a fresh solver with proof recording installed
   before the first constraint, so add-time refutations are logged.
   With [inprocess] the passes run on an aggressive cadence, so even
   these tiny instances re-enter them between restart episodes, not
   just as preprocessing; every derived clause is logged, so the DRUP
   pipeline must still close. *)
let load ~inprocess case =
  let s = Solver.create () in
  let trace = Proof.record s in
  if inprocess then Inprocess.install ~every:32 s;
  (match case with
  | Cnf cnf ->
    for _ = 1 to cnf.Dimacs.num_vars do
      ignore (Solver.new_var s)
    done;
    List.iter
      (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c))
      cnf.Dimacs.clauses
  | Pb { pb_vars; constraints } ->
    for _ = 1 to pb_vars do
      ignore (Solver.new_var s)
    done;
    List.iter
      (fun { Proof.terms; degree } ->
        if degree > 0 then
          Solver.add_pb_geq s
            (List.map (fun (a, l) -> (a, Lit.of_dimacs l)) terms)
            degree)
      constraints);
  (s, trace)

let model_mask case s =
  let n = nvars_of case in
  let m = ref 0 in
  for v = 0 to n - 1 do
    if Solver.model_value s (Lit.of_var v) then m := !m lor (1 lsl v)
  done;
  !m

(* The CNF/PB view of a case that the proof checker certifies against. *)
let checker_view = function
  | Cnf cnf -> (cnf, [])
  | Pb { pb_vars; constraints } ->
    ({ Dimacs.num_vars = pb_vars; clauses = [] }, constraints)

(* Solve a case sequentially or as a [jobs]-worker portfolio.  Every
   worker records a proof (installed by [load] before the constraints),
   so no worker ever imports shared clauses and the winner's trace is
   self-contained — the certifying pipeline below is identical in both
   modes.  Returns the deciding solver and its trace. *)
let solve_case ~jobs ~inprocess case =
  if jobs <= 1 then begin
    let s, trace = load ~inprocess case in
    (Solver.solve s, Some (s, trace))
  end
  else begin
    let outcome =
      Portfolio.solve ~jobs
        ~build:(fun _i ->
          let s, trace = load ~inprocess case in
          ((s, trace), s))
        ()
    in
    (outcome.Portfolio.result, outcome.Portfolio.payload)
  end

let check ~jobs ~inprocess case =
  let expected = oracle case in
  match solve_case ~jobs ~inprocess case with
  | Solver.Unknown, _ -> Error "solver returned Unknown without a budget"
  | _, None -> Error "portfolio returned no winner"
  | Solver.Sat, Some (s, _) ->
    if not expected then Error "solver says Sat, oracle says Unsat"
    else if not (eval case (model_mask case s)) then
      Error "Sat model does not satisfy the instance"
    else Ok ()
  | Solver.Unsat, Some (_, trace) ->
    if expected then Error "solver says Unsat, oracle says Sat"
    else begin
      let cnf, pbs = checker_view case in
      match Proof.verify ~pbs cnf (trace ()) with
      | Proof.Valid -> Ok ()
      | Proof.Invalid { step; reason } ->
        Error (Fmt.str "Unsat proof rejected at step %d: %s" step reason)
    end

let check_case ?(jobs = 1) case = check ~jobs ~inprocess:false case

(* -- shrinking ---------------------------------------------------------- *)

let without i xs = List.filteri (fun j _ -> j <> i) xs

(* One-step simplifications, most aggressive first. *)
let variants = function
  | Cnf cnf ->
    let n = List.length cnf.Dimacs.clauses in
    List.init n (fun i ->
        Cnf { cnf with Dimacs.clauses = without i cnf.Dimacs.clauses })
    @ List.concat
        (List.mapi
           (fun i c ->
             if List.length c <= 1 then []
             else
               List.mapi
                 (fun j _ ->
                   Cnf
                     {
                       cnf with
                       Dimacs.clauses =
                         List.mapi
                           (fun i' c' -> if i' = i then without j c' else c')
                           cnf.Dimacs.clauses;
                     })
                 c)
           cnf.Dimacs.clauses)
  | Pb pb ->
    let n = List.length pb.constraints in
    let update i f =
      Pb
        {
          pb with
          constraints =
            List.mapi (fun i' c -> if i' = i then f c else c) pb.constraints;
        }
    in
    List.init n (fun i -> Pb { pb with constraints = without i pb.constraints })
    @ List.concat
        (List.mapi
           (fun i { Proof.terms; degree } ->
             (if degree > 0 then
                [ update i (fun c -> { c with Proof.degree = degree - 1 }) ]
              else [])
             @ (if List.length terms > 1 then
                  List.mapi
                    (fun j _ ->
                      update i (fun c ->
                          { c with Proof.terms = without j c.Proof.terms }))
                    terms
                else [])
             @ List.concat
                 (List.mapi
                    (fun j (a, _) ->
                      if a <= 1 then []
                      else
                        [
                          update i (fun c ->
                              {
                                c with
                                Proof.terms =
                                  List.mapi
                                    (fun j' (a', l') ->
                                      if j' = j then (a' - 1, l') else (a', l'))
                                    c.Proof.terms;
                              });
                        ])
                    terms))
           pb.constraints)

let shrink_with ~jobs ~inprocess case =
  let fails case = Result.is_error (check ~jobs ~inprocess case) in
  if not (fails case) then case
  else begin
    let fuel = ref 400 in
    let rec go case =
      let rec first = function
        | [] -> None
        | v :: rest ->
          if !fuel <= 0 then None
          else begin
            decr fuel;
            if fails v then Some v else first rest
          end
      in
      match first (variants case) with Some v -> go v | None -> case
    in
    go case
  end

let shrink ?(jobs = 1) case = shrink_with ~jobs ~inprocess:false case


(* -- campaign generators ------------------------------------------------ *)

module Obs = Taskalloc_obs.Obs
module Model = Taskalloc_rt.Model
module Check = Taskalloc_rt.Check
module Encode = Taskalloc_core.Encode
module Allocator = Taskalloc_core.Allocator
module Heuristics = Taskalloc_heuristics.Heuristics
module Repair = Taskalloc_repair.Repair

(* Small full-featured allocation problems: distinct deadlines (unique
   DM order), one bus of either kind, occasional messages, jitter and
   blocking.  The allocation-level differential solves each under two
   configurations; the baseline is the oracle. *)
let gen_alloc_problem rng =
  let n_ecus = Rng.range rng 2 3 in
  let n_tasks = Rng.range rng 3 6 in
  let kind = if Rng.int rng 2 = 0 then Model.Tdma else Model.Priority in
  let with_msg = n_tasks >= 2 && Rng.int rng 2 = 0 in
  let task i =
    let messages =
      if with_msg && i = 0 then
        [
          {
            Model.msg_id = 0;
            src = 0;
            dst = 1;
            bytes = Rng.range rng 2 8;
            msg_deadline = Rng.range rng 60 160;
          };
        ]
      else []
    in
    {
      Model.task_id = i;
      task_name = Printf.sprintf "t%d" i;
      period = 200;
      wcets = List.init n_ecus (fun e -> (e, Rng.range rng 8 22));
      deadline = (Rng.range rng 5 12 * 8) + i (* pairwise distinct *);
      memory = 1;
      separation = [];
      messages;
      jitter = Rng.int rng 3;
      blocking = Rng.int rng 4;
      criticality = 0;
    }
  in
  let arch =
    {
      Model.n_ecus;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind;
            ecus = List.init n_ecus Fun.id;
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = Array.make n_ecus 64;
      gateway_service = 0;
      barred = [];
    }
  in
  let problem = Model.make_problem ~arch ~tasks:(List.init n_tasks task) in
  let objective =
    match (Rng.int rng 3, kind) with
    | 0, Model.Tdma -> Encode.Min_trt 0
    | 1, _ -> Encode.Min_max_util
    | _ -> Encode.Feasible
  in
  (problem, objective)

(* Small message-free instances with pairwise-distinct deadlines: the
   deadline-monotonic priority order is then unique, so the analytical
   checker and the SAT encoder agree exactly and "minimal migration
   count" is well defined for the brute-force oracle. *)
let gen_disruption_problem rng =
  let n_ecus = Rng.range rng 2 3 in
  let n_tasks = Rng.range rng 3 5 in
  let task i =
    {
      Model.task_id = i;
      task_name = Printf.sprintf "t%d" i;
      period = 200;
      wcets = List.init n_ecus (fun e -> (e, Rng.range rng 8 22));
      deadline = (Rng.range rng 5 12 * 8) + i (* pairwise distinct *);
      memory = 1;
      separation = [];
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = Rng.int rng 2;
    }
  in
  let arch =
    {
      Model.n_ecus;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind = Model.Tdma;
            ecus = List.init n_ecus Fun.id;
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = Array.make n_ecus 64;
      gateway_service = 0;
      barred = [];
    }
  in
  Model.make_problem ~arch ~tasks:(List.init n_tasks task)

let gen_disruption_event rng st k =
  let p = Repair.problem st in
  let arch = p.Model.arch in
  let alive =
    List.filter
      (fun e -> not (List.mem e arch.Model.barred))
      (List.init arch.Model.n_ecus Fun.id)
  in
  let n_tasks = Array.length p.Model.tasks in
  let kind = Rng.int rng 4 in
  let kind = if kind = 0 && List.length alive <= 1 then 1 else kind in
  match kind with
  | 0 -> Repair.Ecu_failure { ecu = Rng.pick rng alive }
  | 1 ->
    Repair.Wcet_overrun
      { task = Rng.int rng n_tasks; percent = Rng.range rng 110 250 }
  | 2 ->
    Repair.Task_arrival
      {
        name = Printf.sprintf "nu%d" k;
        period = 200;
        deadline = Rng.range rng 100 180;
        memory = 1;
        criticality = Rng.int rng 2;
        wcets = List.init arch.Model.n_ecus (fun e -> (e, Rng.range rng 8 20));
      }
  | _ -> Repair.Bus_degradation { medium = 0; percent = Rng.range rng 120 300 }

(* brute-force minimal-migration oracle: least Hamming distance from
   the pre-event seats to any placement the analytical checker accepts *)
let oracle_min_migrations old_alloc (d : Repair.disrupted) =
  if d.Repair.d_doomed <> [] then None
  else begin
    let p = d.Repair.d_problem in
    let domains =
      Array.map
        (fun t -> Array.of_list (Model.allowed_ecus p t))
        p.Model.tasks
    in
    let n = Array.length domains in
    let best = ref None in
    let cur = Array.make n 0 in
    let rec go i =
      if i = n then begin
        match Heuristics.try_complete p (Array.copy cur) with
        | Some a when Check.check p a = [] ->
          let dist = ref 0 in
          Array.iteri
            (fun j e ->
              if e <> old_alloc.Model.task_ecu.(d.Repair.d_kept.(j)) then
                incr dist)
            cur;
          best :=
            Some (match !best with None -> !dist | Some b -> min b !dist)
        | _ -> ()
      end
      else
        Array.iter
          (fun e ->
            cur.(i) <- e;
            go (i + 1))
          domains.(i)
    in
    if Array.for_all (fun dom -> Array.length dom > 0) domains then go 0;
    !best
  end

(* -- campaigns ---------------------------------------------------------- *)

type campaign = Sat | Lazy | Inprocess | Disruptions

type counts = {
  sat : int;
  unsat : int;
  certified : int;
  solved : int;
  infeasible : int;
  unknown : int;
  events : int;
  repaired : int;
  degraded : int;
  irreparable : int;
  skipped : int;
  oracle_checked : int;
}

let zero =
  {
    sat = 0;
    unsat = 0;
    certified = 0;
    solved = 0;
    infeasible = 0;
    unknown = 0;
    events = 0;
    repaired = 0;
    degraded = 0;
    irreparable = 0;
    skipped = 0;
    oracle_checked = 0;
  }

let add a b =
  {
    sat = a.sat + b.sat;
    unsat = a.unsat + b.unsat;
    certified = a.certified + b.certified;
    solved = a.solved + b.solved;
    infeasible = a.infeasible + b.infeasible;
    unknown = a.unknown + b.unknown;
    events = a.events + b.events;
    repaired = a.repaired + b.repaired;
    degraded = a.degraded + b.degraded;
    irreparable = a.irreparable + b.irreparable;
    skipped = a.skipped + b.skipped;
    oracle_checked = a.oracle_checked + b.oracle_checked;
  }

type failure = {
  fail_iter : int;
  fail_seed : int;
  fail_case : case option;
  fail_error : string;
}

type report = {
  campaign : campaign;
  iters : int;
  counts : counts;
  failures : failure list;
  solve_us : Obs.Hist.t;
}

(* Contiguous blocks, so concatenating the chunks' results restores
   iteration order; [min jobs n] blocks of at least one index each. *)
let partition ~jobs n =
  let k = min (max 1 jobs) n in
  List.init k (fun c ->
      let lo = c * n / k and hi = (c + 1) * n / k in
      List.init (hi - lo) (fun j -> lo + j))

(* [List.init n f] with the blocks of [partition] on their own domains.
   Iterations are deterministic in their index, so [jobs] changes
   nothing but wall time; the calling domain runs the first block. *)
let spread ~jobs n f =
  match partition ~jobs n with
  | [] -> []
  | first :: rest ->
    let spawned =
      List.map (fun idxs -> Domain.spawn (fun () -> List.map f idxs)) rest
    in
    let here = List.map f first in
    here @ List.concat_map Domain.join spawned

(* SAT-level step: one generated CNF/PB case judged by the oracle and
   the DRUP checker ({!check}), shrunk when it fails. *)
let sat_step ~jobs ~inprocess ~max_vars ~fail rng =
  let case_seed = Rng.int rng 0x3FFFFFFF in
  let case = gen_case ~seed:case_seed ~max_vars in
  let expected = oracle case in
  let ok =
    match check ~jobs ~inprocess case with
    | Ok () -> true
    | Error e ->
      fail case_seed (Some (shrink_with ~jobs ~inprocess case)) e;
      false
  in
  if expected then { zero with sat = 1 }
  else { zero with unsat = 1; certified = Bool.to_int ok }

let verdict = function
  | Allocator.Solved _ -> "SOLVED"
  | Allocator.Infeasible -> "INFEASIBLE"
  | Allocator.Unknown -> "UNKNOWN"

(* Allocation-level step: one generated problem solved through the
   whole stack under a baseline and a candidate configuration, which
   must agree on verdict and proven optimum, with both allocations
   clean under the analytical checker. *)
let alloc_step ~fail rng (base_name, base) (alt_name, alt) =
  let failf fmt = Fmt.kstr fail fmt in
  let problem, objective = gen_alloc_problem rng in
  let solve options = Allocator.solve ~options ~fallback:false problem objective in
  match (solve base, solve alt) with
  | Allocator.Solved a, Allocator.Solved b ->
    if a.Allocator.cost <> b.Allocator.cost then
      failf "optimum mismatch: %s cost %d, %s cost %d" base_name a.Allocator.cost
        alt_name b.Allocator.cost;
    List.iter
      (fun (name, r) ->
        if r.Allocator.violations <> [] then
          failf "%s allocation rejected by the analytical checker" name)
      [ (base_name, a); (alt_name, b) ];
    { zero with solved = 1 }
  | Allocator.Infeasible, Allocator.Infeasible -> { zero with infeasible = 1 }
  | ((Allocator.Unknown, _ | _, Allocator.Unknown) as pair) ->
    failf "unbudgeted solve returned UNKNOWN (%s=%s %s=%s)" base_name
      (verdict (fst pair)) alt_name (verdict (snd pair));
    { zero with unknown = 1 }
  | a, b ->
    failf "verdict mismatch: %s=%s %s=%s" base_name (verdict a) alt_name
      (verdict b);
    zero

(* Disruption step: phase 1 cross-checks the first event against the
   minimal-migration oracle (no shedding, so minimality is a plain
   Hamming-distance question); phase 2 runs a multi-event campaign with
   the degradation ladder on. *)
let disruption_step ~fail rng =
  let failf fmt = Fmt.kstr fail fmt in
  let problem = gen_disruption_problem rng in
  match Allocator.find_feasible ~fallback:false problem with
  | Allocator.Infeasible | Allocator.Unknown -> { zero with skipped = 1 }
  | Allocator.Solved res ->
    let alloc = res.Allocator.allocation in
    let st0 = Repair.create problem alloc in
    let ev0 = gen_disruption_event rng st0 0 in
    let oracle_checked =
      match ev0 with
      | Repair.Ecu_failure _ | Repair.Wcet_overrun _ ->
        let oracle =
          oracle_min_migrations alloc (Repair.apply_event problem ev0)
        in
        (match (Repair.repair ~allow_shed:false st0 ev0, oracle) with
        | Repair.Repaired r, Some b ->
          if List.length r.Repair.migrations <> b then
            failf "repair migrated %d, oracle minimum %d (%a)"
              (List.length r.Repair.migrations)
              b
              (Repair.pp_event problem)
              ev0
        | Repair.Repaired _, None ->
          failf "repair succeeded where the oracle proves infeasibility"
        | Repair.Irreparable _, Some b ->
          failf "repair gave up, oracle repairs with %d migrations" b
        | Repair.Irreparable _, None -> ()
        | Repair.Unknown, _ -> failf "unbudgeted repair returned Unknown");
        1
      | _ -> 0
    in
    let st = Repair.create problem alloc in
    let counts = ref { zero with oracle_checked } in
    let bump c = counts := add !counts c in
    for k = 1 to Rng.range rng 2 4 do
      bump { zero with events = 1 };
      let ev = gen_disruption_event rng st k in
      let tasks_before = Array.length (Repair.problem st).Model.tasks in
      let seats_before = Array.copy (Repair.allocation st).Model.task_ecu in
      match Repair.repair st ev with
      | Repair.Repaired r ->
        bump { zero with repaired = 1; degraded = Bool.to_int r.Repair.degraded };
        if r.Repair.check_violations <> 0 then
          failf "event %d: analyzer found %d violations" k
            r.Repair.check_violations;
        if r.Repair.sim_misses <> 0 then
          failf "event %d: %d deadline misses in simulation" k
            r.Repair.sim_misses
      | Repair.Irreparable _ ->
        bump { zero with irreparable = 1 };
        if
          Array.length (Repair.problem st).Model.tasks <> tasks_before
          || (Repair.allocation st).Model.task_ecu <> seats_before
        then failf "event %d: irreparable repair mutated the state" k
      | Repair.Unknown ->
        bump { zero with unknown = 1 };
        failf "event %d: unbudgeted repair returned Unknown" k
    done;
    !counts

(* The baseline is the default configuration: eager, no inprocessing. *)
let plain = Encode.default_options

(* One iteration, deterministic in (campaign, seed, i). *)
let iteration ~campaign ~max_vars ~jobs ~seed i =
  let mix =
    match campaign with
    | Sat -> 0x61C88647
    | Lazy -> 0x45D9F3B5
    | Inprocess -> 0x2545F491
    | Disruptions -> 0x9E3779B1
  in
  let iter_seed = seed lxor (i * mix) in
  let rng = Rng.create iter_seed in
  let failures = ref [] in
  let fail fail_seed fail_case fail_error =
    failures := { fail_iter = i; fail_seed; fail_case; fail_error } :: !failures
  in
  (* allocation-level and disruption failures have no shrinkable case *)
  let fail_iteration = fail iter_seed None in
  let t0 = Unix.gettimeofday () in
  let counts =
    match campaign with
    | Sat -> sat_step ~jobs ~inprocess:false ~max_vars ~fail rng
    | Lazy ->
      alloc_step ~fail:fail_iteration rng ("eager", plain)
        ("lazy", { plain with Encode.lazy_mode = true })
    | Inprocess ->
      let sat_level = sat_step ~jobs ~inprocess:true ~max_vars ~fail rng in
      add sat_level
        (alloc_step ~fail:fail_iteration rng ("plain", plain)
           ("inprocessed", { plain with Encode.inprocess = Some true }))
    | Disruptions -> disruption_step ~fail:fail_iteration rng
  in
  let us = int_of_float (Float.max 0. ((Unix.gettimeofday () -. t0) *. 1e6)) in
  (counts, List.rev !failures, us)

let run ?(max_vars = 10) ?(jobs = 1) ?(log = ignore) ~campaign ~iters ~seed () =
  let max_vars = min 16 (max 2 max_vars) in
  (* [Sat] spends [jobs] on a portfolio per case, which is what
     certifies winner traces; the other campaigns spread iterations *)
  let case_jobs, domains = if campaign = Sat then (jobs, 1) else (1, jobs) in
  let results =
    spread ~jobs:domains iters
      (iteration ~campaign ~max_vars ~jobs:case_jobs ~seed)
  in
  (* the per-iteration time histogram doubles as a perf canary: a
     regression shifts it even when every differential check passes *)
  let solve_us = Obs.Hist.create () in
  let counts, failures =
    List.fold_left
      (fun (c, fs) (c', fs', us) ->
        Obs.Hist.add solve_us us;
        (add c c', List.rev_append fs' fs))
      (zero, []) results
  in
  let failures = List.rev failures in
  List.iter
    (fun f -> log (Fmt.str "iter %d (seed %d): %s" f.fail_iter f.fail_seed f.fail_error))
    failures;
  { campaign; iters; counts; failures; solve_us }

let pp_report ppf r =
  let c = r.counts in
  let shown =
    match r.campaign with
    | Sat -> [ (c.sat, "sat"); (c.unsat, "unsat"); (c.certified, "certified") ]
    | Lazy ->
      [ (c.solved, "solved"); (c.infeasible, "infeasible"); (c.unknown, "unknown") ]
    | Inprocess ->
      [
        (c.sat, "sat");
        (c.unsat, "unsat");
        (c.certified, "certified");
        (c.solved, "allocations solved");
        (c.infeasible, "allocations infeasible");
        (c.unknown, "unknown");
      ]
    | Disruptions ->
      [
        (c.skipped, "skipped infeasible");
        (c.events, "events");
        (c.repaired, "repaired");
        (c.degraded, "degraded");
        (c.irreparable, "irreparable");
        (c.unknown, "unknown");
        (c.oracle_checked, "oracle cross-checks");
      ]
  in
  let name =
    match r.campaign with
    | Sat -> "solver-vs-oracle"
    | Lazy -> "lazy-vs-eager"
    | Inprocess -> "inprocessing"
    | Disruptions -> "disruption"
  in
  Fmt.pf ppf "%d %s iterations: %s, %d failures@." r.iters name
    (String.concat ", " (List.map (fun (n, what) -> Fmt.str "%d %s" n what) shown))
    (List.length r.failures);
  if Obs.Hist.count r.solve_us > 0 then
    Fmt.pf ppf "time per iteration: %a us@." Obs.Hist.pp r.solve_us;
  List.iter
    (fun f ->
      Fmt.pf ppf "FAILURE (iter %d, seed %d): %s@." f.fail_iter f.fail_seed
        f.fail_error;
      Option.iter (Fmt.pf ppf "minimized reproducer:@.%a" pp_case) f.fail_case)
    r.failures
