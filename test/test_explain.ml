(* Tests for the infeasibility explanation engine: MUS extraction over
   constraint groups, correction sets, and incremental what-if sessions.

   The workhorse instance is a pigeonhole-flavoured allocation problem:
   three tasks of WCET 15 with deadline 20 on two ECUs.  Some pair must
   share an ECU and its lower-priority member then sees 15 + 15 = 30 >
   20, so the instance is infeasible and the unique MUS is the set of
   the three deadline groups. *)

open Taskalloc_rt
open Taskalloc_core
module Explain = Taskalloc_explain.Explain
module Solver = Taskalloc_sat.Solver
module Budget = Taskalloc_sat.Budget
module Bv = Taskalloc_bv.Bv

let arch2 =
  {
    Model.n_ecus = 2;
    media =
      [
        {
          Model.med_id = 0;
          med_name = "bus";
          kind = Model.Tdma;
          ecus = [ 0; 1 ];
          byte_time = 1;
          frame_overhead = 2;
        };
      ];
    mem_capacity = [| 32; 32 |];
    gateway_service = 0;
    barred = [];
  }

let mk_task id name period deadline wcets =
  {
    Model.task_id = id;
    task_name = name;
    period;
    wcets;
    deadline;
    memory = 1;
    separation = [];
    messages = [];
    jitter = 0;
    blocking = 0;
    criticality = 0;
  }

let overconstrained () =
  Model.make_problem ~arch:arch2
    ~tasks:
      [
        mk_task 0 "fusion-a" 100 20 [ (0, 15); (1, 15) ];
        mk_task 1 "fusion-b" 100 20 [ (0, 15); (1, 15) ];
        mk_task 2 "fusion-c" 100 20 [ (0, 15); (1, 15) ];
        mk_task 3 "logger" 200 150 [ (0, 20); (1, 20) ];
        mk_task 4 "watchdog" 100 90 [ (0, 5); (1, 5) ];
      ]

let feasible_problem () =
  Model.make_problem ~arch:arch2
    ~tasks:
      [
        mk_task 0 "a" 100 50 [ (0, 15); (1, 15) ];
        mk_task 1 "b" 100 50 [ (0, 15); (1, 15) ];
        mk_task 2 "c" 100 90 [ (0, 5); (1, 5) ];
      ]

let core_ids status =
  match status with
  | Explain.Explained { core; _ } -> List.map Encode.group_id core
  | _ -> Alcotest.fail "expected an Explained status"

(* Oracle: re-check a reported core against a fresh grouped encoding.
   The group ids are stable across encodings of the same problem, so we
   can look the selectors up by id.  The probe runs the solve/refine
   loop so the oracle stays sound on the lazy encoding: an abstract Sat
   is provisional until refinement reaches a fixpoint. *)
let fresh_session ~options problem =
  let enc = Encode.encode ~options ~groups:true problem Encode.Feasible in
  let solver = Bv.solver (Encode.context enc) in
  let selector_of id =
    match
      List.find_opt (fun g -> Encode.group_id g = id) (Encode.groups enc)
    with
    | Some g -> g.Encode.selector
    | None -> Alcotest.fail ("group not found in fresh encoding: " ^ id)
  in
  let assume ids =
    let assumptions = List.map selector_of ids in
    let rec go () =
      match Solver.solve ~assumptions solver with
      | Solver.Sat when Encode.Lazy.refine enc > 0 -> go ()
      | r -> r
    in
    go ()
  in
  (assume, selector_of)

let assume_groups assume _selector_of ids = assume ids

let test_explain_feasible options () =
  let report = Explain.explain ~options (feasible_problem ()) in
  (match report.Explain.status with
  | Explain.Feasible -> ()
  | _ -> Alcotest.fail "expected Feasible");
  Alcotest.(check (list (list string))) "no relaxations" []
    (List.map (List.map Encode.group_id) report.Explain.relaxations)

let test_explain_core_is_deadlines options () =
  let problem = overconstrained () in
  let report = Explain.explain ~options problem in
  match report.Explain.status with
  | Explain.Explained { core; minimal } ->
    Alcotest.(check bool) "minimal" true minimal;
    Alcotest.(check int) "three groups" 3 (List.length core);
    List.iter
      (fun g ->
        match g.Encode.kind with
        | Encode.G_deadline _ -> ()
        | _ -> Alcotest.fail ("unexpected group in core: " ^ Encode.group_id g))
      core
  | _ -> Alcotest.fail "expected Explained"

let test_core_unsat_in_isolation options () =
  let problem = overconstrained () in
  let report = Explain.explain ~options problem in
  let ids = core_ids report.Explain.status in
  let assume, selector_of = fresh_session ~options problem in
  Alcotest.(check bool) "core unsat in a fresh session" true
    (assume_groups assume selector_of ids = Solver.Unsat)

let test_core_minimality options () =
  (* deletion oracle: dropping any single group from the MUS is Sat *)
  let problem = overconstrained () in
  let report = Explain.explain ~options problem in
  let ids = core_ids report.Explain.status in
  let assume, selector_of = fresh_session ~options problem in
  List.iter
    (fun dropped ->
      let rest = List.filter (fun id -> id <> dropped) ids in
      Alcotest.(check bool)
        ("sat without " ^ dropped)
        true
        (assume_groups assume selector_of rest = Solver.Sat))
    ids

let test_core_minimality_lazy () =
  (* the CEGAR encoding must reproduce the eager diagnosis: the same
     unique MUS, proven minimal, with a lazy session as the deletion
     oracle (Session.solve refines to a fixpoint before answering Sat,
     so the oracle itself exercises the abstraction loop) *)
  let problem = overconstrained () in
  let report = Explain.explain ~options:Configs.lazy_ problem in
  (match report.Explain.status with
  | Explain.Explained { minimal; _ } ->
    Alcotest.(check bool) "minimal" true minimal
  | _ -> Alcotest.fail "expected Explained");
  let ids = core_ids report.Explain.status in
  let eager = Explain.explain problem in
  Alcotest.(check (list string))
    "same MUS as eager"
    (List.sort compare (core_ids eager.Explain.status))
    (List.sort compare ids);
  let sess = Explain.Session.create ~options:Configs.lazy_ problem in
  let groups = Explain.Session.groups sess in
  let index_of id =
    let found = ref (-1) in
    Array.iteri (fun i g -> if Encode.group_id g = id then found := i) groups;
    if !found < 0 then Alcotest.fail ("group not found: " ^ id);
    !found
  in
  let idxs = List.map index_of ids in
  Alcotest.(check bool) "core unsat in a fresh lazy session" true
    (Explain.Session.solve sess idxs = Solver.Unsat);
  List.iter
    (fun dropped ->
      let rest = List.filter (fun i -> i <> dropped) idxs in
      Alcotest.(check bool) "sat without one group" true
        (Explain.Session.solve sess rest = Solver.Sat))
    idxs

let test_relaxations_restore_feasibility options () =
  let problem = overconstrained () in
  let report = Explain.explain ~options ~max_relaxations:3 problem in
  Alcotest.(check bool) "some relaxation reported" true
    (report.Explain.relaxations <> []);
  let all = Encode.groups (Encode.encode ~groups:true problem Encode.Feasible) in
  List.iter
    (fun relax ->
      let relax_ids = List.map Encode.group_id relax in
      let keep =
        List.filter_map
          (fun g ->
            let id = Encode.group_id g in
            if List.mem id relax_ids then None else Some id)
          all
      in
      let assume, selector_of = fresh_session ~options problem in
      Alcotest.(check bool)
        ("feasible after dropping " ^ String.concat "," relax_ids)
        true
        (assume_groups assume selector_of keep = Solver.Sat))
    report.Explain.relaxations

let test_parallel_shrink_agrees options () =
  let problem = overconstrained () in
  let seq = Explain.explain ~options problem in
  let par = Explain.explain ~options ~jobs:2 problem in
  let sort = List.sort compare in
  Alcotest.(check (list string))
    "same core set" (sort (core_ids seq.Explain.status))
    (sort (core_ids par.Explain.status))

let test_budget_expiry_mid_shrink options () =
  (* chaos: starve the engine at various conflict budgets; it must
     never raise, and any Explained answer must be a genuine unsat
     core (possibly non-minimal) *)
  let problem = overconstrained () in
  List.iter
    (fun max_conflicts ->
      let budget = Budget.create ~max_conflicts () in
      let report = Explain.explain ~options ~budget problem in
      match report.Explain.status with
      | Explain.Unknown | Explain.Feasible -> ()
      | Explain.Explained { core = []; _ } ->
        (* an empty core claims unconditional infeasibility, which is
           false for this instance *)
        Alcotest.fail "empty core under budget starvation"
      | Explain.Explained { core; _ } ->
        let assume, selector_of = fresh_session ~options problem in
        Alcotest.(check bool)
          (Printf.sprintf "valid core at budget %d" max_conflicts)
          true
          (assume_groups assume selector_of (List.map Encode.group_id core)
          = Solver.Unsat))
    [ 1; 5; 20; 100; 1000 ]

let test_whatif_session_reuse options () =
  let problem = overconstrained () in
  let w = Explain.Whatif.create ~options problem in
  let expect_infeasible label v =
    match v with
    | Explain.Whatif.Infeasible { groups; _ } ->
      Alcotest.(check bool) (label ^ ": named groups") true (groups <> [])
    | _ -> Alcotest.fail (label ^ ": expected Infeasible")
  in
  expect_infeasible "baseline" (Explain.Whatif.query w []);
  (match Explain.Whatif.query w [ Explain.Whatif.Drop (Encode.G_deadline 0) ] with
  | Explain.Whatif.Feasible { relaxed; allocation } ->
    Alcotest.(check bool) "marked relaxed" true relaxed;
    Alcotest.(check int) "placement covers all tasks" 5
      (Array.length allocation.Model.task_ecu)
  | _ -> Alcotest.fail "drop deadline should be feasible");
  (* deltas must not leak into later queries *)
  expect_infeasible "baseline again" (Explain.Whatif.query w []);
  (* pinning two fusion tasks together is also infeasible, but the
     baseline core (the three deadlines) already suffices, so the
     reported core need not mention the pins *)
  expect_infeasible "two pins on one ECU"
    (Explain.Whatif.query w
       [
         Explain.Whatif.Pin { task = 0; ecu = 0 };
         Explain.Whatif.Pin { task = 1; ecu = 0 };
       ]);
  Alcotest.(check int) "queries counted" 4 (Explain.Whatif.queries w)

let test_whatif_deadline_delta options () =
  let problem = feasible_problem () in
  let w = Explain.Whatif.create ~options problem in
  (match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible { relaxed; _ } ->
    Alcotest.(check bool) "baseline not relaxed" false relaxed
  | _ -> Alcotest.fail "baseline should be feasible");
  (* tightening all three deadlines to 15 recreates the pigeonhole:
     every task then needs an ECU to itself *)
  let tighten task = Explain.Whatif.Set_deadline { task; deadline = 15 } in
  (match Explain.Whatif.query w [ tighten 0; tighten 1; tighten 2 ] with
  | Explain.Whatif.Infeasible { deltas; _ } ->
    Alcotest.(check bool) "tightenings blamed in core" true (deltas <> [])
  | _ -> Alcotest.fail "three tightened deadlines should be infeasible");
  match Explain.Whatif.query w [ tighten 0 ] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "one tightened deadline should stay feasible"

let test_whatif_cache_bounded options () =
  (* regression: the per-(task, deadline) reification cache used to
     grow without bound on long-lived sessions.  150 distinct deadline
     deltas on one session must stay within the cache cap, and deltas
     whose bits were evicted must still answer correctly when asked
     again (re-reified, not corrupted). *)
  let problem = feasible_problem () in
  let w = Explain.Whatif.create ~options problem in
  let ask deadline =
    Explain.Whatif.query w
      [ Explain.Whatif.Set_deadline { task = 0; deadline } ]
  in
  (* task 0 runs in 15 ticks wherever it lands, and can always have an
     ECU to itself: any deadline >= 15 is feasible *)
  for d = 15 to 164 do
    match ask d with
    | Explain.Whatif.Feasible _ -> ()
    | _ -> Alcotest.failf "deadline %d should be feasible" d
  done;
  Alcotest.(check bool) "cache bounded after 150 distinct deltas" true
    (Explain.Whatif.cached_deadline_bits w <= 128);
  (* the earliest delta has long been evicted; revisiting it must
     re-reify and still answer correctly, on both polarities *)
  (match ask 15 with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "evicted delta must still answer feasible");
  (match ask 14 with
  | Explain.Whatif.Infeasible _ -> ()
  | _ -> Alcotest.fail "deadline below the WCET must stay infeasible");
  Alcotest.(check int) "queries counted" 152 (Explain.Whatif.queries w)

let test_explain_inprocessing () =
  (* frozen-variable regression: group selectors are assumption
     variables, so BVE must leave them standing for the MUS machinery
     to keep its meaning.  The diagnosis must match the default
     encoding's unique MUS exactly. *)
  let problem = overconstrained () in
  let report = Explain.explain ~options:Configs.inprocess problem in
  (match report.Explain.status with
  | Explain.Explained { minimal; _ } ->
    Alcotest.(check bool) "minimal" true minimal
  | _ -> Alcotest.fail "expected Explained");
  let default = Explain.explain problem in
  Alcotest.(check (list string))
    "same MUS as without inprocessing"
    (List.sort compare (core_ids default.Explain.status))
    (List.sort compare (core_ids report.Explain.status))

let test_whatif_inprocessing () =
  (* a long-lived what-if session with passes active: deadline deltas
     reify against response-time terms whose variables the session
     names later, so elimination must never invalidate a cached bit *)
  let problem = feasible_problem () in
  let w = Explain.Whatif.create ~options:Configs.inprocess problem in
  (match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible { relaxed; _ } ->
    Alcotest.(check bool) "baseline not relaxed" false relaxed
  | _ -> Alcotest.fail "baseline should be feasible");
  let tighten task = Explain.Whatif.Set_deadline { task; deadline = 15 } in
  (match Explain.Whatif.query w [ tighten 0; tighten 1; tighten 2 ] with
  | Explain.Whatif.Infeasible { deltas; _ } ->
    Alcotest.(check bool) "tightenings blamed in core" true (deltas <> [])
  | _ -> Alcotest.fail "three tightened deadlines should be infeasible");
  (match Explain.Whatif.query w [ tighten 0 ] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "one tightened deadline should stay feasible");
  (* and the baseline still answers after the detours *)
  match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "baseline must stay feasible"

let test_parse_deltas () =
  let problem = overconstrained () in
  let ok s =
    match Explain.Whatif.parse_deltas problem s with
    | Ok ds -> ds
    | Error m -> Alcotest.fail (s ^ ": " ^ m)
  in
  Alcotest.(check int) "empty query" 0 (List.length (ok ""));
  (match ok "pin fusion-a 1, forbid 2 0" with
  | [ Explain.Whatif.Pin { task = 0; ecu = 1 }; Explain.Whatif.Forbid { task = 2; ecu = 0 } ]
    -> ()
  | _ -> Alcotest.fail "pin/forbid parse");
  (match ok "drop deadline fusion-b; deadline watchdog 40" with
  | [
      Explain.Whatif.Drop (Encode.G_deadline 1);
      Explain.Whatif.Set_deadline { task = 4; deadline = 40 };
    ] -> ()
  | _ -> Alcotest.fail "drop/deadline parse");
  (match Explain.Whatif.parse_deltas problem "pin nosuch 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown task must be rejected");
  match Explain.Whatif.parse_deltas problem "frobnicate 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb must be rejected"

(* Random instances on two ECUs: whenever the engine explains one, the
   core must re-solve to Unsat in a fresh session and, when claimed
   minimal, lose unsatisfiability on every single-group deletion. *)
let prop_explained_cores_check options =
  let gen =
    QCheck.Gen.(
      let* n_tasks = int_range 2 5 in
      let task_gen i =
        let* w = int_range 5 20 in
        let* slack = int_range 0 25 in
        let deadline = w + slack in
        let* extra = int_range 0 60 in
        return (mk_task i (Printf.sprintf "t%d" i) (deadline + extra) deadline
                  [ (0, w); (1, w) ])
      in
      let rec tasks i =
        if i = n_tasks then return []
        else
          let* t = task_gen i in
          let* rest = tasks (i + 1) in
          return (t :: rest)
      in
      let* ts = tasks 0 in
      return (Model.make_problem ~arch:arch2 ~tasks:ts))
  in
  QCheck.Test.make ~count:40 ~name:"explained cores verify against the oracle"
    (QCheck.make gen)
    (fun problem ->
      let report = Explain.explain ~options problem in
      match report.Explain.status with
      | Explain.Feasible | Explain.Unknown -> true
      | Explain.Explained { core; minimal } ->
        let ids = List.map Encode.group_id core in
        let assume, selector_of = fresh_session ~options problem in
        assume_groups assume selector_of ids = Solver.Unsat
        && ((not minimal)
           || List.for_all
                (fun dropped ->
                  let rest = List.filter (fun id -> id <> dropped) ids in
                  assume_groups assume selector_of rest = Solver.Sat)
                ids))

(* every case built on the default encoder configuration *)
let cases options =
  [
    Alcotest.test_case "feasible problem" `Quick (test_explain_feasible options);
    Alcotest.test_case "core is the three deadlines" `Quick
      (test_explain_core_is_deadlines options);
    Alcotest.test_case "core unsat in isolation" `Quick
      (test_core_unsat_in_isolation options);
    Alcotest.test_case "core minimality" `Quick (test_core_minimality options);
    Alcotest.test_case "relaxations restore feasibility" `Quick
      (test_relaxations_restore_feasibility options);
    Alcotest.test_case "parallel shrink agrees" `Quick
      (test_parallel_shrink_agrees options);
    Alcotest.test_case "budget expiry mid-shrink" `Quick
      (test_budget_expiry_mid_shrink options);
    Alcotest.test_case "whatif session reuse" `Quick (test_whatif_session_reuse options);
    Alcotest.test_case "whatif deadline deltas" `Quick
      (test_whatif_deadline_delta options);
    Alcotest.test_case "whatif deadline-bit cache stays bounded" `Quick
      (test_whatif_cache_bounded options);
    QCheck_alcotest.to_alcotest (prop_explained_cores_check options);
  ]

let suite =
  cases Encode.default_options
  @ [
      Alcotest.test_case "core minimality (lazy encoding)" `Quick
        test_core_minimality_lazy;
      Alcotest.test_case "explain with inprocessing" `Quick test_explain_inprocessing;
      Alcotest.test_case "whatif with inprocessing" `Quick test_whatif_inprocessing;
      Alcotest.test_case "parse deltas" `Quick test_parse_deltas;
    ]
  @ Configs.variants cases
