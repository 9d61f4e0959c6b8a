(* End-to-end tests of the SAT encoder + optimizer against brute-force
   enumeration and the independent analytical checker. *)

open Taskalloc_rt
open Taskalloc_core
open Taskalloc_workloads

(* enumerate all placements over allowed ECUs *)
let all_placements problem =
  let tasks = problem.Model.tasks in
  let n = Array.length tasks in
  let rec go i acc =
    if i = n then [ Array.of_list (List.rev acc) ]
    else
      Model.allowed_ecus problem tasks.(i)
      |> List.concat_map (fun e -> go (i + 1) (e :: acc))
  in
  go 0 []

(* brute-force optimum over placements with deterministic route/slot
   completion; sound for flat architectures with loose deadlines *)
let brute_force problem objective =
  all_placements problem
  |> List.filter_map (fun placement ->
         match Taskalloc_heuristics.Heuristics.try_complete problem placement with
         | Some alloc when Check.is_feasible problem alloc ->
           Some (Taskalloc_heuristics.Heuristics.evaluate problem alloc objective)
         | _ -> None)
  |> function
  | [] -> None
  | costs -> Some (List.fold_left min max_int costs)

(* Most tests below predate the anytime [outcome] type and reason in
   [result option] terms; without a budget [Unknown] is impossible, so
   collapsing the outcome is lossless here. *)
let to_opt = function
  | Allocator.Solved r -> Some r
  | Allocator.Infeasible -> None
  | Allocator.Unknown -> Alcotest.fail "Unknown without a budget"

let solve ~options ?mode ?validate problem objective =
  to_opt (Allocator.solve ~options ?mode ?validate problem objective)

(* the quickstart instance, with a known optimum *)
let quickstart_problem () =
  let arch =
    {
      Model.n_ecus = 2;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "ring";
            kind = Model.Tdma;
            ecus = [ 0; 1 ];
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = [| max_int; max_int |];
      gateway_service = 0;
      barred = [];
    }
  in
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 4; msg_deadline = 50 } in
  let tasks =
    [
      {
        Model.task_id = 0;
        task_name = "a";
        period = 40;
        wcets = [ (0, 5); (1, 6) ];
        deadline = 30;
        memory = 1;
        separation = [ 1 ];
        messages = [ msg ];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
      {
        Model.task_id = 1;
        task_name = "b";
        period = 60;
        wcets = [ (0, 8); (1, 8) ];
        deadline = 50;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
      {
        Model.task_id = 2;
        task_name = "c";
        period = 25;
        wcets = [ (0, 4); (1, 4) ];
        deadline = 20;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
    ]
  in
  Model.make_problem ~arch ~tasks

let test_quickstart_golden options () =
  let problem = quickstart_problem () in
  match solve ~options problem (Encode.Min_trt 0) with
  | None -> Alcotest.fail "expected feasible"
  | Some r ->
    (* frame = 6 ticks from the sender, 1 tick for the other station *)
    Alcotest.(check int) "optimal TRT" 7 r.cost;
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations)

let test_quickstart_matches_brute_force options () =
  let problem = quickstart_problem () in
  let expected = brute_force problem (Taskalloc_heuristics.Heuristics.Trt 0) in
  match solve ~options problem (Encode.Min_trt 0) with
  | None -> Alcotest.(check (option int)) "both infeasible" expected None
  | Some r -> Alcotest.(check (option int)) "optimum" (Some r.cost) expected

let test_infeasible_detected options () =
  (* two mutually separated tasks but only one ECU *)
  let arch =
    {
      Model.n_ecus = 1;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "ring";
            kind = Model.Tdma;
            ecus = [ 0 ];
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = [| max_int |];
      gateway_service = 0;
      barred = [];
    }
  in
  let tasks =
    [
      {
        Model.task_id = 0;
        task_name = "a";
        period = 50;
        wcets = [ (0, 5) ];
        deadline = 40;
        memory = 1;
        separation = [ 1 ];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
      {
        Model.task_id = 1;
        task_name = "b";
        period = 50;
        wcets = [ (0, 5) ];
        deadline = 40;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
    ]
  in
  let problem = Model.make_problem ~arch ~tasks in
  Alcotest.(check bool) "infeasible" true (solve ~options problem Encode.Feasible = None)

let test_generated_small_trt options () =
  (* generated instances: solver optimum matches brute force, and the
     extracted allocation passes the analytical checker *)
  List.iter
    (fun seed ->
      let problem = Workloads.small ~seed ~n_ecus:3 ~n_tasks:5 () in
      let expected = brute_force problem (Taskalloc_heuristics.Heuristics.Trt 0) in
      match solve ~options problem (Encode.Min_trt 0) with
      | None -> Alcotest.(check (option int)) "both infeasible" expected None
      | Some r ->
        Alcotest.(check (list string)) "checker clean" []
          (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
        (match expected with
        | Some bf -> Alcotest.(check bool) "solver <= brute force" true (r.cost <= bf)
        | None -> ()))
    [ 3; 11; 19 ]

let test_generated_small_can_load options () =
  List.iter
    (fun seed ->
      let problem = Workloads.small_can ~seed ~n_ecus:3 ~n_tasks:5 () in
      let expected = brute_force problem (Taskalloc_heuristics.Heuristics.Bus_load 0) in
      match solve ~options problem (Encode.Min_bus_load 0) with
      | None -> Alcotest.(check (option int)) "both infeasible" expected None
      | Some r ->
        Alcotest.(check (list string)) "checker clean" []
          (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
        (match expected with
        | Some bf ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: solver %d <= brute force %d" seed r.cost bf)
            true (r.cost <= bf)
        | None -> ()))
    [ 3; 11 ]

let test_binary_encoding_agrees options () =
  let problem = quickstart_problem () in
  let onehot = solve ~options problem (Encode.Min_trt 0) in
  let binary =
    solve
      ~options:{ options with alloc_encoding = Encode.Binary }
      problem (Encode.Min_trt 0)
  in
  match (onehot, binary) with
  | Some a, Some b -> Alcotest.(check int) "same optimum" a.cost b.cost
  | _ -> Alcotest.fail "both encodings should be feasible"

let test_cnf_pb_agrees options () =
  let problem = quickstart_problem () in
  let native = solve ~options problem (Encode.Min_trt 0) in
  let cnf =
    solve
      ~options:{ options with pb_mode = Taskalloc_pb.Pb.Cnf }
      problem (Encode.Min_trt 0)
  in
  match (native, cnf) with
  | Some a, Some b -> Alcotest.(check int) "same optimum" a.cost b.cost
  | _ -> Alcotest.fail "both PB modes should be feasible"

let test_fresh_mode_agrees options () =
  let problem = quickstart_problem () in
  let incr = solve ~options problem (Encode.Min_trt 0) in
  let fresh = solve ~options ~mode:Taskalloc_opt.Opt.Fresh problem (Encode.Min_trt 0) in
  match (incr, fresh) with
  | Some a, Some b -> Alcotest.(check int) "same optimum" a.cost b.cost
  | _ -> Alcotest.fail "both modes should be feasible"

let test_max_util_objective options () =
  let problem = Workloads.small ~seed:5 ~n_ecus:3 ~n_tasks:6 () in
  match solve ~options problem Encode.Min_max_util with
  | None -> Alcotest.fail "feasible workload by construction"
  | Some r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    (* the reported cost bounds the actual maximal utilization *)
    let actual =
      List.fold_left
        (fun m e -> max m (Model.ecu_utilization_permille problem r.allocation e))
        0
        (List.init problem.Model.arch.Model.n_ecus Fun.id)
    in
    Alcotest.(check bool) "cost >= actual max util" true (r.cost >= actual)

let test_hierarchical_small options () =
  let problem = Workloads.small_hierarchical ~seed:7 ~n_tasks:6 Workloads.C in
  match solve ~options problem Encode.Min_sum_trt with
  | None -> Alcotest.fail "feasible by construction"
  | Some r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    Alcotest.(check bool) "cost positive" true (r.cost > 0)

let test_solver_ties_dominate options () =
  (* Two equal-deadline tasks forced onto one ECU.  With the id
     tie-break (task 0 higher) task 1 misses: r = 4 + ceil(r/5)*3
     diverges past 9.  With the opposite order both fit: r0 = 3 +
     ceil(r/9)*4 = 7 <= 9 and r1 = 4.  Only the Solver_ties encoding
     (eqs. 9-10 with free, consistent tie bits) finds it. *)
  let arch =
    {
      Model.n_ecus = 1;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "ring";
            kind = Model.Tdma;
            ecus = [ 0 ];
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = [| max_int |];
      gateway_service = 0;
      barred = [];
    }
  in
  let tasks =
    [
      {
        Model.task_id = 0;
        task_name = "a";
        period = 5;
        wcets = [ (0, 3) ];
        deadline = 9;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
      {
        Model.task_id = 1;
        task_name = "b";
        period = 9;
        wcets = [ (0, 4) ];
        deadline = 9;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
    ]
  in
  let problem = Model.make_problem ~arch ~tasks in
  let static =
    solve
      ~options:{ options with tie_breaking = Encode.Static_ties }
      problem Encode.Feasible
  in
  Alcotest.(check bool) "static ties infeasible" true (static = None);
  (match
     solve
       ~options:{ options with tie_breaking = Encode.Solver_ties }
       problem Encode.Feasible
   with
  | None -> Alcotest.fail "solver ties should find the swap"
  | Some r ->
    Alcotest.(check (list string)) "checker accepts swapped priorities" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    (match r.allocation.Model.priority_rank with
    | Some rank ->
      Alcotest.(check bool) "task 1 got higher priority" true (rank.(1) < rank.(0))
    | None -> Alcotest.fail "encoder should record the priority order"))

let test_tie_transitivity options () =
  (* three equal-deadline tasks; extraction must produce a strict total
     order (a permutation of ranks) *)
  let problem = Workloads.small ~seed:21 ~n_ecus:2 ~n_tasks:4 () in
  let tasks =
    Array.map (fun t -> { t with Model.deadline = 60; period = 60 }) problem.Model.tasks
  in
  let problem =
    Model.make_problem ~arch:problem.Model.arch ~tasks:(Array.to_list tasks)
  in
  match solve ~options problem Encode.Feasible with
  | None -> () (* equalizing deadlines may make it infeasible: fine *)
  | Some r -> (
    match r.allocation.Model.priority_rank with
    | Some rank ->
      let sorted = Array.copy rank in
      Array.sort Int.compare sorted;
      Alcotest.(check bool) "rank is a permutation" true
        (Array.to_list sorted = List.init (Array.length rank) Fun.id);
      Alcotest.(check (list string)) "checker clean" []
        (List.map (Fmt.str "%a" Check.pp_violation) r.violations)
    | None -> Alcotest.fail "rank expected")

let test_feasibility_only options () =
  let problem = Workloads.small ~seed:9 () in
  match to_opt (Allocator.find_feasible ~options problem) with
  | None -> Alcotest.fail "feasible by construction"
  | Some r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations)

(* property: on random tiny instances, the solver's claimed optimum is
   never beaten by any brute-force completion, and its allocation is
   always analytically feasible *)
let prop_solver_sound_and_dominant options =
  QCheck.Test.make ~count:8 ~name:"solver sound vs checker, dominant vs brute force"
    QCheck.(make Gen.(int_range 1 10_000))
    (fun seed ->
      let problem = Workloads.small ~seed ~n_ecus:2 ~n_tasks:4 () in
      match solve ~options problem (Encode.Min_trt 0) with
      | None -> brute_force problem (Taskalloc_heuristics.Heuristics.Trt 0) = None
      | Some r -> (
        r.violations = []
        &&
        match brute_force problem (Taskalloc_heuristics.Heuristics.Trt 0) with
        | Some bf -> r.cost <= bf
        | None -> true))

let test_sum_trt_equals_trt_on_flat options () =
  let problem = Workloads.small ~seed:13 () in
  let a = solve ~options problem (Encode.Min_trt 0) in
  let b = solve ~options problem Encode.Min_sum_trt in
  match (a, b) with
  | Some a, Some b -> Alcotest.(check int) "same optimum on one medium" a.cost b.cost
  | _ -> Alcotest.fail "feasible by construction"

let test_formula_size_reported options () =
  let problem = Workloads.small ~seed:13 () in
  match solve ~options problem (Encode.Min_trt 0) with
  | Some r ->
    Alcotest.(check bool) "vars > 0" true (r.bool_vars > 0);
    Alcotest.(check bool) "lits >= vars" true (r.literals >= r.bool_vars)
  | None -> Alcotest.fail "feasible by construction"

let test_validate_flag options () =
  let problem = Workloads.small ~seed:13 () in
  match solve ~options problem (Encode.Min_trt 0) with
  | Some r ->
    Alcotest.(check (list string)) "validated" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    (match solve ~options ~validate:false problem (Encode.Min_trt 0) with
    | Some r' ->
      Alcotest.(check int) "same optimum" r.cost r'.cost;
      Alcotest.(check (list string)) "skipped" []
        (List.map (Fmt.str "%a" Check.pp_violation) r'.violations)
    | None -> Alcotest.fail "feasible")
  | None -> Alcotest.fail "feasible by construction"

let test_hierarchical_brute_force_bound options () =
  (* small hierarchical instance: the solver must not be beaten by any
     placement completed with shortest routes and queue-sized slots *)
  let problem = Workloads.small_hierarchical ~seed:3 ~n_tasks:5 Workloads.C in
  match solve ~options problem Encode.Min_sum_trt with
  | None -> Alcotest.fail "feasible by construction"
  | Some r -> (
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    match brute_force problem Taskalloc_heuristics.Heuristics.Sum_trt with
    | Some bf ->
      Alcotest.(check bool)
        (Printf.sprintf "solver %d <= brute %d" r.cost bf)
        true (r.cost <= bf)
    | None -> ())

let test_objective_trt_on_priority_bus_rejected options () =
  let problem = Workloads.small_can ~seed:3 () in
  Alcotest.(check bool) "invalid objective" true
    (try
       ignore (solve ~options problem (Encode.Min_trt 0));
       false
     with Model.Invalid_model _ -> true)

let test_message_forced_across_gateway options () =
  (* pin sender and receiver on different buses of architecture A: the
     route must span both media and the checker must accept it *)
  let arch = Taskalloc_workloads.Archs.arch_a () in
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 3; msg_deadline = 120 } in
  let tasks =
    [
      {
        Model.task_id = 0;
        task_name = "src";
        period = 150;
        wcets = [ (0, 5) ];
        deadline = 100;
        memory = 1;
        separation = [];
        messages = [ msg ];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
      {
        Model.task_id = 1;
        task_name = "dst";
        period = 150;
        wcets = [ (5, 5) ];
        deadline = 100;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      };
    ]
  in
  let problem = Model.make_problem ~arch ~tasks in
  match solve ~options problem Encode.Min_sum_trt with
  | None -> Alcotest.fail "routable"
  | Some r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    (match r.allocation.Model.msg_route.(0) with
    | Model.Path [ 0; 1 ] -> ()
    | Model.Path p ->
      Alcotest.fail (Fmt.str "unexpected path %a" Fmt.(list ~sep:comma int) p)
    | Model.Local -> Alcotest.fail "cannot be local")

let one_ring_arch n =
  {
    Model.n_ecus = n;
    media =
      [
        {
          Model.med_id = 0;
          med_name = "ring";
          kind = Model.Tdma;
          ecus = List.init n Fun.id;
          byte_time = 1;
          frame_overhead = 2;
        };
      ];
    mem_capacity = Array.make n max_int;
    gateway_service = 0;
    barred = [];
  }

let plain_task ?(jitter = 0) ?(blocking = 0) ?(wcets = []) id ~period ~deadline =
  {
    Model.task_id = id;
    task_name = Printf.sprintf "t%d" id;
    period;
    wcets;
    deadline;
    memory = 1;
    separation = [];
    messages = [];
    jitter;
    blocking;
    criticality = 0;
  }

let test_blocking_forces_separation options () =
  (* A (c=4, d=8, t=10) and B (c=5, B=2, d=10, t=10): together
     r_B = 5 + 2 + 4 = 11 > 10, so they must split across the two ECUs;
     without the blocking factor r_B = 9 <= 10 and one ECU suffices. *)
  let both c = [ (0, c); (1, c) ] in
  let with_blocking b =
    let tasks =
      [
        plain_task 0 ~period:10 ~deadline:8 ~wcets:(both 4);
        plain_task 1 ~period:10 ~deadline:10 ~blocking:b ~wcets:(both 5);
      ]
    in
    Model.make_problem ~arch:(one_ring_arch 2) ~tasks
  in
  (match solve ~options (with_blocking 2) Encode.Min_max_util with
  | None -> Alcotest.fail "separating is feasible"
  | Some r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
    Alcotest.(check bool) "tasks separated" true
      (r.allocation.Model.task_ecu.(0) <> r.allocation.Model.task_ecu.(1)));
  (* sanity: without blocking, co-location on one ECU is feasible — the
     brute-force checker agrees *)
  let relaxed = with_blocking 0 in
  let alloc = Taskalloc_rt.Routing.complete relaxed [| 0; 0 |] in
  Alcotest.(check bool) "co-location feasible without blocking" true
    (Check.is_feasible relaxed alloc)

let test_jitter_consumes_deadline options () =
  (* c=5, d=10, t=20: feasible with J=4 (5+4 <= 10), infeasible with
     J=6 (5+6 > 10); encoder and checker must agree *)
  let mk j =
    Model.make_problem ~arch:(one_ring_arch 1)
      ~tasks:[ plain_task 0 ~period:20 ~deadline:10 ~jitter:j ~wcets:[ (0, 5) ] ]
  in
  (match solve ~options (mk 4) Encode.Feasible with
  | Some r ->
    Alcotest.(check (list string)) "J=4 feasible" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations)
  | None -> Alcotest.fail "J=4 should fit");
  Alcotest.(check bool) "J=6 infeasible" true (solve ~options (mk 6) Encode.Feasible = None)

let test_interferer_jitter_counts options () =
  (* high: c=3, t=10, J=7; low: c=6, d=12, t=20 on one ECU.
     r_low = 6 + ceil((r+7)/10)*3: 9 -> 6+2*3=12 -> 12 <= 12 feasible.
     Tighten d_low to 11: infeasible (12 > 11). *)
  let mk d_low =
    Model.make_problem ~arch:(one_ring_arch 1)
      ~tasks:
        [
          plain_task 0 ~period:10 ~deadline:10 ~jitter:7 ~wcets:[ (0, 3) ];
          plain_task 1 ~period:20 ~deadline:d_low ~wcets:[ (0, 6) ];
        ]
  in
  (match solve ~options (mk 12) Encode.Feasible with
  | Some r ->
    Alcotest.(check (list string)) "d=12 feasible" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.violations)
  | None -> Alcotest.fail "d=12 should fit");
  Alcotest.(check bool) "d=11 infeasible" true (solve ~options (mk 11) Encode.Feasible = None)

let test_jittery_workload_end_to_end options () =
  List.iter
    (fun seed ->
      let problem = Workloads.small_jittery ~seed () in
      (* the generated set really carries jitter/blocking *)
      let total_j =
        Array.fold_left (fun a t -> a + t.Model.jitter) 0 problem.Model.tasks
      in
      Alcotest.(check bool) "has jitter" true (total_j > 0);
      match solve ~options problem (Encode.Min_trt 0) with
      | None -> Alcotest.fail "feasible by construction"
      | Some r ->
        Alcotest.(check (list string)) "checker clean" []
          (List.map (Fmt.str "%a" Check.pp_violation) r.violations))
    [ 7; 8 ]

let test_diagnose_separation options () =
  (* infeasible because two separated tasks share the single ECU: only
     Drop_separation restores feasibility *)
  let tasks =
    [
      { (plain_task 0 ~period:50 ~deadline:40 ~wcets:[ (0, 5) ]) with
        Model.separation = [ 1 ] };
      plain_task 1 ~period:50 ~deadline:40 ~wcets:[ (0, 5) ];
    ]
  in
  let problem = Model.make_problem ~arch:(one_ring_arch 1) ~tasks in
  Alcotest.(check bool) "infeasible" true (solve ~options problem Encode.Feasible = None);
  let report = Allocator.diagnose ~options problem in
  List.iter
    (fun (relaxation, feasible) ->
      let expected =
        match relaxation with Allocator.Drop_separation -> true | _ -> false
      in
      Alcotest.(check bool)
        (Fmt.str "%a" Allocator.pp_relaxation relaxation)
        expected feasible)
    report

let test_diagnose_memory options () =
  (* memory-bound infeasibility: two 5-unit tasks, one 6-unit ECU *)
  let arch = { (one_ring_arch 1) with Model.mem_capacity = [| 6 |] } in
  let tasks =
    [
      { (plain_task 0 ~period:50 ~deadline:40 ~wcets:[ (0, 5) ]) with Model.memory = 5 };
      { (plain_task 1 ~period:50 ~deadline:40 ~wcets:[ (0, 5) ]) with Model.memory = 5 };
    ]
  in
  let problem = Model.make_problem ~arch ~tasks in
  Alcotest.(check bool) "infeasible" true (solve ~options problem Encode.Feasible = None);
  let report = Allocator.diagnose ~options problem in
  Alcotest.(check bool) "memory relaxation helps" true
    (List.exists
       (fun (r, ok) -> r = Allocator.Drop_memory && ok)
       report);
  Alcotest.(check bool) "separation relaxation does not" true
    (List.exists
       (fun (r, ok) -> r = Allocator.Drop_separation && not ok)
       report)

let test_report options () =
  let problem = Workloads.small ~seed:13 () in
  match solve ~options problem (Encode.Min_trt 0) with
  | None -> Alcotest.fail "feasible by construction"
  | Some r ->
    let report = Report.make problem r.allocation in
    (match Report.min_slack_percent report with
    | Some s -> Alcotest.(check bool) "non-negative slack when feasible" true (s >= 0)
    | None -> Alcotest.fail "slack expected");
    let text = Fmt.str "%a" Report.pp report in
    Alcotest.(check bool) "non-empty" true (String.length text > 0);
    Alcotest.(check bool) "mentions every task" true
      (Array.for_all
         (fun t ->
           let name = t.Model.task_name in
           let rec find i =
             i + String.length name <= String.length text
             && (String.sub text i (String.length name) = name || find (i + 1))
           in
           find 0)
         problem.Model.tasks)

let test_report_flags_misses () =
  (* an infeasible hand allocation must surface MISS and negative slack *)
  let tasks =
    [
      plain_task 0 ~period:10 ~deadline:10 ~wcets:[ (0, 6) ];
      plain_task 1 ~period:10 ~deadline:10 ~wcets:[ (0, 6) ];
    ]
  in
  let problem = Model.make_problem ~arch:(one_ring_arch 1) ~tasks in
  let alloc = Taskalloc_rt.Routing.complete problem [| 0; 0 |] in
  let report = Report.make problem alloc in
  match Report.min_slack_percent report with
  | Some s -> Alcotest.(check bool) "negative slack on miss" true (s < 0)
  | None -> Alcotest.fail "slack expected"

let test_incremental_integration options () =
  (* integrate a 4-task system, then add 2 more tasks: the original
     placement must be preserved verbatim and the result stay feasible *)
  let base = Workloads.small ~seed:31 ~n_ecus:3 ~n_tasks:4 () in
  match solve ~options base (Encode.Min_trt 0) with
  | None -> Alcotest.fail "base feasible by construction"
  | Some r_base ->
    (* extend with two new independent tasks *)
    let extra id =
      {
        Model.task_id = id;
        task_name = Printf.sprintf "new%d" id;
        period = 200;
        wcets = [ (0, 10); (1, 10); (2, 10) ];
        deadline = 150;
        memory = 1;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality = 0;
      }
    in
    let arch =
      (* lift memory caps so the extension is about placement, not memory *)
      {
        base.Model.arch with
        Model.mem_capacity = Array.make base.Model.arch.Model.n_ecus max_int;
      }
    in
    let extended =
      Model.make_problem ~arch
        ~tasks:(Array.to_list base.Model.tasks @ [ extra 4; extra 5 ])
    in
    (match
       to_opt
         (Allocator.solve_incremental ~options ~existing:r_base.Allocator.allocation
            extended (Encode.Min_trt 0))
     with
    | None -> Alcotest.fail "extension should fit"
    | Some r ->
      Alcotest.(check (list string)) "checker clean" []
        (List.map (Fmt.str "%a" Check.pp_violation) r.violations);
      for i = 0 to 3 do
        Alcotest.(check int)
          (Printf.sprintf "task %d pinned" i)
          r_base.Allocator.allocation.Model.task_ecu.(i)
          r.allocation.Model.task_ecu.(i)
      done)

let test_incremental_rejects_bad_pin options () =
  let base = Workloads.small ~seed:31 ~n_ecus:3 ~n_tasks:4 () in
  match solve ~options base Encode.Feasible with
  | None -> Alcotest.fail "feasible"
  | Some r ->
    (* forge a placement onto an ECU task 0 cannot run on *)
    let bogus = Array.copy r.Allocator.allocation.Model.task_ecu in
    let allowed = Model.allowed_ecus base base.Model.tasks.(0) in
    (match
       List.find_opt
         (fun e -> not (List.mem e allowed))
         (List.init base.Model.arch.Model.n_ecus Fun.id)
     with
    | None -> () (* task 0 can run anywhere: nothing to test *)
    | Some e ->
      bogus.(0) <- e;
      let forged = { r.Allocator.allocation with Model.task_ecu = bogus } in
      Alcotest.(check bool) "invalid pin rejected" true
        (try
           ignore (Allocator.solve_incremental ~options ~existing:forged base Encode.Feasible);
           false
         with Model.Invalid_model _ -> true))

(* -- graceful degradation under a budget ------------------------------- *)

module Budget = Allocator.Budget

let test_no_fallback_unknown options () =
  (* a pre-expired budget with the heuristic rung disabled: the only
     honest answer is a clean Unknown *)
  let problem = Workloads.small ~seed:13 () in
  match
    Allocator.solve ~options
      ~budget:(Budget.create ~timeout:0. ())
      ~fallback:false problem (Encode.Min_trt 0)
  with
  | Allocator.Unknown -> ()
  | Allocator.Solved _ -> Alcotest.fail "expired budget cannot solve"
  | Allocator.Infeasible -> Alcotest.fail "cannot prove infeasibility for free"

let test_heuristic_fallback_validated options () =
  (* same expired budget with the fallback enabled: a heuristic answer,
     clearly labelled, and clean under the analytical checker *)
  let problem = Workloads.small ~seed:13 () in
  match
    Allocator.solve ~options
      ~budget:(Budget.create ~timeout:0. ())
      problem (Encode.Min_trt 0)
  with
  | Allocator.Unknown -> Alcotest.fail "feasible workload: fallback should land"
  | Allocator.Infeasible -> Alcotest.fail "cannot prove infeasibility for free"
  | Allocator.Solved r ->
    (match r.Allocator.quality with
    | Allocator.Heuristic _ -> ()
    | q -> Alcotest.failf "expected heuristic provenance, got %a" Allocator.pp_quality q);
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.Allocator.violations);
    Alcotest.(check (option (float 0.0001))) "no gap claim" None (Allocator.gap r)

let test_anytime_quality_sound options () =
  (* sweep conflict budgets upward: every Solved outcome must be sound
     (checker-clean, cost bounded below by the true optimum when the
     provenance claims a bound) and the largest budget must be optimal *)
  let problem = quickstart_problem () in
  let optimum = 7 in
  List.iter
    (fun n ->
      match
        Allocator.solve ~options
          ~budget:(Budget.create ~max_conflicts:n ~check_every:1 ())
          problem (Encode.Min_trt 0)
      with
      | Allocator.Infeasible -> Alcotest.failf "budget %d: spurious infeasibility" n
      | Allocator.Unknown -> Alcotest.failf "budget %d: fallback should land" n
      | Allocator.Solved r -> (
        Alcotest.(check (list string))
          (Printf.sprintf "budget %d checker clean" n)
          []
          (List.map (Fmt.str "%a" Check.pp_violation) r.Allocator.violations);
        match r.Allocator.quality with
        | Allocator.Optimal ->
          Alcotest.(check int) (Printf.sprintf "budget %d optimal" n) optimum
            r.Allocator.cost
        | Allocator.Anytime { lower_bound } ->
          Alcotest.(check bool) "incumbent above optimum" true
            (r.Allocator.cost >= optimum);
          Alcotest.(check bool) "lower bound below optimum" true
            (lower_bound <= optimum)
        | Allocator.Heuristic _ ->
          Alcotest.(check bool) "heuristic cost sound" true
            (r.Allocator.cost >= optimum)))
    [ 0; 1; 2; 5; 20; 10_000 ]

let test_gap_tolerance_early_stop options () =
  (* any first incumbent is within a 100% gap; the result must carry an
     honest provenance (not claim optimality unless bounds met) *)
  let problem = quickstart_problem () in
  match Allocator.solve ~options ~gap_tol:1.0 problem (Encode.Min_trt 0) with
  | Allocator.Solved r ->
    Alcotest.(check (list string)) "checker clean" []
      (List.map (Fmt.str "%a" Check.pp_violation) r.Allocator.violations);
    (match Allocator.gap r with
    | Some g -> Alcotest.(check bool) "gap within tolerance" true (g <= 1.0)
    | None -> Alcotest.fail "sat-search results carry a gap")
  | _ -> Alcotest.fail "feasible by construction"

(* -- metamorphic properties: relabelings and rescalings of a problem
      that must not change what the optimizer concludes ---------------- *)

(* rebuild the problem with tasks in [order] (a permutation given as
   the list of old task ids in their new positions), remapping
   separation sets, message endpoints, and message ids *)
let permute_tasks order problem =
  let tasks = problem.Model.tasks in
  let new_of_old = Array.make (Array.length tasks) (-1) in
  List.iteri (fun new_id old_id -> new_of_old.(old_id) <- new_id) order;
  let next_msg = ref 0 in
  let tasks' =
    List.mapi
      (fun new_id old_id ->
        let t = tasks.(old_id) in
        {
          t with
          Model.task_id = new_id;
          separation = List.map (fun s -> new_of_old.(s)) t.Model.separation;
          messages =
            List.map
              (fun m ->
                let id = !next_msg in
                incr next_msg;
                {
                  m with
                  Model.msg_id = id;
                  src = new_of_old.(m.Model.src);
                  dst = new_of_old.(m.Model.dst);
                })
              t.Model.messages;
        })
      order
  in
  Model.make_problem ~arch:problem.Model.arch ~tasks:tasks'

(* multiply every time quantity (periods, deadlines, WCETs, jitter,
   blocking, byte times, frame overheads, gateway service) by [k] *)
let scale_times k problem =
  let arch = problem.Model.arch in
  let arch' =
    {
      arch with
      Model.media =
        List.map
          (fun m ->
            {
              m with
              Model.byte_time = k * m.Model.byte_time;
              frame_overhead = k * m.Model.frame_overhead;
            })
          arch.Model.media;
      gateway_service = k * arch.Model.gateway_service;
    }
  in
  let tasks' =
    Array.to_list problem.Model.tasks
    |> List.map (fun t ->
           {
             t with
             Model.period = k * t.Model.period;
             deadline = k * t.Model.deadline;
             jitter = k * t.Model.jitter;
             blocking = k * t.Model.blocking;
             wcets = List.map (fun (e, w) -> (e, k * w)) t.Model.wcets;
             messages =
               List.map
                 (fun m -> { m with Model.msg_deadline = k * m.Model.msg_deadline })
                 t.Model.messages;
           })
  in
  Model.make_problem ~arch:arch' ~tasks:tasks'

(* relabel ECUs by [perm] (perm.(old_ecu) = new_ecu), remapping WCET
   tables, media memberships, memory capacities, and barred lists *)
let permute_ecus perm problem =
  let arch = problem.Model.arch in
  let mem = Array.make arch.Model.n_ecus 0 in
  Array.iteri (fun old_e c -> mem.(perm.(old_e)) <- c) arch.Model.mem_capacity;
  let arch' =
    {
      arch with
      Model.media =
        List.map
          (fun m -> { m with Model.ecus = List.map (fun e -> perm.(e)) m.Model.ecus })
          arch.Model.media;
      mem_capacity = mem;
      barred = List.map (fun e -> perm.(e)) arch.Model.barred;
    }
  in
  let tasks' =
    Array.to_list problem.Model.tasks
    |> List.map (fun t ->
           { t with Model.wcets = List.map (fun (e, w) -> (perm.(e), w)) t.Model.wcets })
  in
  Model.make_problem ~arch:arch' ~tasks:tasks'

let optimum ~options problem =
  Option.map (fun r -> r.Allocator.cost) (solve ~options problem (Encode.Min_trt 0))

let test_metamorphic_task_permutation options () =
  let base = optimum ~options (quickstart_problem ()) in
  List.iter
    (fun order ->
      Alcotest.(check (option int)) "optimum invariant under task relabeling" base
        (optimum ~options (permute_tasks order (quickstart_problem ()))))
    [ [ 2; 0; 1 ]; [ 1; 2; 0 ]; [ 2; 1; 0 ] ]

let test_metamorphic_time_scaling options () =
  (* response-time fixed points scale exactly with k (see the rt-suite
     metamorphic tests), so scaling a solution scales its cost by k and
     the scaled optimum is at most k times the original.  It can be
     strictly less: the 1-tick minimum TDMA slot does not scale, so the
     optimizer wins back slack on the scaled instance (quickstart:
     7 -> 19, not 21, the receiver's slot staying at 1 tick instead
     of 3).  Feasibility, however, must be invariant. *)
  let k = 3 in
  match (optimum ~options (quickstart_problem ()), optimum ~options (scale_times k (quickstart_problem ()))) with
  | Some c, Some c' ->
    Alcotest.(check int) "base optimum" 7 c;
    Alcotest.(check bool) "scaled optimum within [c, k*c]" true (c <= c' && c' <= k * c)
  | _ -> Alcotest.fail "quickstart is feasible"

let test_metamorphic_ecu_permutation options () =
  let base = optimum ~options (quickstart_problem ()) in
  Alcotest.(check (option int)) "optimum invariant under ECU relabeling" base
    (optimum ~options (permute_ecus [| 1; 0 |] (quickstart_problem ())))

let test_metamorphic_infeasible_invariant options () =
  (* two mutually separated tasks on one ECU: infeasible however the
     instance is relabeled or rescaled *)
  let infeasible =
    let arch =
      {
        Model.n_ecus = 1;
        media =
          [
            {
              Model.med_id = 0;
              med_name = "ring";
              kind = Model.Tdma;
              ecus = [ 0 ];
              byte_time = 1;
              frame_overhead = 2;
            };
          ];
        mem_capacity = [| max_int |];
        gateway_service = 0;
        barred = [];
      }
    in
    let tasks =
      [
        {
          Model.task_id = 0;
          task_name = "a";
          period = 50;
          wcets = [ (0, 5) ];
          deadline = 40;
          memory = 1;
          separation = [ 1 ];
          messages = [];
          jitter = 0;
          blocking = 0;
          criticality = 0;
        };
        {
          Model.task_id = 1;
          task_name = "b";
          period = 50;
          wcets = [ (0, 5) ];
          deadline = 40;
          memory = 1;
          separation = [];
          messages = [];
          jitter = 0;
          blocking = 0;
          criticality = 0;
        };
      ]
    in
    Model.make_problem ~arch ~tasks
  in
  List.iter
    (fun problem ->
      Alcotest.(check bool) "still infeasible" true
        (solve ~options problem Encode.Feasible = None))
    [ infeasible; permute_tasks [ 1; 0 ] infeasible; scale_times 4 infeasible ]

(* every case that encodes, under one encoder configuration *)
let cases options =
  [
    Alcotest.test_case "quickstart golden" `Quick (test_quickstart_golden options);
    Alcotest.test_case "quickstart vs brute force" `Quick (test_quickstart_matches_brute_force options);
    Alcotest.test_case "infeasible detected" `Quick (test_infeasible_detected options);
    Alcotest.test_case "generated TRT vs brute force" `Slow (test_generated_small_trt options);
    Alcotest.test_case "generated CAN load vs brute force" `Slow (test_generated_small_can_load options);
    Alcotest.test_case "binary encoding agrees" `Quick (test_binary_encoding_agrees options);
    Alcotest.test_case "cnf pb agrees" `Quick (test_cnf_pb_agrees options);
    Alcotest.test_case "fresh mode agrees" `Quick (test_fresh_mode_agrees options);
    Alcotest.test_case "max util objective" `Slow (test_max_util_objective options);
    Alcotest.test_case "hierarchical small" `Slow (test_hierarchical_small options);
    Alcotest.test_case "solver ties dominate" `Quick (test_solver_ties_dominate options);
    Alcotest.test_case "tie transitivity" `Quick (test_tie_transitivity options);
    Alcotest.test_case "feasibility only" `Quick (test_feasibility_only options);
    Alcotest.test_case "sum-trt = trt on flat" `Quick (test_sum_trt_equals_trt_on_flat options);
    Alcotest.test_case "formula size reported" `Quick (test_formula_size_reported options);
    Alcotest.test_case "validate flag" `Quick (test_validate_flag options);
    Alcotest.test_case "hierarchical brute force bound" `Slow (test_hierarchical_brute_force_bound options);
    Alcotest.test_case "trt on priority bus rejected" `Quick (test_objective_trt_on_priority_bus_rejected options);
    Alcotest.test_case "forced gateway crossing" `Quick (test_message_forced_across_gateway options);
    Alcotest.test_case "blocking forces separation" `Quick (test_blocking_forces_separation options);
    Alcotest.test_case "jitter consumes deadline" `Quick (test_jitter_consumes_deadline options);
    Alcotest.test_case "interferer jitter counts" `Quick (test_interferer_jitter_counts options);
    Alcotest.test_case "jittery workload end to end" `Slow (test_jittery_workload_end_to_end options);
    Alcotest.test_case "incremental integration" `Quick (test_incremental_integration options);
    Alcotest.test_case "incremental rejects bad pin" `Quick (test_incremental_rejects_bad_pin options);
    Alcotest.test_case "report" `Quick (test_report options);
    Alcotest.test_case "diagnose separation" `Quick (test_diagnose_separation options);
    Alcotest.test_case "diagnose memory" `Quick (test_diagnose_memory options);
    Alcotest.test_case "no fallback yields Unknown" `Quick (test_no_fallback_unknown options);
    Alcotest.test_case "heuristic fallback validated" `Quick (test_heuristic_fallback_validated options);
    Alcotest.test_case "anytime quality sound" `Quick (test_anytime_quality_sound options);
    Alcotest.test_case "gap tolerance early stop" `Quick (test_gap_tolerance_early_stop options);
    Alcotest.test_case "metamorphic task permutation" `Quick (test_metamorphic_task_permutation options);
    Alcotest.test_case "metamorphic time scaling" `Quick (test_metamorphic_time_scaling options);
    Alcotest.test_case "metamorphic ecu permutation" `Quick (test_metamorphic_ecu_permutation options);
    Alcotest.test_case "metamorphic infeasible invariant" `Quick (test_metamorphic_infeasible_invariant options);
    QCheck_alcotest.to_alcotest (prop_solver_sound_and_dominant options);
  ]

let suite =
  [
    Alcotest.test_case "report flags misses" `Quick test_report_flags_misses;
  ]
  @ cases Encode.default_options
  @ Configs.variants cases
