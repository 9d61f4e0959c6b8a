(* Tests for the deterministic workload generators: dimensions,
   determinism, and feasibility-by-witness. *)

open Taskalloc_rt
open Taskalloc_workloads
module Encode = Taskalloc_core.Encode

let count_messages problem =
  Array.length (Model.all_messages problem)

let test_chain_split () =
  List.iter
    (fun n ->
      let chains = Workloads.chain_split n in
      Alcotest.(check int) (Printf.sprintf "sum %d" n) n (List.fold_left ( + ) 0 chains);
      List.iter
        (fun len -> Alcotest.(check bool) "len 2..4" true (len >= 2 && len <= 4))
        chains)
    [ 7; 12; 20; 30; 43 ]

let test_tindell43_dimensions () =
  let problem = Workloads.tindell43 () in
  Alcotest.(check int) "43 tasks" 43 (Array.length problem.Model.tasks);
  Alcotest.(check int) "8 ecus" 8 problem.Model.arch.Model.n_ecus;
  (* 12 chains of the default spec: messages = 43 - 12 = 31 *)
  Alcotest.(check int) "31 messages" 31 (count_messages problem);
  Alcotest.(check int) "one medium" 1 (List.length problem.Model.arch.Model.media);
  (match problem.Model.arch.Model.media with
  | [ m ] -> Alcotest.(check bool) "tdma" true (m.Model.kind = Model.Tdma)
  | _ -> Alcotest.fail "one medium expected");
  (* some separation constraint survives generation *)
  let separations =
    Array.fold_left
      (fun acc t -> acc + List.length t.Model.separation)
      0 problem.Model.tasks
  in
  Alcotest.(check bool) "has separations" true (separations > 0)

let test_determinism () =
  let p1 = Workloads.small ~seed:11 () and p2 = Workloads.small ~seed:11 () in
  Alcotest.(check bool) "same tasks" true (p1.Model.tasks = p2.Model.tasks);
  let p3 = Workloads.small ~seed:12 () in
  Alcotest.(check bool) "different seed differs" true (p1.Model.tasks <> p3.Model.tasks)

let test_witness_feasibility options () =
  (* generation guarantees a feasible witness exists: greedy or brute
     force must find one *)
  List.iter
    (fun seed ->
      let problem = Workloads.small ~seed () in
      match Taskalloc_heuristics.Heuristics.greedy problem (Taskalloc_heuristics.Heuristics.Trt 0) with
      | Some (alloc, _) ->
        Alcotest.(check bool) "greedy witness feasible" true
          (Check.is_feasible problem alloc)
      | None ->
        (* greedy can diverge from the generator's witness; fall back to
           the SAT allocator as the feasibility oracle *)
        (match
           Taskalloc_core.Allocator.solve ~options problem
             Taskalloc_core.Encode.Feasible
         with
        | Taskalloc_core.Allocator.Solved r ->
          Alcotest.(check (list string)) "sat witness ok" []
            (List.map (Fmt.str "%a" Check.pp_violation) r.violations)
        | Taskalloc_core.Allocator.Infeasible | Taskalloc_core.Allocator.Unknown ->
          Alcotest.fail (Printf.sprintf "seed %d generated infeasible" seed)))
    [ 1; 2; 3; 4 ]

(* Tables 2 and 3 of the paper: the formula (eager encoding, TRT
   objective) grows strictly in both variables and literals as tasks or
   ECUs are added.  The exact sizes pin the encoder at the default
   seed. *)
let check_formula_growth what expected problems =
  let sizes =
    List.map
      (fun problem ->
        let enc = Encode.encode problem (Encode.Min_trt 0) in
        (Encode.n_bool_vars enc, Encode.n_literals enc))
      problems
  in
  Alcotest.(check (list (pair int int))) (what ^ ": vars, lits") expected sizes;
  let rec increasing = function
    | (v, l) :: ((v', l') :: _ as rest) -> v < v' && l < l' && increasing rest
    | _ -> true
  in
  Alcotest.(check bool) (what ^ ": vars and lits grow strictly") true
    (increasing sizes)

let test_task_scaling_sizes () =
  let ns = [ 7; 12; 20 ] in
  let problems = List.map (fun n -> Workloads.task_scaling ~n ()) ns in
  List.iter2
    (fun n problem ->
      Alcotest.(check int) (Printf.sprintf "%d tasks" n) n (Array.length problem.Model.tasks))
    ns problems;
  check_formula_growth "tasks 7/12/20"
    [ (4172, 29128); (9409, 66794); (24054, 164269) ]
    problems

let test_arch_scaling_sizes () =
  let ecus = [ 8; 16 ] in
  let problems = List.map (fun n_ecus -> Workloads.arch_scaling ~n_ecus ()) ecus in
  List.iter2
    (fun n_ecus problem ->
      Alcotest.(check int) "30 tasks" 30 (Array.length problem.Model.tasks);
      Alcotest.(check int) "ecus" n_ecus problem.Model.arch.Model.n_ecus)
    ecus problems;
  check_formula_growth "ECUs 8/16" [ (54158, 377371); (83630, 515004) ] problems

let test_hierarchical_architectures () =
  let a = Workloads.hierarchical ~n_tasks:8 Workloads.A in
  Alcotest.(check int) "A: 9 ecus" 9 a.Model.arch.Model.n_ecus;
  Alcotest.(check int) "A: 2 media" 2 (List.length a.Model.arch.Model.media);
  Alcotest.(check (list int)) "A: gateway barred" [ 8 ] a.Model.arch.Model.barred;
  let b = Workloads.hierarchical ~n_tasks:8 Workloads.B in
  Alcotest.(check int) "B: 3 media" 3 (List.length b.Model.arch.Model.media);
  Alcotest.(check (list int)) "B: two gateways" [ 12; 13 ] b.Model.arch.Model.barred;
  let c = Workloads.hierarchical ~n_tasks:8 Workloads.C in
  Alcotest.(check int) "C: 8 ecus" 8 c.Model.arch.Model.n_ecus;
  Alcotest.(check (list int)) "C: no barred" [] c.Model.arch.Model.barred;
  (* on C, ECU 0 links the two buses *)
  let topo = c.Model.topology in
  Alcotest.(check (option int)) "C gateway is 0" (Some 0)
    (Taskalloc_topology.Topology.gateway_between topo 0 1)

let test_barred_tasks_excluded () =
  let a = Workloads.hierarchical ~n_tasks:8 Workloads.A in
  Array.iter
    (fun task ->
      let allowed = Model.allowed_ecus a task in
      Alcotest.(check bool) "gateway not allowed" false (List.mem 8 allowed))
    a.Model.tasks

let test_deadlines_within_periods () =
  let problem = Workloads.tindell43 () in
  Array.iter
    (fun task ->
      Alcotest.(check bool) "d <= t" true (task.Model.deadline <= task.Model.period);
      Alcotest.(check bool) "d > 0" true (task.Model.deadline > 0))
    problem.Model.tasks

let test_rng_determinism () =
  let r1 = Rng.create 99 and r2 = Rng.create 99 in
  let s1 = List.init 20 (fun _ -> Rng.int r1 1000) in
  let s2 = List.init 20 (fun _ -> Rng.int r2 1000) in
  Alcotest.(check (list int)) "identical streams" s1 s2;
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000)) s1

let test_rng_range () =
  let r = Rng.create 1 in
  for _ = 1 to 100 do
    let v = Rng.range r 5 9 in
    Alcotest.(check bool) "range" true (v >= 5 && v <= 9)
  done

let test_c_can_architecture () =
  let p = Workloads.hierarchical_c_can ~n_tasks:8 () in
  match p.Model.arch.Model.media with
  | [ upper; lower ] ->
    Alcotest.(check bool) "upper is CAN" true (upper.Model.kind = Model.Priority);
    Alcotest.(check bool) "lower is TDMA" true (lower.Model.kind = Model.Tdma)
  | _ -> Alcotest.fail "two media expected"

let test_custom_spec () =
  let spec =
    {
      Generate.default_spec with
      seed = 77;
      chain_lengths = [ 2; 2; 2 ];
      n_separations = 0;
      pin_fraction = 0.0;
    }
  in
  let p = Generate.generate ~spec (Archs.token_ring ~n_ecus:2 ()) in
  Alcotest.(check int) "6 tasks" 6 (Array.length p.Model.tasks);
  Alcotest.(check int) "3 messages" 3 (Array.length (Model.all_messages p));
  (* no pins: every task has both ECUs admissible *)
  Array.iter
    (fun t ->
      Alcotest.(check int) "unpinned" 2 (List.length (Model.allowed_ecus p t)))
    p.Model.tasks

let test_memory_capacities_finite () =
  let p = Workloads.tindell43 () in
  let finite =
    Array.to_list p.Model.arch.Model.mem_capacity
    |> List.filter (fun c -> c < max_int)
  in
  Alcotest.(check int) "all app ECUs capped" 8 (List.length finite);
  (* and the capacities admit the total memory demand *)
  let demand = Array.fold_left (fun a t -> a + t.Model.memory) 0 p.Model.tasks in
  let supply = List.fold_left ( + ) 0 finite in
  Alcotest.(check bool) "supply >= demand" true (supply >= demand)

let test_message_endpoints_within_chains () =
  (* messages only link consecutive tasks, so src < dst and both in range *)
  let p = Workloads.tindell43 () in
  Array.iter
    (fun (m : Model.message) ->
      Alcotest.(check bool) "src < dst" true (m.Model.src < m.Model.dst);
      Alcotest.(check bool) "deadline positive" true (m.Model.msg_deadline > 0))
    (Model.all_messages p)

let suite =
  [
    Alcotest.test_case "chain split" `Quick test_chain_split;
    Alcotest.test_case "tindell43 dimensions" `Quick test_tindell43_dimensions;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "witness feasibility" `Slow
      (test_witness_feasibility Taskalloc_core.Encode.default_options);
    Alcotest.test_case "task scaling sizes" `Quick test_task_scaling_sizes;
    Alcotest.test_case "arch scaling sizes" `Quick test_arch_scaling_sizes;
    Alcotest.test_case "hierarchical architectures" `Quick test_hierarchical_architectures;
    Alcotest.test_case "barred tasks excluded" `Quick test_barred_tasks_excluded;
    Alcotest.test_case "deadlines within periods" `Quick test_deadlines_within_periods;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng range" `Quick test_rng_range;
    Alcotest.test_case "c-can architecture" `Quick test_c_can_architecture;
    Alcotest.test_case "custom spec" `Quick test_custom_spec;
    Alcotest.test_case "memory capacities" `Quick test_memory_capacities_finite;
    Alcotest.test_case "message endpoints" `Quick test_message_endpoints_within_chains;
  ]
  @ Configs.variants (fun options ->
        [
          Alcotest.test_case "witness feasibility" `Slow
            (test_witness_feasibility options);
        ])
