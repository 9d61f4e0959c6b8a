(* Fault-injection harness for the degradation ladder.

   A chaos budget trips at exactly the Nth checkpoint poll
   ([check_every:1] makes every conflict a poll).  Sweeping N from 1
   upward drives the interruption through every point of the solve —
   mid-probe, between probes, during encoding of the next bound —
   and at each point the allocator must produce one of:

     - a [Solved] result whose allocation passes the independent
       analytical checker (with coherent provenance: an [Anytime]
       lower bound never exceeds the cost),
     - a clean [Infeasible] (only on actually-infeasible problems), or
     - a clean [Unknown] (only when the heuristic rung is off or fails),

   and never an exception.  A final uninterrupted run pins down the
   true optimum so the sweep can check incumbent soundness. *)

open Taskalloc_rt
open Taskalloc_core
open Taskalloc_workloads
module Budget = Allocator.Budget

(* trips at exactly the nth poll, then stays tripped (Budget latches) *)
let chaos_budget n =
  let polls = ref 0 in
  Budget.create ~check_every:1
    ~should_stop:(fun () ->
      incr polls;
      !polls >= n)
    ()

(* count how many polls an uninterrupted run performs, to bound the
   sweep: past that point the chaos budget never fires *)
let count_polls ~options problem objective =
  let polls = ref 0 in
  let budget =
    Budget.create ~check_every:1
      ~should_stop:(fun () ->
        incr polls;
        false)
      ()
  in
  ignore (Allocator.solve ~options ~budget problem objective);
  !polls

let check_solved ~label ~optimum problem (r : Allocator.result) =
  Alcotest.(check (list string))
    (label ^ ": checker clean")
    []
    (List.map (Fmt.str "%a" Check.pp_violation) r.Allocator.violations);
  match r.Allocator.quality with
  | Allocator.Optimal -> (
    match optimum with
    | Some opt ->
      Alcotest.(check int) (label ^ ": optimal cost") opt r.Allocator.cost
    | None -> Alcotest.failf "%s: claims optimality of an infeasible problem" label)
  | Allocator.Anytime { lower_bound } ->
    Alcotest.(check bool)
      (label ^ ": lower bound <= cost")
      true
      (lower_bound <= r.Allocator.cost);
    (match optimum with
    | Some opt ->
      Alcotest.(check bool) (label ^ ": incumbent sound") true
        (r.Allocator.cost >= opt);
      Alcotest.(check bool) (label ^ ": bound sound") true (lower_bound <= opt)
    | None -> Alcotest.failf "%s: incumbent for an infeasible problem" label);
    (match Allocator.gap r with
    | Some g -> Alcotest.(check bool) (label ^ ": gap in [0,1]") true (g >= 0. && g <= 1.)
    | None -> Alcotest.failf "%s: anytime result must report a gap" label)
  | Allocator.Heuristic _ -> (
    match optimum with
    | Some opt ->
      Alcotest.(check bool) (label ^ ": heuristic sound") true
        (r.Allocator.cost >= opt)
    | None ->
      (* a heuristic "solution" to an infeasible problem must have been
         caught by validation *)
      Alcotest.failf "%s: heuristic allocation for an infeasible problem" label);
  ignore problem

(* run one (problem, objective) pair through the full sweep *)
let sweep ~options ~name ~feasible problem objective =
  (* ground truth from an uninterrupted run *)
  let optimum =
    match Allocator.solve ~options problem objective with
    | Allocator.Solved r ->
      Alcotest.(check bool) (name ^ ": reference run optimal") true
        (r.Allocator.quality = Allocator.Optimal);
      Alcotest.(check bool) (name ^ ": expected feasibility") true feasible;
      Some r.Allocator.cost
    | Allocator.Infeasible ->
      Alcotest.(check bool) (name ^ ": expected infeasibility") false feasible;
      None
    | Allocator.Unknown -> Alcotest.fail (name ^ ": unbudgeted run cannot pause")
  in
  (* [total_polls] may legitimately be 0 when the instance is decided
     by pure propagation, without a single conflict *)
  let total_polls = count_polls ~options problem objective in
  (* every injection point, plus a few past the end (never fires) *)
  let points =
    List.init (min total_polls 60) (fun i -> i + 1)
    @ (if total_polls > 60 then
         [ total_polls * 1 / 4; total_polls / 2; total_polls * 3 / 4;
           total_polls - 1; total_polls ]
       else [])
    @ [ total_polls + 1; total_polls + 50 ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun fallback ->
          let label = Printf.sprintf "%s N=%d fallback=%b" name n fallback in
          match
            Allocator.solve ~options ~budget:(chaos_budget n) ~fallback problem
              objective
          with
          | Allocator.Solved r -> check_solved ~label ~optimum problem r
          | Allocator.Infeasible ->
            (* infeasibility is a proof; it must never be claimed of a
               feasible problem, interrupted or not *)
            Alcotest.(check bool) (label ^ ": infeasible only if truly so")
              false feasible
          | Allocator.Unknown ->
            (* acceptable: budget died before any incumbent and the
               heuristic rung was off (or could not complete) *)
            ()
          | exception e ->
            Alcotest.failf "%s: escaped exception %s" label (Printexc.to_string e))
        [ true; false ])
    points

let test_chaos_small_trt options () =
  let problem = Workloads.small ~seed:3 ~n_ecus:2 ~n_tasks:4 () in
  sweep ~options ~name:"small/Min_trt" ~feasible:true problem (Encode.Min_trt 0)

let test_chaos_small_sum_trt options () =
  let problem = Workloads.small ~seed:11 ~n_ecus:3 ~n_tasks:5 () in
  sweep ~options ~name:"small/Min_sum_trt" ~feasible:true problem Encode.Min_sum_trt

let test_chaos_can_bus_load options () =
  let problem = Workloads.small_can ~seed:3 ~n_ecus:3 ~n_tasks:5 () in
  sweep ~options ~name:"can/Min_bus_load" ~feasible:true problem (Encode.Min_bus_load 0)

let test_chaos_infeasible options () =
  (* two mutually separated tasks, one ECU: infeasible by construction;
     no interruption point may turn that into a "solution" *)
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
  let task id sep =
    {
      Model.task_id = id;
      task_name = Printf.sprintf "t%d" id;
      period = 50;
      wcets = [ (0, 5) ];
      deadline = 40;
      memory = 1;
      separation = sep;
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = 0;
    }
  in
  let problem = Model.make_problem ~arch ~tasks:[ task 0 [ 1 ]; task 1 [] ] in
  sweep ~options ~name:"infeasible/separation" ~feasible:false problem Encode.Feasible

let test_chaos_portfolio options () =
  (* parallel counterpart of the sweeps above: the budget trips at the
     nth poll *of some worker* while 3 diversified workers race the
     binary search.  Whatever the interleaving of expiry and
     cancellation, the allocator must return a validated result or a
     clean Unknown — no deadlock, no torn state, no exception.  Points
     past the sequential poll count exercise expiry racing the
     winner's cancellation broadcast. *)
  let problem = Workloads.small ~seed:3 ~n_ecus:2 ~n_tasks:4 () in
  let objective = Encode.Min_trt 0 in
  let optimum =
    match Allocator.solve ~options problem objective with
    | Allocator.Solved r -> Some r.Allocator.cost
    | _ -> Alcotest.fail "portfolio chaos: reference run failed"
  in
  (* user hooks are not inherited by derived budgets, so the chaos
     hook fires only in the coordinator's poll loop: the trip lands at
     a wall-clock point unrelated to any worker's progress, racing the
     cancellation broadcast against workers at arbitrary stages of the
     search — that is the race under test *)
  List.iter
    (fun n ->
      List.iter
        (fun fallback ->
          let label = Printf.sprintf "portfolio N=%d fallback=%b" n fallback in
          match
            Allocator.solve ~options ~jobs:3 ~budget:(chaos_budget n) ~fallback problem
              objective
          with
          | Allocator.Solved r -> check_solved ~label ~optimum problem r
          | Allocator.Infeasible ->
            Alcotest.fail (label ^ ": spurious infeasibility")
          | Allocator.Unknown ->
            (* clean pause: acceptable whenever the heuristic rung is
               off or could not complete *)
            ()
          | exception e ->
            Alcotest.failf "%s: escaped exception %s" label (Printexc.to_string e))
        [ true; false ])
    [ 1; 2; 3; 5; 8; 13; 21; 40; 80; 200; 1000; 5000 ]

let test_chaos_find_feasible options () =
  (* the feasibility entry point degrades the same way *)
  let problem = Workloads.small ~seed:7 ~n_ecus:2 ~n_tasks:4 () in
  for n = 1 to 25 do
    List.iter
      (fun fallback ->
        let label = Printf.sprintf "find_feasible N=%d fallback=%b" n fallback in
        match
          Allocator.find_feasible ~options ~budget:(chaos_budget n) ~fallback problem
        with
        | Allocator.Solved r ->
          Alcotest.(check (list string))
            (label ^ ": checker clean")
            []
            (List.map (Fmt.str "%a" Check.pp_violation) r.Allocator.violations)
        | Allocator.Infeasible ->
          Alcotest.fail (label ^ ": spurious infeasibility")
        | Allocator.Unknown -> ()
        | exception e ->
          Alcotest.failf "%s: escaped exception %s" label (Printexc.to_string e))
      [ true; false ]
  done

module Repair = Taskalloc_repair.Repair

let test_chaos_repair options () =
  (* Fault injection for the online repair engine: the budget trips at
     exactly the nth poll while a repair walks stay-pin probe ->
     migration minimization -> degradation ladder.  At every injection
     point the outcome must be a clean [Unknown] with the
     pre-disruption problem and allocation bit-identical (the system
     keeps running on the old allocation), or a fully validated
     [Repaired] — never a torn state, never an exception.  The scenario
     forces the deep path: the full repair is infeasible and one LO
     task must be shed. *)
  let task id name crit =
    {
      Model.task_id = id;
      task_name = name;
      period = 100;
      wcets = [ (0, 40); (1, 40); (2, 40) ];
      deadline = 50;
      memory = 1;
      separation = [];
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = crit;
    }
  in
  let arch =
    {
      Model.n_ecus = 3;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind = Model.Tdma;
            ecus = [ 0; 1; 2 ];
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = [| 64; 64; 64 |];
      gateway_service = 0;
      barred = [];
    }
  in
  let problem =
    Model.make_problem ~arch
      ~tasks:[ task 0 "hi-a" 1; task 1 "hi-b" 1; task 2 "lo" 0 ]
  in
  let alloc =
    match Allocator.find_feasible ~options problem with
    | Allocator.Solved r -> r.Allocator.allocation
    | _ -> Alcotest.fail "chaos repair: fixture must be feasible"
  in
  let event = Repair.Ecu_failure { ecu = 2 } in
  (* poll count of an uninterrupted repair bounds the sweep *)
  let total_polls =
    let polls = ref 0 in
    let budget =
      Budget.create ~check_every:1
        ~should_stop:(fun () ->
          incr polls;
          false)
        ()
    in
    let st = Repair.create ~options problem alloc in
    (match Repair.repair ~budget st event with
    | Repair.Repaired r ->
      Alcotest.(check bool) "reference repair degrades" true r.Repair.degraded
    | _ -> Alcotest.fail "chaos repair: reference repair must succeed");
    !polls
  in
  let points =
    List.init (min total_polls 50) (fun i -> i + 1)
    @ [ total_polls + 1; total_polls + 25 ]
  in
  List.iter
    (fun n ->
      let label = Printf.sprintf "repair N=%d" n in
      let st = Repair.create ~options problem alloc in
      let before = Array.copy (Repair.allocation st).Model.task_ecu in
      match Repair.repair ~budget:(chaos_budget n) st event with
      | Repair.Unknown -> (
        (* clean pause: nothing committed, nothing torn *)
        Alcotest.(check int) (label ^ ": problem untouched") 3
          (Array.length (Repair.problem st).Model.tasks);
        Alcotest.(check (array int))
          (label ^ ": allocation untouched")
          before
          (Repair.allocation st).Model.task_ecu;
        Alcotest.(check (list string)) (label ^ ": no sheds") []
          (Repair.shed_so_far st);
        (* the interrupted state still accepts an unbudgeted retry of
           the same event — no poisoned session survives the trip *)
        match Repair.repair st event with
        | Repair.Repaired _ -> ()
        | Repair.Irreparable _ | Repair.Unknown ->
          Alcotest.fail (label ^ ": state unusable after the trip"))
      | Repair.Repaired r ->
        (* finished before the trip: must be a fully valid repair *)
        Alcotest.(check int) (label ^ ": analyzer clean") 0
          r.Repair.check_violations;
        Alcotest.(check int) (label ^ ": sim clean") 0 r.Repair.sim_misses
      | Repair.Irreparable _ ->
        Alcotest.fail (label ^ ": spurious irreparability under budget")
      | exception e ->
        Alcotest.failf "%s: escaped exception %s" label (Printexc.to_string e))
    points

let cases options =
  [
    Alcotest.test_case "chaos sweep: small TRT" `Slow (test_chaos_small_trt options);
    Alcotest.test_case "chaos sweep: small sum-TRT" `Slow (test_chaos_small_sum_trt options);
    Alcotest.test_case "chaos sweep: CAN bus load" `Slow (test_chaos_can_bus_load options);
    Alcotest.test_case "chaos sweep: infeasible" `Quick (test_chaos_infeasible options);
    Alcotest.test_case "chaos sweep: find_feasible" `Quick (test_chaos_find_feasible options);
    Alcotest.test_case "chaos sweep: 3-worker portfolio" `Slow (test_chaos_portfolio options);
    Alcotest.test_case "chaos sweep: online repair" `Slow (test_chaos_repair options);
  ]

let suite = cases Encode.default_options @ Configs.variants cases
