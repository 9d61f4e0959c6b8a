(* Tests for the BIN_SEARCH optimizer, in both Fresh and Incremental
   modes, including qcheck equivalence against brute-force optima and
   the anytime (budget-exhausted) result contract. *)

open Taskalloc_bv
open Taskalloc_opt.Opt
module Budget = Taskalloc_sat.Budget

(* Small knapsack-like problem: choose items to cover a demand while
   minimizing weight.  Items (weight, value); demand on total value. *)
let knapsack_build ~inprocess items demand () =
  let ctx = Bv.create ~inprocess () in
  let picks = List.map (fun _ -> Bv.fresh_bool ctx) items in
  let value_terms =
    List.map2
      (fun b (_, v) -> Bv.ite ctx b (Bv.const v) (Bv.const 0))
      picks items
  in
  let weight_terms =
    List.map2
      (fun b (w, _) -> Bv.ite ctx b (Bv.const w) (Bv.const 0))
      picks items
  in
  let total_value = Bv.sum ctx value_terms in
  let total_weight = Bv.sum ctx weight_terms in
  Bv.assert_ ctx (Bv.ge_const ctx total_value demand);
  (ctx, total_weight)

let brute_force_knapsack items demand =
  let items = Array.of_list items in
  let n = Array.length items in
  let best = ref None in
  for mask = 0 to (1 lsl n) - 1 do
    let value = ref 0 and weight = ref 0 in
    for i = 0 to n - 1 do
      if (mask lsr i) land 1 = 1 then begin
        let w, v = items.(i) in
        weight := !weight + w;
        value := !value + v
      end
    done;
    if !value >= demand then
      match !best with
      | Some b when b <= !weight -> ()
      | _ -> best := Some !weight
  done;
  !best

let run_knapsack ~inprocess mode items demand =
  let result, _stats =
    minimize ~mode ~build:(knapsack_build ~inprocess items demand) ~on_sat:(fun _ cost -> cost) ()
  in
  match result.resolution with
  | Optimal -> Option.map fst result.incumbent
  | Infeasible -> None
  | Feasible_budget_exhausted | Unknown ->
    Alcotest.fail "unbudgeted run must not stop early"

let test_knapsack_both_modes ~inprocess () =
  let items = [ (5, 10); (4, 8); (6, 13); (3, 5); (8, 20) ] in
  let expected = brute_force_knapsack items 25 in
  Alcotest.(check (option int)) "fresh" expected (run_knapsack ~inprocess Fresh items 25);
  Alcotest.(check (option int)) "incremental" expected (run_knapsack ~inprocess Incremental items 25)

let test_infeasible ~inprocess () =
  let items = [ (5, 1); (4, 1) ] in
  Alcotest.(check (option int)) "fresh none" None (run_knapsack ~inprocess Fresh items 10);
  Alcotest.(check (option int)) "incr none" None (run_knapsack ~inprocess Incremental items 10)

let test_optimum_zero ~inprocess () =
  (* demand 0 is satisfied by the empty selection: optimal weight 0 *)
  let items = [ (5, 10); (3, 4) ] in
  Alcotest.(check (option int)) "zero fresh" (Some 0) (run_knapsack ~inprocess Fresh items 0);
  Alcotest.(check (option int)) "zero incr" (Some 0) (run_knapsack ~inprocess Incremental items 0)

let test_on_sat_extraction ~inprocess () =
  (* the last on_sat call must correspond to the optimum *)
  let items = [ (2, 3); (3, 4); (4, 6) ] in
  let seen = ref [] in
  let result, _ =
    minimize ~mode:Incremental
      ~build:(knapsack_build ~inprocess items 7)
      ~on_sat:(fun _ cost ->
        seen := cost :: !seen;
        cost)
      ()
  in
  match result.incumbent with
  | None -> Alcotest.fail "should be feasible"
  | Some (opt, payload) ->
    Alcotest.(check int) "payload is optimal cost" opt payload;
    Alcotest.(check int) "last extraction optimal" opt (List.hd !seen);
    Alcotest.(check (option (float 0.0001))) "gap is zero" (Some 0.) (gap result);
    Alcotest.(check int) "bounds meet" result.lower_bound opt;
    (* costs decrease monotonically over extractions *)
    let rec decreasing = function
      | a :: (b :: _ as rest) -> a <= b && decreasing rest
      | _ -> true
    in
    Alcotest.(check bool) "improving sequence" true (decreasing !seen)

let test_stats_populated ~inprocess () =
  let items = [ (5, 10); (4, 8); (6, 13) ] in
  let _, stats = minimize ~build:(knapsack_build ~inprocess items 20) ~on_sat:(fun _ c -> c) () in
  Alcotest.(check bool) "probes > 0" true (stats.probes > 0);
  Alcotest.(check bool) "vars > 0" true (stats.bool_vars > 0);
  Alcotest.(check bool) "sat+unsat=probes" true
    (stats.sat_probes + stats.unsat_probes = stats.probes);
  Alcotest.(check int) "no interruptions" 0 stats.interrupted_probes

let test_solve_feasible ~inprocess () =
  let build () =
    let ctx = Bv.create ~inprocess () in
    let x = Bv.var ctx ~hi:9 in
    Bv.assert_ ctx (Bv.ge_const ctx x 4);
    Bv.assert_ ctx (Bv.le_const ctx x 4);
    ctx
  in
  match solve_feasible ~build ~on_sat:(fun _ -> ()) () with
  | Feasible () -> ()
  | No_solution | Undecided -> Alcotest.fail "feasible"

let prop_modes_agree ~inprocess =
  QCheck.Test.make ~count:60 ~name:"Fresh and Incremental find the same optimum"
    QCheck.(
      make
        Gen.(
          let* n = int_range 1 6 in
          let* items = list_size (return n) (pair (int_range 1 9) (int_range 1 9)) in
          let* demand = int_range 0 20 in
          return (items, demand)))
    (fun (items, demand) ->
      let expected = brute_force_knapsack items demand in
      run_knapsack ~inprocess Fresh items demand = expected
      && run_knapsack ~inprocess Incremental items demand = expected)

(* a pigeonhole-hard core with a constant cost: the first (feasibility)
   probe cannot finish inside a tiny budget *)
let pigeonhole_build ~inprocess () =
  let ctx = Bv.create ~inprocess () in
  let open Taskalloc_sat in
  let s = Bv.solver ctx in
  let n = 9 in
  let x = Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Solver.new_var s)) in
  for p = 0 to n - 1 do
    Solver.add_clause s (List.init (n - 1) (fun h -> Lit.of_var x.(p).(h)))
  done;
  for h = 0 to n - 2 do
    for p1 = 0 to n - 1 do
      for p2 = p1 + 1 to n - 1 do
        Solver.add_clause s
          [ Lit.of_var ~sign:false x.(p1).(h); Lit.of_var ~sign:false x.(p2).(h) ]
      done
    done
  done;
  (ctx, Bv.const 0)

let test_budget_unknown ~inprocess () =
  (* a tiny conflict budget on a hard core yields a clean Unknown, not
     an exception *)
  let budget = Budget.create ~max_conflicts:3 ~check_every:1 () in
  let result, stats =
    minimize ~budget ~build:(pigeonhole_build ~inprocess) ~on_sat:(fun _ c -> c) ()
  in
  Alcotest.(check bool) "resolution unknown" true (result.resolution = Unknown);
  Alcotest.(check bool) "no incumbent" true (result.incumbent = None);
  Alcotest.(check (option (float 0.0001))) "no gap" None (gap result);
  Alcotest.(check int) "interrupted probe recorded" 1 stats.interrupted_probes

let test_timeout_budget_unknown ~inprocess () =
  (* an already-expired wall-clock deadline trips before any search *)
  let budget = Budget.create ~timeout:0. () in
  let result, _ =
    minimize ~budget ~build:(pigeonhole_build ~inprocess) ~on_sat:(fun _ c -> c) ()
  in
  Alcotest.(check bool) "resolution unknown" true (result.resolution = Unknown)

(* Sweep a chaos budget (trips at exactly the Nth poll) over the whole
   knapsack search: every interruption point must yield a coherent
   anytime answer, and the sweep must traverse all three terminal
   resolutions for a feasible problem. *)
let test_anytime_sweep ~inprocess () =
  let items = [ (5, 10); (4, 8); (6, 13); (3, 5); (8, 20) ] in
  let demand = 25 in
  let optimum =
    match brute_force_knapsack items demand with
    | Some v -> v
    | None -> Alcotest.fail "knapsack should be feasible"
  in
  let seen_unknown = ref false
  and seen_anytime = ref false
  and seen_optimal = ref false in
  for n = 1 to 80 do
    let polls = ref 0 in
    let budget =
      Budget.create ~check_every:1
        ~should_stop:(fun () ->
          incr polls;
          !polls >= n)
        ()
    in
    let result, _ =
      minimize ~budget ~build:(knapsack_build ~inprocess items demand)
        ~on_sat:(fun _ c -> c) ()
    in
    match result.resolution with
    | Infeasible -> Alcotest.failf "N=%d: spurious infeasibility" n
    | Unknown ->
      seen_unknown := true;
      Alcotest.(check bool) (Printf.sprintf "N=%d no incumbent" n) true
        (result.incumbent = None)
    | Feasible_budget_exhausted ->
      seen_anytime := true;
      (match result.incumbent with
      | None -> Alcotest.failf "N=%d: anytime without incumbent" n
      | Some (c, _) ->
        Alcotest.(check bool) (Printf.sprintf "N=%d incumbent sound" n) true
          (c >= optimum);
        Alcotest.(check bool) (Printf.sprintf "N=%d lower bound sound" n) true
          (result.lower_bound <= optimum))
    | Optimal ->
      seen_optimal := true;
      Alcotest.(check (option int)) (Printf.sprintf "N=%d optimal" n)
        (Some optimum)
        (Option.map fst result.incumbent)
  done;
  Alcotest.(check bool) "sweep saw Unknown" true !seen_unknown;
  Alcotest.(check bool) "sweep saw anytime stop" true !seen_anytime;
  Alcotest.(check bool) "sweep saw Optimal" true !seen_optimal

let test_gap_tolerance ~inprocess () =
  (* with a 100% tolerance any first incumbent is accepted immediately *)
  let items = [ (5, 10); (4, 8); (6, 13); (3, 5); (8, 20) ] in
  let result, stats =
    minimize ~gap_tol:1.0 ~build:(knapsack_build ~inprocess items 25)
      ~on_sat:(fun _ c -> c) ()
  in
  Alcotest.(check int) "single probe" 1 stats.probes;
  (match result.resolution with
  | Optimal | Feasible_budget_exhausted -> ()
  | _ -> Alcotest.fail "expected an incumbent");
  match (result.incumbent, gap result) with
  | Some (c, _), Some g ->
    Alcotest.(check bool) "gap within tolerance" true (g <= 1.0);
    Alcotest.(check bool) "incumbent sound" true
      (c >= Option.get (brute_force_knapsack items 25))
  | _ -> Alcotest.fail "incumbent and gap expected"

let test_fresh_rebuilds ~inprocess () =
  (* in Fresh mode the builder runs once per probe *)
  let calls = ref 0 in
  let items = [ (5, 10); (4, 8); (6, 13) ] in
  let build () =
    incr calls;
    knapsack_build ~inprocess items 20 ()
  in
  let _, stats = minimize ~mode:Fresh ~build ~on_sat:(fun _ c -> c) () in
  Alcotest.(check int) "one build per probe" stats.probes !calls;
  (* in Incremental mode it runs exactly once *)
  let calls = ref 0 in
  let build () =
    incr calls;
    knapsack_build ~inprocess items 20 ()
  in
  let _, _ = minimize ~mode:Incremental ~build ~on_sat:(fun _ c -> c) () in
  Alcotest.(check int) "single build" 1 !calls

let cases inprocess =
  [
    Alcotest.test_case "knapsack both modes" `Quick
      (test_knapsack_both_modes ~inprocess);
    Alcotest.test_case "infeasible" `Quick (test_infeasible ~inprocess);
    Alcotest.test_case "optimum zero" `Quick (test_optimum_zero ~inprocess);
    Alcotest.test_case "on_sat extraction" `Quick (test_on_sat_extraction ~inprocess);
    Alcotest.test_case "stats populated" `Quick (test_stats_populated ~inprocess);
    Alcotest.test_case "solve_feasible" `Quick (test_solve_feasible ~inprocess);
    Alcotest.test_case "budget unknown" `Quick (test_budget_unknown ~inprocess);
    Alcotest.test_case "timeout budget unknown" `Quick
      (test_timeout_budget_unknown ~inprocess);
    Alcotest.test_case "anytime sweep" `Quick (test_anytime_sweep ~inprocess);
    Alcotest.test_case "gap tolerance" `Quick (test_gap_tolerance ~inprocess);
    Alcotest.test_case "fresh rebuilds per probe" `Quick
      (test_fresh_rebuilds ~inprocess);
    QCheck_alcotest.to_alcotest (prop_modes_agree ~inprocess);
  ]

(* every case builds its solver through [Bv.create]; the second run
   installs inprocessing on each *)
let suite = cases false @ Configs.tagged "inprocess" (cases true)
