(* Property-based differential tests: the solver against a brute-force
   oracle on random CNF and PB instances, Sat models re-evaluated and
   Unsat answers certified by the proof checker.  Failing seeds are
   printed so a report line reproduces the exact case. *)

module Fuzz = Taskalloc_fuzz.Fuzz

let errors r = List.map (fun f -> f.Fuzz.fail_error) r.Fuzz.failures

let qcheck_case name count gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       QCheck.(small_nat)
       (fun seed ->
         match Fuzz.check_case (gen seed) with
         | Ok () -> true
         | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e))

let test_determinism () =
  let a = Fuzz.gen_case ~seed:42 ~max_vars:10 in
  let b = Fuzz.gen_case ~seed:42 ~max_vars:10 in
  Alcotest.(check bool) "same seed, same case" true (a = b);
  Alcotest.(check bool) "seed parity selects kind" true
    (match (Fuzz.gen_case ~seed:4 ~max_vars:6, Fuzz.gen_case ~seed:5 ~max_vars:6) with
    | Fuzz.Cnf _, Fuzz.Pb _ -> true
    | _ -> false)

let test_oracle_sanity () =
  let unsat = Fuzz.Cnf { Taskalloc_sat.Dimacs.num_vars = 1; clauses = [ [ 1 ]; [ -1 ] ] } in
  let sat = Fuzz.Cnf { Taskalloc_sat.Dimacs.num_vars = 2; clauses = [ [ 1; -2 ] ] } in
  Alcotest.(check bool) "contradiction unsat" false (Fuzz.oracle unsat);
  Alcotest.(check bool) "single clause sat" true (Fuzz.oracle sat);
  let pb_unsat =
    Fuzz.Pb
      {
        Fuzz.pb_vars = 2;
        constraints =
          [
            { Taskalloc_proof.Proof.terms = [ (1, 1); (1, 2) ]; degree = 3 };
          ];
      }
  in
  Alcotest.(check bool) "unachievable degree unsat" false (Fuzz.oracle pb_unsat)

let test_shrink_keeps_passing_case () =
  let case = Fuzz.gen_case ~seed:7 ~max_vars:6 in
  Alcotest.(check bool) "case passes" true (Fuzz.check_case case = Ok ());
  Alcotest.(check bool) "shrink is identity on passing cases" true
    (Fuzz.shrink case = case)

let test_campaign_clean () =
  let report = Fuzz.run ~campaign:Fuzz.Sat ~iters:60 ~seed:1 () in
  let c = report.Fuzz.counts in
  Alcotest.(check int) "all iterations ran" 60 report.Fuzz.iters;
  Alcotest.(check bool) "both polarities exercised" true
    (c.Fuzz.sat > 0 && c.Fuzz.unsat > 0);
  Alcotest.(check int) "every unsat trace certified" c.Fuzz.unsat
    c.Fuzz.certified;
  Alcotest.(check (list string)) "no discrepancies" [] (errors report)

let test_campaign_portfolio () =
  (* the certifying interlock under parallel solving: every case is
     raced by 2 workers, the winner's Unsat trace must still certify *)
  let report = Fuzz.run ~campaign:Fuzz.Sat ~jobs:2 ~iters:40 ~seed:3 () in
  let c = report.Fuzz.counts in
  Alcotest.(check int) "all iterations ran" 40 report.Fuzz.iters;
  Alcotest.(check bool) "both polarities exercised" true
    (c.Fuzz.sat > 0 && c.Fuzz.unsat > 0);
  Alcotest.(check (list string)) "no discrepancies" [] (errors report)

let test_campaign_large_instances () =
  (* push to the 16-var oracle limit to stress PB propagation depth *)
  let report = Fuzz.run ~campaign:Fuzz.Sat ~max_vars:14 ~iters:25 ~seed:2 () in
  Alcotest.(check (list string)) "no discrepancies" [] (errors report)

let test_disruption_campaign () =
  let report = Fuzz.run ~campaign:Fuzz.Disruptions ~iters:25 ~seed:5 () in
  let c = report.Fuzz.counts in
  Alcotest.(check int) "all campaigns ran" 25 report.Fuzz.iters;
  Alcotest.(check bool) "events injected" true (c.Fuzz.events > 0);
  Alcotest.(check bool) "oracle exercised" true (c.Fuzz.oracle_checked > 0);
  Alcotest.(check int) "no unknowns without a budget" 0 c.Fuzz.unknown;
  Alcotest.(check (list string)) "no failures" [] (errors report)

let test_campaigns_jobs_invariant () =
  (* results must be independent of how iterations are spread over
     domains: only wall time may differ *)
  List.iter
    (fun (campaign, iters, seed) ->
      let a = Fuzz.run ~campaign ~iters ~seed () in
      let b = Fuzz.run ~campaign ~jobs:2 ~iters ~seed () in
      Alcotest.(check (list string)) "no failures" [] (errors b);
      Alcotest.(check bool) "jobs-invariant totals" true
        (a.Fuzz.counts = b.Fuzz.counts);
      Alcotest.(check int) "one time sample per iteration" iters
        (Taskalloc_obs.Obs.Hist.count b.Fuzz.solve_us))
    [ (Fuzz.Disruptions, 12, 9); (Fuzz.Lazy, 6, 9); (Fuzz.Inprocess, 6, 9) ]

let test_inprocess_campaign () =
  (* each case solved with the inprocessing passes must agree with the
     oracle, inprocessed Unsat traces must certify, and the allocation
     legs must reach identical proven optima with and without the
     passes (the frozen-variable interface end to end) *)
  let report = Fuzz.run ~campaign:Fuzz.Inprocess ~iters:20 ~seed:11 () in
  let c = report.Fuzz.counts in
  Alcotest.(check int) "all iterations ran" 20 report.Fuzz.iters;
  Alcotest.(check bool) "both polarities exercised" true
    (c.Fuzz.sat > 0 && c.Fuzz.unsat > 0);
  Alcotest.(check int) "every inprocessed unsat trace certified" c.Fuzz.unsat
    c.Fuzz.certified;
  Alcotest.(check bool) "allocation legs exercised" true (c.Fuzz.solved > 0);
  Alcotest.(check (list string)) "no discrepancies" [] (errors report)

let test_partition () =
  (* pure: no domain is spawned here *)
  for jobs = 1 to 12 do
    for n = 0 to 30 do
      let chunks = Fuzz.partition ~jobs n in
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d n=%d: every index exactly once, in order" jobs n)
        (List.init n Fun.id) (List.concat chunks);
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d n=%d: at most min jobs n non-empty chunks" jobs n)
        true
        (List.length chunks <= min jobs n
        && List.for_all (fun c -> c <> []) chunks)
    done
  done

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "oracle sanity" `Quick test_oracle_sanity;
    Alcotest.test_case "shrink identity on pass" `Quick test_shrink_keeps_passing_case;
    qcheck_case "cnf differential vs oracle" 150 (fun seed ->
        Fuzz.Cnf (Fuzz.gen_cnf ~seed ~max_vars:10));
    qcheck_case "pb differential vs oracle" 150 (fun seed ->
        Fuzz.Pb (Fuzz.gen_pb ~seed ~max_vars:10));
    Alcotest.test_case "campaign 60 iters clean" `Slow test_campaign_clean;
    Alcotest.test_case "campaign large instances" `Slow test_campaign_large_instances;
    Alcotest.test_case "campaign with 2-worker portfolio" `Slow
      test_campaign_portfolio;
    Alcotest.test_case "disruption campaign vs oracle" `Slow
      test_disruption_campaign;
    Alcotest.test_case "disruption campaign over 2 domains" `Slow
      test_campaigns_jobs_invariant;
    Alcotest.test_case "inprocessing differential campaign" `Slow
      test_inprocess_campaign;
    Alcotest.test_case "iteration partition over domains" `Quick test_partition;
  ]
