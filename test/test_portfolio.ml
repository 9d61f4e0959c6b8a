(* Portfolio determinism, agreement and certification tests.

   The load-bearing property is the jobs=1 contract: a 1-worker
   portfolio must be the sequential solver bit for bit — same answer,
   same conflict/decision/propagation/restart counts — because the
   inline path spawns no domain, derives no budget and applies no
   config.  Parallel runs cannot be compared to a golden trace (domain
   interleaving is nondeterministic), so for jobs > 1 we check
   invariants instead: agreement with the sequential answer on
   satisfiability, agreement on the optimum for minimization, and a
   machine-checked DRUP certificate from the winning worker. *)

module Solver = Taskalloc_sat.Solver
module Lit = Taskalloc_sat.Lit
module Dimacs = Taskalloc_sat.Dimacs
module Proof = Taskalloc_proof.Proof
module Fuzz = Taskalloc_fuzz.Fuzz
module Portfolio = Taskalloc_portfolio.Portfolio
module Bv = Taskalloc_bv.Bv
module Opt = Taskalloc_opt.Opt

(* load a DIMACS cnf into a fresh solver *)
let load_cnf (cnf : Dimacs.cnf) =
  let s = Solver.create () in
  let vars = Array.init cnf.Dimacs.num_vars (fun _ -> Solver.new_var s) in
  List.iter
    (fun clause ->
      Solver.add_clause s
        (List.map
           (fun l -> Lit.of_var ~sign:(l > 0) vars.(abs l - 1))
           clause))
    cnf.Dimacs.clauses;
  s

let result_str = function
  | Solver.Sat -> "sat"
  | Solver.Unsat -> "unsat"
  | Solver.Unknown -> "unknown"

(* -- jobs=1 is the sequential solver, bit for bit ---------------------- *)

let test_jobs1_bit_for_bit () =
  for seed = 0 to 24 do
    let cnf = Fuzz.gen_cnf ~seed ~max_vars:12 in
    (* reference: plain sequential solve *)
    let s_ref = load_cnf cnf in
    let r_ref = Solver.solve s_ref in
    (* 1-worker portfolio on an identical solver *)
    let o = Portfolio.solve ~jobs:1 ~build:(fun _ -> ((), load_cnf cnf)) () in
    let label = Printf.sprintf "seed %d" seed in
    Alcotest.(check string)
      (label ^ ": same answer")
      (result_str r_ref)
      (result_str o.Portfolio.result);
    Alcotest.(check int) (label ^ ": winner is worker 0") 0 o.Portfolio.winner;
    let st = o.Portfolio.workers.(0) in
    Alcotest.(check int) (label ^ ": conflicts") (Solver.n_conflicts s_ref)
      st.Portfolio.conflicts;
    Alcotest.(check int) (label ^ ": decisions") (Solver.n_decisions s_ref)
      st.Portfolio.decisions;
    Alcotest.(check int) (label ^ ": propagations")
      (Solver.n_propagations s_ref) st.Portfolio.propagations;
    Alcotest.(check int) (label ^ ": restarts") (Solver.n_restarts s_ref)
      st.Portfolio.restarts;
    Alcotest.(check int) (label ^ ": learnt total")
      (Solver.n_learnt_total s_ref) st.Portfolio.learnt_total;
    Alcotest.(check int) (label ^ ": nothing shared") 0
      (st.Portfolio.shared_out + st.Portfolio.shared_in)
  done

(* -- jobs>1 agrees with the oracle ------------------------------------- *)

let test_parallel_agreement () =
  for seed = 0 to 11 do
    let cnf = Fuzz.gen_cnf ~seed:(100 + seed) ~max_vars:12 in
    let expected = Fuzz.oracle (Fuzz.Cnf cnf) in
    let o = Portfolio.solve ~jobs:3 ~build:(fun _ -> ((), load_cnf cnf)) () in
    let label = Printf.sprintf "seed %d" (100 + seed) in
    Alcotest.(check string)
      (label ^ ": portfolio agrees with oracle")
      (if expected then "sat" else "unsat")
      (result_str o.Portfolio.result);
    Alcotest.(check bool) (label ^ ": someone won") true (o.Portfolio.winner >= 0)
  done

(* -- parallel Unsat answers carry a checkable certificate --------------- *)

let test_parallel_proof_verifies () =
  let n_unsat = ref 0 in
  let seed = ref 200 in
  (* hunt unsat instances until we have certified a few in parallel mode *)
  while !n_unsat < 5 && !seed < 260 do
    let cnf = Fuzz.gen_cnf ~seed:!seed ~max_vars:11 in
    incr seed;
    if not (Fuzz.oracle (Fuzz.Cnf cnf)) then begin
      incr n_unsat;
      let o =
        Portfolio.solve ~jobs:3
          ~build:(fun _ ->
            let s = load_cnf cnf in
            (* recording sink installed after load: level-0 refutations
               during add_clause are exercised by the fuzz layer; here
               all instances survive loading *)
            let trace = Proof.record s in
            (trace, s))
          ()
      in
      let label = Printf.sprintf "seed %d" (!seed - 1) in
      Alcotest.(check string) (label ^ ": unsat") "unsat"
        (result_str o.Portfolio.result);
      match o.Portfolio.payload with
      | None -> Alcotest.fail (label ^ ": winner has no payload")
      | Some trace ->
        Alcotest.(check bool)
          (label ^ ": winner's DRUP trace verifies")
          true
          (Proof.check cnf (trace ()))
    end
  done;
  Alcotest.(check bool) "found unsat instances to certify" true (!n_unsat >= 5)

(* -- optimizer portfolio: same optimum, sequential and parallel --------- *)

(* minimize the number of true variables among the first [k] of a random
   3-SAT formula — probes are refutation-heavy, touching the same code
   paths the bench exercises at scale *)
let minvars_build ~inprocess ~seed ~n ~k () =
  let cnf = Fuzz.gen_cnf ~seed ~max_vars:n in
  fun () ->
    let ctx = Bv.create ~inprocess () in
    let s = Bv.solver ctx in
    let vars = Array.init cnf.Dimacs.num_vars (fun _ -> Solver.new_var s) in
    List.iter
      (fun clause ->
        Solver.add_clause s
          (List.map
             (fun l -> Lit.of_var ~sign:(l > 0) vars.(abs l - 1))
             clause))
      cnf.Dimacs.clauses;
    let k = min k (Array.length vars) in
    let cost =
      Bv.sum ctx
        (List.init k (fun i ->
             Bv.ite ctx
               (Taskalloc_pb.Circuits.of_lit (Lit.of_var vars.(i)))
               (Bv.const 1) Bv.zero))
    in
    (ctx, cost)

let test_opt_portfolio_agreement ~inprocess () =
  let checked = ref 0 in
  for seed = 300 to 311 do
    let build = minvars_build ~inprocess ~seed ~n:12 ~k:8 () in
    let run jobs =
      let any, _ = Opt.minimize ~jobs ~build ~on_sat:(fun _ c -> c) () in
      any
    in
    let seq = run 1 in
    let par = run 4 in
    let label = Printf.sprintf "seed %d" seed in
    match (seq.Opt.resolution, par.Opt.resolution) with
    | Opt.Optimal, Opt.Optimal ->
      incr checked;
      let cost a =
        match a.Opt.incumbent with Some (c, _) -> c | None -> -1
      in
      Alcotest.(check int) (label ^ ": same optimum") (cost seq) (cost par)
    | Opt.Infeasible, Opt.Infeasible -> incr checked
    | a, b ->
      Alcotest.failf "%s: resolutions disagree (%s vs %s)" label
        (Fmt.str "%a" Opt.pp_resolution a)
        (Fmt.str "%a" Opt.pp_resolution b)
  done;
  Alcotest.(check bool) "exercised several instances" true (!checked >= 8)

(* cube-partitioned minimization finds the same optimum as sequential;
   splitting on the cost-relevant variables stresses the shared
   incumbent + bound-pruning path *)
let test_opt_cubes_agreement ~inprocess () =
  let checked = ref 0 in
  for seed = 500 to 509 do
    let build = minvars_build ~inprocess ~seed ~n:12 ~k:8 () in
    let seq, _ = Opt.minimize ~jobs:1 ~build ~on_sat:(fun _ c -> c) () in
    let cub, _ =
      Opt.minimize ~jobs:2 ~parallel:`Cubes
        ~split_vars:(List.init 8 Fun.id)
        ~build ~on_sat:(fun _ c -> c) ()
    in
    let label = Printf.sprintf "seed %d" seed in
    match (seq.Opt.resolution, cub.Opt.resolution) with
    | Opt.Optimal, Opt.Optimal ->
      incr checked;
      let cost a = match a.Opt.incumbent with Some (c, _) -> c | None -> -1 in
      Alcotest.(check int) (label ^ ": same optimum") (cost seq) (cost cub)
    | Opt.Infeasible, Opt.Infeasible -> incr checked
    | a, b ->
      Alcotest.failf "%s: resolutions disagree (%s vs %s)" label
        (Fmt.str "%a" Opt.pp_resolution a)
        (Fmt.str "%a" Opt.pp_resolution b)
  done;
  Alcotest.(check bool) "exercised several instances" true (!checked >= 8)

(* -- shared clauses actually flow (and stay sound) ---------------------- *)

let test_sharing_flows () =
  (* a pigeonhole instance is small, unsat, and conflict-rich enough
     that every worker learns plenty of low-LBD clauses *)
  let build_php () =
    let s = Solver.create () in
    let n = 7 in
    let x = Array.init n (fun _ -> Array.init (n - 1) (fun _ -> Solver.new_var s)) in
    for p = 0 to n - 1 do
      Solver.add_clause s (List.init (n - 1) (fun h -> Lit.of_var x.(p).(h)))
    done;
    for h = 0 to n - 2 do
      Solver.add_at_most_one s (List.init n (fun p -> Lit.of_var x.(p).(h)))
    done;
    s
  in
  let o = Portfolio.solve ~jobs:3 ~build:(fun _ -> ((), build_php ())) () in
  Alcotest.(check string) "php unsat" "unsat" (result_str o.Portfolio.result);
  let out =
    Array.fold_left (fun a w -> a + w.Portfolio.shared_out) 0 o.Portfolio.workers
  in
  Alcotest.(check bool) "clauses were exported" true (out > 0)

(* -- race chaos: budget expiry vs cancellation -------------------------- *)

(* Trip the race's parent budget at the nth coordinator poll and check
   the portfolio unwinds to a clean, resumable Unknown (or a sound
   answer if a worker finished first) at every injection point.  This
   is the parallel counterpart of test_chaos's sequential sweeps. *)
let test_portfolio_chaos () =
  let cnf = Fuzz.gen_cnf ~seed:7 ~max_vars:14 in
  let expected = Fuzz.oracle (Fuzz.Cnf cnf) in
  for n = 1 to 20 do
    let polls = ref 0 in
    let budget =
      Taskalloc_sat.Budget.create ~check_every:1
        ~should_stop:(fun () ->
          incr polls;
          !polls >= n)
        ()
    in
    let label = Printf.sprintf "chaos N=%d" n in
    match
      Portfolio.solve ~jobs:3 ~budget ~build:(fun _ -> ((), load_cnf cnf)) ()
    with
    | o -> (
      match o.Portfolio.result with
      | Solver.Unknown ->
        (* clean pause: no winner, but every worker reported stats *)
        Alcotest.(check int) (label ^ ": no winner") (-1) o.Portfolio.winner;
        Alcotest.(check int)
          (label ^ ": all workers reported")
          3
          (Array.length o.Portfolio.workers)
      | Solver.Sat ->
        Alcotest.(check bool) (label ^ ": sat only if truly sat") true expected
      | Solver.Unsat ->
        Alcotest.(check bool) (label ^ ": unsat only if truly unsat") true
          (not expected))
    | exception e ->
      Alcotest.failf "%s: escaped exception %s" label (Printexc.to_string e)
  done

(* -- cube-and-conquer --------------------------------------------------- *)

(* like [load_cnf], but the proof sink (when given) is installed before
   any clause is added, as the solve_cubes builder contract requires *)
let load_cnf_with ~proof (cnf : Dimacs.cnf) =
  let s = Solver.create () in
  Solver.set_proof_sink s proof;
  let vars = Array.init cnf.Dimacs.num_vars (fun _ -> Solver.new_var s) in
  List.iter
    (fun clause ->
      Solver.add_clause s
        (List.map
           (fun l -> Lit.of_var ~sign:(l > 0) vars.(abs l - 1))
           clause))
    cnf.Dimacs.clauses;
  s

(* cube mode agrees with the oracle, with and without domains; on Sat
   the winning payload's model satisfies the formula; a forced split
   (presolve too short to decide) exercises the real cube machinery *)
let test_cubes_agreement () =
  let cubed = ref 0 in
  for seed = 300 to 315 do
    let cnf = Fuzz.gen_cnf ~seed ~max_vars:12 in
    let expected = Fuzz.oracle (Fuzz.Cnf cnf) in
    List.iter
      (fun jobs ->
        let o =
          Portfolio.solve_cubes ~jobs ~presolve_conflicts:0
            ~build:(fun ~proof _ ->
              let s = load_cnf_with ~proof cnf in
              (s, s))
            ()
        in
        let label = Printf.sprintf "seed %d jobs %d" seed jobs in
        Alcotest.(check string)
          (label ^ ": cubes agree with oracle")
          (if expected then "sat" else "unsat")
          (result_str o.Portfolio.c_result);
        if o.Portfolio.n_cubes > 0 then incr cubed;
        (match o.Portfolio.c_result with
        | Solver.Sat -> (
          match o.Portfolio.c_payload with
          | None -> Alcotest.fail (label ^ ": sat but no payload")
          | Some s ->
            let ok =
              List.for_all
                (fun clause ->
                  List.exists
                    (fun l ->
                      Solver.model_value s
                        (Lit.of_var ~sign:(l > 0) (abs l - 1)))
                    clause)
                cnf.Dimacs.clauses
            in
            Alcotest.(check bool) (label ^ ": model satisfies cnf") true ok)
        | _ -> ());
        if o.Portfolio.c_result = Solver.Unsat then
          Alcotest.(check int)
            (label ^ ": all cubes refuted")
            o.Portfolio.n_cubes o.Portfolio.unsat_cubes)
      [ 1; 2 ]
  done;
  Alcotest.(check bool) "some instances actually split" true (!cubed > 0)

(* Unsat cube runs stitch a DRUP trace the independent checker accepts *)
let test_cubes_proof_stitched () =
  let n_unsat = ref 0 and n_cubed = ref 0 in
  let seed = ref 400 in
  while !n_unsat < 5 && !seed < 460 do
    let cnf = Fuzz.gen_cnf ~seed:!seed ~max_vars:11 in
    incr seed;
    if not (Fuzz.oracle (Fuzz.Cnf cnf)) then begin
      incr n_unsat;
      let steps = ref [] in
      let sink st = steps := Proof.of_solver_step st :: !steps in
      let o =
        Portfolio.solve_cubes ~jobs:2 ~presolve_conflicts:0 ~proof:sink
          ~build:(fun ~proof _ -> ((), load_cnf_with ~proof cnf))
          ()
      in
      let label = Printf.sprintf "seed %d" (!seed - 1) in
      Alcotest.(check string) (label ^ ": unsat") "unsat"
        (result_str o.Portfolio.c_result);
      if o.Portfolio.n_cubes > 0 then incr n_cubed;
      Alcotest.(check bool)
        (label ^ ": stitched DRUP trace verifies")
        true
        (Proof.check cnf (List.rev !steps))
    end
  done;
  ignore !n_cubed;
  Alcotest.(check bool) "found unsat instances to certify" true (!n_unsat >= 5)

(* Random unsat instances are refuted by the splitter's own lookahead;
   pigeonhole resists failed-literal probing entirely, so this pins
   down the genuinely-cubed Unsat path: per-cube refutations plus the
   merge tree, accepted by the independent checker. *)
let test_cubes_php_proof () =
  let n = 6 in
  (* pigeon p in hole h is DIMACS variable p*(n-1)+h+1; pairwise AMO *)
  let v p h = (p * (n - 1)) + h + 1 in
  let pigeon = List.init n (fun p -> List.init (n - 1) (fun h -> v p h)) in
  let amo =
    List.concat
      (List.init (n - 1) (fun h ->
           List.concat
             (List.init n (fun p1 ->
                  List.filteri (fun p2 _ -> p2 > p1) (List.init n Fun.id)
                  |> List.map (fun p2 -> [ -v p1 h; -v p2 h ])))))
  in
  let cnf = { Dimacs.num_vars = n * (n - 1); clauses = pigeon @ amo } in
  let steps = ref [] in
  let sink st = steps := Proof.of_solver_step st :: !steps in
  let o =
    Portfolio.solve_cubes ~jobs:2 ~presolve_conflicts:0 ~proof:sink
      ~build:(fun ~proof _ -> ((), load_cnf_with ~proof cnf))
      ()
  in
  Alcotest.(check string) "php unsat" "unsat" (result_str o.Portfolio.c_result);
  Alcotest.(check bool) "php was cubed" true (o.Portfolio.n_cubes > 1);
  Alcotest.(check int) "all cubes refuted" o.Portfolio.n_cubes
    o.Portfolio.unsat_cubes;
  Alcotest.(check bool) "stitched php trace verifies" true
    (Proof.check cnf (List.rev !steps))

let suite =
  [
    Alcotest.test_case "jobs=1 bit-for-bit vs sequential" `Quick
      test_jobs1_bit_for_bit;
    Alcotest.test_case "jobs=3 agrees with oracle" `Slow
      test_parallel_agreement;
    Alcotest.test_case "parallel unsat traces verify" `Slow
      test_parallel_proof_verifies;
    Alcotest.test_case "opt portfolio agrees on optimum" `Slow
      (test_opt_portfolio_agreement ~inprocess:false);
    Alcotest.test_case "opt cubes agree on optimum" `Slow
      (test_opt_cubes_agreement ~inprocess:false);
    Alcotest.test_case "clause sharing flows" `Quick test_sharing_flows;
    Alcotest.test_case "cubes agree with oracle (1 and 2 domains)" `Slow
      test_cubes_agreement;
    Alcotest.test_case "cube unsat traces stitch and verify" `Slow
      test_cubes_proof_stitched;
    Alcotest.test_case "cubed pigeonhole proof stitches and verifies" `Quick
      test_cubes_php_proof;
    Alcotest.test_case "portfolio chaos: budget vs cancel" `Slow
      test_portfolio_chaos;
    (* the optimizer races build through [Bv.create]; once more with
       inprocessing on every worker and every cube *)
    Alcotest.test_case "opt portfolio agrees on optimum (inprocess)" `Slow
      (test_opt_portfolio_agreement ~inprocess:true);
    Alcotest.test_case "opt cubes agree on optimum (inprocess)" `Slow
      (test_opt_cubes_agreement ~inprocess:true);
  ]
