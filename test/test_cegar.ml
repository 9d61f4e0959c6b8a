(* Differential equivalence harness for the lazy/CEGAR response-time
   encoding.

   The eager encoding (the paper's full transformation) is the oracle:
   on every instance the lazy encoding must reach the same verdict and
   the same proven optimum, and its allocations must pass the
   independent analytical checker.  On top of the randomized
   differential sweep, metamorphic transformations (time scaling, task
   relabeling) must leave verdicts invariant, budget interrupts must
   degrade to a clean resumable Unknown, refinement is bounded and
   monotone, and a lazy Unsat must still carry a machine-checkable
   DRUP certificate and a sensible unsat core. *)

open Taskalloc_rt
open Taskalloc_core
open Taskalloc_workloads
module Opt = Taskalloc_opt.Opt
module Solver = Taskalloc_sat.Solver
module Lit = Taskalloc_sat.Lit
module Budget = Taskalloc_sat.Budget
module Bv = Taskalloc_bv.Bv
module Proof = Taskalloc_proof.Proof
module Fuzz = Taskalloc_fuzz.Fuzz
module Explain = Taskalloc_explain.Explain

(* the eager and the lazy encoding over a [base] configuration; the
   suite runs on the default one and again with inprocessing on both
   sides *)
let eager base = { base with Encode.lazy_mode = false }
let lazy_ base = { base with Encode.lazy_mode = true }

let solve_with options problem objective =
  Allocator.solve ~options ~fallback:false problem objective

(* -- randomized differential sweep -------------------------------------- *)

(* The campaign itself lives in lib/fuzz (it also backs `taskalloc fuzz
   --lazy`); here it runs as a test with a fixed seed.  Every case is
   solved eager and lazy (with inprocessing on odd iterations) and must
   agree on verdict, optimum, and analyzer validation. *)
let differential ~iters ~seed () =
  let report = Fuzz.run ~campaign:Fuzz.Lazy ~iters ~seed () in
  let c = report.Fuzz.counts in
  Alcotest.(check int) "all cases decided" iters (c.Fuzz.solved + c.Fuzz.infeasible);
  Alcotest.(check int) "no unknowns" 0 c.Fuzz.unknown;
  Alcotest.(check (list string)) "no discrepancies" []
    (List.map (fun f -> f.Fuzz.fail_error) report.Fuzz.failures)

let test_differential_quick () = differential ~iters:15 ~seed:11 ()
let test_differential_full () = differential ~iters:100 ~seed:1 ()

(* -- refinement bounds and monotonicity --------------------------------- *)

(* Drive the solve/refine loop by hand on a lazy encoding: refined
   counts only grow, never exceed n_tasks + n_media, each Sat round
   either refines or terminates, and the loop finishes within the
   guaranteed bound. *)
let test_refinement_monotone base () =
  let problem = Workloads.task_scaling ~n:12 () in
  let n_tasks = Array.length problem.Model.tasks in
  let n_media = List.length problem.Model.arch.Model.media in
  let enc = Encode.encode ~options:(lazy_ base) problem Encode.Feasible in
  Alcotest.(check bool) "encoding is lazy" true (Encode.Lazy.is_lazy enc);
  let solver = Bv.solver (Encode.context enc) in
  let prev = ref (-1) in
  let rounds = ref 0 in
  let rec loop () =
    if !rounds > n_tasks + n_media then
      Alcotest.fail "refinement loop exceeded the n_tasks + n_media bound";
    match Solver.solve solver with
    | Solver.Unsat -> `Unsat
    | Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"
    | Solver.Sat ->
      let refined = Encode.Lazy.refined_tasks enc + Encode.Lazy.refined_media enc in
      Alcotest.(check bool) "refined count is monotone" true (refined >= !prev);
      prev := refined;
      let n = Encode.Lazy.refine enc in
      if n > 0 then begin
        incr rounds;
        loop ()
      end
      else `Sat
  in
  (match loop () with
  | `Sat ->
    (* a genuine model: the extracted allocation passes the checker *)
    Alcotest.(check (list Alcotest.reject)) "allocation validates" []
      (List.map (fun _ -> ()) (Check.check problem (Encode.extract enc)))
  | `Unsat -> Alcotest.fail "task_scaling 12 is known feasible");
  let total = Encode.Lazy.refined_tasks enc + Encode.Lazy.refined_media enc in
  Alcotest.(check bool) "refined <= n_tasks + n_media" true
    (total <= n_tasks + n_media);
  Alcotest.(check bool) "rounds <= refined entities" true
    (Encode.Lazy.rounds enc <= max 1 total);
  (* a genuine model stays genuine: refine is idempotent at fixpoint *)
  (match Solver.solve solver with
  | Solver.Sat -> Alcotest.(check int) "fixpoint: no further refinement" 0 (Encode.Lazy.refine enc)
  | _ -> Alcotest.fail "re-solve of a satisfiable formula failed")

(* -- metamorphic: time scaling ------------------------------------------ *)

(* Scaling every time quantity by k (periods, deadlines, WCETs, jitter,
   blocking, bus timing) preserves the verdict: ceil(k*a / k*b) =
   ceil(a / b), so every response-time fixpoint scales linearly and
   deadline checks are invariant.  (The objective value itself need not
   scale — a TDMA round has a minimum slot per station whatever the
   tick — so the property checked is verdict invariance plus
   lazy/eager agreement on the transformed instance.) *)
let scale_problem k (p : Model.problem) =
  let tasks =
    Array.to_list p.Model.tasks
    |> List.map (fun t ->
           {
             t with
             Model.period = t.Model.period * k;
             deadline = t.Model.deadline * k;
             wcets = List.map (fun (e, c) -> (e, c * k)) t.Model.wcets;
             jitter = t.Model.jitter * k;
             blocking = t.Model.blocking * k;
             messages =
               List.map
                 (fun m -> { m with Model.msg_deadline = m.Model.msg_deadline * k })
                 t.Model.messages;
           })
  in
  let arch =
    {
      p.Model.arch with
      Model.media =
        List.map
          (fun (m : Model.medium) ->
            {
              m with
              Model.byte_time = m.Model.byte_time * k;
              frame_overhead = m.Model.frame_overhead * k;
            })
          p.Model.arch.Model.media;
      gateway_service = p.Model.arch.Model.gateway_service * k;
    }
  in
  Model.make_problem ~arch ~tasks

let test_metamorphic_time_scaling base () =
  let k = 3 in
  List.iter
    (fun (name, problem, objective) ->
      let scaled = scale_problem k problem in
      (match
         ( solve_with (lazy_ base) problem objective,
           solve_with (lazy_ base) scaled objective )
       with
      | Allocator.Solved a, Allocator.Solved b ->
        Alcotest.(check bool) (name ^ ": base validates") true (a.Allocator.violations = []);
        Alcotest.(check bool) (name ^ ": scaled validates") true (b.Allocator.violations = [])
      | Allocator.Infeasible, Allocator.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ ": verdict changed under time scaling"));
      (* the differential property survives the transformation *)
      match
        ( solve_with (eager base) scaled objective,
          solve_with (lazy_ base) scaled objective )
      with
      | Allocator.Solved e, Allocator.Solved l ->
        Alcotest.(check int)
          (name ^ ": lazy = eager on the scaled instance")
          e.Allocator.cost l.Allocator.cost
      | Allocator.Infeasible, Allocator.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ ": lazy/eager verdicts diverge when scaled"))
    [
      ("small", Workloads.small ~seed:9 (), Encode.Min_trt 0);
      ("jittery", Workloads.small_jittery ~seed:4 (), Encode.Min_trt 0);
      ("tasks7", Workloads.task_scaling ~n:7 (), Encode.Min_trt 0);
    ]

(* -- metamorphic: task relabeling --------------------------------------- *)

(* Reversing task ids on a message-free instance (remapping separation
   sets through the permutation) must not change the verdict or the
   optimal max-utilization: the encoding may order its variables
   differently, but the problem is the same. *)
let relabel_reverse (p : Model.problem) =
  let n = Array.length p.Model.tasks in
  let perm i = n - 1 - i in
  let tasks =
    List.init n (fun j ->
        let t = p.Model.tasks.(perm j) in
        if t.Model.messages <> [] then
          Alcotest.fail "relabel_reverse needs a message-free instance";
        {
          t with
          Model.task_id = j;
          separation = List.map perm t.Model.separation;
        })
  in
  Model.make_problem ~arch:p.Model.arch ~tasks

let strip_messages (p : Model.problem) =
  let tasks =
    Array.to_list p.Model.tasks
    |> List.map (fun t -> { t with Model.messages = [] })
  in
  Model.make_problem ~arch:p.Model.arch ~tasks

let test_metamorphic_relabeling base () =
  List.iter
    (fun (name, problem) ->
      let problem = strip_messages problem in
      let relabeled = relabel_reverse problem in
      match
        ( solve_with (lazy_ base) problem Encode.Min_max_util,
          solve_with (lazy_ base) relabeled Encode.Min_max_util )
      with
      | Allocator.Solved a, Allocator.Solved b ->
        Alcotest.(check int)
          (name ^ ": optimum invariant under relabeling")
          a.Allocator.cost b.Allocator.cost
      | Allocator.Infeasible, Allocator.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ ": verdict changed under relabeling"))
    [
      ("small", Workloads.small ~seed:2 ());
      ("tasks7", Workloads.task_scaling ~n:7 ());
    ]

(* -- budget interrupts: clean, resumable degradation -------------------- *)

(* Chaos over conflict caps: however early the budget trips, the lazy
   solve must return without an exception; proven-optimal answers must
   match the eager optimum; anytime answers must bracket it; and a
   later unbudgeted run must recover the exact optimum. *)
let test_budget_interrupt_chaos base () =
  let problem = Workloads.small ~seed:7 () in
  let objective = Encode.Min_trt 0 in
  let optimum =
    match solve_with (eager base) problem objective with
    | Allocator.Solved r -> r.Allocator.cost
    | _ -> Alcotest.fail "reference eager solve failed"
  in
  List.iter
    (fun cap ->
      let budget = Budget.create ~max_conflicts:cap ~check_every:1 () in
      match
        Allocator.solve ~options:(lazy_ base) ~fallback:false ~budget problem
          objective
      with
      | Allocator.Unknown -> () (* clean interrupt before any incumbent *)
      | Allocator.Infeasible ->
        Alcotest.fail "budgeted lazy solve claimed Infeasible on a feasible instance"
      | Allocator.Solved r -> (
        Alcotest.(check bool)
          (Printf.sprintf "cap %d: incumbent validates" cap)
          true
          (r.Allocator.violations = []);
        match r.Allocator.quality with
        | Allocator.Optimal ->
          Alcotest.(check int)
            (Printf.sprintf "cap %d: proven optimum matches eager" cap)
            optimum r.Allocator.cost
        | Allocator.Anytime { lower_bound } ->
          Alcotest.(check bool)
            (Printf.sprintf "cap %d: anytime brackets the optimum" cap)
            true
            (lower_bound <= optimum && optimum <= r.Allocator.cost)
        | Allocator.Heuristic _ ->
          Alcotest.fail "fallback disabled but a heuristic answer came back"))
    [ 1; 4; 16; 64; 256 ];
  (* resumption: after any number of interrupted attempts, a fresh
     unbudgeted lazy solve still proves the exact optimum *)
  match solve_with (lazy_ base) problem objective with
  | Allocator.Solved r ->
    Alcotest.(check int) "resumed solve proves the optimum" optimum r.Allocator.cost
  | _ -> Alcotest.fail "unbudgeted lazy solve failed after interrupts"

(* A budget-interrupted what-if session must answer Unknown, stay
   usable, and produce the right verdict when re-asked with headroom —
   the growing (refined) formula survives the interrupt. *)
let test_whatif_interrupt_resumable base () =
  let problem = Workloads.small ~seed:7 () in
  let module W = Explain.Whatif in
  let sess = W.create ~options:(lazy_ base) problem in
  let deltas = [ W.Set_deadline { task = 0; deadline = 40 } ] in
  let starved = Budget.create ~max_conflicts:0 ~check_every:1 () in
  (match W.query ~budget:starved sess deltas with
  | W.Unknown -> ()
  | W.Feasible _ | W.Infeasible _ ->
    (* a tiny instance may be decided by propagation alone before the
       budget is consulted; that is also a legal, clean outcome *)
    ());
  let reference =
    let eager_sess = W.create ~options:(eager base) problem in
    W.query eager_sess deltas
  in
  match (W.query sess deltas, reference) with
  | W.Feasible _, W.Feasible _ | W.Infeasible _, W.Infeasible _ -> ()
  | W.Unknown, _ | _, W.Unknown ->
    Alcotest.fail "unbudgeted what-if query returned Unknown"
  | _ -> Alcotest.fail "resumed lazy session disagrees with the eager session"

(* -- what-if deadline-delta cache regression ---------------------------- *)

(* Re-applying a cached Set_deadline delta must not reify a duplicate
   comparator: the solver's variable count stays flat.  And the entry
   must survive eviction pressure (LRU, not FIFO): a hot delta kept in
   use outlives a stream of cold one-off deadlines. *)
let test_whatif_deadline_cache options () =
  let problem = Workloads.small ~seed:3 () in
  let module W = Explain.Whatif in
  let sess = W.create ~options problem in
  let hot = [ W.Set_deadline { task = 0; deadline = 60 } ] in
  ignore (W.query sess hot);
  let vars_after_first = W.session_vars sess in
  for _ = 1 to 5 do
    ignore (W.query sess hot)
  done;
  Alcotest.(check int) "re-applied delta adds no variables" vars_after_first
    (W.session_vars sess);
  (* eviction pressure: well past the cache bound, touching the hot
     delta along the way so LRU keeps it resident *)
  for i = 0 to 139 do
    ignore (W.query sess [ W.Set_deadline { task = 1; deadline = 300 + i } ]);
    if i mod 20 = 0 then ignore (W.query sess hot)
  done;
  Alcotest.(check bool) "cache stays bounded" true
    (W.cached_deadline_bits sess <= 128);
  let vars_after_pressure = W.session_vars sess in
  ignore (W.query sess hot);
  Alcotest.(check int) "hot delta survived eviction pressure"
    vars_after_pressure (W.session_vars sess)

(* -- lazy Unsat: DRUP certificate and unsat core ------------------------ *)

(* An infeasible instance that needs search to refute: five heavy tasks
   on two ECUs — by pigeonhole some ECU carries three, busting its
   utilization — so the refutation is found while solving (not at
   encode time, where a recording proof sink could not yet exist) and
   must hold whatever mix of abstraction and refinement the run went
   through. *)
let infeasible_problem () =
  let task i =
    {
      Model.task_id = i;
      task_name = Printf.sprintf "heavy%d" i;
      period = 100;
      wcets = [ (0, 45); (1, 45) ];
      deadline = 90 + i;
      memory = 1;
      separation = [];
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = 0;
    }
  in
  let arch =
    {
      Model.n_ecus = 2;
      media = [];
      mem_capacity = [| max_int; max_int |];
      gateway_service = 0;
      barred = [];
    }
  in
  Model.make_problem ~arch ~tasks:(List.init 5 task)

let test_lazy_unsat_drup base () =
  let problem = infeasible_problem () in
  let enc = Encode.encode ~options:(lazy_ base) problem Encode.Feasible in
  let solver = Bv.solver (Encode.context enc) in
  let trace = Proof.record solver in
  let rec loop guard =
    if guard = 0 then Alcotest.fail "refinement loop did not terminate";
    match Solver.solve solver with
    | Solver.Unsat -> ()
    | Solver.Sat ->
      if Encode.Lazy.refine enc > 0 then loop (guard - 1)
      else Alcotest.fail "lazy solve accepted an infeasible instance"
    | Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"
  in
  loop 16;
  (* reconstruct the final formula (abstraction + refinements) and
     certify the refutation with the independent DRUP checker *)
  let clauses =
    Solver.fold_clauses
      (fun acc lits -> List.map Lit.to_dimacs lits :: acc)
      (* input unit clauses never reach the clause database — they are
         enqueued directly at level 0 — so pick them up separately, as
         the OPB exporter does *)
      (List.map (fun l -> [ Lit.to_dimacs l ]) (Solver.level0_units solver))
      solver
  in
  let pbs =
    Solver.fold_pbs
      (fun acc (terms, degree) ->
        {
          Proof.terms = List.map (fun (c, l) -> (c, Lit.to_dimacs l)) terms;
          degree;
        }
        :: acc)
      [] solver
  in
  let cnf =
    { Taskalloc_sat.Dimacs.num_vars = Solver.n_vars solver; clauses }
  in
  Alcotest.(check bool) "DRUP trace certifies the lazy Unsat" true
    (Proof.check ~pbs cnf (trace ()))

let test_lazy_unsat_core base () =
  let problem = infeasible_problem () in
  let sess = Explain.Session.create ~options:(lazy_ base) problem in
  match Explain.Session.solve_all sess with
  | Solver.Sat -> Alcotest.fail "grouped lazy session accepted an infeasible instance"
  | Solver.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown"
  | Solver.Unsat ->
    let core = Explain.Session.core_indices sess in
    let groups = Explain.Session.groups sess in
    List.iter
      (fun i ->
        if i < 0 || i >= Array.length groups then
          Alcotest.fail "core index outside the group registry")
      core;
    (* three deadline groups over one saturated ECU: at least one
       deadline must be in the core, and relaxing the whole core must
       restore feasibility *)
    let kinds =
      List.map (fun i -> groups.(i).Encode.kind) core
    in
    Alcotest.(check bool) "core names at least one deadline group" true
      (List.exists
         (function Encode.G_deadline _ -> true | _ -> false)
         kinds);
    (* the core's defining property: enforcing it alone is already
       unsatisfiable, every other group left free *)
    (match Explain.Session.solve sess core with
    | Solver.Unsat -> ()
    | _ -> Alcotest.fail "enforcing only the core groups is satisfiable");
    (* shrink to a MUS on the growing lazy formula and verify true
       minimality: dropping any single member restores satisfiability *)
    let mus, proven =
      Explain.shrink ~sessions:[| sess |] core
    in
    Alcotest.(check bool) "MUS shrink completed" true proven;
    (match Explain.Session.solve sess mus with
    | Solver.Unsat -> ()
    | _ -> Alcotest.fail "shrunk MUS is satisfiable");
    List.iter
      (fun dropped ->
        match
          Explain.Session.solve sess (List.filter (fun i -> i <> dropped) mus)
        with
        | Solver.Sat -> ()
        | _ ->
          Alcotest.fail
            "MUS is not minimal on the lazy session: a proper subset is \
             still unsat")
      mus

(* -- lazy/eager equivalence on the named workloads ---------------------- *)

let test_named_workloads_agree base () =
  List.iter
    (fun (name, problem, objective) ->
      match
        ( solve_with (eager base) problem objective,
          solve_with (lazy_ base) problem objective )
      with
      | Allocator.Solved e, Allocator.Solved l ->
        Alcotest.(check int) (name ^ ": same optimum") e.Allocator.cost
          l.Allocator.cost;
        Alcotest.(check bool) (name ^ ": lazy validates") true
          (l.Allocator.violations = []);
        Alcotest.(check bool)
          (name ^ ": lazy final formula is no larger")
          true
          (l.Allocator.bool_vars <= e.Allocator.bool_vars)
      | Allocator.Infeasible, Allocator.Infeasible -> ()
      | _ -> Alcotest.fail (name ^ ": verdicts diverge"))
    [
      ("small", Workloads.small ~seed:1 (), Encode.Min_trt 0);
      ("small-can", Workloads.small_can ~seed:1 (), Encode.Min_bus_load 0);
      ("small-hier", Workloads.small_hierarchical Workloads.C, Encode.Min_sum_trt);
      ("tasks12", Workloads.task_scaling ~n:12 (), Encode.Min_trt 0);
    ];
  (* the formula a lazy solve starts from, against the paper's full
     transformation, on tasks12 *)
  let tasks12 = Workloads.task_scaling ~n:12 () in
  let size options =
    let enc = Encode.encode ~options tasks12 (Encode.Min_trt 0) in
    (Encode.n_bool_vars enc, Encode.n_literals enc)
  in
  Alcotest.(check (pair int int)) "tasks12: eager vars, lits" (9409, 66794)
    (size (eager base));
  Alcotest.(check (pair int int)) "tasks12: lazy abstraction vars, lits"
    (1047, 5928) (size (lazy_ base))

(* every case that builds its eager and lazy sides from [base] *)
let cases base =
  [
    ("refinement is monotone and bounded", `Quick, test_refinement_monotone base);
    ("metamorphic: time scaling", `Slow, test_metamorphic_time_scaling base);
    ("metamorphic: task relabeling", `Quick, test_metamorphic_relabeling base);
    ("budget interrupts degrade cleanly", `Quick, test_budget_interrupt_chaos base);
    ( "interrupted what-if session resumes",
      `Quick,
      test_whatif_interrupt_resumable base );
    ("what-if deadline cache never re-reifies", `Quick, test_whatif_deadline_cache base);
    ("lazy Unsat carries a DRUP certificate", `Quick, test_lazy_unsat_drup base);
    ("lazy Unsat core is sensible", `Quick, test_lazy_unsat_core base);
    ("named workloads: lazy = eager", `Slow, test_named_workloads_agree base);
  ]

let suite =
  [
    ("differential lazy = eager (15 cases)", `Quick, test_differential_quick);
    ("differential lazy = eager (100 cases)", `Slow, test_differential_full);
  ]
  @ cases Encode.default_options
  @ Configs.tagged "inprocess" (cases Configs.inprocess)
  @ [
      ( "what-if deadline cache never re-reifies (lazy)",
        `Quick,
        test_whatif_deadline_cache Configs.lazy_ );
    ]
