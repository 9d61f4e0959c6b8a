(* Command-line front end for the optimal task allocator.

   Subcommands:
     solve    -- allocate a named workload optimally and print the result
     check    -- analyze a workload under a greedy heuristic placement
     compare  -- optimal allocator vs the heuristic baselines
     closures -- print the path closures of a named architecture
     explain  -- diagnose an infeasible workload (minimal unsat core)
     whatif   -- incremental what-if queries on one live solver session

   Example:
     taskalloc solve --workload tindell43 --objective trt
     taskalloc solve --workload arch-a --objective sum-trt --lazy
     taskalloc solve --workload small --timeout 0.5 --gap 0.05 *)

open Cmdliner
open Taskalloc_rt
open Taskalloc_core
open Taskalloc_heuristics

(* one workload table, shared with the daemon so `taskalloc solve -w X`
   and `{"kind":"open","workload":"X"}` always agree *)
let named_workloads = Taskalloc_server.Server.named_workloads

let file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Problem file (see lib/rt/problem_file.mli for the format); overrides --workload.")

let workload_arg =
  let doc =
    Fmt.str "Workload name; one of: %s."
      (String.concat ", " (List.map fst named_workloads))
  in
  Arg.(value & opt string "small" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let objective_arg =
  let objectives =
    [ ("trt", `Trt); ("sum-trt", `Sum_trt); ("bus-load", `Bus_load); ("max-util", `Max_util); ("feasible", `Feasible) ]
  in
  Arg.(
    value
    & opt (enum objectives) `Trt
    & info [ "o"; "objective" ] ~docv:"OBJ"
        ~doc:"Objective: trt, sum-trt, bus-load, max-util or feasible.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget for the whole solve.  On expiry the best \
           incumbent found so far is returned (with its optimality gap), or \
           a heuristic fallback when no incumbent exists yet.")

let max_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-conflicts" ] ~docv:"N"
        ~doc:"Total solver conflict budget across all binary-search probes.")

let gap_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "gap" ] ~docv:"FRACTION"
        ~doc:
          "Stop as soon as the relative optimality gap is within FRACTION \
           (e.g. 0.05 accepts any allocation within 5% of optimal).")

let no_fallback_arg =
  Arg.(
    value
    & flag
    & info [ "no-fallback" ]
        ~doc:
          "Disable the heuristic fallback: report UNKNOWN when the budget \
           expires before any incumbent exists.")

let lazy_arg =
  Arg.(
    value
    & vflag false
        [
          ( true,
            info [ "lazy" ]
              ~doc:
                "CEGAR encoding: start from the structural abstraction \
                 (allocation, capacities, routing, sound interference cuts) \
                 and install exact response-time machinery lazily, per task \
                 and per medium, only when a candidate model mispredicts it.  \
                 Proves the same verdict and optimum as the eager encoding, \
                 usually on a much smaller formula." );
          (false, info [ "no-lazy" ] ~doc:"The eager (full up-front) encoding; the default.");
        ])

let jobs_arg =
  let jobs_conv =
    let parse = function
      | "auto" -> Ok (Domain.recommended_domain_count ())
      | s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Ok n
        | _ -> Error "expected a positive integer or 'auto'")
    in
    Arg.conv' ~docv:"N" (parse, Fmt.int)
  in
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run N parallel solver workers (on OCaml domains); 'auto' \
           resolves to the machine's recommended domain count.  1 (the \
           default) is exactly the sequential solver.")

(* -- observability ------------------------------------------------------ *)

module Obs = Taskalloc_obs.Obs
module Json = Taskalloc_json.Json

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event (Perfetto-compatible) trace of the run \
           to FILE, plus a line-oriented JSONL copy next to it.  Implies \
           metrics collection.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write a JSON metrics snapshot (per-constraint-family encode \
           counts, solver progress gauges, phase-time histograms) to FILE.")

let progress_arg =
  Arg.(
    value
    & flag
    & info [ "progress" ]
        ~doc:
          "Print one-line live solver progress to stderr at budget \
           checkpoint ticks.")

(* Enable the requested sinks and register the output writers with
   [at_exit], so traces are flushed even on the non-zero exit paths
   (INFEASIBLE, UNKNOWN, validation failure). *)
let obs_setup ~trace ~metrics ~progress =
  let tracing = trace <> None in
  let want_metrics = metrics <> None || tracing in
  if tracing || want_metrics then begin
    Obs.enable ~tracing ~metrics:want_metrics ();
    at_exit (fun () ->
        (match trace with
        | Some f ->
          Obs.write_trace f;
          Obs.write_jsonl (Filename.remove_extension f ^ ".jsonl")
        | None -> ());
        match metrics with Some f -> Obs.write_metrics f | None -> ())
  end;
  if progress then
    Obs.set_sample_hook
      (Some
         (fun name kvs ->
           if name = "solver.progress" then begin
             let get k = Option.value ~default:0. (List.assoc_opt k kvs) in
             Fmt.epr
               "progress: %.0f conflicts (%.0f/s), %.0f props/s, trail %.0f, \
                lvl %.0f, lbd %.1f, %.0f restarts@."
               (get "conflicts") (get "conflicts_per_s")
               (get "propagations_per_s") (get "trail") (get "decision_level")
               (get "avg_lbd") (get "restarts")
           end))

(* Observability needs the solver's checkpoint to tick even when the
   user set no limits: an unlimited budget arms no tripwire and costs
   no syscalls, but gives progress sampling its cadence. *)
let budget_of ?(obs = false) ~timeout ~max_conflicts () =
  match (timeout, max_conflicts) with
  | None, None ->
    if obs then Some (Taskalloc_core.Allocator.Budget.create ()) else None
  | _ -> Some (Taskalloc_core.Allocator.Budget.create ?timeout ?max_conflicts ())

let lookup_workload ?file name seed =
  match file with
  | Some path -> (
    try Problem_file.parse_file path with
    | Problem_file.Parse_error { line; message } ->
      Fmt.epr "%s:%d: %s@." path line message;
      exit 2
    | Model.Invalid_model m ->
      Fmt.epr "%s: invalid model: %s@." path m;
      exit 2)
  | None -> (
    match List.assoc_opt name named_workloads with
    | Some f -> f seed
    | None ->
      Fmt.epr "unknown workload %S@." name;
      exit 2)

let to_objective problem = function
  | `Trt -> Encode.Min_trt 0
  | `Sum_trt -> Encode.Min_sum_trt
  | `Bus_load -> Encode.Min_bus_load 0
  | `Max_util -> Encode.Min_max_util
  | `Feasible ->
    ignore problem;
    Encode.Feasible

let heuristic_objective = function
  | `Trt | `Feasible -> Heuristics.Trt 0
  | `Sum_trt -> Heuristics.Sum_trt
  | `Bus_load -> Heuristics.Bus_load 0
  | `Max_util -> Heuristics.Max_util

let solve_cmd =
  let run file workload seed objective lazy_mode jobs timeout
      max_conflicts gap_tol no_fallback trace metrics progress =
    obs_setup ~trace ~metrics ~progress;
    let problem = lookup_workload ?file workload seed in
    let label = match file with Some f -> f | None -> workload in
    Fmt.pr "workload %s: %d tasks, %d ECUs, %d messages, %d media@." label
      (Array.length problem.Model.tasks)
      problem.Model.arch.Model.n_ecus
      (Array.length (Model.all_messages problem))
      (List.length problem.Model.arch.Model.media);
    let options = { Encode.default_options with Encode.lazy_mode } in
    if options.Encode.lazy_mode then Fmt.pr "encoding: lazy (CEGAR)@.";
    let budget =
      budget_of ~obs:(Obs.on () || progress) ~timeout ~max_conflicts ()
    in
    match
      Allocator.solve ~options ~jobs ?budget ~gap_tol
        ~fallback:(not no_fallback) problem (to_objective problem objective)
    with
    | Allocator.Infeasible ->
      (* the verdict is proved; name the conflicting constraint groups
         on the same encoding, with what is left of the same budget *)
      let module Explain = Taskalloc_explain.Explain in
      let report = Explain.explain ~options ?budget problem in
      (match report.Explain.status with
      | Explain.Explained _ -> Fmt.pr "%a@." Explain.pp_report report
      | Explain.Unknown ->
        Fmt.pr "INFEASIBLE@.diagnosis stopped: budget exhausted before a first core@."
      | Explain.Feasible ->
        Fmt.pr
          "INFEASIBLE@.diagnosis found every constraint group satisfiable \
           (encoder disagreement)@.");
      exit 1
    | Allocator.Unknown ->
      Fmt.pr
        "UNKNOWN: budget exhausted before any feasible allocation was found@.";
      exit 4
    | Allocator.Solved r ->
      Fmt.pr "resolution: %a@." Allocator.pp_quality r.Allocator.quality;
      (match Allocator.gap r with
      | Some g -> Fmt.pr "cost = %d  (gap %.1f%%)@." r.Allocator.cost (100. *. g)
      | None -> Fmt.pr "cost = %d  (no optimality bound)@." r.Allocator.cost);
      Fmt.pr "%a" Report.pp (Report.make problem r.allocation);
      Fmt.pr "stats: %a@." Taskalloc_opt.Opt.pp_stats r.stats;
      Fmt.pr "validation: %a@." Check.pp_report r.violations;
      if r.violations <> [] then exit 3
  in
  Cmd.v (Cmd.info "solve" ~doc:"Optimally allocate a named workload or problem file")
    Term.(
      const run $ file_arg $ workload_arg $ seed_arg $ objective_arg $ lazy_arg
      $ jobs_arg $ timeout_arg $ max_conflicts_arg $ gap_arg
      $ no_fallback_arg $ trace_arg $ metrics_arg $ progress_arg)

let check_cmd =
  let run workload seed =
    let problem = lookup_workload workload seed in
    match Heuristics.greedy problem (Heuristics.Trt 0) with
    | None ->
      Fmt.pr "greedy heuristic found no feasible placement@.";
      exit 1
    | Some (alloc, cost) ->
      Fmt.pr "greedy TRT = %d@." cost;
      let responses = Analysis.all_task_response_times problem alloc in
      Array.iteri
        (fun i r ->
          Fmt.pr "  %-8s r=%a d=%d@." problem.Model.tasks.(i).Model.task_name
            Fmt.(option ~none:(any "miss") int)
            r problem.Model.tasks.(i).Model.deadline)
        responses;
      Fmt.pr "checker: %a@." Check.pp_report (Check.check problem alloc)
  in
  Cmd.v (Cmd.info "check" ~doc:"Analyze a workload under the greedy heuristic")
    Term.(const run $ workload_arg $ seed_arg)

let compare_cmd =
  let run workload seed objective =
    let problem = lookup_workload workload seed in
    let hobj = heuristic_objective objective in
    let report name = function
      | Some (_, v) -> Fmt.pr "  %-16s %d@." name v
      | None -> Fmt.pr "  %-16s (none found)@." name
    in
    report "greedy" (Heuristics.greedy problem hobj);
    report "random-search" (Heuristics.random_search problem hobj);
    report "sim-annealing" (Heuristics.simulated_annealing problem hobj);
    (match Allocator.solve problem (to_objective problem objective) with
    | Allocator.Solved r -> Fmt.pr "  %-16s %d  (optimal)@." "sat" r.Allocator.cost
    | Allocator.Infeasible -> Fmt.pr "  %-16s infeasible@." "sat"
    | Allocator.Unknown -> Fmt.pr "  %-16s unknown@." "sat")
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare heuristics against the optimal allocator")
    Term.(const run $ workload_arg $ seed_arg $ objective_arg)

let closures_cmd =
  let run workload seed =
    let problem = lookup_workload workload seed in
    let topo = problem.Model.topology in
    List.iteri
      (fun i closure ->
        Fmt.pr "ph%d = %a@." (i + 1) Taskalloc_topology.Topology.pp_closure closure)
      (Taskalloc_topology.Topology.path_closures topo)
  in
  Cmd.v (Cmd.info "closures" ~doc:"Print the path closures of a workload's architecture")
    Term.(const run $ workload_arg $ seed_arg)

let simulate_cmd =
  let run file workload seed objective horizon =
    let problem = lookup_workload ?file workload seed in
    match Allocator.solve problem (to_objective problem objective) with
    | Allocator.Infeasible ->
      Fmt.pr "INFEASIBLE@.";
      exit 1
    | Allocator.Unknown ->
      Fmt.pr "UNKNOWN@.";
      exit 4
    | Allocator.Solved r ->
      Fmt.pr "optimal cost = %d; simulating...@." r.Allocator.cost;
      let trace = Sim.simulate ?horizon problem r.allocation in
      Fmt.pr "simulated %d ticks: %s@." trace.Sim.horizon
        (if Sim.missed trace then "DEADLINE MISSES" else "no misses");
      let responses = Analysis.all_task_response_times problem r.allocation in
      Array.iteri
        (fun i task ->
          Fmt.pr "  %-8s observed r=%d  analytical r=%a  d=%d@."
            task.Model.task_name
            trace.Sim.task_max_response.(i)
            Fmt.(option ~none:(any "-") int)
            responses.(i) task.Model.deadline)
        problem.Model.tasks;
      Array.iter
        (fun (m : Model.message) ->
          let bound =
            match Analysis.message_end_to_end problem r.allocation m with
            | Some (_, b) -> string_of_int b
            | None -> "-"
          in
          Fmt.pr "  msg %-4d observed latency=%d  analytical=%s  deadline=%d  (%d deliveries)@."
            m.Model.msg_id
            trace.Sim.msg_max_latency.(m.Model.msg_id)
            bound m.Model.msg_deadline
            trace.Sim.msg_deliveries.(m.Model.msg_id))
        (Model.all_messages problem);
      if Sim.missed trace then begin
        Fmt.pr "%a@." Sim.pp_trace trace;
        exit 3
      end
  in
  let horizon_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"TICKS" ~doc:"Simulation horizon in ticks.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Optimally allocate, then validate by discrete-event simulation")
    Term.(const run $ file_arg $ workload_arg $ seed_arg $ objective_arg $ horizon_arg)

let export_cmd =
  let run file workload seed objective out =
    let problem = lookup_workload ?file workload seed in
    let enc = Encode.encode problem (to_objective problem objective) in
    let solver = Taskalloc_bv.Bv.solver (Encode.context enc) in
    (match out with
    | Some path ->
      Taskalloc_pb.Opb.export_file path solver;
      Fmt.pr "wrote %s: %d vars, %d clauses, %d PB constraints@." path
        (Taskalloc_sat.Solver.n_vars solver)
        (Taskalloc_sat.Solver.n_clauses solver)
        (Taskalloc_sat.Solver.n_pbs solver)
    | None -> Taskalloc_pb.Opb.export Fmt.stdout solver)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "output" ] ~docv:"FILE" ~doc:"Write the OPB dump to FILE.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Encode a workload and dump the PB constraint system in OPB format")
    Term.(const run $ file_arg $ workload_arg $ seed_arg $ objective_arg $ out_arg)

let dump_cmd =
  let run workload seed =
    let problem = lookup_workload workload seed in
    Problem_file.print Fmt.stdout problem
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Print a named workload in the problem-file format")
    Term.(const run $ workload_arg $ seed_arg)

let fuzz_cmd =
  let module Fuzz = Taskalloc_fuzz.Fuzz in
  let run iters seed max_vars jobs verbose campaign =
    let log = if verbose then fun s -> Fmt.pr "c %s@." s else ignore in
    let report = Fuzz.run ~max_vars ~jobs ~log ~campaign ~iters ~seed () in
    Fmt.pr "%a@?" Fuzz.pp_report report;
    if report.Fuzz.failures <> [] then exit 1
  in
  let iters_arg =
    Arg.(
      value
      & opt int 200
      & info [ "iters" ] ~docv:"N" ~doc:"Number of random cases to run.")
  in
  let fuzz_seed_arg =
    Arg.(
      value
      & opt int 1
      & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed; every case is derived from it.")
  in
  let max_vars_arg =
    Arg.(
      value
      & opt int 10
      & info [ "max-vars" ] ~docv:"N"
          ~doc:"Largest instance size in variables (clamped to 2..16).")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print one line per discrepancy: iteration, seed, error.")
  in
  let campaign_arg =
    Arg.(
      value
      & vflag Fuzz.Sat
          [
            ( Fuzz.Disruptions,
              info [ "disruptions" ]
                ~doc:
                  "Fuzz the online repair engine instead: random disruption \
                   campaigns (inject event, repair, simulate, assert \
                   deadlines, repeat), cross-checked against a brute-force \
                   minimal-migration oracle." );
            ( Fuzz.Lazy,
              info [ "lazy" ]
                ~doc:
                  "Differential lazy-vs-eager campaign instead: random \
                   allocation problems solved with the eager and with the \
                   CEGAR lazy encoding (inprocessed on odd iterations), \
                   requiring identical verdicts, \
                   identical proven optima, and analyzer-clean allocations \
                   on both sides." );
            ( Fuzz.Inprocess,
              info [ "inprocess" ]
                ~doc:
                  "Differential inprocessing campaign instead: every case is \
                   solved with the CDCL inprocessing passes (vivification, \
                   subsumption, bounded variable elimination) against the \
                   oracle, with DRUP-certified Unsat answers, and one random \
                   allocation problem is solved with and without them, \
                   requiring identical verdicts and optima and \
                   analyzer-clean allocations." );
          ])
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-fuzz the solver against a brute-force oracle, certifying \
          every Unsat answer with the DRUP checker; exits non-zero on any \
          discrepancy and prints a minimized reproducer"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The campaign flags are mutually exclusive.  $(b,--jobs) races \
              a portfolio per case in the default campaign and spreads \
              iterations over domains in the others; $(b,--max-vars) bounds \
              the CNF/PB cases of the default and $(b,--inprocess) campaigns.";
         ])
    Term.(
      const run $ iters_arg $ fuzz_seed_arg $ max_vars_arg $ jobs_arg
      $ verbose_arg $ campaign_arg)

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON instead of text.")

let explain_cmd =
  let run file workload seed jobs timeout max_conflicts max_relax json trace
      metrics progress =
    obs_setup ~trace ~metrics ~progress;
    let problem = lookup_workload ?file workload seed in
    let budget =
      budget_of ~obs:(Obs.on () || progress) ~timeout ~max_conflicts ()
    in
    let report =
      Taskalloc_explain.Explain.explain ~jobs ?budget ~max_relaxations:max_relax
        problem
    in
    if json then
      print_endline (Json.to_string (Taskalloc_explain.Explain.report_to_json report))
    else Fmt.pr "%a@." Taskalloc_explain.Explain.pp_report report;
    match report.Taskalloc_explain.Explain.status with
    | Taskalloc_explain.Explain.Feasible -> ()
    | Taskalloc_explain.Explain.Explained _ -> exit 1
    | Taskalloc_explain.Explain.Unknown -> exit 4
  in
  let max_relax_arg =
    Arg.(
      value
      & opt int 3
      & info [ "relaxations" ] ~docv:"K"
          ~doc:
            "Report up to K minimal correction sets (group sets whose removal \
             restores feasibility).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Diagnose an infeasible workload: extract a minimal unsatisfiable set \
          of named constraint groups (deadlines, separations, placements, \
          capacities) and the minimal relaxations that restore feasibility")
    Term.(
      const run $ file_arg $ workload_arg $ seed_arg $ jobs_arg $ timeout_arg
      $ max_conflicts_arg $ max_relax_arg $ json_arg $ trace_arg $ metrics_arg
      $ progress_arg)

let whatif_cmd =
  let run file workload seed jobs timeout max_conflicts queries json trace
      metrics progress =
    obs_setup ~trace ~metrics ~progress;
    (* one live incremental session is inherently sequential: queries
       reuse each other's learnt clauses and cached comparators, which a
       raced copy could not; accept --jobs for interface consistency but
       say why it cannot help here *)
    if jobs > 1 then
      Fmt.epr
        "note: what-if queries share one live incremental solver session and \
         run sequentially; --jobs %d has no effect@."
        jobs;
    let problem = lookup_workload ?file workload seed in
    let module W = Taskalloc_explain.Explain.Whatif in
    (* Parse everything up front so a typo in query 3 does not waste the
       solve for queries 1 and 2. *)
    let deltas =
      List.mapi
        (fun i q ->
          match W.parse_deltas problem q with
          | Ok ds -> (q, ds)
          | Error msg ->
            Fmt.epr "query %d %S: %s@." (i + 1) q msg;
            exit 2)
        queries
    in
    let session = W.create problem in
    let tasks = problem.Model.tasks in
    List.iteri
      (fun i (q, ds) ->
        let budget =
          budget_of ~obs:(Obs.on () || progress) ~timeout ~max_conflicts ()
        in
        let verdict = W.query ?budget session ds in
        let label = if q = "" then "baseline" else q in
        if json then Fmt.pr "%s@." (Json.to_string (W.verdict_to_json session verdict))
        else
          match verdict with
          | W.Feasible { allocation; relaxed } ->
            Fmt.pr "query %d [%s]: FEASIBLE%s@." (i + 1) label
              (if relaxed then " (under relaxed constraints)" else "");
            Fmt.pr "  placement:%t@." (fun ppf ->
                Array.iteri
                  (fun t e ->
                    Fmt.pf ppf " %s->ECU%d" tasks.(t).Model.task_name e)
                  allocation.Model.task_ecu)
          | W.Infeasible { groups; deltas } ->
            Fmt.pr "query %d [%s]: INFEASIBLE@." (i + 1) label;
            List.iter
              (fun g -> Fmt.pr "  - %s@." g.Encode.descr)
              groups;
            List.iter
              (fun d -> Fmt.pr "  - query delta: %s@." (W.describe session d))
              deltas
          | W.Unknown -> Fmt.pr "query %d [%s]: UNKNOWN (budget expired)@." (i + 1) label)
      deltas;
    if not json then
      Fmt.pr "session: %d queries, %d solver calls, one encoding@."
        (W.queries session) (W.solves session)
  in
  let query_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:
            "What-if query (repeatable; answered in order on one live solver \
             session).  Comma-separated deltas: 'pin <task> <ecu>', 'forbid \
             <task> <ecu>', 'deadline <task> <d>', 'drop deadline <task>', \
             'drop separation <t1> <t2>', 'drop placement <task>', 'drop \
             capacity <ecu>', 'drop msg-deadline <id>'.  An empty query \
             re-solves the unmodified instance.")
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:
         "Interrogate a workload incrementally: re-solve a sequence of \
          deadline/placement/relaxation deltas on one live solver session \
          without re-encoding")
    Term.(
      const run $ file_arg $ workload_arg $ seed_arg $ jobs_arg $ timeout_arg
      $ max_conflicts_arg $ query_arg $ json_arg $ trace_arg $ metrics_arg
      $ progress_arg)

let repair_cmd =
  let module Repair = Taskalloc_repair.Repair in
  let module Scenario = Taskalloc_repair.Scenario in
  let run file workload seed jobs scenario events no_shed explain timeout
      max_conflicts json trace metrics progress =
    obs_setup ~trace ~metrics ~progress;
    (* the disruption stream: a scenario file, inline --event strings
       (parsed with the same grammar, at tick 0), or both *)
    let scen =
      match scenario with
      | None -> None
      | Some path -> (
        try Some (Scenario.parse_file path) with
        | Scenario.Parse_error { line; message } ->
          Fmt.epr "%s:%d: %s@." path line message;
          exit 2
        | Sys_error m ->
          Fmt.epr "%s@." m;
          exit 2)
    in
    let inline =
      List.map
        (fun s ->
          match (Scenario.parse_string ("at 0 " ^ s)).Scenario.events with
          | [ e ] -> e
          | _ ->
            Fmt.epr "--event %S: expected exactly one event@." s;
            exit 2
          | exception Scenario.Parse_error { message; _ } ->
            Fmt.epr "--event %S: %s@." s message;
            exit 2)
        events
    in
    let stream =
      (match scen with Some s -> s.Scenario.events | None -> []) @ inline
    in
    if stream = [] then begin
      Fmt.epr "no disruption events: pass --scenario FILE or --event EV@.";
      exit 2
    end;
    let problem =
      match scen with
      | Some { Scenario.problem_path = Some p; _ } when file = None ->
        lookup_workload ~file:p workload seed
      | _ -> lookup_workload ?file workload seed
    in
    (* the running system: solve the initial allocation first *)
    let budget () =
      budget_of ~obs:(Obs.on () || progress) ~timeout ~max_conflicts ()
    in
    (* --jobs parallelizes the initial allocation solve; the repair
       loop itself runs on one warm incremental session per event *)
    let alloc =
      match Allocator.solve ~jobs ?budget:(budget ()) problem Encode.Feasible with
      | Allocator.Solved r -> r.Allocator.allocation
      | Allocator.Infeasible ->
        Fmt.epr "initial problem is INFEASIBLE: nothing to keep running@.";
        exit 1
      | Allocator.Unknown ->
        Fmt.epr "UNKNOWN: budget exhausted before an initial allocation@.";
        exit 4
    in
    if not json then
      Fmt.pr "running: %d tasks on %d ECUs@."
        (Array.length problem.Model.tasks)
        problem.Model.arch.Model.n_ecus;
    let st = Repair.create problem alloc in
    let any_irreparable = ref false and any_unknown = ref false in
    List.iteri
      (fun i { Scenario.at; spec } ->
        let before = Repair.problem st in
        let event =
          try Scenario.resolve st spec with
          | Repair.Invalid_event m ->
            Fmt.epr "event %d: %s@." (i + 1) m;
            exit 2
        in
        let outcome =
          try
            Repair.repair ?budget:(budget ()) ~allow_shed:(not no_shed)
              ~explain st event
          with Repair.Invalid_event m ->
            Fmt.epr "event %d: %s@." (i + 1) m;
            exit 2
        in
        if json then Fmt.pr "%s@." (Json.to_string (Repair.outcome_to_json outcome))
        else begin
          Fmt.pr "@[<v>t=%d  %a@,%a@]@." at (Repair.pp_event before) event
            (Repair.pp_outcome before) outcome
        end;
        match outcome with
        | Repair.Repaired _ -> ()
        | Repair.Irreparable _ -> any_irreparable := true
        | Repair.Unknown -> any_unknown := true)
      stream;
    if not json then begin
      let p = Repair.problem st in
      let a = Repair.allocation st in
      Fmt.pr "final: %d tasks running%s@."
        (Array.length p.Model.tasks)
        (match Repair.shed_so_far st with
        | [] -> ""
        | sheds -> Fmt.str ", shed: %s" (String.concat ", " sheds));
      Array.iteri
        (fun t e -> Fmt.pr "  %-10s ECU%d@." p.Model.tasks.(t).Model.task_name e)
        a.Model.task_ecu
    end;
    if !any_unknown then exit 4;
    if !any_irreparable then exit 1
  in
  let scenario_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "scenario" ] ~docv:"FILE"
          ~doc:
            "Disruption scenario file: a $(b,problem) directive plus $(b,at \
             TICK EVENT) lines (see lib/repair/scenario.mli for the \
             grammar).")
  in
  let event_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "e"; "event" ] ~docv:"EVENT"
          ~doc:
            "Inline disruption event (repeatable, applied in order after the \
             scenario's): 'fail-ecu <e>', 'wcet <task> <percent>', \
             'degrade-bus <medium> <percent>', or 'arrive <name> <period> \
             <deadline> <memory> [crit N] wcet <ecu> <w> ...'.")
  in
  let no_shed_arg =
    Arg.(
      value
      & flag
      & info [ "no-shed" ]
          ~doc:
            "Disable the mixed-criticality degradation ladder: report \
             IRREPARABLE instead of shedding low-criticality tasks.")
  in
  let explain_arg =
    Arg.(
      value
      & flag
      & info [ "explain" ]
          ~doc:
            "Attribute each migration and shed to the constraint groups that \
             forced it (minimal unsat cores; extra solver probes).")
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Repair a running allocation through a stream of disruption events \
          (ECU failures, WCET overruns, task arrivals, bus degradations), \
          migrating as few tasks as possible and shedding low-criticality \
          tasks only when nothing else fits; exits 0 when every event was \
          repaired, 1 on an irreparable event, 4 when a budget expired")
    Term.(
      const run $ file_arg $ workload_arg $ seed_arg $ jobs_arg $ scenario_arg
      $ event_arg $ no_shed_arg $ explain_arg $ timeout_arg $ max_conflicts_arg
      $ json_arg $ trace_arg $ metrics_arg $ progress_arg)

let client_cmd =
  let module Client = Taskalloc_server.Client in
  let run socket tcp watch cancel requests =
    let listen =
      match tcp with
      | Some (host, port) -> `Tcp (host, port)
      | None -> `Unix socket
    in
    let c =
      try Client.connect listen
      with Unix.Unix_error (e, _, _) ->
        Fmt.epr "cannot connect to %s: %s@."
          (match listen with
          | `Unix p -> p
          | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
          (Unix.error_message e);
        exit 2
    in
    (* --watch / --cancel are sugar over the corresponding verbs;
       --watch additionally streams every progress line (the verb's
       answer is the watched request's final answer, handled below) *)
    (match cancel with
    | None -> ()
    | Some rid ->
      Client.send c
        (Json.Obj [ ("kind", Json.Str "cancel"); ("request", Json.Str rid) ]));
    (match watch with
    | None -> ()
    | Some rid ->
      Client.send c
        (Json.Obj [ ("kind", Json.Str "watch"); ("request", Json.Str rid) ]));
    let streamed = ref false in
    (if cancel <> None || watch <> None then
       (* one answer per verb sent; progress lines (no "ok" member)
          keep streaming until the watched request's final answer *)
       let pending = (if cancel = None then 0 else 1) + (if watch = None then 0 else 1) in
       let rec drain left =
         if left > 0 then
           match Client.recv c with
           | Json.Obj kvs as resp ->
             print_endline (Json.to_string resp);
             streamed := true;
             if List.mem_assoc "ok" kvs then drain (left - 1) else drain left
           | resp ->
             print_endline (Json.to_string resp);
             drain left
           | exception End_of_file ->
             Fmt.epr "server closed the connection@.";
             exit 1
       in
       drain pending);
    (* requests from --request flags, else one per stdin line; each
       response is echoed to stdout as the daemon sent it *)
    let next =
      match requests with
      | [] when !streamed ->
        (* --watch/--cancel with no explicit requests: don't fall
           through to reading stdin *)
        fun () -> None
      | [] ->
        fun () -> (try Some (input_line stdin) with End_of_file -> None)
      | rs ->
        let rest = ref rs in
        fun () ->
          (match !rest with
          | [] -> None
          | r :: tl ->
            rest := tl;
            Some r)
    in
    let failed = ref false in
    let rec loop () =
      match next () with
      | None -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line ->
        (match Client.request_raw c line with
        | resp ->
          print_endline resp;
          (match Json.parse resp with
          | Json.Obj kvs when List.assoc_opt "ok" kvs = Some (Json.Bool true) ->
            ()
          | _ -> failed := true
          | exception Json.Parse_error _ -> failed := true);
          loop ()
        | exception End_of_file ->
          Fmt.epr "server closed the connection@.";
          failed := true)
    in
    loop ();
    Client.close c;
    if !failed then exit 1
  in
  let socket_arg =
    Arg.(
      value
      & opt string "taskallocd.sock"
      & info [ "s"; "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket of the daemon (ignored with $(b,--tcp)).")
  in
  let tcp_arg =
    let hostport_conv =
      let parse s =
        match String.rindex_opt s ':' with
        | Some i -> (
          let host = String.sub s 0 i in
          let host = if host = "" then "127.0.0.1" else host in
          match
            int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
          with
          | Some port when port > 0 && port < 65536 -> Ok (host, port)
          | _ -> Error "expected HOST:PORT")
        | None -> (
          match int_of_string_opt s with
          | Some port when port > 0 && port < 65536 -> Ok ("127.0.0.1", port)
          | _ -> Error "expected HOST:PORT or PORT")
      in
      Arg.conv' ~docv:"HOST:PORT"
        (parse, fun ppf (h, p) -> Fmt.pf ppf "%s:%d" h p)
    in
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"Connect over TCP instead.")
  in
  let request_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "r"; "request" ] ~docv:"JSON"
          ~doc:
            "Request line to send (repeatable, sent in order).  Without any, \
             requests are read from stdin, one per line.")
  in
  let watch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch" ] ~docv:"REQUEST_ID"
          ~doc:
            "Subscribe to an in-flight request's live progress stream \
             (budget-checkpoint samples: conflict rate, incumbent, lower \
             bound, gap, CEGAR rounds), printing one JSON line per event \
             and finally the request's answer.")
  in
  let cancel_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cancel" ] ~docv:"REQUEST_ID"
          ~doc:
            "Cancel an in-flight request: trips its budget hook, so it \
             answers promptly with its anytime/heuristic best-so-far.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Drive a running taskallocd: send newline-delimited JSON requests, \
          print each response; exits 1 if any response has ok:false")
    Term.(
      const run $ socket_arg $ tcp_arg $ watch_arg $ cancel_arg $ request_arg)

let () =
  let doc = "optimal task and message allocation for hierarchical architectures" in
  exit (Cmd.eval (Cmd.group (Cmd.info "taskalloc" ~doc) [ solve_cmd; check_cmd; compare_cmd; closures_cmd; dump_cmd; simulate_cmd; export_cmd; fuzz_cmd; explain_cmd; whatif_cmd; repair_cmd; client_cmd ]))
