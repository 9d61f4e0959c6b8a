(* Binary-search optimization over a SAT-encoded integer cost (§5.2).

   [SOLVE phi] is one call to the CDCL+PB solver; [minimize] wraps it in
   the paper's BIN_SEARCH loop:

     L := 0;  R := SOLVE(phi)
     while L < R do
       M := (L + R) / 2
       K := SOLVE(phi and L <= i <= M)
       if K = -1 then L := M + 1 else R := K

   (We advance L to M+1 rather than the paper's M, which fails to
   terminate when R = L + 1; the invariant "optimum in [L, R]" is
   preserved because an UNSAT interval [L, M] proves optimum > M.)

   Two modes reproduce the paper's §7 observation about reusing learned
   clauses across the probe sequence:

   - [Fresh]: every probe builds the formula from scratch in a new
     solver — the baseline the paper used for its tables;
   - [Incremental]: the formula is built once; each upper bound
     [cost <= M] is guarded by a fresh activation literal assumed for
     that probe only, and monotone lower bounds are added permanently.
     All clauses learned in earlier probes remain, pruning later ones —
     the paper reports a factor >= 2 from exactly this reuse.

   The loop is *anytime*: a shared {!Budget.t} governs the total spend
   across all probes, and when it trips mid-search the loop stops and
   reports the best model found so far together with the lower bound
   already proved, instead of discarding the incumbent.  Budget expiry
   is an answer, never an exception. *)

open Taskalloc_sat
open Taskalloc_pb
open Taskalloc_bv
module Budget = Taskalloc_sat.Budget
module Obs = Taskalloc_obs.Obs

type mode = Fresh | Incremental

type stats = {
  mutable probes : int;
  mutable sat_probes : int;
  mutable unsat_probes : int;
  mutable interrupted_probes : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable bool_vars : int;
  mutable literals : int;
  mutable time_s : float;
}

let empty_stats () =
  {
    probes = 0;
    sat_probes = 0;
    unsat_probes = 0;
    interrupted_probes = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    bool_vars = 0;
    literals = 0;
    time_s = 0.;
  }

let pp_stats ppf s =
  Fmt.pf ppf "probes=%d (sat=%d unsat=%d) conflicts=%d vars=%d lits=%d time=%.2fs"
    s.probes s.sat_probes s.unsat_probes s.conflicts s.bool_vars s.literals s.time_s

type resolution = Optimal | Feasible_budget_exhausted | Infeasible | Unknown

let pp_resolution ppf = function
  | Optimal -> Fmt.string ppf "optimal"
  | Feasible_budget_exhausted -> Fmt.string ppf "feasible (budget exhausted)"
  | Infeasible -> Fmt.string ppf "infeasible"
  | Unknown -> Fmt.string ppf "unknown (budget exhausted)"

type 'a anytime = {
  incumbent : (int * 'a) option;
  lower_bound : int;
  upper_bound : int option;
  resolution : resolution;
}

let gap a =
  match a.incumbent with
  | None -> None
  | Some (ub, _) ->
    if ub <= a.lower_bound then Some 0.
    else Some (float_of_int (ub - a.lower_bound) /. float_of_int ub)

(* One SAT probe; records statistics.  Never raises: budget expiry is
   reported as [Solver.Unknown].  Counters are charged from the
   per-solve deltas ([Solver.last_solve_stats]), not by differencing
   the solver's cumulative counters here: an incremental session
   reused across minimize runs (or a what-if session) carries history,
   and cumulative reads would cross-contaminate the probe totals. *)
let probe stats ~assumptions ~budget ctx =
  stats.probes <- stats.probes + 1;
  let s = Bv.solver ctx in
  let result =
    Obs.span "opt.probe" (fun () -> Solver.solve ~assumptions ~budget s)
  in
  let d = Solver.last_solve_stats s in
  stats.conflicts <- stats.conflicts + d.Solver.d_conflicts;
  stats.decisions <- stats.decisions + d.Solver.d_decisions;
  stats.propagations <- stats.propagations + d.Solver.d_propagations;
  stats.bool_vars <- max stats.bool_vars (Solver.n_vars s);
  stats.literals <- max stats.literals (Solver.n_literals s);
  if Obs.metrics_on () then begin
    Obs.Metrics.observe "opt.probe_conflicts" d.Solver.d_conflicts;
    Obs.Metrics.incr "opt.probes"
  end;
  (match result with
  | Solver.Sat -> stats.sat_probes <- stats.sat_probes + 1
  | Solver.Unsat -> stats.unsat_probes <- stats.unsat_probes + 1
  | Solver.Unknown -> stats.interrupted_probes <- stats.interrupted_probes + 1);
  result

(* Probe-point selection strategies for the search loop.  Bisection is
   the paper's reference; the others exist for portfolio diversity —
   racing them changes the *total* number of probes, not just luck, so
   a portfolio can win even on a single core:
   - [Top_down] probes best-1 and proves optimality in one Unsat probe
     whenever the current incumbent is already optimal;
   - [Low_quartile] bisects pessimistically, trading larger Sat
     improvements for more Unsat probes (fast lower-bound growth). *)
type strategy = Bisect | Top_down | Low_quartile

let strategy_of_worker i =
  match i mod 3 with 1 -> Top_down | 2 -> Low_quartile | _ -> Bisect

(* next probe point in [lower, best-1]; precondition lower < best *)
let next_m strategy ~lower ~best =
  match strategy with
  | Bisect -> (lower + best) / 2
  | Top_down -> best - 1
  | Low_quartile -> lower + ((best - lower) / 4)

(* Minimize the cost term produced by [build].  [on_sat ctx cost] is
   invoked on every improving model so the caller can extract its
   solution; the last extraction corresponds to the incumbent.
   [config], when given, diversifies every solver this run constructs
   (portfolio workers pass their own).

   [assumptions] are assumed on every probe: the minimum found is the
   minimum *under those assumptions*.  Proved lower bounds [cost >= l]
   are asserted permanently only when there are no assumptions: then
   the bound is entailed by the formula itself.  Under assumptions it
   need not hold without them, and asserting it would poison a session
   shared with other clients (a what-if or repair session probed under
   varying assumptions).  Learnt clauses are kept either way — they
   never depend on assumptions. *)
let minimize_seq ?(mode = Incremental) ?(strategy = Bisect) ?config
    ?(assumptions = []) ?refine ?(budget = Budget.unlimited ()) ?(gap_tol = 0.)
    ~(build : unit -> Bv.ctx * Bv.t) ~(on_sat : Bv.ctx -> int -> 'a) () =
  let persist_bounds = assumptions = [] in
  let stats = empty_stats () in
  let t0 = Unix.gettimeofday () in
  (* CEGAR interlock: on a lazy encoding a [Sat] probe is only final
     once [refine] reports 0 — each refinement grows the formula in
     place (or, in [Fresh] mode, in the probe's own rebuild), so the
     same probe is simply re-run until the model survives the exact
     check.  Unsat/Unknown answers pass through: the lazy formula is a
     relaxation, so they are already final. *)
  let probe stats ~assumptions ~budget ctx =
    match refine with
    | None -> probe stats ~assumptions ~budget ctx
    | Some refine ->
      let rec go () =
        match probe stats ~assumptions ~budget ctx with
        | Solver.Sat ->
          if Obs.span "cegar.refine" (fun () -> refine ctx) > 0 then go ()
          else Solver.Sat
        | r -> r
      in
      go ()
  in
  let finish outcome =
    stats.time_s <- Unix.gettimeofday () -. t0;
    (outcome, stats)
  in
  let infeasible =
    { incumbent = None; lower_bound = 0; upper_bound = None; resolution = Infeasible }
  in
  let unknown =
    { incumbent = None; lower_bound = 0; upper_bound = None; resolution = Unknown }
  in
  (* BIN_SEARCH over [lower, best_cost], shared by both modes through
     [reprobe : lower -> m -> Sat of new cost | Unsat | Unknown]. *)
  let run_search ~first_cost ~first_payload ~reprobe =
    let best_cost = ref first_cost in
    let best = ref first_payload in
    let lower = ref 0 in
    let interrupted = ref false in
    let converged () =
      !lower >= !best_cost
      || float_of_int (!best_cost - !lower) <= gap_tol *. float_of_int !best_cost
    in
    (* bound/incumbent/gap timeline: one marker per probe outcome in
       the trace, plus a numeric sample to the installed hook so a
       live watcher (the daemon's [watch] verb, [--progress]) sees the
       incumbent/lower-bound/gap trajectory as it happens *)
    let timeline outcome =
      let gap =
        float_of_int (!best_cost - !lower) /. float_of_int (max !best_cost 1)
      in
      if Obs.tracing_on () then
        Obs.instant "opt.bound"
          ~attrs:
            [
              ("outcome", outcome);
              ("lower", string_of_int !lower);
              ("incumbent", string_of_int !best_cost);
              ("gap", Printf.sprintf "%g" gap);
            ];
      if Obs.sample_hook_installed () then
        Obs.emit_sample "opt.bound"
          [
            ("lower", float_of_int !lower);
            ("incumbent", float_of_int !best_cost);
            ("gap", gap);
          ]
    in
    timeline "first_sat";
    while (not !interrupted) && not (converged ()) do
      let m = next_m strategy ~lower:!lower ~best:!best_cost in
      (match reprobe !lower m with
      | `Sat (k, payload) ->
        best_cost := k;
        best := payload;
        timeline "sat"
      | `Unsat ->
        lower := m + 1;
        timeline "unsat"
      | `Unknown ->
        interrupted := true;
        timeline "interrupted")
    done;
    let resolution =
      if !lower >= !best_cost then Optimal else Feasible_budget_exhausted
    in
    {
      incumbent = Some (!best_cost, !best);
      lower_bound = (if resolution = Optimal then !best_cost else !lower);
      upper_bound = Some !best_cost;
      resolution;
    }
  in
  let apply_config ctx =
    match config with
    | None -> ()
    | Some c -> Solver.set_config (Bv.solver ctx) c
  in
  match mode with
  | Incremental -> (
    let ctx, cost = build () in
    apply_config ctx;
    match probe stats ~assumptions ~budget ctx with
    | Solver.Unsat -> finish infeasible
    | Solver.Unknown -> finish unknown
    | Solver.Sat ->
      let first_cost = Bv.model_int ctx cost in
      let first_payload = on_sat ctx first_cost in
      (* one incremental bound-probe session for the whole descent:
         each probed upper bound [cost <= m] is a reified comparator
         assumed for that probe only, cached so a revisited bound costs
         nothing to re-install.  No per-probe activation variable and no
         retirement clause — every clause learnt in one probe keeps
         pruning all later ones, and the comparator circuits stay
         reusable across probes (and across what-if queries driving the
         same session). *)
      let bound_bits = Hashtbl.create 16 in
      let bound_bit m =
        match Hashtbl.find_opt bound_bits m with
        | Some b -> b
        | None ->
          let b = Bv.le_const ctx cost m in
          Hashtbl.replace bound_bits m b;
          b
      in
      let reprobe lower m =
        ignore lower;
        match bound_bit m with
        | Circuits.Zero ->
          (* the comparator is constant-false: no solve needed *)
          if persist_bounds then Bv.assert_ ctx (Bv.ge_const ctx cost (m + 1));
          `Unsat
        | (Circuits.One | Circuits.Lit _) as b -> (
          let assumptions =
            assumptions @ (match b with Circuits.Lit g -> [ g ] | _ -> [])
          in
          match probe stats ~assumptions ~budget ctx with
          | Solver.Sat ->
            let k = Bv.model_int ctx cost in
            assert (k <= m);
            `Sat (k, on_sat ctx k)
          | Solver.Unsat ->
            (* the lower bound is entailed from now on (under this
               run's assumptions): add permanently when allowed *)
            if persist_bounds then
              Bv.assert_ ctx (Bv.ge_const ctx cost (m + 1));
            `Unsat
          | Solver.Unknown -> `Unknown)
      in
      finish (run_search ~first_cost ~first_payload ~reprobe))
  | Fresh -> (
    (* first probe: unconstrained.  [assumptions], if any, must refer
       to variables [build] creates deterministically (the clause
       sharing contract), so they mean the same in every rebuild. *)
    let ctx0, cost0 = build () in
    apply_config ctx0;
    match probe stats ~assumptions ~budget ctx0 with
    | Solver.Unsat -> finish infeasible
    | Solver.Unknown -> finish unknown
    | Solver.Sat ->
      let first_cost = Bv.model_int ctx0 cost0 in
      let first_payload = on_sat ctx0 first_cost in
      let reprobe lower m =
        let ctx, cost = build () in
        apply_config ctx;
        Bv.assert_ ctx (Bv.ge_const ctx cost lower);
        Bv.assert_ ctx (Bv.le_const ctx cost m);
        match probe stats ~assumptions ~budget ctx with
        | Solver.Sat ->
          let k = Bv.model_int ctx cost in
          `Sat (k, on_sat ctx k)
        | Solver.Unsat -> `Unsat
        | Solver.Unknown -> `Unknown
      in
      finish (run_search ~first_cost ~first_payload ~reprobe))

(* -- portfolio mode ---------------------------------------------------- *)

module Portfolio = Taskalloc_portfolio.Portfolio

(* Merge the anytime answers of workers that all ran to completion (or
   cancellation) without any one concluding: bounds combine soundly —
   every proved lower bound holds, every incumbent is feasible. *)
let combine_anytime results =
  let lb = ref 0 and best = ref None and any_infeasible = ref false in
  Array.iter
    (function
      | None -> ()
      | Some ((a : _ anytime), _) ->
        if a.resolution = Infeasible then any_infeasible := true;
        if a.lower_bound > !lb then lb := a.lower_bound;
        (match a.incumbent with
        | Some (c, p) when (match !best with Some (c', _) -> c < c' | None -> true)
          ->
          best := Some (c, p)
        | _ -> ()))
    results;
  if !any_infeasible then
    { incumbent = None; lower_bound = !lb; upper_bound = None; resolution = Infeasible }
  else
    match !best with
    | None ->
      { incumbent = None; lower_bound = !lb; upper_bound = None; resolution = Unknown }
    | Some (c, _) when !lb >= c ->
      { incumbent = !best; lower_bound = c; upper_bound = Some c; resolution = Optimal }
    | Some (c, _) ->
      {
        incumbent = !best;
        lower_bound = !lb;
        upper_bound = Some c;
        resolution = Feasible_budget_exhausted;
      }

(* sum the workers' probe and search counters; keep the larger formula
   size and the longest worker time *)
let combine_stats results =
  let acc = empty_stats () in
  Array.iter
    (function
      | None -> ()
      | Some (_, (s : stats)) ->
        acc.probes <- acc.probes + s.probes;
        acc.sat_probes <- acc.sat_probes + s.sat_probes;
        acc.unsat_probes <- acc.unsat_probes + s.unsat_probes;
        acc.interrupted_probes <- acc.interrupted_probes + s.interrupted_probes;
        acc.conflicts <- acc.conflicts + s.conflicts;
        acc.decisions <- acc.decisions + s.decisions;
        acc.propagations <- acc.propagations + s.propagations;
        acc.bool_vars <- max acc.bool_vars s.bool_vars;
        acc.literals <- max acc.literals s.literals;
        acc.time_s <- max acc.time_s s.time_s)
    results;
  acc

(* Clause sharing across optimization workers.  Every worker builds
   the same base formula (the [build] contract), so variables below the
   post-[build] count mean the same thing in all of them, and three
   kinds of clauses range over those variables only:
   - resolvents of the shared base formula (always sound to exchange);
   - consequences of a proved lower bound [cost >= l] — sound too,
     because the bound proof shows no model of the base formula sits
     below [l], hence such clauses hold in every model;
   - nothing else: a learnt clause that depends on some worker's
     *upper-bound* probe carries that probe's negated activation
     literal (activation variables are allocated after [build], and
     resolution never eliminates a literal whose variable occurs in
     one polarity only), so the variable filter rejects it.
   Filtering exports to literals below the base-variable count is
   therefore a sound sharing criterion, even though workers probe
   different bounds at different times. *)
(* learnt clauses of LBD at most this (or binary) are exported *)
let share_lbd = 4

let install_sharing pool ~origin ctx =
  let s = Bv.solver ctx in
  let threshold = Solver.n_vars s in
  Solver.set_export_hook s
    (Some
       (fun lits ~lbd ->
         if
           (lbd <= share_lbd || Array.length lits <= 2)
           && Array.for_all (fun l -> Lit.var l < threshold) lits
         then ignore (Portfolio.Pool.export pool ~origin lits ~lbd)));
  if not (Solver.proof_on s) then begin
    let cursor = ref 0 in
    Solver.set_import_hook s
      (Some
         (fun () ->
           let n, cs = Portfolio.Pool.import pool ~origin ~cursor:!cursor in
           cursor := n;
           cs))
  end

(* Public entry point.  [jobs <= 1] is exactly the sequential search.
   [jobs > 1] races workers that differ in solver configuration (via
   {!Portfolio.diversify}) *and* in probe-point strategy, because on a
   bounded number of cores strategy diversity is what reduces total
   work: a top-down prober certifies an already-optimal first model in
   a single Unsat probe where bisection needs the whole ladder.
   The first worker to prove optimality or infeasibility (or to reach
   the gap tolerance) wins and cancels the rest; if no one concludes,
   the workers' bounds are merged — every proved bound holds for the
   shared problem, so the combined answer can be strictly stronger
   than any single worker's.

   With [jobs > 1], [build] and [on_sat] are invoked concurrently from
   several domains and must be thread-safe. *)
let minimize ?mode ?(jobs = 1) ?assumptions ?refine ?budget ?(gap_tol = 0.)
    ~(build : unit -> Bv.ctx * Bv.t) ~(on_sat : Bv.ctx -> int -> 'a) () =
  if jobs <= 1 then
    minimize_seq ?mode ?assumptions ?refine ?budget ~gap_tol ~build ~on_sat ()
  else begin
    let t0 = Unix.gettimeofday () in
    let pool = Portfolio.Pool.create () in
    let build_for i () =
      let ctx, cost = build () in
      install_sharing pool ~origin:i ctx;
      (ctx, cost)
    in
    let acceptable (a : _ anytime) =
      match a.resolution with
      | Optimal | Infeasible -> true
      | Feasible_budget_exhausted | Unknown -> (
        (* a gap-tolerance convergence is as final as optimality *)
        gap_tol > 0.
        &&
        match a.incumbent with
        | Some (ub, _) ->
          float_of_int (ub - a.lower_bound) <= gap_tol *. float_of_int ub
        | None -> false)
    in
    let outcome =
      Portfolio.race ~jobs ?budget
        ~worker:(fun i config ~budget ->
          minimize_seq ?mode ~strategy:(strategy_of_worker i) ~config
            ?assumptions ?refine ?budget ~gap_tol ~build:(build_for i)
            ~on_sat ())
        ~conclusive:(fun (a, _) -> acceptable a)
        ()
    in
    let stats = combine_stats outcome.results in
    stats.time_s <- Unix.gettimeofday () -. t0;
    (* charge the parent with the maximum worker spend: the workers
       raced concurrently, so the max mirrors the sequential shape *)
    (match budget with
    | None -> ()
    | Some b ->
      let fold f =
        Array.fold_left
          (fun m -> function None -> m | Some (_, s) -> max m (f s))
          0 outcome.results
      in
      Budget.charge b
        ~conflicts:(fold (fun s -> s.conflicts))
        ~propagations:(fold (fun s -> s.propagations)));
    let answer =
      if outcome.winner >= 0 then
        match outcome.results.(outcome.winner) with
        | Some (a, _) -> a
        | None -> combine_anytime outcome.results
      else combine_anytime outcome.results
    in
    (answer, stats)
  end
