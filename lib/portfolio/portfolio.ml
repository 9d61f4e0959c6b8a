(* Parallel portfolio solving on OCaml 5 domains.

   N diversified workers race on the same problem; the first conclusive
   answer wins and cancels the rest cooperatively through their budget
   [should_stop] hooks (an atomic flag — workers notice it at their
   next budget checkpoint and unwind to a clean, resumable state).

   Two entry points:
   - [race] is the generic combinator: it only manages domains, budgets
     and the cancellation protocol, and is reused by the optimizer for
     strategy-diverse bound probes.
   - [solve] is the SAT-level portfolio: each worker builds its own
     solver on the shared instance, gets a diversified [Solver.config],
     and optionally exchanges low-LBD learnt clauses through a
     lock-light shared pool.

   Budget discipline: the caller's budget is polled only by the
   coordinator (user hooks need not be thread-safe); each worker runs
   on a [Budget.derive]d child whose hook reads the cancel flag.  The
   parent is charged once, with the maximum worker spend — the
   portfolio's wall-clock shape — so budget accounting composes with
   the sequential code above it.

   Proof interlock: clause sharing would poison DRUP traces (a foreign
   clause is not RUP-derivable from the local trace), so a worker whose
   solver has a proof sink installed gets no import hook; its trace
   stays self-contained and an Unsat winner still passes
   [Proof.verify].  Exporting from such a worker is sound and remains
   enabled. *)

open Taskalloc_sat
module Obs = Taskalloc_obs.Obs

(* -- diversification --------------------------------------------------- *)

(* Worker 0 always runs the reference configuration, so a 1-worker
   portfolio is the sequential solver and every portfolio contains the
   default strategy.  The others sweep phase polarity, branching
   randomness, VSIDS decay and restart cadence.  The first presets are
   the ones small portfolios get, so they are ordered to complement the
   default most: slow-restart/high-decay configs first (the opposite
   corner of the strategy space from the default's rapid Luby cadence
   — on crafted and near-threshold-random families whichever cadence
   fits can be several times faster), then noisy rapid-restart
   variants. *)
let diversify i : Solver.config =
  let d = Solver.default_config in
  if i = 0 then d
  else
    let presets =
      [|
        { d with init_polarity = true; var_decay = 0.99; restart_first = 500 };
        { d with var_decay = 0.99; restart_first = 1000 };
        { d with random_freq = 0.02; init_polarity = true; restart_first = 50 };
        { d with var_decay = 0.90; restart_first = 300 };
        { d with random_freq = 0.05; var_decay = 0.97; init_polarity = true };
        { d with random_freq = 0.1; var_decay = 0.85; restart_first = 30 };
      |]
    in
    let p = presets.((i - 1) mod Array.length presets) in
    { p with seed = i }

(* -- shared clause pool ------------------------------------------------ *)

(* Append-only array of (origin, lits, lbd) under a mutex.  Exporters
   use [try_lock] and drop the clause on contention — losing a shared
   clause is always sound, stalling a hot propagation loop is not.
   Importers track a cursor and read only the suffix that is new to
   them, skipping their own contributions. *)
type pool = {
  lock : Mutex.t;
  mutable entries : (int * int array * int) array;
  mutable n : int;
  capacity : int;
}

let pool_create ?(capacity = 65536) () =
  { lock = Mutex.create (); entries = Array.make 256 (0, [||], 0); n = 0; capacity }

let pool_export p ~origin lits lbd =
  if Mutex.try_lock p.lock then begin
    let accepted = p.n < p.capacity in
    if accepted then begin
      if p.n = Array.length p.entries then begin
        let bigger = Array.make (2 * p.n) (0, [||], 0) in
        Array.blit p.entries 0 bigger 0 p.n;
        p.entries <- bigger
      end;
      p.entries.(p.n) <- (origin, Array.copy lits, lbd);
      p.n <- p.n + 1
    end;
    Mutex.unlock p.lock;
    accepted
  end
  else false

let pool_import p ~origin ~cursor =
  Mutex.lock p.lock;
  let n = p.n in
  let out = ref [] in
  for k = n - 1 downto cursor do
    let o, lits, lbd = p.entries.(k) in
    if o <> origin then out := (lits, lbd) :: !out
  done;
  Mutex.unlock p.lock;
  (n, !out)

(* Public face of the pool, for layers that wire their own hooks (the
   optimizer shares clauses across probe sequences with an extra
   variable filter that only it can compute). *)
module Pool = struct
  type t = pool

  let create = pool_create
  let export p ~origin lits ~lbd = pool_export p ~origin lits lbd
  let import = pool_import
end

(* -- generic race ------------------------------------------------------ *)

type 'r race_outcome = {
  results : 'r option array;
      (** per-worker results; [None] if the worker died on an exception
          (the first exception is re-raised, so user code only sees
          [None] transiently) *)
  winner : int;  (** index of the first conclusive worker, or -1 *)
}

let race ?(jobs = 1) ?budget ~worker ~conclusive () =
  if jobs <= 1 then begin
    (* inline: no domains, no derived budget, reference config — the
       sequential path, bit for bit *)
    let r = worker 0 Solver.default_config ~budget in
    { results = [| Some r |]; winner = (if conclusive r then 0 else -1) }
  end
  else begin
    let cancel = Atomic.make false in
    let winner = Atomic.make (-1) in
    let finished = Atomic.make 0 in
    let stop () = Atomic.get cancel in
    (* request context is domain-local: capture the spawner's and
       re-install it in each worker so telemetry emitted from inside
       the race stays attributed to the owning request *)
    let ctx = Obs.current_request () in
    let in_ctx f =
      match ctx with None -> f () | Some rid -> Obs.with_request rid f
    in
    let run i () =
      let outcome =
        try
          let wbudget =
            match budget with
            | Some b -> Budget.derive ~should_stop:stop b
            | None -> Budget.create ~should_stop:stop ~check_every:16 ()
          in
          let r =
            (* per-worker span, recorded from the worker's own domain *)
            in_ctx (fun () ->
                Obs.span "portfolio.worker"
                  ~attrs:[ ("worker", string_of_int i) ]
                  (fun () -> worker i (diversify i) ~budget:(Some wbudget)))
          in
          if conclusive r then
            if Atomic.compare_and_set winner (-1) i then Atomic.set cancel true;
          Ok r
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Atomic.set cancel true;
          Error (e, bt)
      in
      Atomic.incr finished;
      outcome
    in
    let domains = List.init jobs (fun i -> Domain.spawn (run i)) in
    (* The coordinator owns the parent budget: poll it (and its user
       hook) from this one thread and translate exhaustion into the
       cancel flag the workers watch. *)
    (match budget with
    | None -> ()
    | Some b ->
      while Atomic.get finished < jobs do
        if (not (Atomic.get cancel)) && Budget.exhausted b then
          Atomic.set cancel true;
        Unix.sleepf 0.0005
      done);
    let outcomes = List.map Domain.join domains in
    let results = Array.make jobs None in
    let first_error = ref None in
    List.iteri
      (fun i -> function
        | Ok r -> results.(i) <- Some r
        | Error eb -> if !first_error = None then first_error := Some eb)
      outcomes;
    (match !first_error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    let w = Atomic.get winner in
    (* winner attribution: which diversified configuration concluded *)
    if w >= 0 then Obs.instant "portfolio.winner" ~attrs:[ ("worker", string_of_int w) ];
    if Obs.metrics_on () && w >= 0 then
      Obs.Metrics.incr (Printf.sprintf "portfolio.wins.worker%d" w);
    { results; winner = w }
  end

(* -- SAT-level portfolio ----------------------------------------------- *)

type worker_stats = {
  worker : int;
  result : Solver.result;
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_total : int;
  shared_out : int;
  shared_in : int;
}

type 'a outcome = {
  result : Solver.result;
  winner : int;  (** winning worker index; 0 when [jobs = 1], -1 if none *)
  payload : 'a option;  (** the winner's payload *)
  workers : worker_stats array;
}

let stats_of ~worker ~result ~shared_out ~shared_in s =
  {
    worker;
    result;
    conflicts = Solver.n_conflicts s;
    decisions = Solver.n_decisions s;
    propagations = Solver.n_propagations s;
    restarts = Solver.n_restarts s;
    learnt_total = Solver.n_learnt_total s;
    shared_out;
    shared_in;
  }

let solve ?(jobs = 1) ?budget ?(share = true) ?(share_lbd = 4)
    ?(assumptions = []) ~build () =
  let pool = pool_create () in
  let race_outcome =
    race ~jobs ?budget
      ~worker:(fun i config ~budget:wbudget ->
        let payload, s = build i in
        let exported = ref 0 in
        if jobs > 1 then begin
          Solver.set_config s config;
          if share then begin
            Solver.set_export_hook s
              (Some
                 (fun lits ~lbd ->
                   if lbd <= share_lbd || Array.length lits <= 2 then
                     if pool_export pool ~origin:i lits lbd then incr exported));
            (* the import side of sharing is forbidden for proof-logging
               solvers: their DRUP trace must stay self-contained *)
            if not (Solver.proof_on s) then begin
              let cursor = ref 0 in
              Solver.set_import_hook s
                (Some
                   (fun () ->
                     let n, cs = pool_import pool ~origin:i ~cursor:!cursor in
                     cursor := n;
                     cs))
            end
          end
        end;
        (* every worker takes the same assumptions; learnt clauses
           mention their negations explicitly, so sharing stays sound
           and the winner's failed-assumption core is meaningful *)
        let result = Solver.solve ~assumptions ?budget:wbudget s in
        ( payload,
          stats_of ~worker:i ~result ~shared_out:!exported
            ~shared_in:(Solver.n_imported s) s ))
      ~conclusive:(fun (_, st) -> st.result <> Solver.Unknown)
      ()
  in
  let workers =
    race_outcome.results |> Array.to_list
    |> List.filter_map (Option.map snd)
    |> Array.of_list
  in
  (* Charge the caller's budget with the portfolio's aggregate shape:
     the maximum conflict/propagation spend across workers (they ran
     concurrently racing the same limits, so the max — not the sum —
     mirrors what a sequential solve would have charged).  The jobs=1
     inline path already charged the budget directly in the solver. *)
  if jobs > 1 then
    (match budget with
    | None -> ()
    | Some b ->
      let mc = Array.fold_left (fun m w -> max m w.conflicts) 0 workers in
      let mp = Array.fold_left (fun m w -> max m w.propagations) 0 workers in
      Budget.charge b ~conflicts:mc ~propagations:mp);
  (* clause-exchange accounting, summed over workers *)
  if Obs.metrics_on () then
    Array.iter
      (fun w ->
        Obs.Metrics.incr ~by:w.shared_out "portfolio.shared_out";
        Obs.Metrics.incr ~by:w.shared_in "portfolio.shared_in")
      workers;
  let winner = race_outcome.winner in
  match (if winner >= 0 then race_outcome.results.(winner) else None) with
  | Some (payload, st) ->
    { result = st.result; winner; payload = Some payload; workers }
  | None -> { result = Solver.Unknown; winner = -1; payload = None; workers }

(* -- cube-and-conquer --------------------------------------------------- *)

(* Split the search space up front instead of racing duplicated
   searches: a lookahead pass scores candidate decision variables by
   the unit-propagation consequences of each polarity, the best d of
   them span 2^d cubes (every sign pattern, so the cover is a tautology
   by construction), and workers drain the cube queue with work
   stealing.  The first Sat cancels everyone; all cubes Unsat means the
   instance is Unsat because the cover is exhaustive.

   Proof stitching: in proof mode each cube runs on a fresh solver with
   the cube literals added as unit clauses (so learnt clauses never
   mention them) and a step transformer appending the negated cube to
   every trace step.  A clause C that is RUP under F + cube yields
   C ∨ ¬cube RUP under F alone: assuming its negation asserts the cube,
   under which every previously tagged clause propagates exactly as its
   untagged original did in the cube solver.  Tagged deletions either
   remove the cube's own tagged clauses or match nothing (the checker's
   remove is permissive), never shared ones.  Each cube's refutation
   (the tagged empty clause) therefore arrives as the cube-blocking
   clause ¬c1 ∨ ... ∨ ¬cd, and once every cube is refuted a binary
   resolution tree of prefix-negation clauses — each RUP from its two
   children — stitches them down to the empty clause. *)

module Cube = struct
  type plan =
    | Decided of Solver.result
        (** presolve or probing settled the instance on the probe
            solver itself (its model/conflict state is authoritative) *)
    | Cubes of int list list  (** cube literals, over the split vars *)

  (* Work-sharing queue over cube indexes: worker [w] owns indexes
     congruent to [w mod jobs] and steals from the back once its own
     run dry.  Per-cube claim flags make double execution impossible,
     so the stealing policy is pure heuristic. *)
  module Work = struct
    type t = { claims : bool Atomic.t array; jobs : int }

    let create ~jobs n =
      { claims = Array.init n (fun _ -> Atomic.make false); jobs = max 1 jobs }

    let claim t i = Atomic.compare_and_set t.claims.(i) false true

    (* (cube index, stolen?) or [None] when the queue is drained *)
    let next t ~worker =
      let n = Array.length t.claims in
      let rec own i =
        if i >= n then None
        else if claim t i then Some (i, false)
        else own (i + t.jobs)
      in
      let rec steal i =
        if i < 0 then None else if claim t i then Some (i, true) else steal (i - 1)
      in
      match own (worker mod t.jobs) with Some r -> Some r | None -> steal (n - 1)
  end

  let neg_cube cube = List.map (fun l -> l lxor 1) cube

  (* Generate a splitting plan on [s] (at decision level 0).  A short
     presolve may settle the instance outright; failed-literal probes
     found along the way strengthen [s] with learnt units.  Candidates
     are the VSIDS top of [s]. *)
  let generate ?(target = 16) ?(presolve_conflicts = 2000) s =
    let presolved =
      Obs.span "cubes.presolve" (fun () ->
          Solver.solve ~max_conflicts:presolve_conflicts s)
    in
    match presolved with
    | (Solver.Sat | Solver.Unsat) as r -> Decided r
    | Solver.Unknown ->
      let candidates = Solver.top_vars s 64 in
      let refuted = ref false in
      let scored =
        Obs.span "cubes.lookahead" (fun () ->
            List.filter_map
              (fun v ->
                if !refuted || Solver.is_assigned s v then None
                else
                  match Solver.probe_var s v with
                  | Solver.Probe { pos_gain; neg_gain } ->
                    (* product score favors balanced splits: a variable
                       that simplifies both branches beats one that only
                       helps one side *)
                    Some (v, (pos_gain + 1) * (neg_gain + 1))
                  | Solver.Probe_failed_lit -> None (* unit learnt instead *)
                  | Solver.Probe_refuted ->
                    refuted := true;
                    None)
              candidates)
      in
      if !refuted || not (Solver.ok s) then Decided Solver.Unsat
      else begin
        let ranked =
          List.sort (fun (_, a) (_, b) -> Int.compare b a) scored |> List.map fst
        in
        let depth =
          let rec need k span = if span >= target then k else need (k + 1) (2 * span) in
          min (need 0 1) (min (List.length ranked) 10)
        in
        if depth = 0 then Cubes [ [] ] (* no splittable vars: one cube *)
        else begin
          let vars = List.filteri (fun i _ -> i < depth) ranked in
          (* all 2^depth sign patterns over [vars]: the cover property *)
          let rec expand = function
            | [] -> [ [] ]
            | v :: rest ->
              let tails = expand rest in
              List.map (fun t -> (2 * v) :: t) tails
              @ List.map (fun t -> ((2 * v) + 1) :: t) tails
          in
          Cubes (expand vars)
        end
      end
end

type cube_stats = {
  cube_index : int;  (** index into the generated cube list *)
  cube_worker : int;
  cube_result : Solver.result;
  cube_conflicts : int;
  cube_stolen : bool;
}

type 'a cube_outcome = {
  c_result : Solver.result;
  c_payload : 'a option;
      (** the deciding build's payload: the Sat cube's solver, or the
          probe solver when the presolve already decided *)
  c_winner : int;  (** deciding worker, or -1 *)
  n_cubes : int;  (** 0 when the plan was [Decided] *)
  unsat_cubes : int;
  cube_details : cube_stats list;
}

(* A worker's aggregate over the cubes it ran. *)
type 'a cube_worker_result = {
  w_sat : 'a option;
  w_unknown : bool;
  w_stats : cube_stats list;
  w_conflicts : int;
  w_propagations : int;
}

(* [build ~proof w] must construct the same instance for every call —
   cubes are generated on worker 0's solver and reuse its variable
   numbering everywhere.  The builder must install [proof] (when given)
   before adding constraints, so build-time refutations reach the
   trace. *)
let solve_cubes ?(jobs = 1) ?budget ?target ?presolve_conflicts
    ?(share = true) ?(share_lbd = 4)
    ?(proof : (Solver.proof_step -> unit) option) ~build () =
  let target = match target with Some t -> t | None -> max 16 (4 * jobs) in
  let decided r payload w =
    {
      c_result = r;
      c_payload = Some payload;
      c_winner = w;
      n_cubes = 0;
      unsat_cubes = 0;
      cube_details = [];
    }
  in
  (* The probe solver carries the real proof sink: its presolve and
     lookahead derivations are consequences of the shared formula, so
     they enter the trace untagged. *)
  let payload0, s0 = build ~proof 0 in
  if not (Solver.ok s0) then decided Solver.Unsat payload0 0
  else
    match Cube.generate ~target ?presolve_conflicts s0 with
    | Cube.Decided r -> decided r payload0 0
    | Cube.Cubes cubes_l ->
      let cubes = Array.of_list cubes_l in
      let n = Array.length cubes in
      Obs.instant "cubes.plan"
        ~attrs:[ ("cubes", string_of_int n); ("jobs", string_of_int jobs) ];
      if Obs.metrics_on () then Obs.Metrics.set "cubes.generated" n;
      let work = Cube.Work.create ~jobs n in
      let proof_mode = proof <> None in
      let proof_lock = Mutex.create () in
      let flush_steps buf =
        match proof with
        | None -> ()
        | Some sink ->
          Mutex.lock proof_lock;
          List.iter sink (List.rev buf);
          Mutex.unlock proof_lock
      in
      let pool = pool_create () in
      (* One cube on a fresh proof-logging solver: cube literals as unit
         clauses, every step tagged with the negated cube, the buffer
         flushed into the shared trace only when the cube is refuted
         (a Sat or Unknown cube contributes nothing to an Unsat
         proof). *)
      let run_cube_proved w cube ~budget =
        let buf = ref [] in
        let nc = Array.of_list (Cube.neg_cube cube) in
        let tag (step : Solver.proof_step) =
          buf :=
            (match step with
            | Solver.Step_rup lits -> Solver.Step_rup (Array.append lits nc)
            | Solver.Step_pb lits -> Solver.Step_pb (Array.append lits nc)
            | Solver.Step_delete lits -> Solver.Step_delete (Array.append lits nc))
            :: !buf
        in
        let payload, s = build ~proof:(Some tag) w in
        List.iter (fun l -> Solver.add_clause s [ l ]) cube;
        let r = Solver.solve ?budget s in
        if r = Solver.Unsat then flush_steps !buf;
        (r, Solver.n_conflicts s, Solver.n_propagations s, payload)
      in
      let worker w config ~budget:wbudget =
        let sat_payload = ref None and unknown = ref false and stats = ref [] in
        let confl = ref 0 and props = ref 0 in
        (* non-proof mode: one persistent solver per worker, cubes as
           assumptions — learnt clauses mention the assumption negations
           explicitly, so they are implied by the formula alone and
           sharing them through the pool is sound *)
        let persistent =
          if proof_mode then None
          else begin
            let payload, s = build ~proof:None w in
            if jobs > 1 then begin
              Solver.set_config s config;
              if share then begin
                Solver.set_export_hook s
                  (Some
                     (fun lits ~lbd ->
                       if lbd <= share_lbd || Array.length lits <= 2 then
                         ignore (pool_export pool ~origin:w lits lbd)));
                let cursor = ref 0 in
                Solver.set_import_hook s
                  (Some
                     (fun () ->
                       let n', cs = pool_import pool ~origin:w ~cursor:!cursor in
                       cursor := n';
                       cs))
              end
            end;
            Some (payload, s)
          end
        in
        let stop () =
          match wbudget with Some b -> Budget.exhausted b | None -> false
        in
        let continue_ = ref true in
        while !continue_ && not (stop ()) do
          match Cube.Work.next work ~worker:w with
          | None -> continue_ := false
          | Some (i, stolen) ->
            let cube = cubes.(i) in
            let r, conflicts =
              Obs.span "cubes.cube"
                ~attrs:
                  [
                    ("cube", string_of_int i);
                    ("worker", string_of_int w);
                    ("stolen", string_of_bool stolen);
                  ]
                (fun () ->
                  match persistent with
                  | None ->
                    let r, c, p, payload = run_cube_proved w cube ~budget:wbudget in
                    if r = Solver.Sat then sat_payload := Some payload;
                    confl := !confl + c;
                    props := !props + p;
                    (r, c)
                  | Some (payload, s) ->
                    let c0 = Solver.n_conflicts s in
                    let p0 = Solver.n_propagations s in
                    let r = Solver.solve ~assumptions:cube ?budget:wbudget s in
                    if r = Solver.Sat then sat_payload := Some payload;
                    confl := !confl + (Solver.n_conflicts s - c0);
                    props := !props + (Solver.n_propagations s - p0);
                    (r, Solver.n_conflicts s - c0))
            in
            stats :=
              {
                cube_index = i;
                cube_worker = w;
                cube_result = r;
                cube_conflicts = conflicts;
                cube_stolen = stolen;
              }
              :: !stats;
            (match r with
            | Solver.Sat -> continue_ := false
            | Solver.Unknown ->
              unknown := true;
              continue_ := false
            | Solver.Unsat -> ())
        done;
        {
          w_sat = !sat_payload;
          w_unknown = !unknown;
          w_stats = !stats;
          w_conflicts = !confl;
          w_propagations = !props;
        }
      in
      let race_outcome =
        race ~jobs ?budget ~worker ~conclusive:(fun r -> r.w_sat <> None) ()
      in
      let all =
        Array.to_list race_outcome.results |> List.filter_map Fun.id
      in
      (* As in [solve]: the parent budget is charged with the maximum
         worker spend — the wall-clock shape of the concurrent run.
         (With jobs = 1 the inline worker charged it directly.) *)
      if jobs > 1 then (
        match budget with
        | None -> ()
        | Some b ->
          let mc = List.fold_left (fun m r -> max m r.w_conflicts) 0 all in
          let mp = List.fold_left (fun m r -> max m r.w_propagations) 0 all in
          Budget.charge b ~conflicts:mc ~propagations:mp);
      let stats = List.concat_map (fun r -> r.w_stats) all in
      let unsat_cubes =
        List.length (List.filter (fun (c : cube_stats) -> c.cube_result = Solver.Unsat) stats)
      in
      if Obs.metrics_on () then begin
        Obs.Metrics.set "cubes.unsat" unsat_cubes;
        Obs.Metrics.set "cubes.solved" (List.length stats)
      end;
      let result, payload, winner =
        match List.find_opt (fun r -> r.w_sat <> None) all with
        | Some r -> (Solver.Sat, r.w_sat, race_outcome.winner)
        | None ->
          if unsat_cubes = n then begin
            (* All cubes refuted and the cover is exhaustive: Unsat.
               Stitch the per-cube blocking clauses: prefix-negation
               clauses, longest first — ¬p is RUP from its two
               extensions ¬(p·v) and ¬(p·¬v), both already in the trace
               — ending with the empty prefix, i.e. the empty clause. *)
            (match proof with
            | None -> ()
            | Some sink ->
              let vars_order =
                match cubes_l with
                | c0 :: _ -> List.map (fun l -> l lsr 1) c0
                | [] -> []
              in
              let depth = List.length vars_order in
              let rec prefixes k vs =
                if k = 0 then [ [] ]
                else
                  match vs with
                  | [] -> [ [] ]
                  | v :: rest ->
                    List.concat_map
                      (fun t -> [ (2 * v) :: t; ((2 * v) + 1) :: t ])
                      (prefixes (k - 1) rest)
              in
              for len = depth - 1 downto 0 do
                List.iter
                  (fun p ->
                    sink (Solver.Step_rup (Array.of_list (Cube.neg_cube p))))
                  (prefixes len vars_order)
              done);
            (Solver.Unsat, None, -1)
          end
          else (Solver.Unknown, None, -1)
      in
      {
        c_result = result;
        c_payload = payload;
        c_winner = winner;
        n_cubes = n;
        unsat_cubes;
        cube_details = List.rev stats;
      }
