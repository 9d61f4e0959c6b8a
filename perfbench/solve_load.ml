(* The solve-lazy workload: each op parses one instance's .prob text
   and solves it to a proven optimum with one job and the lazy (CEGAR)
   encoding, as the paper's BIN_SEARCH over incremental SAT calls.  The
   reference optimum each answer is checked against comes from the
   eager encoding of equations 1-13.

   The traced run does not call [Allocator.solve]; it rebuilds the same
   pipeline from the layers' public functions so that each layer can be
   timed from outside: [Encode.encode] inside [build],
   [Opt.minimize ~refine ~on_sat] with [Encode.Lazy.refine] and
   [Encode.extract] timed inside those callbacks, then [Check.check].
   Solver search time is the wall time of [minimize] minus the time
   spent in its callbacks.  After the timed phase every input the run
   visited is solved once more by [Allocator.solve], which must agree
   with the composition on cost, probes and conflicts. *)

open Common
open Taskalloc_rt
open Taskalloc_core
module Opt = Taskalloc_opt.Opt

let options ~lazy_mode =
  { Encode.default_options with Encode.lazy_mode; inprocess = Some false }
let lazy_options = options ~lazy_mode:true
let eager_options = options ~lazy_mode:false
let objective = Encode.Min_sum_trt

(* what one op produced, kept until the checks after the timed phase *)
type answer = {
  slot : int;  (** pool slot of the input *)
  optimal : bool;
  cost : int;
  allocation : Model.allocation option;
  violations : int;
  probes : int;
  conflicts : int;
}

let no_answer slot =
  {
    slot;
    optimal = false;
    cost = -1;
    allocation = None;
    violations = 0;
    probes = 0;
    conflicts = 0;
  }

let solve_allocator options slot text =
  let p = Problem_file.parse_string text in
  match Allocator.solve ~options ~jobs:1 p objective with
  | Allocator.Solved r ->
    {
      slot;
      optimal = r.Allocator.quality = Allocator.Optimal;
      cost = r.Allocator.cost;
      allocation = Some r.Allocator.allocation;
      violations = List.length r.Allocator.violations;
      probes = r.Allocator.stats.Opt.probes;
      conflicts = r.Allocator.stats.Opt.conflicts;
    }
  | Allocator.Infeasible | Allocator.Unknown -> no_answer slot

(* -- the traced composition ---------------------------------------------- *)

(* per-op layer figures of one traced solve *)
type layers = {
  parse_s : float;
  encode_s : float;
  refine_s : float;
  extract_s : float;
  search_s : float;
  check_s : float;
  vars : int;
  lits : int;
  rounds : int;
  refined_tasks : int;
  refined_media : int;
  stats : Opt.stats;
}

let solve_traced options slot text =
  let p, parse_s = timed (fun () -> Problem_file.parse_string text) in
  let enc = ref None in
  let encode_s = ref 0. and refine_s = ref 0. and extract_s = ref 0. in
  let charge acc f =
    let x, dt = timed f in
    acc := !acc +. dt;
    x
  in
  let the_enc () = Option.get !enc in
  let build () =
    let e = charge encode_s (fun () -> Encode.encode ~options p objective) in
    enc := Some e;
    (Encode.context e, Encode.cost_term e)
  in
  let refine _ctx = charge refine_s (fun () -> Encode.Lazy.refine (the_enc ())) in
  let on_sat _ctx _cost = charge extract_s (fun () -> Encode.extract (the_enc ())) in
  let (anytime, stats), minimize_s =
    timed (fun () ->
        Opt.minimize ~mode:Opt.Incremental ~jobs:1 ~refine ~gap_tol:0. ~build ~on_sat ())
  in
  let answer, check_s =
    match (anytime.Opt.resolution, anytime.Opt.incumbent) with
    | Opt.Optimal, Some (cost, allocation) ->
      let violations, check_s = timed (fun () -> Check.check p allocation) in
      ( {
          slot;
          optimal = true;
          cost;
          allocation = Some allocation;
          violations = List.length violations;
          probes = stats.Opt.probes;
          conflicts = stats.Opt.conflicts;
        },
        check_s )
    | _ -> (no_answer slot, 0.)
  in
  let e = the_enc () in
  let layers =
    {
      parse_s;
      encode_s = !encode_s;
      refine_s = !refine_s;
      extract_s = !extract_s;
      search_s = minimize_s -. !encode_s -. !refine_s -. !extract_s;
      check_s;
      vars = Encode.n_bool_vars e;
      lits = Encode.n_literals e;
      rounds = Encode.Lazy.rounds e;
      refined_tasks = Encode.Lazy.refined_tasks e;
      refined_media = Encode.Lazy.refined_media e;
      stats;
    }
  in
  (answer, layers)

(* per-op means of the layer figures *)
let layer_metrics (ls : layers list) =
  let n = float_of_int (max 1 (List.length ls)) in
  let sum f = List.fold_left (fun acc l -> acc +. f l) 0. ls in
  let avg f = sum f /. n in
  let ms f = 1000. *. avg f in
  let cnt f = avg (fun l -> float_of_int (f l)) in
  let search = sum (fun l -> l.search_s) in
  [
    m "parse.ms" "ms" (ms (fun l -> l.parse_s));
    m "encode.ms" "ms" (ms (fun l -> l.encode_s));
    m "encode.vars" "count" (cnt (fun l -> l.vars));
    m "encode.lits" "count" (cnt (fun l -> l.lits));
    m "lazy.refine_ms" "ms" (ms (fun l -> l.refine_s));
    m "lazy.rounds" "count" (cnt (fun l -> l.rounds));
    m "lazy.refined_tasks" "count" (cnt (fun l -> l.refined_tasks));
    m "lazy.refined_media" "count" (cnt (fun l -> l.refined_media));
    m "opt.probes" "count" (cnt (fun l -> l.stats.Opt.probes));
    m "opt.sat_probes" "count" (cnt (fun l -> l.stats.Opt.sat_probes));
    m "opt.unsat_probes" "count" (cnt (fun l -> l.stats.Opt.unsat_probes));
    m "opt.extract_ms" "ms" (ms (fun l -> l.extract_s));
    m "solver.search_ms" "ms" (ms (fun l -> l.search_s));
    m "solver.conflicts" "count" (cnt (fun l -> l.stats.Opt.conflicts));
    m "solver.decisions" "count" (cnt (fun l -> l.stats.Opt.decisions));
    m "solver.propagations" "count" (cnt (fun l -> l.stats.Opt.propagations));
    m "solver.props_per_s" "1/s"
      (if search > 0. then sum (fun l -> float_of_int l.stats.Opt.propagations) /. search
       else 0.);
    m "check.ms" "ms" (ms (fun l -> l.check_s));
  ]

(* -- set-up ---------------------------------------------------------------- *)

type setup = {
  pool : (int * string) array;
  refs : int array;  (** per architecture: optimum under the other encoding *)
  setup_ok : bool;
}

(* generate the inputs, compute each architecture's reference optimum
   with the eager encoding, and warm up with one op per architecture *)
let setup cfg ~op =
  let pool = Inputs.solve_pool ~seed:cfg.seed in
  let refs =
    Array.mapi
      (fun arch _ ->
        let a =
          solve_allocator eager_options (-1) (Problem_file.to_string (Inputs.base arch))
        in
        if a.optimal && a.violations = 0 then a.cost else -1)
      Inputs.archs
  in
  let warm = List.init 3 (fun k -> op pool k) in
  let setup_ok =
    Array.for_all (fun c -> c >= 0) refs
    && List.for_all (fun a -> a.optimal && a.cost = refs.(fst pool.(a.slot))) warm
  in
  { pool; refs; setup_ok }

(* -- checks after the timed phase --------------------------------------- *)

(* the simulator is deterministic, so each (slot, allocation) pair is
   simulated once however often the run revisited it *)
let checker (s : setup) =
  let memo = Hashtbl.create 64 in
  fun (a : answer) ->
    match a.allocation with
    | None -> false
    | Some alloc ->
      let key =
        ( a.slot,
          alloc.Model.task_ecu,
          alloc.Model.msg_route,
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) alloc.Model.slots []),
          alloc.Model.priority_rank )
      in
      let sim_ok =
        match Hashtbl.find_opt memo key with
        | Some ok -> ok
        | None ->
          let p = Problem_file.parse_string (snd s.pool.(a.slot)) in
          let ok = not (Sim.missed (Sim.simulate p alloc)) in
          Hashtbl.replace memo key ok;
          ok
      in
      a.optimal && a.violations = 0 && a.cost = s.refs.(fst s.pool.(a.slot)) && sim_ok

(* -- the run ----------------------------------------------------------------- *)

let run cfg =
  let options = lazy_options in
  let traced = ref [] in
  let op pool k =
    let slot = k mod Array.length pool in
    let text = snd pool.(slot) in
    if cfg.trace then begin
      let answer, layers = solve_traced options slot text in
      traced := layers :: !traced;
      answer
    end
    else solve_allocator options slot text
  in
  let setups =
    List.init cfg.setup_reps (fun _ -> timed (fun () -> setup cfg ~op))
  in
  let s = fst (List.nth setups (cfg.setup_reps - 1)) in
  traced := [];
  let answers = ref [] in
  let lat, wall =
    timed_phase cfg ~pass:(Array.length s.pool) (fun i ->
        answers := op s.pool i :: !answers)
  in
  let answers = Array.of_list (List.rev !answers) in
  let rss = peak_rss_mb "self" in
  let check = checker s in
  let ok = Array.map check answers in
  (* the composition must reproduce Allocator.solve on every input *)
  let agree =
    (not cfg.trace)
    ||
    let seen = Hashtbl.create 64 in
    Array.for_all
      (fun (a : answer) ->
        Hashtbl.mem seen a.slot
        || begin
             Hashtbl.add seen a.slot ();
             let r = solve_allocator options a.slot (snd s.pool.(a.slot)) in
             r.cost = a.cost && r.probes = a.probes && r.conflicts = a.conflicts
           end)
      answers
  in
  let metrics =
    if cfg.trace then with_absent_layers (layer_metrics (List.rev !traced))
    else end_to_end ~lat ~wall ~setups:(List.map snd setups) ~rss
  in
  let r = result ~ops:(Array.length answers) ~ok:(fun i -> ok.(i)) metrics in
  let setup_ok = List.for_all (fun (s, _) -> s.setup_ok) setups in
  ( { r with correct = r.correct && setup_ok && agree },
    lat,
    Array.to_list (Array.map (fun (a : answer) -> a.slot) answers) )
