(* The service-whatif workload: one client drives a fresh taskallocd
   subprocess (one worker domain, Unix socket) as a closed loop with
   one request in flight.

   Set-up starts the daemon, opens one session from the architecture-B
   instance text with the eager encoding, solves it, and warms it with
   one pass over the deltas.  Each op is then one [whatif] on that warm
   session: the read path of the server, with no encode per op, only
   the protocol round trip and an incremental solve under assumptions.
   Every pass asks each delta once, in a fresh seeded order (see
   [Inputs.delta_walk]).

   The traced run adds, from outside the daemon: client-side round trip
   and JSON time per request, the daemon's service time from [stats]
   snapshots taken before and after the timed phase (exact means), the
   bare protocol cost from [ping], an in-process replay of the same
   queries through [Explain.Whatif], which times that layer without the
   daemon and must reach the same verdicts, and a replay of a few
   disruption events through [Repair] on the same instance, which times
   the repair layer. *)

open Common
open Taskalloc_rt
open Taskalloc_core
module Client = Taskalloc_server.Client
module W = Taskalloc_explain.Explain.Whatif
module Repair = Taskalloc_repair.Repair
module Scenario = Taskalloc_repair.Scenario

let options =
  { Encode.default_options with Encode.lazy_mode = false; inprocess = Some false }

(* -- daemon lifecycle ------------------------------------------------------ *)

let live = ref []

let rec wait pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let stop_pid pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait pid;
  live := List.filter (( <> ) pid) !live

(* no daemon outlives the run, whatever ends it *)
let () = at_exit (fun () -> List.iter stop_pid !live)

type daemon = { pid : int; client : Client.t }

(* start taskallocd without any TASKALLOC_* setting from our
   environment, and connect to it *)
let start cfg ~rep =
  let base =
    Filename.concat cfg.workdir (Printf.sprintf "d%d.%d" (Unix.getpid ()) rep)
  in
  let sock = base ^ ".sock" in
  let env =
    Unix.environment () |> Array.to_list
    |> List.filter (fun kv -> not (String.starts_with ~prefix:"TASKALLOC_" kv))
    |> Array.of_list
  in
  let log =
    Unix.openfile (base ^ ".log") [ Unix.O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
  in
  let argv = [| cfg.daemon; "--socket"; sock; "--workers"; "1"; "--no-lazy" |] in
  let pid = Unix.create_process_env cfg.daemon argv env Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  if not (Client.wait_ready ~timeout:60. (`Unix sock)) then
    failwith "taskallocd did not start";
  { pid; client = Client.connect (`Unix sock) }

let stop d =
  Client.close d.client;
  stop_pid d.pid

(* -- requests ----------------------------------------------------------------- *)

type call = { resp : Json.t; rtt : float; json : float }

(* one request; the round trip excludes the client's own JSON work,
   which is timed separately *)
let call d fields =
  let line, ser = timed (fun () -> Json.to_string (Json.Obj fields)) in
  let raw, rtt = timed (fun () -> Client.request_raw d.client line) in
  let resp, par = timed (fun () -> Json.parse raw) in
  { resp; rtt; json = ser +. par }

let is_ok c = Json.to_bool (Json.member "ok" c.resp) = Some true
let str c path =
  List.fold_left (fun j k -> Json.member k j) c.resp path |> Json.to_str

let whatif d sid spec =
  call d
    [ ("kind", Json.Str "whatif"); ("session", Json.Str sid); ("deltas", Json.Str spec) ]

let stats d = (call d [ ("kind", Json.Str "stats") ]).resp
let stat_int j key = Option.value ~default:0 (Json.to_int (Json.member key j))

(* total microseconds the daemon spent serving [kind] requests; the
   per-kind mean is exact, unlike its quantiles *)
let kind_total stats kind =
  let h = Json.member kind (Json.member "kinds" stats) in
  Option.value ~default:0. (Json.to_float (Json.member "mean_us" h))
  *. float_of_int (stat_int h "count")

(* -- ops ---------------------------------------------------------------------- *)

(* the what-if deltas the timed phase cycles through, and the
   disruption events the traced run's repair replay applies *)
let n_deltas = 45
let n_events = 9

(* what one op answered *)
type answer = { call : call; status : string }

let run_op d sid spec =
  let c = whatif d sid spec in
  { call = c; status = Option.value ~default:"none" (str c [ "verdict"; "status" ]) }

(* the checks of one answer that need no reference: the daemon
   answered, and a feasible placement honours the delta it was asked *)
let sound (a : answer) delta =
  let verdict = Json.member "verdict" a.call.resp in
  let placed t =
    match Json.to_list (Json.member "placement" verdict) with
    | Some l when t < List.length l -> (
      match Json.to_list (List.nth l t) with
      | Some [ _; e ] -> Json.to_int e
      | _ -> None)
    | _ -> None
  in
  is_ok a.call
  &&
  match (a.status, Json.to_bool (Json.member "relaxed" verdict), delta) with
  | "infeasible", _, _ -> true
  | "feasible", Some false, Inputs.Pin (t, e) -> placed t = Some e
  | "feasible", Some false, Inputs.Forbid (t, e) -> placed t <> Some e && placed t <> None
  | "feasible", Some false, Inputs.Deadline (t, _) -> placed t <> None
  | _ -> false

(* -- set-up ------------------------------------------------------------------ *)

type setup = {
  d : daemon;
  sid : string;
  text : string;
  deltas : Inputs.delta array;
  specs : string array;
  walk : int -> int;  (** delta of op [i], the warm-up pass's ops first *)
  warm : string array;  (** verdict of each delta in the warm-up pass *)
  setup_ok : bool;
}

(* start the daemon, open and solve the session (its optimum must match
   the in-process lazy solve), then one warm-up pass over the deltas *)
let setup cfg ~rep =
  let p = Inputs.base Inputs.service_arch in
  let text = Problem_file.to_string p in
  let deltas = Inputs.deltas ~count:n_deltas p in
  let specs = Array.map Inputs.delta_spec deltas in
  let walk = Inputs.delta_walk ~seed:cfg.seed n_deltas in
  let reference =
    match
      Allocator.solve
        ~options:{ options with Encode.lazy_mode = true }
        ~jobs:1 p Solve_load.objective
    with
    | Allocator.Solved r when r.Allocator.quality = Allocator.Optimal -> r.Allocator.cost
    | _ -> -1
  in
  let d = start cfg ~rep in
  let o =
    call d
      [ ("kind", Json.Str "open"); ("problem", Json.Str text); ("lazy", Json.Bool false) ]
  in
  let sid = Option.value ~default:"" (str o [ "session" ]) in
  let s =
    call d
      [
        ("kind", Json.Str "solve");
        ("session", Json.Str sid);
        ("objective", Json.Str "sum-trt");
      ]
  in
  let solved =
    is_ok o && is_ok s
    && str s [ "quality" ] = Some "optimal"
    && Json.to_int (Json.member "cost" s.resp) = Some reference
    && Json.to_int (Json.member "violations" s.resp) = Some 0
  in
  let warm = Array.make n_deltas None in
  for i = 0 to n_deltas - 1 do
    let k = walk i in
    warm.(k) <- Some (run_op d sid specs.(k))
  done;
  let warm = Array.map Option.get warm in
  let setup_ok = reference >= 0 && solved && Array.for_all2 sound warm deltas in
  { d; sid; text; deltas; specs; walk; warm = Array.map (fun a -> a.status) warm; setup_ok }

(* -- in-process replays (traced runs) ------------------------------------ *)

let verdict_status = function
  | W.Feasible _ -> "feasible"
  | W.Infeasible _ -> "infeasible"
  | W.Unknown -> "unknown"

type whatif_replay = {
  create_s : float;
  vars : int;
  query_s : float list;
  solves : int;  (** solver calls over the replayed timed ops *)
  statuses : string list;
}

(* the queries the daemon answered on its session: the warm-up pass,
   then the [ops] timed ones *)
let replay_whatif (s : setup) ~ops =
  let p = Problem_file.parse_string s.text in
  let w, create_s = timed (fun () -> W.create ~options p) in
  let query spec =
    match W.parse_deltas p spec with Ok deltas -> W.query w deltas | Error _ -> W.Unknown
  in
  let n = Array.length s.specs in
  for i = 0 to n - 1 do
    ignore (query s.specs.(s.walk i))
  done;
  let solves0 = W.solves w in
  let answers = List.init ops (fun i -> timed (fun () -> query s.specs.(s.walk (n + i)))) in
  {
    create_s;
    vars = W.session_vars w;
    query_s = List.map snd answers;
    solves = W.solves w - solves0;
    statuses = List.map (fun (v, _) -> verdict_status v) answers;
  }

(* each event repaired from the instance's baseline allocation, on a
   fresh repair state, as the daemon repairs a freshly opened session;
   per event: seconds, migrations, sheds *)
let replay_repair cfg (p : Model.problem) =
  let base =
    match W.query (W.create ~options p) [] with
    | W.Feasible { allocation; _ } -> allocation
    | W.Infeasible _ | W.Unknown -> failwith "the service instance has no allocation"
  in
  Inputs.events ~seed:cfg.seed ~count:n_events p
  |> Array.to_list
  |> List.map (fun spec ->
         let outcome, dt =
           timed (fun () ->
               let r = Repair.create ~options p base in
               match (Scenario.parse_string ("at 0 " ^ spec)).Scenario.events with
               | [ { Scenario.spec; _ } ] -> Repair.repair r (Scenario.resolve r spec)
               | _ -> failwith ("bad event " ^ spec))
         in
         match outcome with
         | Repair.Repaired x ->
           let sound = x.Repair.check_violations = 0 && x.Repair.sim_misses = 0 in
           (sound, dt, List.length x.Repair.migrations, List.length x.Repair.sheds)
         | Repair.Irreparable _ -> (true, dt, 0, 0)
         | Repair.Unknown -> (false, dt, 0, 0))

(* -- the run ----------------------------------------------------------------- *)

let layer_metrics cfg (s : setup) answers ~before ~after =
  let ops = Array.length answers in
  let per_op x = x /. float_of_int (max 1 ops) in
  let service_us = kind_total after "whatif" -. kind_total before "whatif" in
  let rtt = per_op (Array.fold_left (fun acc a -> acc +. a.call.rtt) 0. answers) in
  let json = per_op (Array.fold_left (fun acc a -> acc +. a.call.json) 0. answers) in
  let pings = List.init 100 (fun _ -> (call s.d [ ("kind", Json.Str "ping") ]).rtt) in
  let p, parse_s = timed (fun () -> Problem_file.parse_string s.text) in
  let w = replay_whatif s ~ops in
  let repairs = replay_repair cfg p in
  let n_rep = float_of_int (List.length repairs) in
  let rep f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 repairs) /. n_rep in
  let metrics =
    [
      m "parse.ms" "ms" (1000. *. parse_s);
      m "encode.ms" "ms" (1000. *. w.create_s);
      m "encode.vars" "count" (float_of_int w.vars);
      m "whatif.ms" "ms" (1000. *. mean w.query_s);
      m "whatif.solves" "count"
        (float_of_int w.solves /. float_of_int (List.length w.query_s));
      m "repair.ms" "ms" (1000. *. mean (List.map (fun (_, dt, _, _) -> dt) repairs));
      m "repair.migrations" "count" (rep (fun (_, _, mg, _) -> mg));
      m "repair.sheds" "count" (rep (fun (_, _, _, sh) -> sh));
      m "server.rtt_ms" "ms" (1000. *. rtt);
      m "server.service_ms" "ms" (per_op service_us /. 1000.);
      m "server.wire_ms" "ms" ((1000. *. rtt) -. (per_op service_us /. 1000.));
      m "server.ping_ms" "ms" (1000. *. mean pings);
      m "server.cache_hits" "count" (float_of_int (stat_int after "cache_hits"));
      m "server.cache_misses" "count" (float_of_int (stat_int after "cache_misses"));
      m "json.ms" "ms" (1000. *. json);
    ]
  in
  (* the daemon and the replay must reach the same verdicts *)
  let agree =
    List.for_all2 (fun a st -> a.status = st) (Array.to_list answers) w.statuses
  in
  (with_absent_layers metrics, agree && List.for_all (fun (ok, _, _, _) -> ok) repairs)

let run cfg =
  let setups =
    List.init cfg.setup_reps (fun rep ->
        let s, dt = timed (fun () -> setup cfg ~rep) in
        (* only the last daemon serves the timed phase *)
        if rep < cfg.setup_reps - 1 then stop s.d;
        (s, dt))
  in
  let s = fst (List.nth setups (cfg.setup_reps - 1)) in
  let before = if cfg.trace then stats s.d else Json.Null in
  let answers = ref [] in
  let n = Array.length s.specs in
  (* timed op [i] is op [n + i] of the session, after the warm-up pass *)
  let delta i = s.walk (n + i) in
  let lat, wall =
    timed_phase cfg ~pass:n (fun i ->
        answers := run_op s.d s.sid s.specs.(delta i) :: !answers)
  in
  let answers = Array.of_list (List.rev !answers) in
  let rss = peak_rss_mb (string_of_int s.d.pid) in
  let ok =
    Array.mapi (fun i a -> sound a s.deltas.(delta i) && a.status = s.warm.(delta i)) answers
  in
  let metrics, agree =
    if cfg.trace then layer_metrics cfg s answers ~before ~after:(stats s.d)
    else (end_to_end ~lat ~wall ~setups:(List.map snd setups) ~rss, true)
  in
  stop s.d;
  let r = result ~ops:(Array.length answers) ~ok:(fun i -> ok.(i)) metrics in
  let setup_ok = List.for_all (fun (s, _) -> s.setup_ok) setups in
  ({ r with correct = r.correct && agree && setup_ok }, lat, List.init (List.length lat) delta)
