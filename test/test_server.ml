(* The taskallocd serving layer: protocol round-trips, error paths,
   session lifecycle (LRU eviction, close), encode-cache hits,
   admission control under starved budgets, and concurrent clients on
   distinct sessions.

   Every test runs a real server on a temp Unix socket — the same code
   path the daemon executable serves — with [Server.run] on a spawned
   domain and [Server.stop] + join as teardown, so the drain path is
   exercised by every single test. *)

module Server = Taskalloc_server.Server
module Client = Taskalloc_server.Client
module Json = Taskalloc_server.Json

module Obs = Taskalloc_obs.Obs

let next_sock = Atomic.make 0

(* [with_server_t] also hands the callback the [Server.t] itself, for
   the tests that poke [prometheus_text] / [prometheus_port]
   directly. *)
let with_server_t ?(options = Taskalloc_core.Encode.default_options) ?(workers = 2)
    ?(max_sessions = 64) ?(queue_depth = 128) ?(prometheus = None) ?(flight = None)
    f =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "taskallocd-test-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add next_sock 1))
  in
  let cfg =
    {
      Server.default_config with
      Server.listen = `Unix sock;
      options;
      workers;
      max_sessions;
      queue_depth;
      prometheus;
      flight;
    }
  in
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock))
    (fun () -> f (`Unix sock) t)

let with_server ?options ?workers ?max_sessions ?queue_depth f =
  with_server_t ?options ?workers ?max_sessions ?queue_depth (fun listen _t -> f listen)

let req c fields = Client.request c (Json.Obj fields)

let get_ok name resp =
  match Json.to_bool (Json.member "ok" resp) with
  | Some b -> b
  | None -> Alcotest.failf "%s: response without ok: %s" name (Json.to_string resp)

let check_ok name resp =
  if not (get_ok name resp) then
    Alcotest.failf "%s: unexpected error: %s" name (Json.to_string resp)

let check_err name code resp =
  if get_ok name resp then
    Alcotest.failf "%s: expected %s error, got ok: %s" name code
      (Json.to_string resp);
  Alcotest.(check string)
    (name ^ " error code") code
    (Option.value ~default:"?" (Json.to_str (Json.member "error" resp)))

let str_field name resp field =
  match Json.to_str (Json.member field resp) with
  | Some s -> s
  | None -> Alcotest.failf "%s: missing %S in %s" name field (Json.to_string resp)

let open_session ?(workload = "small") ?(seed = 42) c =
  let resp =
    req c
      [
        ("kind", Json.Str "open");
        ("workload", Json.Str workload);
        ("seed", Json.Int seed);
      ]
  in
  check_ok "open" resp;
  (str_field "open" resp "session", str_field "open" resp "cache")

(* a tiny problem in the lib/rt file format, for inline-text opens *)
let inline_problem =
  "ecus 2\n\
   memory 0 4\n\
   memory 1 4\n\
   medium bus tdma 1 2 0 1\n\
   task a 10 10 1\n\
   \  crit 1\n\
   \  wcet 0 2\n\
   \  wcet 1 2\n\
   task b 10 10 1\n\
   \  wcet 0 2\n\
   \  wcet 1 2\n"

(* -- basic protocol ----------------------------------------------------- *)

let test_roundtrip options () =
  with_server ~options (fun listen ->
      let c = Client.connect listen in
      let pong = req c [ ("kind", Json.Str "ping"); ("id", Json.Int 7) ] in
      check_ok "ping" pong;
      Alcotest.(check (option int)) "id echoed" (Some 7)
        (Json.to_int (Json.member "id" pong));
      let sid, cache = open_session c in
      Alcotest.(check string) "first open misses" "miss" cache;
      let solved =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "trt");
          ]
      in
      check_ok "solve" solved;
      Alcotest.(check string) "solved" "solved" (str_field "solve" solved "outcome");
      Alcotest.(check string) "optimal provenance" "optimal"
        (str_field "solve" solved "quality");
      let v =
        req c
          [
            ("kind", Json.Str "whatif");
            ("session", Json.Str sid);
            ("deltas", Json.Str "pin t00 0");
          ]
      in
      check_ok "whatif" v;
      let closed = req c [ ("kind", Json.Str "close"); ("session", Json.Str sid) ] in
      check_ok "close" closed;
      Client.close c)

let test_inline_problem_and_cache options () =
  with_server ~options (fun listen ->
      let c = Client.connect listen in
      let open_inline () =
        req c [ ("kind", Json.Str "open"); ("problem", Json.Str inline_problem) ]
      in
      let r1 = open_inline () in
      check_ok "open inline" r1;
      Alcotest.(check string) "first open misses" "miss"
        (str_field "open" r1 "cache");
      Alcotest.(check (option int)) "tasks" (Some 2)
        (Json.to_int (Json.member "tasks" r1));
      (* identical problem text from a second client: one encode, shared *)
      let c2 = Client.connect listen in
      let r2 =
        req c2 [ ("kind", Json.Str "open"); ("problem", Json.Str inline_problem) ]
      in
      check_ok "open inline again" r2;
      Alcotest.(check string) "second open hits" "hit"
        (str_field "open" r2 "cache");
      let stats = req c [ ("kind", Json.Str "stats") ] in
      check_ok "stats" stats;
      Alcotest.(check (option int)) "cache_hits" (Some 1)
        (Json.to_int (Json.member "cache_hits" stats));
      Alcotest.(check (option int)) "sessions" (Some 2)
        (Json.to_int (Json.member "sessions" stats));
      Client.close c2;
      Client.close c)

(* -- error paths -------------------------------------------------------- *)

let test_malformed_json () =
  with_server (fun listen ->
      let c = Client.connect listen in
      let resp = Json.parse (Client.request_raw c "{nope") in
      check_err "malformed" "parse" resp;
      (* the connection survives a parse error *)
      check_ok "ping after parse error" (req c [ ("kind", Json.Str "ping") ]);
      Client.close c)

let test_unknown_kind () =
  with_server (fun listen ->
      let c = Client.connect listen in
      check_err "unknown kind" "unknown_kind"
        (req c [ ("kind", Json.Str "frobnicate") ]);
      check_err "missing kind" "bad_request" (req c [ ("id", Json.Int 1) ]);
      Client.close c)

let test_bad_open () =
  with_server (fun listen ->
      let c = Client.connect listen in
      check_err "unknown workload" "bad_request"
        (req c [ ("kind", Json.Str "open"); ("workload", Json.Str "nope") ]);
      check_err "no problem" "bad_request" (req c [ ("kind", Json.Str "open") ]);
      check_err "two problems" "bad_request"
        (req c
           [
             ("kind", Json.Str "open");
             ("workload", Json.Str "small");
             ("problem", Json.Str inline_problem);
           ]);
      check_err "bad problem text" "invalid_problem"
        (req c [ ("kind", Json.Str "open"); ("problem", Json.Str "ecus nope\n") ]);
      Client.close c)

let test_closed_session () =
  with_server (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session c in
      check_ok "close" (req c [ ("kind", Json.Str "close"); ("session", Json.Str sid) ]);
      (* a delta against the closed session: clean unknown_session *)
      check_err "whatif on closed" "unknown_session"
        (req c
           [
             ("kind", Json.Str "whatif");
             ("session", Json.Str sid);
             ("deltas", Json.Str "pin t00 0");
           ]);
      check_err "double close" "unknown_session"
        (req c [ ("kind", Json.Str "close"); ("session", Json.Str sid) ]);
      check_err "never existed" "unknown_session"
        (req c [ ("kind", Json.Str "solve"); ("session", Json.Str "s999") ]);
      check_err "missing session" "bad_request" (req c [ ("kind", Json.Str "solve") ]);
      Client.close c)

let test_bad_deltas_and_event () =
  with_server (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session c in
      check_err "unknown task in delta" "bad_request"
        (req c
           [
             ("kind", Json.Str "whatif");
             ("session", Json.Str sid);
             ("deltas", Json.Str "pin nosuchtask 0");
           ]);
      check_err "unparsable event" "invalid_event"
        (req c
           [
             ("kind", Json.Str "repair");
             ("session", Json.Str sid);
             ("event", Json.Str "meteor-strike 3");
           ]);
      Client.close c)

(* [jobs] spawns that many domains per request: one above what
   [--jobs auto] resolves to is refused before any spawn, for both
   verbs that take it, and the limit itself still solves *)
let test_jobs_bounded () =
  with_server (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session c in
      let limit = Domain.recommended_domain_count () in
      let verb kind jobs =
        req c
          [
            ("kind", Json.Str kind);
            ("session", Json.Str sid);
            ("jobs", Json.Int jobs);
          ]
      in
      check_err "solve above the domain count" "bad_request"
        (verb "solve" (limit + 1));
      check_err "explain above the domain count" "bad_request"
        (verb "explain" (limit + 1));
      let solved = verb "solve" limit in
      check_ok "solve at the domain count" solved;
      Alcotest.(check string) "solved at the limit" "solved"
        (str_field "solve" solved "outcome");
      Client.close c)

(* -- admission control --------------------------------------------------- *)

let test_zero_budget_returns_unknown options () =
  with_server ~options (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session c in
      (* zero conflict budget and no fallback: must come back immediately
         with Unknown provenance, not hang and not fabricate an answer *)
      let r =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "trt");
            ("max_conflicts", Json.Int 0);
            ("fallback", Json.Bool false);
          ]
      in
      check_ok "zero-budget solve" r;
      Alcotest.(check string) "unknown outcome" "unknown"
        (str_field "solve" r "outcome");
      Client.close c)

let test_starved_deadline_non_optimal options () =
  with_server ~options (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session ~workload:"tasks12" c in
      (* a starved conflict budget forces the anytime path: the answer
         must still arrive, with non-Optimal provenance (heuristic
         fallback or anytime incumbent) *)
      let t0 = Unix.gettimeofday () in
      let r =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "trt");
            ("max_conflicts", Json.Int 1);
            ("deadline_ms", Json.Int 30_000);
          ]
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      check_ok "starved solve" r;
      Alcotest.(check string) "answered" "solved" (str_field "solve" r "outcome");
      let quality = str_field "solve" r "quality" in
      if quality = "optimal" then
        Alcotest.failf "starved solve claimed Optimal provenance";
      (* generous sanity bound: well inside the 30s deadline *)
      Alcotest.(check bool) "returned promptly" true (elapsed < 25.);
      Client.close c)

(* -- session lifecycle --------------------------------------------------- *)

let test_lru_eviction options () =
  with_server ~options ~max_sessions:2 (fun listen ->
      let c = Client.connect listen in
      let s1, _ = open_session ~seed:1 c in
      let s2, _ = open_session ~seed:2 c in
      (* touch s2 so s1 is the LRU *)
      check_ok "touch s2"
        (req c
           [
             ("kind", Json.Str "whatif");
             ("session", Json.Str s2);
             ("deltas", Json.Str "");
           ]);
      let s3, _ = open_session ~seed:3 c in
      (* the bound held: s1 was evicted, s2/s3 live *)
      check_err "evicted session" "unknown_session"
        (req c
           [
             ("kind", Json.Str "whatif");
             ("session", Json.Str s1);
             ("deltas", Json.Str "");
           ]);
      check_ok "s2 survives"
        (req c
           [
             ("kind", Json.Str "whatif");
             ("session", Json.Str s2);
             ("deltas", Json.Str "");
           ]);
      let stats = req c [ ("kind", Json.Str "stats") ] in
      Alcotest.(check (option int)) "bounded table" (Some 2)
        (Json.to_int (Json.member "sessions" stats));
      Alcotest.(check (option int)) "one eviction" (Some 1)
        (Json.to_int (Json.member "evictions" stats));
      ignore s3;
      Client.close c)

let test_repair_then_whatif options () =
  with_server ~options (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session ~workload:"tindell43" c in
      let r =
        req c
          [
            ("kind", Json.Str "repair");
            ("session", Json.Str sid);
            ("event", Json.Str "wcet t01 20");
          ]
      in
      check_ok "repair" r;
      let status =
        Json.to_str (Json.member "status" (Json.member "outcome" r))
      in
      Alcotest.(check (option string)) "repaired" (Some "repaired") status;
      (* the session diverged from the shared bundle; what-if now
         answers against the post-repair problem on the session the
         repair just solved, not on a fresh encoding of it *)
      let w =
        req c
          [
            ("kind", Json.Str "whatif");
            ("session", Json.Str sid);
            ("deltas", Json.Str "");
          ]
      in
      check_ok "whatif after repair" w;
      Alcotest.(check bool)
        "what-if runs on the repair's session" true
        (Option.value ~default:0 (Json.to_int (Json.member "session_solves" w))
        > 1);
      Client.close c)

(* -- concurrency --------------------------------------------------------- *)

let test_concurrent_distinct_sessions options () =
  with_server ~options ~workers:4 (fun listen ->
      let n_clients = 4 and per_client = 6 in
      let hammer k =
        let c = Client.connect listen in
        let sid, _ = open_session ~seed:(100 + k) c in
        for i = 0 to per_client - 1 do
          let resp =
            match i mod 3 with
            | 0 ->
              req c
                [
                  ("kind", Json.Str "whatif");
                  ("session", Json.Str sid);
                  ("deltas", Json.Str "");
                ]
            | 1 ->
              req c
                [
                  ("kind", Json.Str "whatif");
                  ("session", Json.Str sid);
                  ("deltas", Json.Str "pin t00 0");
                ]
            | _ ->
              req c
                [
                  ("kind", Json.Str "solve");
                  ("session", Json.Str sid);
                  ("objective", Json.Str "feasible");
                ]
          in
          check_ok (Printf.sprintf "client %d request %d" k i) resp
        done;
        check_ok "close" (req c [ ("kind", Json.Str "close"); ("session", Json.Str sid) ]);
        Client.close c
      in
      let domains = List.init n_clients (fun k -> Domain.spawn (fun () -> hammer k)) in
      List.iter Domain.join domains)

(* -- request-scoped observability ---------------------------------------- *)

let test_request_id_echo () =
  with_server (fun listen ->
      let c = Client.connect listen in
      let sid, _ = open_session c in
      let r =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "feasible");
            ("request_id", Json.Str "myjob");
          ]
      in
      check_ok "solve with rid" r;
      Alcotest.(check string) "client rid echoed" "myjob"
        (str_field "solve" r "request_id");
      let r2 =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "feasible");
          ]
      in
      check_ok "solve without rid" r2;
      let rid = str_field "solve" r2 "request_id" in
      Alcotest.(check bool)
        (Printf.sprintf "generated rid %S has the server shape" rid)
        true
        (String.length rid >= 2
        && rid.[0] = 'r'
        && String.for_all
             (fun ch -> ch >= '0' && ch <= '9')
             (String.sub rid 1 (String.length rid - 1)));
      (* a finished id can be reused: no stale duplicate_request *)
      let r3 =
        req c
          [
            ("kind", Json.Str "solve");
            ("session", Json.Str sid);
            ("objective", Json.Str "feasible");
            ("request_id", Json.Str "myjob");
          ]
      in
      check_ok "finished rid reusable" r3;
      Client.close c)

(* Drive one streaming [watch] exchange: send the verb, then read
   lines until the final answer (the line with an ["ok"] member).
   Returns [(progress_lines, final)]. *)
let drain_watch c rid =
  Client.send c
    (Json.Obj [ ("kind", Json.Str "watch"); ("request", Json.Str rid) ]);
  let rec loop acc =
    let line = Client.recv c in
    match Json.member "ok" line with
    | Json.Null -> loop (line :: acc)
    | _ -> (List.rev acc, line)
  in
  loop []

let test_watch_stream options () =
  with_server ~options ~workers:2 (fun listen ->
      let c1 = Client.connect listen in
      let sid, _ = open_session ~workload:"tasks30" c1 in
      (* launch the solve without waiting for its answer, then watch it
         from a second connection while it runs (~1s of search) *)
      Client.send c1
        (Json.Obj
           [
             ("kind", Json.Str "solve");
             ("session", Json.Str sid);
             ("objective", Json.Str "trt");
             ("deadline_ms", Json.Int 8_000);
             ("request_id", Json.Str "wjob");
           ]);
      let c2 = Client.connect listen in
      (* the entry registers when the server reads c1's line; retry the
         watch until it attaches *)
      let rec attach tries =
        let progress, final = drain_watch c2 "wjob" in
        if get_ok "watch" final then (progress, final)
        else if tries > 0 then (
          Unix.sleepf 0.01;
          attach (tries - 1))
        else Alcotest.failf "watch never attached: %s" (Json.to_string final)
      in
      let progress, final = attach 500 in
      Alcotest.(check bool) "at least one progress event" true
        (List.length progress > 0);
      List.iter
        (fun line ->
          Alcotest.(check (option string)) "progress event tag" (Some "progress")
            (Json.to_str (Json.member "event" line));
          Alcotest.(check (option string)) "progress request tag" (Some "wjob")
            (Json.to_str (Json.member "request_id" line)))
        progress;
      (* the watcher's final line is the request's own answer *)
      Alcotest.(check string) "final answer tagged" "wjob"
        (str_field "watch final" final "request_id");
      Alcotest.(check string) "final outcome" "solved"
        (str_field "watch final" final "outcome");
      (* the submitting connection still gets its own copy *)
      let own = Client.recv c1 in
      check_ok "submitter answer" own;
      Alcotest.(check string) "same request" "wjob"
        (str_field "submitter" own "request_id");
      check_err "watch unknown rid" "unknown_request"
        (req c2 [ ("kind", Json.Str "watch"); ("request", Json.Str "nope") ]);
      Client.close c2;
      Client.close c1)

let test_cancel options () =
  with_server ~options ~workers:2 (fun listen ->
      let c1 = Client.connect listen in
      let sid, _ = open_session ~workload:"tasks30" c1 in
      let t0 = Unix.gettimeofday () in
      Client.send c1
        (Json.Obj
           [
             ("kind", Json.Str "solve");
             ("session", Json.Str sid);
             ("objective", Json.Str "trt");
             ("deadline_ms", Json.Int 60_000);
             ("request_id", Json.Str "cjob");
           ]);
      let c2 = Client.connect listen in
      (* retry until the entry is registered server-side *)
      let rec cancel tries =
        let r =
          req c2
            [ ("kind", Json.Str "cancel"); ("request", Json.Str "cjob") ]
        in
        if get_ok "cancel" r then r
        else if tries > 0 then (
          Unix.sleepf 0.01;
          cancel (tries - 1))
        else Alcotest.failf "cancel never found the request"
      in
      let r = cancel 500 in
      Alcotest.(check string) "cancel acknowledged" "cjob"
        (str_field "cancel" r "cancelled");
      (* while a second request on the same in-flight id is rejected *)
      (match
         Json.to_bool (Json.member "finished" r)
       with
      | Some false ->
        check_err "duplicate in-flight rid" "duplicate_request"
          (req c2
             [
               ("kind", Json.Str "solve");
               ("session", Json.Str sid);
               ("objective", Json.Str "feasible");
               ("request_id", Json.Str "cjob");
             ])
      | _ -> () (* raced to completion before we could probe: fine *));
      (* the cancelled solve still answers — promptly, and honestly
         about its provenance *)
      let own = Client.recv c1 in
      let elapsed = Unix.gettimeofday () -. t0 in
      check_ok "cancelled solve answers" own;
      Alcotest.(check string) "answered" "solved" (str_field "cancel" own "outcome");
      let quality = str_field "cancel" own "quality" in
      if quality = "optimal" then
        Alcotest.failf "cancelled solve claimed Optimal provenance";
      Alcotest.(check bool)
        (Printf.sprintf "returned promptly (%.1fs)" elapsed)
        true (elapsed < 20.);
      (* cancelling a finished request reports finished=true *)
      let again =
        req c2 [ ("kind", Json.Str "cancel"); ("request", Json.Str "cjob") ]
      in
      check_ok "cancel finished" again;
      Alcotest.(check (option bool)) "finished flag" (Some true)
        (Json.to_bool (Json.member "finished" again));
      check_err "cancel unknown rid" "unknown_request"
        (req c2
           [ ("kind", Json.Str "cancel"); ("request", Json.Str "ghost") ]);
      Client.close c2;
      Client.close c1)

let test_dump_verb () =
  with_server (fun listen ->
      Obs.Flight.clear ();
      let c = Client.connect listen in
      let sid, _ = open_session c in
      check_ok "solve"
        (req c
           [
             ("kind", Json.Str "solve");
             ("session", Json.Str sid);
             ("objective", Json.Str "feasible");
           ]);
      let r = req c [ ("kind", Json.Str "dump") ] in
      check_ok "dump" r;
      let events = Json.to_int (Json.member "events" r) in
      let total = Json.to_int (Json.member "total" r) in
      Alcotest.(check bool) "ring recorded the requests" true
        (match events with Some n -> n > 0 | None -> false);
      Alcotest.(check bool) "total >= events" true
        (match (total, events) with
        | Some t, Some e -> t >= e
        | _ -> false);
      (* the inline dump is a well-formed Chrome trace *)
      (match Json.member "flight" r with
      | Json.Obj _ as trace -> (
        match Json.member "traceEvents" trace with
        | Json.List evs ->
          Alcotest.(check bool) "traceEvents non-empty" true
            (List.length evs > 0);
          List.iter
            (fun ev ->
              match Json.to_str (Json.member "name" ev) with
              | Some _ -> ()
              | None -> Alcotest.fail "trace event without name")
            evs
        | _ -> Alcotest.fail "flight dump lacks traceEvents")
      | other ->
        Alcotest.failf "flight member not an object: %s" (Json.to_string other));
      Client.close c)

(* -- Prometheus exposition ----------------------------------------------- *)

let test_prometheus () =
  with_server_t ~prometheus:(Some ("127.0.0.1", 0)) (fun listen t ->
      let c = Client.connect listen in
      check_ok "ping" (req c [ ("kind", Json.Str "ping") ]);
      let sid, _ = open_session c in
      check_ok "solve"
        (req c
           [
             ("kind", Json.Str "solve");
             ("session", Json.Str sid);
             ("objective", Json.Str "feasible");
           ]);
      let text = Server.prometheus_text t in
      let lines = String.split_on_char '\n' text in
      let metric_value name =
        List.find_map
          (fun l ->
            if
              String.length l > String.length name
              && String.sub l 0 (String.length name) = name
              && l.[String.length name] = ' '
            then float_of_string_opt (String.sub l (String.length name + 1)
                                        (String.length l - String.length name - 1))
            else None)
          lines
      in
      (match metric_value "taskalloc_requests_total" with
      | Some v -> Alcotest.(check bool) "requests counted" true (v >= 3.)
      | None -> Alcotest.fail "taskalloc_requests_total missing");
      (match metric_value "taskalloc_sessions" with
      | Some v -> Alcotest.(check bool) "one live session" true (v >= 1.)
      | None -> Alcotest.fail "taskalloc_sessions missing");
      Alcotest.(check bool) "uptime gauge present" true
        (Option.is_some (metric_value "taskalloc_uptime_seconds"));
      (* the latency histogram's cumulative buckets are monotone and the
         +Inf bucket equals _count *)
      let prefix = "taskalloc_request_duration_us_bucket{le=" in
      let buckets =
        List.filter_map
          (fun l ->
            if
              String.length l > String.length prefix
              && String.sub l 0 (String.length prefix) = prefix
            then
              match String.rindex_opt l ' ' with
              | Some i ->
                float_of_string_opt
                  (String.sub l (i + 1) (String.length l - i - 1))
              | None -> None
            else None)
          lines
      in
      Alcotest.(check bool) "histogram exposed" true (List.length buckets >= 2);
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      Alcotest.(check bool) "cumulative buckets monotone" true
        (monotone buckets);
      (match
         (metric_value "taskalloc_request_duration_us_count",
          List.rev buckets)
       with
      | Some count, inf :: _ ->
        Alcotest.(check (float 0.0)) "+Inf bucket = count" count inf
      | _ -> Alcotest.fail "histogram count/+Inf missing");
      (* and the same text is served over HTTP *)
      (match Server.prometheus_port t with
      | None -> Alcotest.fail "prometheus endpoint has no port"
      | Some port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
        let reqs = "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n" in
        let _ = Unix.write_substring fd reqs 0 (String.length reqs) in
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> ()
          | n ->
            Buffer.add_subbytes b chunk 0 n;
            drain ()
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
        in
        drain ();
        Unix.close fd;
        let body = Buffer.contents b in
        let contains needle hay =
          let nl = String.length needle and hl = String.length hay in
          let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "HTTP 200" true (contains "200 OK" body);
        Alcotest.(check bool) "scrape carries counters" true
          (contains "taskalloc_requests_total" body);
        Alcotest.(check bool) "content type versioned" true
          (contains "text/plain; version=0.0.4" body));
      Client.close c)

(* -- per-request trace grouping ------------------------------------------ *)

let test_trace_grouping options () =
  Obs.clear ();
  Obs.enable ~tracing:true ~metrics:true ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.clear ())
    (fun () ->
      with_server ~options ~workers:4 (fun listen ->
          let solve k =
            let c = Client.connect listen in
            let sid, _ = open_session ~seed:(200 + k) c in
            let r =
              req c
                [
                  ("kind", Json.Str "solve");
                  ("session", Json.Str sid);
                  ("objective", Json.Str "feasible");
                  ("request_id", Json.Str (Printf.sprintf "grp%d" k));
                ]
            in
            check_ok "grouped solve" r;
            Client.close c
          in
          let domains =
            List.init 4 (fun k -> Domain.spawn (fun () -> solve k))
          in
          List.iter Domain.join domains);
      let ids = Obs.request_ids () in
      for k = 0 to 3 do
        let rid = Printf.sprintf "grp%d" k in
        Alcotest.(check bool)
          (Printf.sprintf "%s appears in the trace" rid)
          true (List.mem rid ids);
        let evs = Obs.events ~request:rid () in
        Alcotest.(check bool)
          (Printf.sprintf "%s has events" rid)
          true
          (List.length evs > 0);
        (* queue wait is attributed to the owning request *)
        Alcotest.(check bool)
          (Printf.sprintf "%s queue wait attributed" rid)
          true
          (List.exists (fun e -> e.Obs.ev_name = "server.queue_wait") evs);
        (* no bleed: every event filtered by rid really carries the tag *)
        List.iter
          (fun e ->
            Alcotest.(check (option string))
              (Printf.sprintf "%s event tag" rid)
              (Some rid)
              (List.assoc_opt "request" e.Obs.ev_attrs))
          evs
      done)

(* -- JSON unicode -------------------------------------------------------- *)

let test_json_surrogates () =
  (* an astral-plane escape decodes as one UTF-8 sequence *)
  (match Json.parse "\"\\ud83d\\ude00\"" with
  | Json.Str s ->
    Alcotest.(check string) "U+1F600 as 4-byte UTF-8" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "astral escape did not parse to a string");
  (* surrounded by other content, and with uppercase hex *)
  (match Json.parse "{\"k\":\"a\\uD83D\\uDE80b\"}" with
  | Json.Obj [ ("k", Json.Str s) ] ->
    Alcotest.(check string) "rocket in context" "a\xf0\x9f\x9a\x80b" s
  | _ -> Alcotest.fail "object with astral member did not parse");
  (* a lone high surrogate is preserved, not mangled into garbage *)
  (match Json.parse "\"\\ud83d!\"" with
  | Json.Str s ->
    Alcotest.(check string) "lone surrogate passes through" "\xed\xa0\xbd!" s
  | _ -> Alcotest.fail "lone surrogate did not parse");
  (* raw UTF-8 round-trips bytewise through print + parse *)
  let samples = [ "\xf0\x9f\x98\x80"; "caf\xc3\xa9"; "a\xe2\x82\xacb" ] in
  List.iter
    (fun s ->
      match Json.parse (Json.to_string (Json.Str s)) with
      | Json.Str s' -> Alcotest.(check string) "round trip" s s'
      | _ -> Alcotest.fail "round trip lost the string")
    samples;
  (* a finite float prints with enough digits to read back exactly *)
  List.iter
    (fun f ->
      Alcotest.(check (option (float 0.)))
        (Printf.sprintf "float %h round trip" f)
        (Some f)
        (Json.to_float (Json.parse (Json.to_string (Json.Float f)))))
    [ 123456.789; 1.6e9 +. 0.123; 98765432.125; 0.1 +. 0.2; 1e-7; -2.5e300; 3e6; 0. ];
  Alcotest.(check string) "non-finite prints null" "[null,null]"
    (Json.to_string (Json.List [ Json.Float Float.nan; Json.Float Float.infinity ]));
  (* BMP escapes still work *)
  match Json.parse "\"\\u20ac\"" with
  | Json.Str s -> Alcotest.(check string) "euro sign" "\xe2\x82\xac" s
  | _ -> Alcotest.fail "BMP escape did not parse"

let suite =
  [
    Alcotest.test_case "protocol round-trip" `Quick (test_roundtrip Taskalloc_core.Encode.default_options);
    Alcotest.test_case "inline problem + encode cache" `Quick
      (test_inline_problem_and_cache Taskalloc_core.Encode.default_options);
    Alcotest.test_case "malformed JSON" `Quick test_malformed_json;
    Alcotest.test_case "unknown kind" `Quick test_unknown_kind;
    Alcotest.test_case "bad open" `Quick test_bad_open;
    Alcotest.test_case "closed/evicted session errors" `Quick test_closed_session;
    Alcotest.test_case "bad deltas and events" `Quick test_bad_deltas_and_event;
    Alcotest.test_case "jobs bounded by the domain count" `Quick test_jobs_bounded;
    Alcotest.test_case "zero budget returns unknown" `Quick
      (test_zero_budget_returns_unknown Taskalloc_core.Encode.default_options);
    Alcotest.test_case "starved deadline: non-optimal provenance" `Slow
      (test_starved_deadline_non_optimal Taskalloc_core.Encode.default_options);
    Alcotest.test_case "LRU idle-session eviction" `Quick (test_lru_eviction Taskalloc_core.Encode.default_options);
    Alcotest.test_case "repair diverges session from cache" `Slow
      (test_repair_then_whatif Taskalloc_core.Encode.default_options);
    Alcotest.test_case "concurrent clients, distinct sessions" `Slow
      (test_concurrent_distinct_sessions Taskalloc_core.Encode.default_options);
    Alcotest.test_case "request id echo and reuse" `Quick test_request_id_echo;
    Alcotest.test_case "watch streams live progress" `Slow (test_watch_stream Taskalloc_core.Encode.default_options);
    Alcotest.test_case "cancel interrupts an in-flight solve" `Slow (test_cancel Taskalloc_core.Encode.default_options);
    Alcotest.test_case "dump returns the flight ring" `Quick test_dump_verb;
    Alcotest.test_case "prometheus exposition + scrape" `Quick test_prometheus;
    Alcotest.test_case "per-request trace grouping" `Slow (test_trace_grouping Taskalloc_core.Encode.default_options);
    Alcotest.test_case "JSON surrogate pairs and round-trips" `Quick
      test_json_surrogates;
  ]
  (* every case that solves through a session, on the lazy and the
     inprocessing configuration; one tindell43 repair on the eager
     encoding runs for a minute, so the repair case runs lazy only *)
  @ Configs.variants (fun options ->
        [
          Alcotest.test_case "protocol round-trip" `Quick (test_roundtrip options);
          Alcotest.test_case "inline problem + encode cache" `Quick
            (test_inline_problem_and_cache options);
          Alcotest.test_case "zero budget returns unknown" `Quick
            (test_zero_budget_returns_unknown options);
          Alcotest.test_case "starved deadline: non-optimal provenance" `Slow
            (test_starved_deadline_non_optimal options);
          Alcotest.test_case "LRU idle-session eviction" `Quick
            (test_lru_eviction options);
          Alcotest.test_case "concurrent clients, distinct sessions" `Slow
            (test_concurrent_distinct_sessions options);
          Alcotest.test_case "watch streams live progress" `Slow
            (test_watch_stream options);
          Alcotest.test_case "cancel interrupts an in-flight solve" `Slow
            (test_cancel options);
          Alcotest.test_case "per-request trace grouping" `Slow
            (test_trace_grouping options);
        ])
  @ [
      Alcotest.test_case "repair diverges session from cache (lazy)" `Slow
        (test_repair_then_whatif Configs.lazy_);
    ]
