(* taskallocd -- the allocation-as-a-service daemon.

   Serves the newline-delimited JSON protocol of lib/server over a
   Unix-domain socket (default) or TCP, holding warm incremental
   sessions so repeated solve/what-if/repair traffic pays the encode
   once.  See `taskalloc client --help` and the README's "Running as a
   service" section for driving it.

   Example:
     taskallocd --socket /tmp/ta.sock --workers 4 &
     printf '{"kind":"ping"}\n' | nc -U /tmp/ta.sock *)

open Cmdliner
module Obs = Taskalloc_obs.Obs
module Server = Taskalloc_server.Server

let socket_arg =
  Arg.(
    value
    & opt string "taskallocd.sock"
    & info [ "s"; "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (ignored with $(b,--tcp)).")

let hostport_conv ~min_port =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port when port >= min_port && port < 65536 -> Ok (host, port)
      | _ -> Error "expected HOST:PORT")
    | None -> (
      match int_of_string_opt s with
      | Some port when port >= min_port && port < 65536 -> Ok ("127.0.0.1", port)
      | _ -> Error "expected HOST:PORT or PORT")
  in
  Arg.conv' ~docv:"HOST:PORT"
    (parse, fun ppf (h, p) -> Fmt.pf ppf "%s:%d" h p)

let tcp_arg =
  Arg.(
    value
    & opt (some (hostport_conv ~min_port:1)) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Listen on TCP instead of the Unix socket (e.g. 127.0.0.1:7433).")

let prometheus_arg =
  Arg.(
    value
    & opt (some (hostport_conv ~min_port:0)) None
    & info [ "prometheus" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve a plaintext Prometheus /metrics endpoint on this TCP \
           address (e.g. 127.0.0.1:9464; port 0 picks an ephemeral port, \
           printed at startup): request/error/cache counters, queue and \
           session gauges, and per-verb latency histograms with exact \
           cumulative buckets.")

let flight_arg =
  Arg.(
    value
    & opt string "taskallocd-flight.json"
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "File the always-on flight-recorder ring (the last ~1024 events: \
           request outcomes, queue waits, solver progress samples) is \
           dumped to as Chrome trace JSON on SIGUSR1, on a worker crash, \
           and on the $(b,dump) protocol verb.")

let workers_arg =
  Arg.(
    value
    & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker domains executing requests.  Distinct sessions solve in \
           parallel across them; one session's requests always serialize.")

let max_sessions_arg =
  Arg.(
    value
    & opt int 64
    & info [ "max-sessions" ] ~docv:"N"
        ~doc:
          "Session-table bound.  Opening past it evicts the \
           least-recently-used idle session; requests against an evicted id \
           fail with unknown_session.")

let queue_arg =
  Arg.(
    value
    & opt int 128
    & info [ "queue" ] ~docv:"N"
        ~doc:
          "Bounded work-queue depth; requests beyond it are rejected \
           immediately with an overloaded error (backpressure, not pile-up).")

let lazy_arg =
  Arg.(
    value
    & vflag false
        [
          (true, info [ "lazy" ] ~doc:"Default new sessions to the lazy (CEGAR) encoding.");
          (false, info [ "no-lazy" ] ~doc:"Default new sessions to the eager encoding (the default).");
        ])

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace-event trace of the daemon's lifetime to FILE on exit (plus a JSONL copy).  Implies metrics.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write a JSON metrics snapshot (request counters, latency histograms, cache hit rate, queue depth) to FILE on exit.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log one line per request to stderr.")

let main socket tcp prometheus flight workers max_sessions queue lazy_mode
    trace metrics verbose =
  (* same at_exit flushing discipline as the batch CLI: sinks are
     written even when the daemon dies on an uncaught signal-free
     path *)
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
  let listen =
    match tcp with
    | Some (host, port) -> `Tcp (host, port)
    | None -> `Unix socket
  in
  let options =
    { Taskalloc_core.Encode.default_options with Taskalloc_core.Encode.lazy_mode }
  in
  let cfg =
    {
      Server.listen;
      workers;
      max_sessions;
      queue_depth = queue;
      options;
      verbose;
      prometheus;
      flight = Some flight;
    }
  in
  let t =
    try Server.create cfg
    with Unix.Unix_error (e, _, arg) ->
      Fmt.epr "taskallocd: cannot listen on %s: %s (%s)@."
        (match listen with
        | `Unix p -> p
        | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
        (Unix.error_message e) arg;
      exit 2
  in
  (* drain-then-exit on the usual service signals: stop accepting,
     answer everything in flight, clean up the socket file *)
  let request_stop _ = Server.stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  (* post-mortem on demand: dump the flight ring without disturbing
     service (the handler only sets a flag; the accept loop writes) *)
  Sys.set_signal Sys.sigusr1
    (Sys.Signal_handle (fun _ -> Server.request_flight_dump t));
  Fmt.epr "taskallocd: listening on %s (%d workers, %d sessions max)@."
    (match listen with
    | `Unix p -> p
    | `Tcp (h, p) -> Printf.sprintf "%s:%d" h p)
    workers max_sessions;
  (match (prometheus, Server.prometheus_port t) with
  | Some (host, _), Some port ->
    Fmt.epr "taskallocd: serving /metrics on http://%s:%d/metrics@." host port
  | _ -> ());
  Server.run t;
  Fmt.epr "taskallocd: drained, bye@.";
  0

let cmd =
  let doc = "allocation-as-a-service daemon with warm incremental sessions" in
  Cmd.v
    (Cmd.info "taskallocd" ~doc)
    Term.(
      const main $ socket_arg $ tcp_arg $ prometheus_arg $ flight_arg
      $ workers_arg $ max_sessions_arg $ queue_arg $ lazy_arg $ trace_arg
      $ metrics_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
