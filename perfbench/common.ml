(* Shared plumbing of the benchmark harness: clocks, sample statistics,
   process memory, the run context and the one-line JSON result. *)

module Json = Taskalloc_server.Json

let now = Unix.gettimeofday

(* wall time of [f ()] in seconds, with its result *)
let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* nearest-rank quantile of an unsorted sample: the value at rank
   ceil(q * n), so p90 of 100 samples leaves exactly 10 beyond it *)
let quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let beyond n q = n - int_of_float (ceil (q *. float_of_int n))

let median samples = quantile samples 0.5

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* peak resident set of a process in MiB, from the VmHWM line of
   /proc/<pid>/status *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith "no VmHWM in /proc status"
      in
      scan ())

(* -- run configuration -------------------------------------------------- *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ops : int option;  (** fixed op count instead of [seconds] (smoke mode) *)
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  daemon : string;  (** path of the taskallocd executable *)
  workdir : string;  (** scratch directory for sockets and daemon logs *)
}

(* a run times at least this many ops, so that 10 samples lie beyond
   its p90 *)
let min_ops = 100

(* the timed phase: run [op i] for i = 0, 1, ... until [seconds] have
   passed, [min_ops] ops are done and the last pass over the workload's
   [pass] inputs is complete, or for exactly [ops] ops in smoke mode;
   returns the per-op latencies in ms and the wall time of the whole
   phase in seconds.

   Ending on a pass boundary gives every input the same weight.  Each
   input's ops form a tight cluster of latencies, and with [pass] = 15
   or 45 the ranks of p50 and p90 fall in the middle of a cluster
   rather than on the edge between two, where noise would flip the
   percentile from one input's latency to another's. *)
let timed_phase cfg ~pass op =
  let lat = ref [] in
  let t0 = now () in
  let deadline = t0 +. cfg.seconds in
  let i = ref 0 in
  let continue () =
    match cfg.ops with
    | Some n -> !i < n
    | None -> !i < min_ops || now () < deadline || !i mod pass <> 0
  in
  while continue () do
    let t = now () in
    op !i;
    lat := ((now () -. t) *. 1000.) :: !lat;
    incr i
  done;
  (List.rev !lat, now () -. t0)

(* -- results ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let m name unit_ value = { name; value; unit_ }

(* the five end-to-end metrics every workload reports *)
let end_to_end ~lat ~wall ~setups ~rss =
  let n = List.length lat in
  [
    m "p50_ms" "ms" (median lat);
    m "p90_ms" "ms" (quantile lat 0.9);
    m "ops_per_s" "1/s" (float_of_int n /. wall);
    m "setup_s" "s" (median setups);
    m "peak_rss_mb" "MB" rss;
  ]

(* every per-layer metric, in report order; a traced run reports the
   layers its workload does not exercise as 0 *)
let layer_catalog =
  [
    ("parse.ms", "ms");
    ("encode.ms", "ms");
    ("encode.vars", "count");
    ("encode.lits", "count");
    ("lazy.refine_ms", "ms");
    ("lazy.rounds", "count");
    ("lazy.refined_tasks", "count");
    ("lazy.refined_media", "count");
    ("opt.probes", "count");
    ("opt.sat_probes", "count");
    ("opt.unsat_probes", "count");
    ("opt.extract_ms", "ms");
    ("solver.search_ms", "ms");
    ("solver.conflicts", "count");
    ("solver.decisions", "count");
    ("solver.propagations", "count");
    ("solver.props_per_s", "1/s");
    ("check.ms", "ms");
    ("whatif.ms", "ms");
    ("whatif.solves", "count");
    ("repair.ms", "ms");
    ("repair.migrations", "count");
    ("repair.sheds", "count");
    ("server.rtt_ms", "ms");
    ("server.service_ms", "ms");
    ("server.wire_ms", "ms");
    ("server.ping_ms", "ms");
    ("server.cache_hits", "count");
    ("server.cache_misses", "count");
    ("json.ms", "ms");
  ]

let with_absent_layers metrics =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun mt -> mt.name = name) metrics with
      | Some mt -> mt
      | None -> m name unit_ 0.)
    layer_catalog

(* [ok i] tells whether op [i] passed its correctness check *)
let result ~ops ~ok metrics =
  let failed = List.length (List.filter (fun i -> not (ok i)) (List.init ops Fun.id)) in
  let finite = List.for_all (fun mt -> Float.is_finite mt.value) metrics in
  { correct = failed = 0 && ops > 0 && finite; attempted = max 1 ops; failed; metrics }

let quote s = "\"" ^ Json.escape s ^ "\""

(* full precision, as the JSON grammar allows it; a metric that could
   not be measured (no ops ran) prints as 0 on a run marked incorrect *)
let number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_json r =
  let metrics =
    List.map
      (fun mt ->
        Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (quote mt.name)
          (number mt.value) (quote mt.unit_))
      r.metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed (String.concat "," metrics)

(* the run context printed before the result line; [inputs] holds the
   input each timed op ran, in the order of [lat], and each input's
   median latency is listed so that a percentile's move can be traced
   to the inputs *)
let context_json cfg ~ops ~lat ~inputs =
  let n = List.length lat in
  let samples = List.combine inputs lat in
  let by_input =
    List.init
      (1 + List.fold_left max (-1) inputs)
      (fun k ->
        match List.filter_map (fun (j, l) -> if j = k then Some l else None) samples with
        | [] -> Json.Null
        | ls -> Json.Float (median ls))
  in
  Json.to_string
    (Json.Obj
       [
         ("context", Json.Bool true);
         ("workload", Json.Str cfg.workload);
         ("seed", Json.Int cfg.seed);
         ("trace", Json.Bool cfg.trace);
         ("cores_available", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml_version", Json.Str Sys.ocaml_version);
         ("timed_ops", Json.Int ops);
         ("p90_samples_beyond", Json.Int (beyond n 0.9));
         ("setup_reps", Json.Int cfg.setup_reps);
         ("input_p50_ms", Json.List by_input);
       ])
