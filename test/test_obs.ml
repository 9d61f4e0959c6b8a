(* Observability substrate tests.

   The contracts under test, in order of load-bearing-ness:
   - the null sink: with both sinks off and no sample hook, instrumented
     code never samples the injected clock (so the CDCL inner loop
     carries no timing syscalls unless asked);
   - histogram merge is exact: per-worker histograms merged pointwise
     equal the histogram of the concatenated sample streams (QCheck);
   - spans nest and order correctly under a deterministic clock, and a
     span abandoned by an exception still records (traces stay
     well-formed when a Budget stop fires mid-span);
   - the emitted Chrome-trace / JSONL / metrics JSON parses back (via a
     tiny JSON reader below);
   - solver counters are cumulative across incremental solves while
     [Solver.last_solve_stats] isolates the most recent call's deltas.

   Every test clears the process-global registry on entry and exit so
   suites sharing the process never contaminate each other. *)

module Obs = Taskalloc_obs.Obs
module Solver = Taskalloc_sat.Solver
module Lit = Taskalloc_sat.Lit
module Budget = Taskalloc_sat.Budget
module Encode = Taskalloc_core.Encode
module Workloads = Taskalloc_workloads.Workloads

(* pigeonhole instance: [pigeons] into [holes]; Unsat iff pigeons > holes,
   with plenty of conflicts either way *)
let php pigeons holes =
  let s = Solver.create () in
  let x =
    Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s))
  in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.of_var x.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    Solver.add_at_most_one s (List.init pigeons (fun p -> Lit.of_var x.(p).(h)))
  done;
  s

(* -- a tiny JSON reader: just enough to parse back our own emitters -- *)

type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    if
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    then begin
      advance ();
      skip_ws ()
    end
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (match peek () with
          | '"' ->
            Buffer.add_char buf '"';
            advance ()
          | '\\' ->
            Buffer.add_char buf '\\';
            advance ()
          | '/' ->
            Buffer.add_char buf '/';
            advance ()
          | 'n' ->
            Buffer.add_char buf '\n';
            advance ()
          | 'r' ->
            Buffer.add_char buf '\r';
            advance ()
          | 't' ->
            Buffer.add_char buf '\t';
            advance ()
          | 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            (* our emitters only produce ASCII; keep the escape opaque *)
            Buffer.add_string buf (String.sub s !pos 4);
            pos := !pos + 4
          | _ -> fail "bad escape");
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Jobj []
      end
      else begin
        let rec fields acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            fields ((k, v) :: acc)
          | '}' ->
            advance ();
            Jobj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or } in object"
        in
        fields []
      end
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Jarr []
      end
      else begin
        let rec elems acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            advance ();
            elems (v :: acc)
          | ']' ->
            advance ();
            Jarr (List.rev (v :: acc))
          | _ -> fail "expected , or ] in array"
        in
        elems []
      end
    | '"' -> Jstr (parse_string ())
    | 't' ->
      pos := !pos + 4;
      Jbool true
    | 'f' ->
      pos := !pos + 5;
      Jbool false
    | 'n' ->
      pos := !pos + 4;
      Jnull
    | _ ->
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then fail "unexpected character";
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Jnum f
      | None -> fail "bad number")
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Jobj kvs -> (
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> Alcotest.failf "missing field %S" name)
  | _ -> Alcotest.failf "expected an object holding %S" name

let as_str = function Jstr s -> s | _ -> Alcotest.fail "expected a string"
let as_num = function Jnum f -> f | _ -> Alcotest.fail "expected a number"
let as_arr = function Jarr l -> l | _ -> Alcotest.fail "expected an array"

(* -- histograms ----------------------------------------------------------- *)

let test_hist_buckets () =
  Alcotest.(check int) "v<=0 in bucket 0" 0 (Obs.Hist.bucket_index (-5));
  Alcotest.(check int) "0 in bucket 0" 0 (Obs.Hist.bucket_index 0);
  Alcotest.(check int) "1 in bucket 1" 1 (Obs.Hist.bucket_index 1);
  Alcotest.(check int) "2 in bucket 2" 2 (Obs.Hist.bucket_index 2);
  Alcotest.(check int) "3 in bucket 2" 2 (Obs.Hist.bucket_index 3);
  Alcotest.(check int) "4 in bucket 3" 3 (Obs.Hist.bucket_index 4);
  Alcotest.(check int) "1024 in bucket 11" 11 (Obs.Hist.bucket_index 1024);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 3; 1; 0; 7; 3 ];
  Alcotest.(check int) "count" 5 (Obs.Hist.count h);
  Alcotest.(check int) "sum" 14 (Obs.Hist.sum h);
  Alcotest.(check int) "min" 0 (Obs.Hist.min_value h);
  Alcotest.(check int) "max" 7 (Obs.Hist.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 2.8 (Obs.Hist.mean h);
  (* buckets: 0 -> [0], 1 -> [1], {3,3} -> le 3, 7 -> le 7 *)
  Alcotest.(check (list (pair int int)))
    "bucket shape"
    [ (0, 1); (1, 1); (3, 2); (7, 1) ]
    (Obs.Hist.buckets h)

let test_hist_merge () =
  let a = Obs.Hist.create () and b = Obs.Hist.create () in
  List.iter (Obs.Hist.add a) [ 1; 5; 9 ];
  List.iter (Obs.Hist.add b) [ 2; 100 ];
  let merged = Obs.Hist.create () in
  Obs.Hist.merge_into ~into:merged a;
  Obs.Hist.merge_into ~into:merged b;
  let direct = Obs.Hist.create () in
  List.iter (Obs.Hist.add direct) [ 1; 5; 9; 2; 100 ];
  Alcotest.(check bool) "merged = concatenated" true (Obs.Hist.equal merged direct);
  (* merging an empty histogram is the identity *)
  Obs.Hist.merge_into ~into:merged (Obs.Hist.create ());
  Alcotest.(check bool) "empty merge is identity" true (Obs.Hist.equal merged direct)

let prop_hist_merge =
  QCheck.Test.make ~count:200
    ~name:"merged per-worker hists == hist of concatenated samples"
    QCheck.(list (small_list (int_range (-1000) 100000)))
    (fun workers ->
      let merged = Obs.Hist.create () in
      List.iter
        (fun samples ->
          let h = Obs.Hist.create () in
          List.iter (Obs.Hist.add h) samples;
          Obs.Hist.merge_into ~into:merged h)
        workers;
      let direct = Obs.Hist.create () in
      List.iter (List.iter (Obs.Hist.add direct)) workers;
      Obs.Hist.equal merged direct)

(* -- quantiles ------------------------------------------------------------ *)

let test_hist_quantile () =
  let h = Obs.Hist.create () in
  Alcotest.(check int) "empty -> 0" 0 (Obs.Hist.quantile h 0.5);
  Obs.Hist.add h 5;
  (* every quantile of a singleton is the value itself (top-bucket
     clamp: bucket ub 7, observed max 5) *)
  Alcotest.(check int) "singleton p50" 5 (Obs.Hist.quantile h 0.5);
  Alcotest.(check int) "singleton p0 (rank clamps to 1)" 5 (Obs.Hist.quantile h 0.);
  Alcotest.(check int) "singleton p100" 5 (Obs.Hist.quantile h 1.);
  (* [1; 1000]: rank 1 -> the 1-bucket; rank 2 -> the 1000-bucket,
     whose ub 1023 clamps to the observed max *)
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 1; 1000 ];
  Alcotest.(check int) "p50 picks the low sample" 1 (Obs.Hist.quantile h 0.5);
  Alcotest.(check int) "p95 clamps to observed max" 1000 (Obs.Hist.quantile h 0.95);
  (* uniform 1..100: rank ceil(q*100) is the value itself, so the
     estimate is that value's bucket ub (exact per the documented
     estimator), clamped to the max in the top bucket *)
  let h = Obs.Hist.create () in
  for v = 1 to 100 do
    Obs.Hist.add h v
  done;
  Alcotest.(check int) "uniform p50: rank 50 -> bucket [32,64) ub 63" 63
    (Obs.Hist.quantile h 0.5);
  Alcotest.(check int) "uniform p95: rank 95 -> top bucket, clamped" 100
    (Obs.Hist.quantile h 0.95);
  Alcotest.(check int) "uniform p99" 100 (Obs.Hist.quantile h 0.99);
  Alcotest.(check int) "uniform p25: rank 25 -> bucket [16,32) ub 31" 31
    (Obs.Hist.quantile h 0.25);
  (* non-positive samples live in bucket 0 (ub 0) *)
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ -3; 0; 8 ];
  Alcotest.(check int) "p50 of {-3,0,8} -> bucket 0" 0 (Obs.Hist.quantile h 0.5);
  Alcotest.(check int) "p100 of {-3,0,8}" 8 (Obs.Hist.quantile h 1.);
  (* out-of-range q clamps rather than raising *)
  Alcotest.(check int) "q>1 clamps" 8 (Obs.Hist.quantile h 2.);
  Alcotest.(check int) "q<0 clamps" 0 (Obs.Hist.quantile h (-1.))

(* monotonicity + the never-under-reports contract, on arbitrary data:
   the estimate is >= the true quantile and <= 2x above it (power-of-two
   buckets), and is monotone in q *)
let prop_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"quantile: bounded above truth, monotone"
    QCheck.(pair (list_of_size Gen.(1 -- 200) (int_range 0 100000)) (float_range 0. 1.))
    (fun (samples, q) ->
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.add h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let rank = max 1 (int_of_float (ceil (q *. float_of_int n))) in
      let truth = List.nth sorted (rank - 1) in
      let est = Obs.Hist.quantile h q in
      est >= truth
      && est <= max 1 (2 * truth)
      && Obs.Hist.quantile h (Float.min 1. (q +. 0.1)) >= est)

(* -- request context ------------------------------------------------------ *)

let test_request_context () =
  Obs.clear ();
  Obs.enable ~tracing:true ();
  Alcotest.(check (option string)) "no ambient context" None (Obs.current_request ());
  Obs.with_request "r1" (fun () -> Obs.instant "a");
  Obs.with_request "r2" (fun () ->
      Alcotest.(check (option string)) "context visible" (Some "r2")
        (Obs.current_request ());
      Obs.span "b" (fun () -> ());
      Obs.with_request "r3" (fun () -> Obs.instant "c");
      Alcotest.(check (option string)) "nested context restored" (Some "r2")
        (Obs.current_request ()));
  Obs.instant "untagged";
  Alcotest.(check (option string)) "context restored" None (Obs.current_request ());
  Alcotest.(check (list string)) "distinct ids, first-appearance order"
    [ "r1"; "r2"; "r3" ] (Obs.request_ids ());
  (match Obs.events ~request:"r1" () with
  | [ ev ] -> Alcotest.(check string) "r1 owns exactly its event" "a" ev.Obs.ev_name
  | evs -> Alcotest.failf "expected 1 r1 event, got %d" (List.length evs));
  (* the filtered trace contains r2's span and nothing else's *)
  let j = parse_json (Obs.trace_json ~request:"r2" ()) in
  let names = List.map (fun ev -> as_str (field "name" ev)) (as_arr (field "traceEvents" j)) in
  Alcotest.(check (list string)) "r2 trace is just its span" [ "b" ] names;
  Alcotest.(check int) "unfiltered trace has all four events" 4
    (List.length (Obs.events ()));
  Obs.clear ()

let test_request_context_crosses_portfolio options () =
  (* the portfolio spawns helper domains; the explicit capture/
     re-install at the spawn site must keep deep solver telemetry
     attributed to the owning request *)
  Obs.clear ();
  Obs.enable ~tracing:true ();
  let problem = Workloads.small ~seed:42 () in
  Obs.with_request "req-pf" (fun () ->
      ignore
        (Taskalloc_core.Allocator.solve ~options ~jobs:2 ~parallel:`Portfolio
           ~fallback:false problem Taskalloc_core.Encode.Feasible));
  let workers =
    List.filter (fun ev -> ev.Obs.ev_name = "portfolio.worker")
      (Obs.events ~request:"req-pf" ())
  in
  Alcotest.(check bool) "worker spans tagged with the request" true
    (List.length workers >= 2);
  Obs.clear ()

(* -- spans under a deterministic clock ------------------------------------ *)

let test_span_nesting () =
  Obs.clear ();
  let t = ref 0. in
  Obs.set_clock (fun () ->
      t := !t +. 1.;
      !t);
  Obs.enable ~tracing:true ~metrics:true ();
  let r =
    Obs.span "outer" (fun () ->
        Obs.span ~attrs:[ ("k", "v") ] "inner" (fun () -> 42))
  in
  Alcotest.(check int) "span passes the result through" 42 r;
  (match Obs.events () with
  | [ outer; inner ] ->
    Alcotest.(check string) "outer first (ts order)" "outer" outer.Obs.ev_name;
    Alcotest.(check string) "inner second" "inner" inner.Obs.ev_name;
    Alcotest.(check bool) "inner starts inside outer" true
      (inner.Obs.ev_ts >= outer.Obs.ev_ts);
    Alcotest.(check bool) "inner ends inside outer" true
      (inner.Obs.ev_ts +. inner.Obs.ev_dur
      <= outer.Obs.ev_ts +. outer.Obs.ev_dur);
    Alcotest.(check (list (pair string string)))
      "attrs recorded" [ ("k", "v") ] inner.Obs.ev_attrs
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs));
  (* the deterministic clock makes durations exact: one tick inside
     inner, three across outer (inner start + inner stop + own stop) *)
  (match Obs.Metrics.get_hist "span.inner.us" with
  | Some h -> Alcotest.(check int) "inner duration 1 tick" 1_000_000 (Obs.Hist.sum h)
  | None -> Alcotest.fail "span.inner.us histogram missing");
  Alcotest.(check bool) "clock was sampled" true (Obs.clock_samples () > 0);
  Obs.clear ()

let test_phase_breakdown () =
  Obs.clear ();
  let t = ref 0. in
  Obs.set_clock (fun () ->
      t := !t +. 0.5;
      !t);
  Obs.enable ~metrics:true ();
  Obs.span "encode" (fun () -> ());
  Obs.span "encode" (fun () -> ());
  Obs.span "solve" (fun () -> ());
  let phases = Obs.phase_breakdown () in
  let get name =
    match List.assoc_opt name phases with
    | Some s -> s
    | None -> Alcotest.failf "phase %s missing" name
  in
  Alcotest.(check (float 1e-6)) "encode total 1s" 1.0 (get "encode");
  Alcotest.(check (float 1e-6)) "solve total 0.5s" 0.5 (get "solve");
  Obs.clear ()

(* -- chaos: spans interrupted by stops and exceptions --------------------- *)

let test_chaos_stop_mid_span () =
  Obs.clear ();
  Obs.enable ~tracing:true ~metrics:true ();
  (* a budget whose hook trips at the first checkpoint stops the solve
     inside the span; the trace must stay well-formed *)
  let s = php 6 5 in
  let budget = Budget.create ~should_stop:(fun () -> true) () in
  (match Obs.span "solve" (fun () -> Solver.solve ~budget s) with
  | Solver.Unknown -> ()
  | _ -> Alcotest.fail "tripped budget should yield Unknown");
  (* an exception abandoning a span still records it, with an error attr *)
  (try Obs.span "boom" (fun () -> failwith "injected") with Failure _ -> ());
  let j = parse_json (Obs.trace_json ()) in
  let evs = as_arr (field "traceEvents" j) in
  Alcotest.(check bool) "events recorded" true (List.length evs >= 2);
  let boom =
    List.find_opt (fun ev -> as_str (field "name" ev) = "boom") evs
  in
  (match boom with
  | Some ev ->
    Alcotest.(check string) "complete phase" "X" (as_str (field "ph" ev));
    (match field "args" ev with
    | Jobj kvs -> Alcotest.(check bool) "error attr" true (List.mem_assoc "error" kvs)
    | _ -> Alcotest.fail "args not an object")
  | None -> Alcotest.fail "abandoned span not recorded");
  Obs.clear ()

(* -- JSON emitters parse back --------------------------------------------- *)

let test_trace_json_roundtrip () =
  Obs.clear ();
  Obs.enable ~tracing:true ~metrics:true ();
  Obs.span "alpha" (fun () -> Obs.instant ~attrs:[ ("q", "\"quoted\\\"") ] "mark");
  Obs.emit_sample "pulse" [ ("x", 1.5) ];
  let j = parse_json (Obs.trace_json ()) in
  Alcotest.(check string) "display unit" "ms" (as_str (field "displayTimeUnit" j));
  let evs = as_arr (field "traceEvents" j) in
  Alcotest.(check int) "three events" 3 (List.length evs);
  List.iter
    (fun ev ->
      ignore (as_num (field "ts" ev));
      ignore (as_num (field "pid" ev));
      let ph = as_str (field "ph" ev) in
      Alcotest.(check bool) "known phase" true (List.mem ph [ "X"; "i"; "C" ]);
      if ph = "X" then ignore (as_num (field "dur" ev)))
    evs;
  (* the escaped attribute survives the round trip *)
  let mark = List.find (fun ev -> as_str (field "name" ev) = "mark") evs in
  Alcotest.(check string) "escape round trip" "\"quoted\\\""
    (as_str (field "q" (field "args" mark)));
  (* JSONL: every line is one standalone object *)
  let lines =
    String.split_on_char '\n' (Obs.jsonl ()) |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter (fun l -> ignore (field "name" (parse_json l))) lines;
  Obs.clear ()

let test_metrics_json_roundtrip () =
  Obs.clear ();
  Obs.enable ~metrics:true ();
  Obs.Metrics.incr ~by:3 "c.count";
  Obs.Metrics.set "g.level" 7;
  List.iter (Obs.Metrics.observe "h.vals") [ 1; 2; 300 ];
  let j = parse_json (Obs.metrics_json ()) in
  Alcotest.(check (float 0.)) "counter" 3. (as_num (field "c.count" (field "counters" j)));
  Alcotest.(check (float 0.)) "gauge" 7. (as_num (field "g.level" (field "gauges" j)));
  let h = field "h.vals" (field "histograms" j) in
  Alcotest.(check (float 0.)) "hist count" 3. (as_num (field "count" h));
  Alcotest.(check (float 0.)) "hist sum" 303. (as_num (field "sum" h));
  Alcotest.(check bool) "hist buckets present" true (as_arr (field "buckets" h) <> []);
  Obs.clear ()

(* -- the null sink -------------------------------------------------------- *)

let test_null_sink () =
  Obs.clear ();
  let reads = ref 0 in
  Obs.set_clock (fun () ->
      incr reads;
      0.);
  (* both sinks off, no hook: a full instrumented solve (budget ticking
     at the checkpoint cadence) plus spans and metric writes must never
     touch the clock *)
  let s = php 6 5 in
  (match Solver.solve ~budget:(Budget.create ()) s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "php(6,5) should be unsat");
  let r = Obs.span "unobserved" (fun () -> 7) in
  Alcotest.(check int) "span is the identity when off" 7 r;
  Obs.Metrics.incr "nope";
  Obs.instant "nope";
  Alcotest.(check int) "no clock samples counted" 0 (Obs.clock_samples ());
  Alcotest.(check int) "injected clock never called" 0 !reads;
  Alcotest.(check int) "no metrics recorded" 0 (Obs.Metrics.get_counter "nope");
  Alcotest.(check (list pass)) "no events recorded" [] (Obs.events ());
  Obs.clear ()

(* -- solver integration --------------------------------------------------- *)

let test_progress_samples () =
  Obs.clear ();
  Obs.enable ~metrics:true ();
  let s = php 7 6 in
  (match Solver.solve ~budget:(Budget.create ()) s with
  | Solver.Unsat -> ()
  | _ -> Alcotest.fail "php(7,6) should be unsat");
  Alcotest.(check bool) "progress samples recorded" true
    (Obs.Metrics.get_counter "solver.progress_samples" > 0);
  (match Obs.Metrics.get_hist "solver.trail_depth" with
  | Some h -> Alcotest.(check bool) "trail depths observed" true (Obs.Hist.count h > 0)
  | None -> Alcotest.fail "solver.trail_depth histogram missing");
  Obs.clear ()

let test_encode_family_metrics () =
  Obs.clear ();
  Obs.enable ~metrics:true ();
  let problem = Workloads.small ~seed:42 () in
  (* eager mode explicitly: the lazy encoding defers the response-time
     families to refinement, so only the eager one charges every family
     up front *)
  let options = { Encode.default_options with Encode.lazy_mode = false } in
  ignore (Encode.encode ~options problem Encode.Feasible);
  Alcotest.(check int) "one encode counted" 1 (Obs.Metrics.get_counter "encode.count");
  (* one-hot selectors land as at-most-one PB constraints, not clauses *)
  Alcotest.(check bool) "alloc family PBs charged" true
    (Obs.Metrics.get_counter "encode.alloc.pbs" > 0);
  Alcotest.(check bool) "alloc family vars charged" true
    (Obs.Metrics.get_counter "encode.alloc.vars" > 0);
  Alcotest.(check bool) "response-time family clauses charged" true
    (Obs.Metrics.get_counter "encode.response_times.clauses" > 0);
  (* every eq. 1-13 family reports some formula growth *)
  List.iter
    (fun f ->
      let total =
        Obs.Metrics.get_counter ("encode." ^ f ^ ".clauses")
        + Obs.Metrics.get_counter ("encode." ^ f ^ ".pbs")
        + Obs.Metrics.get_counter ("encode." ^ f ^ ".vars")
        + Obs.Metrics.get_counter ("encode." ^ f ^ ".lits")
      in
      if total <= 0 then Alcotest.failf "family %s charged nothing" f)
    (* priorities/separation may be all-constant on this workload; these
       four always grow the formula *)
    [ "alloc"; "capacities"; "response_times"; "tdma" ];
  Obs.clear ()

(* -- flight recorder ------------------------------------------------------ *)

let test_flight_ring () =
  Obs.clear ();
  Obs.Flight.clear ();
  Alcotest.(check int) "empty" 0 (Obs.Flight.size ());
  Obs.Flight.record ~ts:10. "a";
  Obs.Flight.record ~ts:11. ~dur:0.5 "b" ~attrs:[ ("k", "v") ];
  Obs.Flight.record "c";
  (* no ts: reuses the newest recorded timestamp *)
  (match Obs.Flight.snapshot () with
  | [ a; b; c ] ->
    Alcotest.(check string) "oldest first" "a" a.Obs.ev_name;
    Alcotest.(check (float 0.)) "absolute seconds" 10. a.Obs.ev_ts;
    Alcotest.(check (float 0.)) "duration kept" 0.5 b.Obs.ev_dur;
    Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ]
      b.Obs.ev_attrs;
    Alcotest.(check (float 0.)) "ts-less entry reuses newest ts" 11. c.Obs.ev_ts;
    Alcotest.(check bool) "ts-less entry is an instant" true (c.Obs.ev_dur < 0.)
  | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
  (* overwrite: a small ring keeps exactly the newest [capacity] *)
  Obs.Flight.set_capacity 4;
  for i = 1 to 10 do
    Obs.Flight.record ~ts:(float_of_int i) (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "size bounded" 4 (Obs.Flight.size ());
  Alcotest.(check int) "total counts overwritten too" 10 (Obs.Flight.total ());
  Alcotest.(check (list string)) "newest 4, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun ev -> ev.Obs.ev_name) (Obs.Flight.snapshot ()));
  (* the dump parses as a Chrome trace, timestamps rebased to the
     oldest retained entry *)
  let j = parse_json (Obs.Flight.dump_json ()) in
  let evs = as_arr (field "traceEvents" j) in
  Alcotest.(check int) "dump holds the ring" 4 (List.length evs);
  Alcotest.(check (float 0.)) "rebased to oldest" 0.
    (as_num (field "ts" (List.hd evs)));
  Alcotest.(check (float 0.)) "1s later = 1e6 us" 3e6
    (as_num (field "ts" (List.nth evs 3)));
  Obs.Flight.set_capacity 1024;
  Obs.clear ()

let test_flight_null_sink () =
  (* the recorder is always on; it must not break the null-sink
     invariant: with sinks off, recording takes zero clock samples *)
  Obs.clear ();
  Obs.Flight.clear ();
  let reads = ref 0 in
  Obs.set_clock (fun () ->
      incr reads;
      0.);
  for i = 1 to 100 do
    Obs.Flight.record ~ts:(float_of_int i) "tick"
  done;
  Obs.Flight.record "tail";
  Alcotest.(check int) "events retained" 101 (Obs.Flight.size ());
  Alcotest.(check int) "no clock samples counted" 0 (Obs.clock_samples ());
  Alcotest.(check int) "injected clock never called" 0 !reads;
  (* entries are request-tagged like every other event *)
  Obs.with_request "fr" (fun () -> Obs.Flight.record ~ts:200. "tagged");
  let last = List.hd (List.rev (Obs.Flight.snapshot ())) in
  Alcotest.(check (option string)) "request attr" (Some "fr")
    (List.assoc_opt "request" last.Obs.ev_attrs);
  Obs.Flight.clear ();
  Obs.clear ()

(* -- concurrent multi-domain emission ------------------------------------- *)

let test_concurrent_emission () =
  Obs.clear ();
  Obs.enable ~tracing:true ~metrics:true ();
  let domains = 4 and per = 500 in
  let ds =
    Array.init domains (fun d ->
        Domain.spawn (fun () ->
            Obs.with_request (Printf.sprintf "cr%d" d) (fun () ->
                for i = 0 to per - 1 do
                  Obs.Metrics.observe "conc.vals" ((d * per) + i);
                  Obs.Metrics.incr "conc.count";
                  Obs.instant "conc.mark"
                done)))
  in
  Array.iter Domain.join ds;
  (* no emission lost: counters, histogram tallies and events all land *)
  Alcotest.(check int) "counter complete" (domains * per)
    (Obs.Metrics.get_counter "conc.count");
  (match Obs.Metrics.get_hist "conc.vals" with
  | None -> Alcotest.fail "conc.vals histogram missing"
  | Some h ->
    Alcotest.(check int) "histogram count complete" (domains * per)
      (Obs.Hist.count h);
    (* tearing a concurrent observe would corrupt the tallies: compare
       against the same samples added single-threaded *)
    let direct = Obs.Hist.create () in
    for v = 0 to (domains * per) - 1 do
      Obs.Hist.add direct v
    done;
    Alcotest.(check bool) "histogram equals single-threaded tally" true
      (Obs.Hist.equal h direct));
  Alcotest.(check int) "no event lost" (domains * per)
    (List.length (Obs.events ()));
  (* per-request attribution has no cross-domain bleed *)
  for d = 0 to domains - 1 do
    Alcotest.(check int)
      (Printf.sprintf "cr%d owns its events" d)
      per
      (List.length (Obs.events ~request:(Printf.sprintf "cr%d" d) ()))
  done;
  Obs.clear ()

(* the merge QCheck property, extended: workers observe concurrently
   into one shared registry histogram instead of merging afterwards *)
let prop_concurrent_observe =
  QCheck.Test.make ~count:30
    ~name:"concurrent observes == hist of concatenated samples"
    QCheck.(list_of_size Gen.(1 -- 4) (small_list (int_range (-1000) 100000)))
    (fun workers ->
      Obs.clear ();
      Obs.enable ~metrics:true ();
      let ds =
        List.map
          (fun samples ->
            Domain.spawn (fun () ->
                List.iter (Obs.Metrics.observe "qc.conc") samples))
          workers
      in
      List.iter Domain.join ds;
      let direct = Obs.Hist.create () in
      List.iter (List.iter (Obs.Hist.add direct)) workers;
      let got =
        match Obs.Metrics.get_hist "qc.conc" with
        | Some h -> h
        | None -> Obs.Hist.create ()
      in
      let ok = Obs.Hist.equal got direct in
      Obs.clear ();
      ok)

let test_cumulative_stats_and_deltas () =
  (* Solver counters are cumulative across incremental solves
     (documented in solver.mli); last_solve_stats isolates the latest
     call so optimizer probes are never cross-contaminated. *)
  let s = php 5 5 in
  (match Solver.solve s with
  | Solver.Sat -> ()
  | _ -> Alcotest.fail "php(5,5) should be sat");
  let c1 = Solver.n_conflicts s and p1 = Solver.n_propagations s in
  let d1 = (Solver.last_solve_stats s).Solver.d_conflicts in
  Alcotest.(check int) "first delta = first cumulative" c1 d1;
  (match Solver.solve s with
  | Solver.Sat -> ()
  | _ -> Alcotest.fail "php(5,5) should still be sat");
  let st2 = Solver.last_solve_stats s in
  Alcotest.(check bool) "conflicts cumulative (never reset)" true
    (Solver.n_conflicts s >= c1);
  Alcotest.(check int) "second delta = cumulative growth"
    (Solver.n_conflicts s - c1)
    st2.Solver.d_conflicts;
  Alcotest.(check int) "propagation delta matches"
    (Solver.n_propagations s - p1)
    st2.Solver.d_propagations

let suite =
  [
    ("hist bucket math", `Quick, test_hist_buckets);
    ("hist merge is exact", `Quick, test_hist_merge);
    QCheck_alcotest.to_alcotest prop_hist_merge;
    ("quantiles against exact distributions", `Quick, test_hist_quantile);
    QCheck_alcotest.to_alcotest prop_quantile_bounds;
    ("request context tags and filters", `Quick, test_request_context);
    ("request context crosses portfolio domains", `Quick,
     test_request_context_crosses_portfolio Encode.default_options);
    ("flight ring: order, overwrite, dump", `Quick, test_flight_ring);
    ("flight ring keeps the null sink", `Quick, test_flight_null_sink);
    ("concurrent multi-domain emission", `Quick, test_concurrent_emission);
    QCheck_alcotest.to_alcotest prop_concurrent_observe;
    ("span nesting under a deterministic clock", `Quick, test_span_nesting);
    ("phase breakdown sums span histograms", `Quick, test_phase_breakdown);
    ("chaos: budget stop and exception mid-span", `Quick, test_chaos_stop_mid_span);
    ("chrome trace + jsonl parse back", `Quick, test_trace_json_roundtrip);
    ("metrics json parses back", `Quick, test_metrics_json_roundtrip);
    ("null sink: disabled obs samples no clock", `Quick, test_null_sink);
    ("solver progress samples at checkpoints", `Quick, test_progress_samples);
    ("per-family encode metrics", `Quick, test_encode_family_metrics);
    ("cumulative counters and last_solve_stats deltas", `Quick,
     test_cumulative_stats_and_deltas);
  ]
  @ Configs.variants (fun options ->
        [
          ( "request context crosses portfolio domains",
            `Quick,
            test_request_context_crosses_portfolio options );
        ])
