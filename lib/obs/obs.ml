(* Observability substrate.  See obs.mli for the design contract; the
   load-bearing invariant is that with both sinks off and no sample
   hook installed, no entry point samples the clock or takes the
   mutex. *)

(* ---- clock ------------------------------------------------------------- *)

let default_clock () = Unix.gettimeofday ()
let clock : (unit -> float) ref = ref default_clock
let samples = Atomic.make 0
let set_clock f = clock := f
let clock_samples () = Atomic.get samples

let now () =
  Atomic.incr samples;
  !clock ()

(* ---- switches ---------------------------------------------------------- *)

let tracing = Atomic.make false
let metrics = Atomic.make false
let t0 = ref 0.
let tracing_on () = Atomic.get tracing
let metrics_on () = Atomic.get metrics
let on () = tracing_on () || metrics_on ()

(* ---- mergeable integer histograms -------------------------------------- *)

module Hist = struct
  let n_buckets = 64

  type t = {
    mutable count : int;
    mutable sum : int;
    mutable min_v : int;
    mutable max_v : int;
    buckets : int array;
  }

  let create () =
    { count = 0; sum = 0; min_v = 0; max_v = 0; buckets = Array.make n_buckets 0 }

  (* bucket 0: v <= 0; bucket i >= 1: 2^(i-1) <= v < 2^i *)
  let bucket_index v =
    if v <= 0 then 0
    else begin
      let i = ref 0 and v = ref v in
      while !v > 0 do
        incr i;
        v := !v lsr 1
      done;
      min !i (n_buckets - 1)
    end

  let add t v =
    if t.count = 0 then begin
      t.min_v <- v;
      t.max_v <- v
    end
    else begin
      if v < t.min_v then t.min_v <- v;
      if v > t.max_v then t.max_v <- v
    end;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    let i = bucket_index v in
    t.buckets.(i) <- t.buckets.(i) + 1

  let merge_into ~into src =
    if src.count > 0 then begin
      if into.count = 0 then begin
        into.min_v <- src.min_v;
        into.max_v <- src.max_v
      end
      else begin
        if src.min_v < into.min_v then into.min_v <- src.min_v;
        if src.max_v > into.max_v then into.max_v <- src.max_v
      end;
      into.count <- into.count + src.count;
      into.sum <- into.sum + src.sum;
      Array.iteri (fun i c -> into.buckets.(i) <- into.buckets.(i) + c) src.buckets
    end

  let copy t =
    {
      count = t.count;
      sum = t.sum;
      min_v = t.min_v;
      max_v = t.max_v;
      buckets = Array.copy t.buckets;
    }

  let count t = t.count
  let sum t = t.sum
  let min_value t = if t.count = 0 then 0 else t.min_v
  let max_value t = if t.count = 0 then 0 else t.max_v
  let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

  (* upper bound of the bucket holding the q-th sample (rank
     ceil(q*n)), clamped to the observed maximum so the top bucket's
     slack never inflates the estimate; p100 is exact *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let target = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
      let acc = ref 0 in
      let res = ref (max_value t) in
      (try
         for i = 0 to n_buckets - 1 do
           acc := !acc + t.buckets.(i);
           if !acc >= target then begin
             let hi = if i = 0 then 0 else (1 lsl i) - 1 in
             res := min hi t.max_v;
             raise Exit
           end
         done
       with Exit -> ());
      !res
    end

  let buckets t =
    let acc = ref [] in
    for i = n_buckets - 1 downto 0 do
      if t.buckets.(i) > 0 then
        let hi = if i = 0 then 0 else (1 lsl i) - 1 in
        acc := (hi, t.buckets.(i)) :: !acc
    done;
    !acc

  let equal a b =
    a.count = b.count && a.sum = b.sum
    && min_value a = min_value b
    && max_value a = max_value b
    && a.buckets = b.buckets

  let pp ppf t =
    Format.fprintf ppf "n=%d sum=%d min=%d max=%d mean=%.1f" t.count t.sum
      (min_value t) (max_value t) (mean t)
end

(* ---- shared sink state -------------------------------------------------- *)

type event = {
  ev_name : string;
  ev_ts : float;
  ev_dur : float;
  ev_tid : int;
  ev_attrs : (string * string) list;
}

let mutex = Mutex.create ()
let events_rev : event list ref = ref []
let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 32
let hists_tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 32

let sample_hook : (string -> (string * float) list -> unit) option ref =
  ref None

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let enable ?tracing:(tr = false) ?metrics:(me = false) () =
  if (tr || me) && not (on ()) then t0 := now ();
  Atomic.set tracing tr;
  Atomic.set metrics me

let disable () =
  Atomic.set tracing false;
  Atomic.set metrics false

let clear () =
  disable ();
  locked (fun () ->
      events_rev := [];
      Hashtbl.reset counters_tbl;
      Hashtbl.reset gauges_tbl;
      Hashtbl.reset hists_tbl);
  sample_hook := None;
  clock := default_clock;
  Atomic.set samples 0;
  t0 := 0.

let tid () = (Domain.self () :> int)

(* ---- request context ---------------------------------------------------- *)

(* The owning request id travels in domain-local storage: the server's
   worker domains (and the portfolio/cube domains they spawn, which
   re-install the context explicitly) are single-threaded, so a DLS
   slot is race-free where it matters.  Reading it is a few loads — no
   lock, no clock — so tagging costs nothing on the disabled path
   (events are only materialized when a sink is on). *)
let request_key : string option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let current_request () = Domain.DLS.get request_key

let with_request rid f =
  let outer = Domain.DLS.get request_key in
  Domain.DLS.set request_key (Some rid);
  Fun.protect ~finally:(fun () -> Domain.DLS.set request_key outer) f

let request_attr ev =
  match Domain.DLS.get request_key with
  | None -> ev
  | Some rid -> { ev with ev_attrs = ("request", rid) :: ev.ev_attrs }

let record ev = locked (fun () -> events_rev := request_attr ev :: !events_rev)

(* ---- metrics ------------------------------------------------------------ *)

module Metrics = struct
  let find_ref tbl name =
    match Hashtbl.find_opt tbl name with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.add tbl name r;
      r

  let incr ?(by = 1) name =
    if metrics_on () then
      locked (fun () ->
          let r = find_ref counters_tbl name in
          r := !r + by)

  let set name v =
    if metrics_on () then locked (fun () -> find_ref gauges_tbl name := v)

  let observe name v =
    if metrics_on () then
      locked (fun () ->
          let h =
            match Hashtbl.find_opt hists_tbl name with
            | Some h -> h
            | None ->
              let h = Hist.create () in
              Hashtbl.add hists_tbl name h;
              h
          in
          Hist.add h v)

  let get_counter name =
    locked (fun () ->
        match Hashtbl.find_opt counters_tbl name with Some r -> !r | None -> 0)

  let get_gauge name =
    locked (fun () -> Option.map ( ! ) (Hashtbl.find_opt gauges_tbl name))

  let get_hist name =
    locked (fun () -> Option.map Hist.copy (Hashtbl.find_opt hists_tbl name))

  let sorted tbl f =
    locked (fun () ->
        Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b))

  let counters () = sorted counters_tbl ( ! )
  let gauges () = sorted gauges_tbl ( ! )
  let hists () = sorted hists_tbl Hist.copy
end

(* ---- spans -------------------------------------------------------------- *)

let us_since_t0 t = (t -. !t0) *. 1e6

let span ?(attrs = []) name f =
  let tr = tracing_on () and me = metrics_on () in
  if not (tr || me) then f ()
  else begin
    let start = now () in
    let finish attrs =
      let stop = now () in
      let dur_us = Float.max 0. ((stop -. start) *. 1e6) in
      if me then Metrics.observe ("span." ^ name ^ ".us") (int_of_float dur_us);
      if tr then
        record
          {
            ev_name = name;
            ev_ts = us_since_t0 start;
            ev_dur = dur_us;
            ev_tid = tid ();
            ev_attrs = attrs;
          }
    in
    match f () with
    | r ->
      finish attrs;
      r
    | exception e ->
      finish (attrs @ [ ("error", Printexc.to_string e) ]);
      raise e
  end

let complete ?(attrs = []) name ~start ~stop =
  let dur_us = Float.max 0. ((stop -. start) *. 1e6) in
  if metrics_on () then Metrics.observe ("span." ^ name ^ ".us") (int_of_float dur_us);
  if tracing_on () then
    record
      {
        ev_name = name;
        ev_ts = us_since_t0 start;
        ev_dur = dur_us;
        ev_tid = tid ();
        ev_attrs = attrs;
      }

let instant ?(attrs = []) name =
  if tracing_on () then
    record
      {
        ev_name = name;
        ev_ts = us_since_t0 (now ());
        ev_dur = -1.;
        ev_tid = tid ();
        ev_attrs = attrs;
      }

let set_sample_hook h = sample_hook := h
let sample_hook_installed () = !sample_hook <> None

let emit_sample name kvs =
  if tracing_on () then
    record
      {
        ev_name = name;
        ev_ts = us_since_t0 (now ());
        ev_dur = -2.;
        ev_tid = tid ();
        ev_attrs = List.map (fun (k, v) -> (k, Printf.sprintf "%g" v)) kvs;
      };
  match !sample_hook with None -> () | Some h -> h name kvs

(* ---- JSON emission ------------------------------------------------------ *)

module Json = Taskalloc_json.Json

let all_events () =
  List.rev !events_rev |> List.stable_sort (fun a b -> compare a.ev_ts b.ev_ts)

let events ?request () =
  let evs = all_events () in
  match request with
  | None -> evs
  | Some rid ->
    List.filter
      (fun ev -> List.assoc_opt "request" ev.ev_attrs = Some rid)
      evs

let request_ids () =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  List.iter
    (fun ev ->
      match List.assoc_opt "request" ev.ev_attrs with
      | Some rid when not (Hashtbl.mem seen rid) ->
        Hashtbl.add seen rid ();
        acc := rid :: !acc
      | _ -> ())
    (all_events ());
  List.rev !acc

(* microseconds to the nanosecond: Chrome trace timestamps need no
   more, and the shorter numbers keep the files readable *)
let us x = Json.Float (Float.round (x *. 1000.) /. 1000.)

let event_json ev =
  let phase =
    if ev.ev_dur >= 0. then [ ("ph", Json.Str "X"); ("dur", us ev.ev_dur) ]
    else if ev.ev_dur = -1. then [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
    else [ ("ph", Json.Str "C") ]
  in
  Json.Obj
    ([
       ("name", Json.Str ev.ev_name);
       ("pid", Json.Int 1);
       ("tid", Json.Int ev.ev_tid);
       ("ts", us ev.ev_ts);
     ]
    @ phase
    @ [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) ev.ev_attrs)) ])

let chrome_trace evs =
  Json.Obj
    [
      ("displayTimeUnit", Json.Str "ms");
      ("traceEvents", Json.List (List.map event_json evs));
    ]

let trace_json ?request () = chrome_trace (events ?request ())

let jsonl () =
  String.concat ""
    (List.map (fun ev -> Json.to_string (event_json ev) ^ "\n") (events ()))

(* ---- flight recorder ---------------------------------------------------- *)

(* A fixed-size ring of recent events that is *always* on: post-mortem
   visibility for a daemon whose crash can't be re-run with tracing
   enabled.  The discipline that keeps it free is that callers supply
   timestamps they already read for other purposes (the server reads
   the wall clock per request for latency accounting regardless of any
   sink) — {!record} itself never touches a clock, so the null-sink
   invariant (zero clock reads while observability is off) survives
   with the recorder compiled in and running.  Appends are O(1): one
   slot store and a bump under a leaf mutex. *)
module Flight = struct
  let fmu = Mutex.create ()
  let ring : event option array ref = ref (Array.make 1024 None)
  let head = ref 0 (* next write slot *)
  let filled = ref 0
  let total_n = ref 0
  let last_ts = ref 0.

  let flocked f =
    Mutex.lock fmu;
    Fun.protect ~finally:(fun () -> Mutex.unlock fmu) f

  let set_capacity n =
    let n = max 1 n in
    flocked (fun () ->
        ring := Array.make n None;
        head := 0;
        filled := 0;
        total_n := 0;
        last_ts := 0.)

  let capacity () = Array.length !ring

  let clear () =
    flocked (fun () ->
        Array.fill !ring 0 (Array.length !ring) None;
        head := 0;
        filled := 0;
        total_n := 0;
        last_ts := 0.)

  (* [ts] is absolute seconds from a clock the caller already read; when
     omitted the event reuses the newest recorded timestamp (ordering is
     preserved, no extra clock read).  [dur] is in seconds; negative
     means an instant. *)
  let record ?ts ?(dur = -1.) ?(attrs = []) name =
    flocked (fun () ->
        let ts =
          match ts with
          | Some t ->
            last_ts := t;
            t
          | None -> !last_ts
        in
        let ev =
          request_attr
            { ev_name = name; ev_ts = ts; ev_dur = dur; ev_tid = tid (); ev_attrs = attrs }
        in
        let cap = Array.length !ring in
        !ring.(!head) <- Some ev;
        head := (!head + 1) mod cap;
        if !filled < cap then incr filled;
        incr total_n)

  let size () = flocked (fun () -> !filled)
  let total () = flocked (fun () -> !total_n)

  (* oldest-first snapshot *)
  let snapshot () =
    flocked (fun () ->
        let cap = Array.length !ring in
        let out = ref [] in
        for i = !filled - 1 downto 0 do
          let slot = ((!head - 1 - i) + (2 * cap)) mod cap in
          match !ring.(slot) with
          | Some ev -> out := ev :: !out
          | None -> ()
        done;
        List.rev !out)

  (* the ring as a Chrome trace; timestamps are rebased to the oldest
     retained event and scaled to microseconds *)
  let dump_json () =
    let evs = snapshot () in
    let t0 = match evs with [] -> 0. | ev :: _ -> ev.ev_ts in
    chrome_trace
      (List.map
         (fun ev ->
           {
             ev with
             ev_ts = Float.max 0. ((ev.ev_ts -. t0) *. 1e6);
             ev_dur = (if ev.ev_dur >= 0. then ev.ev_dur *. 1e6 else -1.);
           })
         evs)
end

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Hist.count h));
      ("sum", Json.Int (Hist.sum h));
      ("min", Json.Int (Hist.min_value h));
      ("max", Json.Int (Hist.max_value h));
      ("mean", Json.Float (Hist.mean h));
      ( "buckets",
        Json.List
          (List.map
             (fun (hi, c) -> Json.Obj [ ("le", Json.Int hi); ("count", Json.Int c) ])
             (Hist.buckets h)) );
    ]

let metrics_json () =
  let obj f l = Json.Obj (List.map (fun (k, v) -> (k, f v)) l) in
  Json.Obj
    [
      ("counters", obj (fun c -> Json.Int c) (Metrics.counters ()));
      ("gauges", obj (fun g -> Json.Int g) (Metrics.gauges ()));
      ("histograms", obj hist_json (Metrics.hists ()));
    ]

let phase_breakdown () =
  List.filter_map
    (fun (name, h) ->
      let n = String.length name in
      if n > 8 && String.sub name 0 5 = "span." && String.sub name (n - 3) 3 = ".us"
      then Some (String.sub name 5 (n - 8), float_of_int (Hist.sum h) /. 1e6)
      else None)
    (Metrics.hists ())

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let write_trace path = write_file path (Json.to_string (trace_json ()) ^ "\n")
let write_jsonl path = write_file path (jsonl ())
let write_metrics path = write_file path (Json.to_string (metrics_json ()) ^ "\n")
