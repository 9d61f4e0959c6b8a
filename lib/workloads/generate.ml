(* Feasible-by-construction workload generator.

   The concrete task set of Tindell/Burns/Wellings [5] is not available,
   so (as documented in DESIGN.md) we synthesize deterministic task sets
   with the same dimensions and constraint classes: transactions (task
   chains) with messages between consecutive stages, forbidden
   placements (pinned sensors/actuators), replica separation pairs, and
   per-ECU memory capacities.

   Feasibility is guaranteed by a *witness*: the generator first places
   the tasks greedily, routes the messages, sizes the TDMA slots, runs
   the analytical response-time machinery of [taskalloc_rt], and only
   then derives deadlines as (slack x witness response time).  The
   witness is re-checked with the final deadlines; if priority
   reordering broke it, the slack is relaxed and the derivation
   repeated. *)

open Taskalloc_rt

type spec = {
  seed : int;
  chain_lengths : int list; (* tasks per transaction; sum = task count *)
  periods : int list; (* candidate base periods (ticks) *)
  wcet_lo : int;
  wcet_hi : int;
  bytes_lo : int;
  bytes_hi : int;
  pin_fraction : float; (* probability a chain end is pinned to an ECU *)
  n_separations : int; (* replica pairs that must be placed apart *)
  memory_lo : int;
  memory_hi : int;
  mem_headroom : float; (* ECU capacity = used * headroom *)
  slack : float; (* deadline = slack * witness response time *)
  jitter_hi : int; (* max release jitter (0 = none) *)
  blocking_hi : int; (* max blocking factor (0 = none) *)
}

let default_spec =
  {
    seed = 1;
    chain_lengths = [ 3; 4; 3; 4; 3; 4; 4; 4; 3; 4; 4; 3 ] (* 43 tasks, 12 chains *);
    periods = [ 80; 100; 160; 200; 240; 400 ];
    wcet_lo = 2;
    wcet_hi = 8;
    bytes_lo = 1;
    bytes_hi = 6;
    pin_fraction = 0.3;
    n_separations = 3;
    memory_lo = 1;
    memory_hi = 8;
    mem_headroom = 1.6;
    slack = 1.6;
    jitter_hi = 0;
    blocking_hi = 0;
  }

exception Generation_failed of string

(* intermediate mutable task record before deadlines are fixed *)
type proto = {
  mutable p_wcets : (int * int) list;
  p_period : int;
  p_memory : int;
  mutable p_separation : int list;
  mutable p_msgs : (int * int * int) list; (* (msg_id, dst, bytes) *)
  p_jitter : int;
  p_blocking : int;
}

(* Chain-aware witness placement: each transaction is kept on one ECU
   wherever possible so that only pinned sensors/actuators generate bus
   traffic — the communication-minimizing shape a good allocation has.
   Pinned members go to their pin; the remaining members go together to
   the least-loaded ECU admissible for all of them (preferring an ECU a
   chain member is pinned to), falling back to per-task placement when
   separation constraints interfere. *)
let witness_placement protos ~app_ecus ~chains =
  let n = Array.length protos in
  let placement = Array.make n (-1) in
  let load = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace load e 0) app_ecus;
  let admissible_for i =
    List.filter_map
      (fun (e, _) ->
        if
          List.exists (fun j -> placement.(j) = e) protos.(i).p_separation
          || not (List.mem e app_ecus)
        then None
        else Some e)
      protos.(i).p_wcets
  in
  let place i e =
    placement.(i) <- e;
    let c = List.assoc e protos.(i).p_wcets in
    Hashtbl.replace load e (Hashtbl.find load e + (c * 1000 / protos.(i).p_period))
  in
  List.iter
    (fun chain ->
      let pinned, free =
        List.partition (fun i -> List.length protos.(i).p_wcets = 1) chain
      in
      List.iter
        (fun i ->
          match admissible_for i with
          | e :: _ -> place i e
          | [] -> raise (Generation_failed "pinned task cannot be placed"))
        pinned;
      (* candidate home for the free members: prefer a pin of this chain *)
      let pin_ecus =
        List.filter_map
          (fun i -> if placement.(i) >= 0 then Some placement.(i) else None)
          pinned
      in
      let common =
        match free with
        | [] -> []
        | first :: rest ->
          List.fold_left
            (fun acc i -> List.filter (fun e -> List.mem e (admissible_for i)) acc)
            (admissible_for first) rest
      in
      let ranked =
        List.sort
          (fun a b ->
            let pa = if List.mem a pin_ecus then 0 else 1
            and pb = if List.mem b pin_ecus then 0 else 1 in
            if pa <> pb then Int.compare pa pb
            else Int.compare (Hashtbl.find load a) (Hashtbl.find load b))
          common
      in
      match ranked with
      | home :: _ -> List.iter (fun i -> place i home) free
      | [] ->
        (* no common home: place members individually *)
        List.iter
          (fun i ->
            match
              List.sort
                (fun a b -> Int.compare (Hashtbl.find load a) (Hashtbl.find load b))
                (admissible_for i)
            with
            | [] -> raise (Generation_failed "witness placement impossible")
            | e :: _ -> place i e)
          free)
    chains;
  placement

let generate ?(spec = default_spec) (arch : Model.arch) : Model.problem =
  let app_ecus = Archs.app_ecus arch in
  let rec attempt seed slack tries =
    if tries <= 0 then
      raise (Generation_failed "could not derive a feasible workload");
    let rng = Rng.create seed in
    let n_tasks = List.fold_left ( + ) 0 spec.chain_lengths in
    (* 1. raw tasks, chain by chain *)
    let protos = Array.make n_tasks
        {
          p_wcets = [];
          p_period = 1;
          p_memory = 1;
          p_separation = [];
          p_msgs = [];
          p_jitter = 0;
          p_blocking = 0;
        }
    in
    let chains = ref [] in
    let next_task = ref 0 and next_msg = ref 0 in
    List.iter
      (fun len ->
        let period = Rng.pick rng spec.periods in
        let members = ref [] in
        for stage = 0 to len - 1 do
          let i = !next_task in
          incr next_task;
          members := i :: !members;
          let base = Rng.range rng spec.wcet_lo spec.wcet_hi in
          (* per-ECU heterogeneity: +-25% *)
          let wcets =
            List.map
              (fun e ->
                let v = base + Rng.range rng 0 (max 1 (base / 4)) - (base / 8) in
                (e, max 1 v))
              app_ecus
          in
          (* pin chain endpoints to model sensors/actuators *)
          let wcets =
            if (stage = 0 || stage = len - 1) && Rng.bool rng spec.pin_fraction then begin
              let e = Rng.pick rng app_ecus in
              [ (e, List.assoc e wcets) ]
            end
            else wcets
          in
          protos.(i) <-
            {
              p_wcets = wcets;
              p_period = period;
              p_memory = Rng.range rng spec.memory_lo spec.memory_hi;
              p_separation = [];
              p_msgs = [];
              p_jitter = (if spec.jitter_hi > 0 then Rng.range rng 0 spec.jitter_hi else 0);
              p_blocking =
                (if spec.blocking_hi > 0 then Rng.range rng 0 spec.blocking_hi else 0);
            }
        done;
        let members = List.rev !members in
        chains := members :: !chains;
        (* messages along the chain *)
        let rec link = function
          | a :: (b :: _ as rest) ->
            let id = !next_msg in
            incr next_msg;
            protos.(a).p_msgs <-
              protos.(a).p_msgs @ [ (id, b, Rng.range rng spec.bytes_lo spec.bytes_hi) ];
            link rest
          | _ -> ()
        in
        link members)
      spec.chain_lengths;
    (* 2. separation pairs: replicas drawn from different chains *)
    let chains = List.rev !chains in
    let rec add_separations k guard =
      if k > 0 && guard > 0 then begin
        let c1 = Rng.pick rng chains and c2 = Rng.pick rng chains in
        if c1 != c2 then begin
          let a = Rng.pick rng c1 and b = Rng.pick rng c2 in
          (* both tasks need at least two admissible ECUs each *)
          if
            List.length protos.(a).p_wcets > 1
            && List.length protos.(b).p_wcets > 1
            && (not (List.mem b protos.(a).p_separation))
          then begin
            protos.(a).p_separation <- b :: protos.(a).p_separation;
            protos.(b).p_separation <- a :: protos.(b).p_separation;
            add_separations (k - 1) (guard - 1)
          end
          else add_separations k (guard - 1)
        end
        else add_separations k (guard - 1)
      end
    in
    add_separations spec.n_separations 100;
    (* 3. witness placement *)
    match witness_placement protos ~app_ecus ~chains with
    | exception Generation_failed _ -> attempt (seed + 7919) slack (tries - 1)
    | placement ->
      (* 4. provisional problem with deadlines = periods *)
      let build_tasks deadline_of msg_deadline_of =
        Array.to_list
          (Array.mapi
             (fun i proto ->
               {
                 Model.task_id = i;
                 task_name = Printf.sprintf "t%02d" i;
                 period = proto.p_period;
                 wcets = proto.p_wcets;
                 deadline = deadline_of i;
                 memory = proto.p_memory;
                 separation = proto.p_separation;
                 jitter = proto.p_jitter;
                 blocking = proto.p_blocking;
                 criticality = 0;
                 messages =
                   List.map
                     (fun (id, dst, bytes) ->
                       {
                         Model.msg_id = id;
                         src = i;
                         dst;
                         bytes;
                         msg_deadline = msg_deadline_of id;
                       })
                     proto.p_msgs;
               })
             protos)
      in
      let witness_alloc problem =
        try Routing.complete problem placement
        with Routing.No_route _ -> raise (Generation_failed "witness route missing")
      in
      (* provisional analysis with deadlines = periods *)
      let provisional =
        Model.make_problem ~arch
          ~tasks:(build_tasks (fun i -> protos.(i).p_period) (fun _ -> 1_000_000))
      in
      let alloc = witness_alloc provisional in
      let task_r = Analysis.all_task_response_times provisional alloc in
      let msgs = Model.all_messages provisional in
      let msg_latency =
        Array.map
          (fun m ->
            match Analysis.message_end_to_end provisional alloc m with
            | Some (_, l) -> Some l
            | None -> None)
          msgs
      in
      let ok =
        Array.for_all Option.is_some task_r && Array.for_all Option.is_some msg_latency
      in
      if not ok then attempt (seed + 7919) slack (tries - 1)
      else begin
        let scale x = int_of_float (ceil (slack *. float_of_int x)) in
        let deadline_of i =
          (* the checker demands r + J <= d: reserve the jitter *)
          min protos.(i).p_period
            (protos.(i).p_jitter + max 1 (scale (Option.get task_r.(i))))
        in
        let msg_deadline_of id =
          let m = msgs.(id) in
          let sender_period = protos.(m.Model.src).p_period in
          min sender_period (max 2 (scale (max 1 (Option.get msg_latency.(id)))))
        in
        (* memory capacities from witness usage *)
        let mem_capacity = Array.make arch.Model.n_ecus max_int in
        List.iter
          (fun e ->
            let used =
              Array.to_list protos
              |> List.mapi (fun i p -> if placement.(i) = e then p.p_memory else 0)
              |> List.fold_left ( + ) 0
            in
            mem_capacity.(e) <-
              max 1 (int_of_float (ceil (spec.mem_headroom *. float_of_int used))))
          app_ecus;
        let arch = { arch with Model.mem_capacity } in
        let problem = Model.make_problem ~arch ~tasks:(build_tasks deadline_of msg_deadline_of) in
        (* 5. final verification of the witness under the real deadlines *)
        let alloc = witness_alloc problem in
        if Check.is_feasible problem alloc then problem
        else attempt (seed + 104729) (slack *. 1.25) (tries - 1)
      end
  in
  attempt spec.seed spec.slack 25
