(* Workload inputs.

   The instances are the 12-task task set on the hierarchical
   architectures A, B and C of the paper's Table 4, generated at a fixed
   generator seed.  Each solve op receives one of five fixed task
   relabelings of its architecture's instance (tasks declared in a
   permuted order, messages and separation sets renumbered to match):
   a relabeling leaves the optimum unchanged but changes the variable
   order the encoder hands to the solver, so a run averages the
   solver's order sensitivity instead of timing one lucky or unlucky
   order.  The daemon workloads draw their what-if deltas and
   disruption events from a fixed pool in the same way.

   The run's seed decides the order in which the ops visit these
   inputs, and nothing about which inputs exist.  Inputs drawn afresh
   per seed would make the figures depend on the draw: at 12 tasks,
   solve time differs up to 30x between generator seeds, and even with
   180 relabelings drawn per run the median of solve-lazy moved by a
   quarter between seeds. *)

open Taskalloc_rt
module Workloads = Taskalloc_workloads.Workloads

let instance_seed = 42
let n_tasks = 12
let archs = [| Workloads.A; Workloads.B; Workloads.C |]

let base arch =
  Workloads.hierarchical ~seed:instance_seed ~n_tasks archs.(arch)

(* the problem with its tasks declared in [order] (old ids in their new
   positions); separation sets, message endpoints and message ids are
   renumbered so the result is the same system under new labels *)
let permute_tasks order (p : Model.problem) =
  let tasks = p.Model.tasks in
  let new_of_old = Array.make (Array.length tasks) (-1) in
  Array.iteri (fun new_id old_id -> new_of_old.(old_id) <- new_id) order;
  let next_msg = ref 0 in
  let tasks' =
    Array.to_list order
    |> List.mapi (fun new_id old_id ->
           let t = tasks.(old_id) in
           {
             t with
             Model.task_id = new_id;
             separation = List.map (fun s -> new_of_old.(s)) t.Model.separation;
             messages =
               List.map
                 (fun msg ->
                   let id = !next_msg in
                   incr next_msg;
                   {
                     msg with
                     Model.msg_id = id;
                     src = new_of_old.(msg.Model.src);
                     dst = new_of_old.(msg.Model.dst);
                   })
                 t.Model.messages;
           })
  in
  Model.make_problem ~arch:p.Model.arch ~tasks:tasks'

let rng ~seed ~stream k = Random.State.make [| seed; stream; k |]

let shuffle st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* -- solve workloads ----------------------------------------------------- *)

let relabelings = 5

(* a seeded permutation of [0, n) *)
let order ~seed ~stream n = shuffle (rng ~seed ~stream 0) n

(* op [i] solves architecture [i mod 3], so the architectures rotate A,
   B, C in equal shares; within an architecture, successive ops walk
   its relabelings in an order drawn from the run's seed.  The pool
   holds one full walk, as .prob text. *)
let solve_pool ~seed =
  let texts =
    Array.init (Array.length archs) (fun arch ->
        let p = base arch in
        Array.init relabelings (fun k ->
            let perm = shuffle (rng ~seed:instance_seed ~stream:(10 + arch) k) n_tasks in
            Problem_file.to_string (permute_tasks perm p)))
  in
  let walks =
    Array.init (Array.length archs) (fun arch ->
        order ~seed ~stream:(10 + arch) relabelings)
  in
  Array.init (3 * relabelings) (fun i ->
      let arch = i mod 3 in
      (arch, texts.(arch).(walks.(arch).(i / 3))))

(* -- daemon workloads ---------------------------------------------------- *)

(* the session instance: the unrelabeled architecture-B task set *)
let service_arch = 1

type delta =
  | Pin of int * int  (** task, ECU *)
  | Forbid of int * int
  | Deadline of int * int  (** task, tightened deadline *)

let delta_spec = function
  | Pin (t, e) -> Printf.sprintf "pin %d %d" t e
  | Forbid (t, e) -> Printf.sprintf "forbid %d %d" t e
  | Deadline (t, d) -> Printf.sprintf "deadline %d %d" t d

let admissible (p : Model.problem) t =
  List.filter
    (fun e -> not (List.mem e p.Model.arch.Model.barred))
    (List.map fst p.Model.tasks.(t).Model.wcets)

let pick st l = List.nth l (Random.State.int st (List.length l))

(* the pool of [count] what-if deltas: a pin or forbid on one of the
   task's admissible ECUs, or its deadline tightened to 60-99% *)
let deltas ~count (p : Model.problem) =
  let n = Array.length p.Model.tasks in
  Array.init count (fun k ->
      let st = rng ~seed:instance_seed ~stream:2 k in
      let t = Random.State.int st n in
      match Random.State.int st 3 with
      | 0 -> Pin (t, pick st (admissible p t))
      | 1 -> Forbid (t, pick st (admissible p t))
      | _ ->
        let d = p.Model.tasks.(t).Model.deadline in
        Deadline (t, max 1 (d * (60 + Random.State.int st 40) / 100)))

(* the pool index that op [i] of a session asks, counting the warm-up
   pass: each pass of [n] ops asks every delta once, in an order drawn
   from the seed afresh for each pass.  A warm session carries its
   solver state from query to query, so how long a delta takes depends
   on the deltas asked before it; with one order repeated every pass,
   that order's cheap and dear queries would be the same throughout a
   run and its percentiles would move with the seed. *)
let delta_walk ~seed n =
  let orders = Hashtbl.create 32 in
  fun i ->
    let pass = i / n in
    let o =
      match Hashtbl.find_opt orders pass with
      | Some o -> o
      | None ->
        let o = shuffle (rng ~seed ~stream:2 pass) n in
        Hashtbl.add orders pass o;
        o
    in
    o.(i mod n)

(* [count] disruption events in the scenario grammar, in the seed's
   order: an ECU failure, a WCET overrun to 105-150%, or a bus slowed
   to 150-300% byte time *)
let events ~seed ~count (p : Model.problem) =
  let arch = p.Model.arch in
  let ecus =
    List.filter
      (fun e -> not (List.mem e arch.Model.barred))
      (List.init arch.Model.n_ecus Fun.id)
  in
  let walk = order ~seed ~stream:3 count in
  Array.init count (fun i ->
      let st = rng ~seed:instance_seed ~stream:3 walk.(i) in
      match Random.State.int st 3 with
      | 0 -> Printf.sprintf "fail-ecu %d" (pick st ecus)
      | 1 ->
        let t = p.Model.tasks.(Random.State.int st (Array.length p.Model.tasks)) in
        Printf.sprintf "wcet %s %d" t.Model.task_name (105 + Random.State.int st 46)
      | _ ->
        let med = pick st arch.Model.media in
        Printf.sprintf "degrade-bus %s %d" med.Model.med_name
          (150 + Random.State.int st 151))
