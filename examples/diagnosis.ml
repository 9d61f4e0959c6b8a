(* Infeasibility diagnosis: when no allocation exists, the explanation
   engine names the constraint groups that conflict and the smallest
   sets of groups whose removal restores feasibility.

   The system below over-commits ECU memory: four 8-unit controllers
   must share two 12-unit ECUs.  Placement, deadlines and the bus are
   all fine — only the memory budget is impossible — and the diagnosis
   names exactly the two capacities.

   Run with:  dune exec examples/diagnosis.exe *)

open Taskalloc_rt
open Taskalloc_core
module Explain = Taskalloc_explain.Explain

let () =
  let arch =
    {
      Model.n_ecus = 2;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind = Model.Tdma;
            ecus = [ 0; 1 ];
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = [| 12; 12 |];
      gateway_service = 0;
      barred = [];
    }
  in
  let controller id =
    {
      Model.task_id = id;
      task_name = Printf.sprintf "ctrl%d" id;
      period = 100;
      wcets = [ (0, 6); (1, 6) ];
      deadline = 80;
      memory = 8;
      separation = [];
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = 0;
    }
  in
  let problem = Model.make_problem ~arch ~tasks:(List.init 4 controller) in
  Fmt.pr "4 tasks x 8 memory units onto 2 ECUs x 12 units...@.";
  match Allocator.solve problem Encode.Feasible with
  | Allocator.Solved _ | Allocator.Unknown -> Fmt.pr "unexpectedly feasible?!@."
  | Allocator.Infeasible -> (
    Fmt.pr "infeasible, as expected.  explaining:@.";
    let report = Explain.explain problem in
    Fmt.pr "%a@." Explain.pp_report report;
    (* act on the diagnosis: double the capacities of the first
       correction set and optimize again *)
    match report.Explain.relaxations with
    | [] -> Fmt.pr "no correction set found?!@."
    | set :: _ -> (
      let mem_capacity = Array.copy arch.Model.mem_capacity in
      List.iter
        (fun g ->
          match g.Encode.kind with
          | Encode.G_capacity e -> mem_capacity.(e) <- 2 * mem_capacity.(e)
          | _ -> ())
        set;
      let fixed =
        Model.make_problem ~arch:{ arch with Model.mem_capacity }
          ~tasks:(List.init 4 controller)
      in
      match Allocator.solve fixed Encode.Min_max_util with
      | Allocator.Solved r ->
        Fmt.pr "@.with that capacity doubled, the optimal worst-ECU utilization \
                is %d permille:@."
          r.Allocator.cost;
        Fmt.pr "%a" Report.pp (Report.make fixed r.allocation)
      | Allocator.Infeasible | Allocator.Unknown -> Fmt.pr "still infeasible?!@."))
