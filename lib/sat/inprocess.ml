(* Scheduler for the solver's inprocessing passes.

   [install] hangs a closure on {!Solver.set_inprocess_hook}; the
   solver invokes it at decision level 0 between restart episodes.  The
   closure runs the three passes — vivification, subsumption/
   self-subsumption, bounded variable elimination — the first time it
   fires (cheap preprocessing) and then again each time [every]
   conflicts have elapsed since the previous run, so the cost is
   amortized against real search effort.  Each pass runs under its own
   [Obs] span with the number of changes recorded as a metric, giving
   per-pass visibility in traces. *)

module Obs = Taskalloc_obs.Obs

let default_every = 3000

let run_passes s =
  let viv =
    Obs.span "inprocess.vivify" (fun () -> Solver.vivify_pass s)
  in
  let sub =
    Obs.span "inprocess.subsume" (fun () -> Solver.subsume_pass s)
  in
  let bve = Obs.span "inprocess.bve" (fun () -> Solver.bve_pass s) in
  if Obs.metrics_on () then begin
    Obs.Metrics.incr "inprocess.runs";
    Obs.Metrics.incr ~by:viv "inprocess.vivified";
    Obs.Metrics.incr ~by:sub "inprocess.subsumed_or_strengthened";
    Obs.Metrics.incr ~by:bve "inprocess.vars_eliminated";
    Obs.Metrics.set "inprocess.eliminated_now" (Solver.n_eliminated s)
  end;
  viv + sub + bve

let install ?(every = default_every) s =
  let last = ref min_int in
  Solver.set_inprocess_hook s
    (Some
       (fun s ->
         let now = Solver.n_conflicts s in
         if !last = min_int || now - !last >= every then begin
           last := now;
           ignore (run_passes s)
         end))
