(* One benchmark run: set up a workload, time its ops for a fixed
   number of seconds, check every answer, and print the run context
   followed by the one-line JSON result.  See README.md.

   usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--ops N] --daemon PATH --workdir DIR

   --ops N is smoke mode: exactly N timed ops after a single set-up. *)

open Common

let workloads =
  [
    ("solve-lazy", Solve_load.run);
    ("service-whatif", Service_load.run);
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N] \
     --daemon PATH --workdir DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub key 2 (String.length key - 2)) value;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let ops = Option.map int_of_string (Hashtbl.find_opt tbl "ops") in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = int "trace" <> 0;
    ops;
    setup_reps = (if ops = None then 3 else 1);
    daemon = get "daemon";
    workdir = get "workdir";
  }

let () =
  let cfg = parse_args () in
  match List.assoc_opt cfg.workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" cfg.workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some run ->
    let r, lat, inputs = run cfg in
    print_endline (context_json cfg ~ops:r.attempted ~lat ~inputs);
    print_endline (result_json r)
