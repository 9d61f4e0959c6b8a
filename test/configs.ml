(* Explicit encoder configurations.  [Encode.default_options] is eager
   with no inprocessing; suites whose cases go through it register
   their encoding-sensitive cases again under the lazy and the
   inprocessing configuration, named "<case> (lazy)" and
   "<case> (inprocess)". *)

module Encode = Taskalloc_core.Encode

let lazy_ = { Encode.default_options with Encode.lazy_mode = true }
let inprocess = { Encode.default_options with Encode.inprocess = Some true }

let tagged tag cases =
  List.map (fun (name, speed, f) -> (Printf.sprintf "%s (%s)" name tag, speed, f)) cases

(* [cases options] under each non-default configuration *)
let variants cases = tagged "lazy" (cases lazy_) @ tagged "inprocess" (cases inprocess)
