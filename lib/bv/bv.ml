(* Bounded non-negative integer arithmetic compiled to the PB/SAT layer.

   This is the paper's §5.1 pipeline: arithmetic constraints are
   decomposed gate-by-gate into "triplets" (each circuit gate relates at
   most three variables through one operator), integer variables get a
   2's-complement — here: unsigned, since the task-allocation encoding
   only ever needs naturals — logarithmic-size bit representation, and
   the arithmetic operators are axiomatized over those bits, with
   full-adder carries expressed as pseudo-Boolean constraints (eq. 19).

   Every term carries its inferred upper bound [hi]; widths follow the
   bound so formulas stay small.  Response-time variables bounded by
   deadlines, preemption counters bounded by ceil(d/t), etc., all flow
   through this interface. *)

open Taskalloc_sat
open Taskalloc_pb

type ctx = {
  solver : Solver.t;
  mode : Pb.mode;
  mutable n_int_vars : int;
}

(* An integer term: little-endian bits plus a conservative upper bound. *)
type t = { bits : Circuits.bit array; hi : int }

type bit = Circuits.bit

let create ?(mode = Pb.Native) ?(inprocess = false) () =
  let solver = Solver.create () in
  if inprocess then Inprocess.install solver;
  { solver; mode; n_int_vars = 0 }

let solver ctx = ctx.solver
let upper_bound t = t.hi

(* -- construction ----------------------------------------------------- *)

let const n =
  assert (n >= 0);
  { bits = Circuits.bits_of_int (Circuits.width_for n) n; hi = n }

let zero = const 0

(* Fresh integer variable ranging over [0, hi]. *)
let var ctx ~hi =
  assert (hi >= 0);
  ctx.n_int_vars <- ctx.n_int_vars + 1;
  let w = Circuits.width_for hi in
  let bits = Array.init w (fun _ -> Circuits.Lit (Circuits.fresh ctx.solver)) in
  (* restrict to the exact range when hi is not of the form 2^w - 1 *)
  if hi <> (1 lsl w) - 1 then begin
    let bound = Circuits.bits_of_int w hi in
    Circuits.assert_bit ctx.solver (Circuits.ule ctx.solver bits bound)
  end;
  { bits; hi }

let fresh_bool ctx = Circuits.Lit (Circuits.fresh ctx.solver)

(* -- boolean structure (re-exported with the context threaded) -------- *)

let btrue = Circuits.One
let bfalse = Circuits.Zero
let bnot = Circuits.bnot
let band ctx a b = Circuits.and2 ctx.solver a b
let bor ctx a b = Circuits.or2 ctx.solver a b
let bxor ctx a b = Circuits.xor2 ctx.solver a b
let biff ctx a b = Circuits.iff2 ctx.solver a b
let bimplies ctx a b = Circuits.implies2 ctx.solver a b
let band_list ctx bs = Circuits.and_list ctx.solver bs
let bor_list ctx bs = Circuits.or_list ctx.solver bs

let assert_ ctx b = Circuits.assert_bit ctx.solver b

(* [antecedents -> conclusion] asserted clausally. *)
let assert_implies ctx antecedents conclusion =
  Circuits.assert_implies ctx.solver antecedents conclusion

(* -- arithmetic --------------------------------------------------------- *)

let add ctx a b =
  { bits = Circuits.ripple_add ctx.solver a.bits b.bits; hi = a.hi + b.hi }

let sum ctx = function
  | [] -> zero
  | ts ->
    {
      bits = Circuits.sum_vectors ctx.solver (List.map (fun t -> t.bits) ts);
      hi = List.fold_left (fun acc t -> acc + t.hi) 0 ts;
    }

let mul_const ctx k t =
  assert (k >= 0);
  { bits = Circuits.mul_const ctx.solver k t.bits; hi = k * t.hi }

let mul ctx a b =
  { bits = Circuits.mul ctx.solver a.bits b.bits; hi = a.hi * b.hi }

(* -- comparisons (reified) ---------------------------------------------- *)

let le ctx a b = Circuits.ule ctx.solver a.bits b.bits
let lt ctx a b = Circuits.ult ctx.solver a.bits b.bits
let ge ctx a b = Circuits.uge ctx.solver a.bits b.bits
let gt ctx a b = Circuits.ugt ctx.solver a.bits b.bits
let eq ctx a b = Circuits.equal_vec ctx.solver a.bits b.bits
let ne ctx a b = bnot (eq ctx a b)

let le_const ctx t n = le ctx t (const n)
let ge_const ctx t n = ge ctx t (const n)
let eq_const ctx t n = eq ctx t (const n)

(* -- derived forms ------------------------------------------------------ *)

(* Subtraction [a - b], asserting [b <= a] as a side condition: a fresh
   difference d with d + b = a.  The caller must ensure the model indeed
   wants b <= a (e.g. a slot inside its TDMA round). *)
let sub_asserting ctx a b =
  let d = var ctx ~hi:a.hi in
  let s = add ctx d b in
  assert_ ctx (eq ctx s a);
  d

(* Multiplexer on integers: [if c then a else b]. *)
let ite ctx c a b =
  let w = max (Array.length a.bits) (Array.length b.bits) in
  let bits =
    Array.init w (fun i ->
        Circuits.mux ctx.solver c (Circuits.bit_at a.bits i)
          (Circuits.bit_at b.bits i))
  in
  { bits; hi = max a.hi b.hi }

(* Tighten a term's tracked bound (no constraint emitted). *)
let with_hi t hi = { t with hi = min t.hi hi }

(* -- one-hot selector helpers ------------------------------------------- *)

(* A fresh one-hot selector over [n] alternatives; returns the selector
   bits.  Exactly one is true in any model. *)
let one_hot ctx n =
  assert (n > 0);
  let lits = List.init n (fun _ -> Circuits.fresh ctx.solver) in
  Pb.add_exactly_one ~mode:ctx.mode ctx.solver lits;
  Array.of_list (List.map Circuits.of_lit lits)

(* The integer value selected by a one-hot vector from constants:
   sum_i sel_i * value_i, encoded without multipliers. *)
let select_const ctx sel values =
  assert (Array.length sel = Array.length values);
  let hi = Array.fold_left max 0 values in
  let w = Circuits.width_for hi in
  let bits =
    Array.init w (fun bit_idx ->
        (* this result bit is the OR of selectors whose value has the bit *)
        let contributors = ref [] in
        Array.iteri
          (fun i v ->
            if (v lsr bit_idx) land 1 = 1 then contributors := sel.(i) :: !contributors)
          values;
        bor_list ctx !contributors)
  in
  { bits; hi }

(* -- PB bridging --------------------------------------------------------- *)

(* Assert a linear PB constraint over boolean bits directly (used for
   cost functions that are linear in selector bits, e.g. memory
   capacities and utilization sums). *)
let assert_pb_le ?guard ctx terms bound =
  let terms =
    List.filter_map
      (fun (a, b) ->
        match b with
        | Circuits.Zero -> None
        | Circuits.One -> Some (a, None)
        | Circuits.Lit l -> Some (a, Some l))
      terms
  in
  let const_part =
    List.fold_left (fun acc (a, b) -> if b = None then acc + a else acc) 0 terms
  in
  let lits = List.filter_map (fun (a, b) -> Option.map (fun l -> (a, l)) b) terms in
  let k = bound - const_part in
  match guard with
  | None | Some Circuits.One -> Pb.add_leq ~mode:ctx.mode ctx.solver lits k
  | Some Circuits.Zero -> ()
  | Some (Circuits.Lit g) ->
    (* [g -> sum a_i l_i <= k] as one PB constraint via a big-M term:
       [sum a_i l_i + M*g <= k + M] with [M = total - k], trivially true
       when [g] is false and exactly the original bound when true *)
    let total = List.fold_left (fun acc (a, _) -> acc + a) 0 lits in
    if k < 0 then Solver.add_clause ctx.solver [ Lit.neg g ]
    else if total > k then
      Pb.add_leq ~mode:ctx.mode ctx.solver ((total - k, g) :: lits) total

(* -- model extraction --------------------------------------------------- *)

let model_int ctx t = Circuits.model_int ctx.solver t.bits
let model_bool ctx b = Circuits.model_bit ctx.solver b

(* -- statistics ---------------------------------------------------------- *)

let n_bool_vars ctx = Solver.n_vars ctx.solver
let n_literals ctx = Solver.n_literals ctx.solver
let n_int_vars ctx = ctx.n_int_vars
