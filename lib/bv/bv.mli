(** Bounded non-negative integer arithmetic over the SAT/PB layer.

    This is the §5.1 pipeline of the paper: every arithmetic constraint
    is decomposed gate-by-gate into triplets, integer variables get a
    logarithmic-size bit representation whose width follows their
    tracked upper bound, and operators are axiomatized over the bits
    (full-adder carries as pseudo-Boolean constraints).

    All terms denote naturals; every term carries a conservative upper
    bound [hi] used for width inference.  Comparisons are {e reified}:
    they return a {!bit} that can be asserted, combined, or used as a
    guard. *)

open Taskalloc_pb

type ctx
(** An encoding context owning a solver and the PB mode. *)

type t
(** An integer term: little-endian bits plus an upper bound. *)

type bit = Circuits.bit

(** [create ?mode ?inprocess ()] builds a fresh context.  With
    [inprocess] (default [false]) the solver runs CDCL inprocessing
    ({!Taskalloc_sat.Inprocess.install}). *)
val create : ?mode:Pb.mode -> ?inprocess:bool -> unit -> ctx
val solver : ctx -> Taskalloc_sat.Solver.t
val upper_bound : t -> int

(** {1 Term construction} *)

val const : int -> t
(** Constant term; the argument must be non-negative. *)

val zero : t

val var : ctx -> hi:int -> t
(** Fresh integer variable constrained to [[0, hi]]. *)

val fresh_bool : ctx -> bit

(** {1 Boolean structure} *)

val btrue : bit
val bfalse : bit
val bnot : bit -> bit
val band : ctx -> bit -> bit -> bit
val bor : ctx -> bit -> bit -> bit
val bxor : ctx -> bit -> bit -> bit
val biff : ctx -> bit -> bit -> bit
val bimplies : ctx -> bit -> bit -> bit
val band_list : ctx -> bit list -> bit
val bor_list : ctx -> bit list -> bit

val assert_ : ctx -> bit -> unit
(** Assert a wire at the top level. *)

val assert_implies : ctx -> bit list -> bit -> unit
(** [assert_implies ctx antecedents b]: assert
    [antecedent_1 /\ ... -> b]. *)

(** {1 Arithmetic} *)

val add : ctx -> t -> t -> t
val sum : ctx -> t list -> t
val mul_const : ctx -> int -> t -> t

val mul : ctx -> t -> t -> t
(** Full nonlinear product (both factors symbolic). *)

val sub_asserting : ctx -> t -> t -> t
(** [sub_asserting ctx a b] is [a - b], {e asserting} [b <= a] as a side
    constraint. *)

val ite : ctx -> bit -> t -> t -> t
(** Integer multiplexer. *)

val with_hi : t -> int -> t
(** Tighten the tracked bound (no constraint emitted). *)

(** {1 Comparisons (reified)} *)

val le : ctx -> t -> t -> bit
val lt : ctx -> t -> t -> bit
val ge : ctx -> t -> t -> bit
val gt : ctx -> t -> t -> bit
val eq : ctx -> t -> t -> bit
val ne : ctx -> t -> t -> bit
val le_const : ctx -> t -> int -> bit
val ge_const : ctx -> t -> int -> bit
val eq_const : ctx -> t -> int -> bit

(** {1 Selectors} *)

val one_hot : ctx -> int -> bit array
(** Fresh one-hot selector: exactly one of the returned bits is true in
    any model. *)

val select_const : ctx -> bit array -> int array -> t
(** The constant selected by a one-hot vector, encoded without
    multipliers (the WCET selection of eq. 5). *)

val assert_pb_le : ?guard:bit -> ctx -> (int * bit) list -> int -> unit
(** Linear pseudo-Boolean [sum a_i * bit_i <= bound] over wires (memory
    capacities, utilization sums).  With [~guard:g] the constraint is
    conditional — [g -> sum <= bound] — encoded as a single PB
    constraint with a big-M slack term on [not g], so it participates
    in native PB propagation instead of being clausified.  A false (or
    [Zero]) guard asserts nothing. *)

(** {1 Model inspection} *)

val model_int : ctx -> t -> int
val model_bool : ctx -> bit -> bool

(** {1 Statistics} *)

val n_bool_vars : ctx -> int
val n_literals : ctx -> int
val n_int_vars : ctx -> int
