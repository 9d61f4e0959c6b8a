(** The one JSON codec of the library.

    The toolchain carries no JSON library.  Every JSON document the
    project reads or writes goes through this module: the daemon's
    newline-delimited wire protocol (requests parsed, responses
    printed), the CLIs' [--json] answers (explanation reports, what-if
    verdicts, repair outcomes), and the observability files (Chrome
    traces, JSONL event logs, metrics snapshots, flight-recorder
    dumps).  Emitters build a {!t} and print it with {!to_string};
    readers, the tests included, go through {!parse}.  The module is
    deliberately small (exactly the JSON subset those documents use)
    and depends on nothing, so it sits at the bottom of the library
    graph. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse one JSON document.  Trailing whitespace is allowed; trailing
    garbage is not.  Raises {!Parse_error} with an offset-bearing
    message.  Numbers without ['.'], ['e'] or ['E'] parse as {!Int}
    (falling back to {!Float} on overflow); [\uXXXX] escapes decode to
    UTF-8, pairing UTF-16 surrogates ([😀] is U+1F600, one
    4-byte sequence; a lone surrogate decodes as-is). *)

val to_string : t -> string
(** Serialize on one line (no newlines are ever emitted, so a document
    is always wire-safe for the newline-delimited protocol).  A finite
    float prints with [%.15g], or with [%.17g] when the shorter form
    would not read back as the same float, so {!parse} recovers it
    exactly; an integral float may print without a ['.'] and then
    parses back as {!Int} ({!to_float} accepts both).  Non-finite
    floats serialize as [null]. *)

val member : string -> t -> t
(** Field of an object; {!Null} when absent or when the value is not
    an object. *)

val to_str : t -> string option
val to_int : t -> int option
(** Accepts integral {!Float}s too (a client may send [5.0]). *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option

val escape : string -> string
(** Escape for inclusion inside a JSON string literal (no quotes
    added). *)
