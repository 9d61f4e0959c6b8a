type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* -- printing ----------------------------------------------------------- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* the shortest of %.15g and %.17g that reads back as the same float;
   %.17g always does *)
let float_repr f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_finite f then Buffer.add_string b (float_repr f)
      else Buffer.add_string b "null"
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          emit v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          emit v)
        kvs;
      Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b

(* -- parsing ------------------------------------------------------------ *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 b u =
    (* minimal UTF-8 encoder for \uXXXX escapes; astral-plane
       codepoints (paired surrogates, resolved by the caller) take the
       4-byte form *)
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3f)))
    end
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let hex = String.sub s !pos 4 in
          (match int_of_string_opt ("0x" ^ hex) with
          | None -> fail "bad \\u escape"
          | Some u when u >= 0xd800 && u <= 0xdbff ->
            (* high surrogate: pair it with an immediately following
               \uDC00-\uDFFF escape into one astral-plane codepoint
               (RFC 8259 §7); a lone surrogate still encodes as-is *)
            pos := !pos + 4;
            let low =
              if !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u' then
                match int_of_string_opt ("0x" ^ String.sub s (!pos + 2) 4) with
                | Some lo when lo >= 0xdc00 && lo <= 0xdfff -> Some lo
                | _ -> None
              else None
            in
            (match low with
            | Some lo ->
              add_utf8 b (0x10000 + ((u - 0xd800) lsl 10) + (lo - 0xdc00));
              pos := !pos + 6
            | None -> add_utf8 b u)
          | Some u ->
            add_utf8 b u;
            pos := !pos + 4)
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        loop ()
      | c ->
        Buffer.add_char b c;
        advance ();
        loop ()
    in
    loop ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_num = ref false in
    let rec scan () =
      match peek () with
      | Some ('0' .. '9' | '.' | 'e' | 'E' | '+' | '-') ->
        is_num := true;
        advance ();
        scan ()
      | _ -> ()
    in
    scan ();
    if not !is_num then fail "bad number";
    let tok = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* -- accessors ---------------------------------------------------------- *)

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function Int i -> Some (float_of_int i) | Float f -> Some f | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
