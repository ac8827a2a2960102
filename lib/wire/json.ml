type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Assoc of (string * t) list

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Bytes of a string literal: 1 for a byte written as itself, 2 for a
   backslash escape, 6 for a control byte's \u escape. *)
let char_length c =
  match c with
  | '"' | '\\' | '\n' | '\r' | '\t' | '\b' | '\012' -> 2
  | c when Char.code c < 0x20 -> 6
  | _ -> 1

(* The \u escapes of the 32 control bytes, six bytes each: escaping
   formats nothing. *)
let control_escapes = "\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\\u0009\\u000a\\u000b\\u000c\\u000d\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"

let add_escape buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c -> Buffer.add_substring buf control_escapes (6 * Char.code c) 6

(* Runs of bytes that need no escape are copied whole. *)
let rec add_from buf s start i =
  if i = String.length s then Buffer.add_substring buf s start (i - start)
  else
    let c = String.unsafe_get s i in
    if char_length c = 1 then add_from buf s start (i + 1)
    else begin
      Buffer.add_substring buf s start (i - start);
      add_escape buf c;
      add_from buf s (i + 1) (i + 1)
    end

let add_string buf s =
  Buffer.add_char buf '"';
  add_from buf s 0 0;
  Buffer.add_char buf '"'

(* Digits of [m <= 0], written on the non-positive side, where [min_int]
   has a magnitude. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

(* The primitive [Printf] formats floats with, called with the same
   formats: the same bytes, without building a format closure. *)
external format_float : string -> float -> string = "caml_format_float"

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else format_float "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

let rec write_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as j -> write buf j
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        write_pretty buf (indent + 2) item)
      items;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf ']'
  | Assoc [] -> Buffer.add_string buf "{}"
  | Assoc fields ->
    let pad = String.make indent ' ' and pad' = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad';
        add_string buf k;
        Buffer.add_string buf ": ";
        write_pretty buf (indent + 2) v)
      fields;
    Buffer.add_char buf '\n';
    Buffer.add_string buf pad;
    Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 256 in
  write_pretty buf 0 j;
  Buffer.contents buf

(* Lengths of the compact text, counted without writing it: a string's
   escapes, an int's digits and sign.  Only a float formats its literal
   to measure it. *)
let rec escaped_from s i acc =
  if i = String.length s then acc
  else escaped_from s (i + 1) (acc + char_length (String.unsafe_get s i))

let string_length s = escaped_from s 0 2

let rec digits m k = if m > -10 then k else digits (m / 10) (k + 1)

(* Counted on the non-positive side, where [min_int] has a magnitude. *)
let int_length i = if i < 0 then digits i 2 else digits (-i) 1
let float_length f = String.length (float_literal f)

let rec wire_size = function
  | Null -> 4
  | Bool b -> if b then 4 else 5
  | Int i -> int_length i
  | Float f -> float_length f
  | String s -> string_length s
  | List [] | Assoc [] -> 2
  | List items -> 1 + items_size items 0
  | Assoc fields -> 1 + fields_size fields 0

(* Each item with the comma or bracket after it. *)
and items_size l acc = match l with [] -> acc | j :: rest -> items_size rest (acc + wire_size j + 1)

and fields_size l acc =
  match l with
  | [] -> acc
  | (k, v) :: rest -> fields_size rest (acc + string_length k + 1 + wire_size v + 1)

(* ------------------------------------------------------------------ *)
(* Lexing                                                              *)
(* ------------------------------------------------------------------ *)

module Lexer = struct
  type t = {
    mutable src : string;
    mutable pos : int;
    text : Buffer.t;
    mutable int_value : int;
    mutable num_start : int;
  }

  let create () = { src = ""; pos = 0; text = Buffer.create 16; int_value = 0; num_start = 0 }

  let reset lx src =
    lx.src <- src;
    lx.pos <- 0

  let fail lx msg = raise (Parse_error (Printf.sprintf "%s at position %d" msg lx.pos))

  (* One preallocated option per byte: peeking allocates nothing. *)
  let chars = Array.init 256 (fun i -> Some (Char.chr i))

  let peek lx =
    if lx.pos < String.length lx.src then
      Array.unsafe_get chars (Char.code (String.unsafe_get lx.src lx.pos))
    else None

  let advance lx = lx.pos <- lx.pos + 1

  let rec skip_ws lx =
    match peek lx with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance lx;
      skip_ws lx
    | _ -> ()

  let expect lx c =
    match peek lx with
    | Some c' when c' = c -> advance lx
    | _ -> fail lx (Printf.sprintf "expected '%c'" c)

  (* Helpers below take what they read as arguments: a local function
     over [lx] would be a closure allocated on every call. *)
  let rec matches src at word i =
    i = String.length word
    || (at + i < String.length src
       && String.unsafe_get src (at + i) = String.unsafe_get word i
       && matches src at word (i + 1))

  let literal lx word =
    if matches lx.src lx.pos word 0 then lx.pos <- lx.pos + String.length word
    else fail lx (Printf.sprintf "expected '%s'" word)

  let finish lx =
    skip_ws lx;
    if lx.pos <> String.length lx.src then fail lx "trailing garbage"

  (* An array or object: its opening bracket and the whitespace after
     it, then whether it has items (an empty one is read whole). *)
  let opens lx opening closing =
    expect lx opening;
    skip_ws lx;
    match peek lx with
    | Some c when c = closing ->
      advance lx;
      false
    | _ -> true

  (* After an item: a comma and the whitespace after it when another
     item follows, or the closing bracket. *)
  let more lx closing =
    skip_ws lx;
    match peek lx with
    | Some ',' ->
      advance lx;
      skip_ws lx;
      true
    | Some c when c = closing ->
      advance lx;
      false
    | _ -> fail lx (Printf.sprintf "expected ',' or '%c'" closing)

  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1

  (* Four bytes read as [int_of_string ("0x" ^ s)] reads them: a hex
     digit, then hex digits or underscores. *)
  let rec hex_from src i stop acc =
    if i = stop then acc
    else
      match String.unsafe_get src i with
      | '_' -> hex_from src (i + 1) stop acc
      | c ->
        let d = hex_digit c in
        if d < 0 then -1 else hex_from src (i + 1) stop ((acc * 16) + d)

  let hex4 lx =
    if lx.pos + 4 > String.length lx.src then fail lx "truncated \\u escape";
    let first = hex_digit (String.unsafe_get lx.src lx.pos) in
    let v = if first < 0 then -1 else hex_from lx.src (lx.pos + 1) (lx.pos + 4) first in
    lx.pos <- lx.pos + 4;
    if v < 0 then fail lx "invalid \\u escape" else v

  let add_utf8 buf code =
    (* Encode a Unicode scalar value as UTF-8. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end

  (* The escape after a backslash, decoded onto [text]. *)
  let escape lx =
    let buf = lx.text in
    match peek lx with
    | Some '"' -> Buffer.add_char buf '"'; advance lx
    | Some '\\' -> Buffer.add_char buf '\\'; advance lx
    | Some '/' -> Buffer.add_char buf '/'; advance lx
    | Some 'n' -> Buffer.add_char buf '\n'; advance lx
    | Some 't' -> Buffer.add_char buf '\t'; advance lx
    | Some 'r' -> Buffer.add_char buf '\r'; advance lx
    | Some 'b' -> Buffer.add_char buf '\b'; advance lx
    | Some 'f' -> Buffer.add_char buf '\012'; advance lx
    | Some 'u' ->
      advance lx;
      let code = hex4 lx in
      (* Combine surrogate pairs. *)
      let code =
        if code >= 0xD800 && code <= 0xDBFF then begin
          if peek lx = Some '\\' then begin
            advance lx;
            if peek lx = Some 'u' then begin
              advance lx;
              let low = hex4 lx in
              if low >= 0xDC00 && low <= 0xDFFF then
                0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
              else fail lx "invalid low surrogate"
            end
            else fail lx "expected low surrogate"
          end
          else fail lx "unpaired surrogate"
        end
        else code
      in
      add_utf8 buf code
    | _ -> fail lx "invalid escape"

  (* From the byte at [pos] to the closing quote; plain bytes from
     [start] on are copied in one run. *)
  let rec string_from lx start =
    let i = lx.pos in
    if i >= String.length lx.src then fail lx "unterminated string"
    else
      match String.unsafe_get lx.src i with
      | '"' ->
        Buffer.add_substring lx.text lx.src start (i - start);
        advance lx
      | '\\' ->
        Buffer.add_substring lx.text lx.src start (i - start);
        advance lx;
        escape lx;
        string_from lx lx.pos
      | _ ->
        advance lx;
        string_from lx start

  let string lx =
    expect lx '"';
    Buffer.clear lx.text;
    string_from lx lx.pos

  let rec text_is buf s i = i = String.length s || (Buffer.nth buf i = s.[i] && text_is buf s (i + 1))

  (* The token's bytes from [i] against [s]'s from [j], while neither
     has ended and no escape is met; an escape decodes the whole token. *)
  let rec raw_is lx s start i j =
    if i >= String.length lx.src then decoded_is lx s start
    else
      match String.unsafe_get lx.src i with
      | '"' ->
        j = String.length s
        && begin
             lx.pos <- i + 1;
             true
           end
      | '\\' -> decoded_is lx s start
      | c -> j < String.length s && c = String.unsafe_get s j && raw_is lx s start (i + 1) (j + 1)

  and decoded_is lx s start =
    lx.pos <- start;
    string lx;
    Buffer.length lx.text = String.length s && text_is lx.text s 0

  let string_is lx s =
    match peek lx with Some '"' -> raw_is lx s lx.pos (lx.pos + 1) 0 | _ -> false

  let is_number_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

  (* An int is [-?[0-9]+] within range, as [int_of_string] reads it:
     accumulated on the non-positive side, where [min_int] fits. *)
  let skip_number lx =
    while lx.pos < String.length lx.src && is_number_char (String.unsafe_get lx.src lx.pos) do
      advance lx
    done

  let rec digits src i stop acc =
    if i = stop then acc
    else
      match String.unsafe_get src i with
      | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if acc >= (min_int + d) / 10 then digits src (i + 1) stop ((acc * 10) - d) else 1
      | _ -> 1

  let number lx =
    let start = lx.pos in
    skip_number lx;
    lx.num_start <- start;
    let neg = lx.pos > start && String.unsafe_get lx.src start = '-' in
    let first = if neg then start + 1 else start in
    (* Non-positive when the digits are an int, 1 when not. *)
    let acc = if first < lx.pos then digits lx.src first lx.pos 0 else 1 in
    if acc > 0 || ((not neg) && acc = min_int) then false
    else begin
      lx.int_value <- (if neg then acc else -acc);
      true
    end

  (* A literal that overflows a double has no JSON value to stand for. *)
  let float lx =
    match float_of_string (String.sub lx.src lx.num_start (lx.pos - lx.num_start)) with
    | f when Float.is_finite f -> f
    | _ | (exception Failure _) -> fail lx "invalid number"

  let rec value lx =
    skip_ws lx;
    match peek lx with
    | None -> fail lx "unexpected end of input"
    | Some 'n' -> literal lx "null"; Null
    | Some 't' -> literal lx "true"; Bool true
    | Some 'f' -> literal lx "false"; Bool false
    | Some '"' ->
      string lx;
      String (Buffer.contents lx.text)
    | Some '[' -> list lx
    | Some '{' -> assoc lx
    | Some ('-' | '0' .. '9') -> if number lx then Int lx.int_value else Float (float lx)
    | Some c -> fail lx (Printf.sprintf "unexpected character '%c'" c)

  and list lx = List (if opens lx '[' ']' then items lx else [])

  and[@tail_mod_cons] items lx =
    let v = value lx in
    if more lx ']' then v :: items lx else [ v ]

  and assoc lx = Assoc (if opens lx '{' '}' then fields lx else [])

  and[@tail_mod_cons] fields lx =
    string lx;
    let k = Buffer.contents lx.text in
    skip_ws lx;
    expect lx ':';
    let v = value lx in
    if more lx '}' then (k, v) :: fields lx else [ (k, v) ]

  (* The structure of a value, without decoding its strings or numbers:
     [value] checks the rest where a reader needs it. *)
  let rec skip lx =
    match peek lx with
    | None -> fail lx "unexpected end of input"
    | Some 'n' -> literal lx "null"
    | Some 't' -> literal lx "true"
    | Some 'f' -> literal lx "false"
    | Some '"' -> skip_string lx
    | Some '[' -> if opens lx '[' ']' then skip_items lx ']'
    | Some '{' -> if opens lx '{' '}' then skip_items lx '}'
    | Some ('-' | '0' .. '9') -> skip_number lx
    | Some c -> fail lx (Printf.sprintf "unexpected character '%c'" c)

  and skip_string lx =
    expect lx '"';
    skip_string_body lx

  and skip_string_body lx =
    if lx.pos >= String.length lx.src then fail lx "unterminated string"
    else
      match String.unsafe_get lx.src lx.pos with
      | '"' -> advance lx
      | '\\' ->
        lx.pos <- lx.pos + 2;
        skip_string_body lx
      | _ ->
        advance lx;
        skip_string_body lx

  (* Items up to [closing]: values, or members when it is ['}']. *)
  and skip_items lx closing =
    if closing = '}' then begin
      skip_string lx;
      skip_ws lx;
      expect lx ':';
      skip_ws lx
    end;
    skip lx;
    if more lx closing then skip_items lx closing
end

let of_string s =
  let lx = Lexer.create () in
  Lexer.reset lx s;
  let v = Lexer.value lx in
  Lexer.finish lx;
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Assoc fields -> ( match List.assoc_opt key fields with Some v -> v | None -> Null)
  | _ -> invalid_arg "Json.member: not an object"

let mem key = function
  | Assoc fields -> List.mem_assoc key fields
  | _ -> false

let get_string = function
  | String s -> s
  | _ -> invalid_arg "Json.get_string"

let get_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> invalid_arg "Json.get_int"

let get_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> invalid_arg "Json.get_float"

let get_list = function
  | List l -> l
  | _ -> invalid_arg "Json.get_list"

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Int x, Float y | Float y, Int x -> Float.equal (float_of_int x) y
  | String x, String y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Assoc x, Assoc y ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Int _ | Float _ | String _ | List _ | Assoc _), _ -> false
