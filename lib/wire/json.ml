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

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_literal f)
  | String s -> escape_string buf s
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
        escape_string buf k;
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
        escape_string buf k;
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

let wire_size j = String.length (to_string j)

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at position %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
  let s = String.sub st.src st.pos 4 in
  st.pos <- st.pos + 4;
  match int_of_string_opt ("0x" ^ s) with
  | Some v -> v
  | None -> fail st "invalid \\u escape"

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

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
      advance st;
      Buffer.contents buf
    | Some '\\' ->
      advance st;
      (match peek st with
      | Some '"' -> Buffer.add_char buf '"'; advance st
      | Some '\\' -> Buffer.add_char buf '\\'; advance st
      | Some '/' -> Buffer.add_char buf '/'; advance st
      | Some 'n' -> Buffer.add_char buf '\n'; advance st
      | Some 't' -> Buffer.add_char buf '\t'; advance st
      | Some 'r' -> Buffer.add_char buf '\r'; advance st
      | Some 'b' -> Buffer.add_char buf '\b'; advance st
      | Some 'f' -> Buffer.add_char buf '\012'; advance st
      | Some 'u' ->
        advance st;
        let code = parse_hex4 st in
        (* Combine surrogate pairs. *)
        let code =
          if code >= 0xD800 && code <= 0xDBFF then begin
            if peek st = Some '\\' then begin
              advance st;
              if peek st = Some 'u' then begin
                advance st;
                let low = parse_hex4 st in
                if low >= 0xDC00 && low <= 0xDFFF then
                  0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                else fail st "invalid low surrogate"
              end
              else fail st "expected low surrogate"
            end
            else fail st "unpaired surrogate"
          end
          else code
        in
        add_utf8 buf code
      | _ -> fail st "invalid escape");
      loop ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      loop ()
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec consume () =
    match peek st with
    | Some c when is_number_char c ->
      advance st;
      consume ()
    | _ -> ()
  in
  consume ();
  let lit = String.sub st.src start (st.pos - start) in
  let is_integral =
    not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit)
  in
  if is_integral then
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt lit with
      | Some f when Float.is_finite f -> Float f
      | _ -> fail st "invalid number")
  else
    (* A literal that overflows a double has no JSON value to stand for. *)
    match float_of_string_opt lit with
    | Some f when Float.is_finite f -> Float f
    | _ -> fail st "invalid number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some '[' -> parse_list st
  | Some '{' -> parse_assoc st
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else begin
    let rec items acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        items (v :: acc)
      | Some ']' ->
        advance st;
        List (List.rev (v :: acc))
      | _ -> fail st "expected ',' or ']'"
    in
    items []
  end

and parse_assoc st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Assoc []
  end
  else begin
    let rec fields acc =
      skip_ws st;
      let k = parse_string_body st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        fields ((k, v) :: acc)
      | Some '}' ->
        advance st;
        Assoc (List.rev ((k, v) :: acc))
      | _ -> fail st "expected ',' or '}'"
    in
    fields []
  end

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
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

let get_bool = function
  | Bool b -> b
  | _ -> invalid_arg "Json.get_bool"

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
