let fail fmt = Printf.ksprintf (fun s -> raise (Binary.Decode_error s)) fmt
let mismatch what j = fail "Codec: expected %s, got %s" what (Json.to_string j)

type 'a t = {
  to_json : 'a -> Json.t;
  of_json : Json.t -> 'a;
  write : Binary.sink -> 'a -> unit;
  read : Binary.reader -> 'a;
}

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let int what lo hi write read =
  let of_json = function Json.Int v when v >= lo && v <= hi -> v | j -> mismatch what j in
  { to_json = (fun v -> Json.Int v); of_json; write; read }

let u8 = int "u8" 0 0xFF Binary.u8 Binary.get_u8
let u16 = int "u16" 0 0xFFFF Binary.u16 Binary.get_u16
let u32 = int "u32" 0 0xFFFF_FFFF Binary.u32 Binary.get_u32
let uvarint = int "uvarint" 0 max_int Binary.uvarint Binary.get_uvarint
let varint = int "varint" min_int max_int Binary.varint Binary.get_varint

let float =
  let of_json = function Json.Float v -> v | Json.Int v -> float_of_int v | j -> mismatch "a number" j in
  { to_json = (fun v -> Json.Float v); of_json; write = Binary.f64; read = Binary.get_f64 }

let bool =
  let read r = match Binary.get_u8 r with 0 -> false | 1 -> true | n -> fail "Codec: bool %d" n in
  let of_json = function Json.Bool b -> b | j -> mismatch "a boolean" j in
  { to_json = (fun b -> Json.Bool b); of_json; write = (fun k b -> Binary.u8 k (Bool.to_int b)); read }

let string =
  let of_json = function Json.String s -> s | j -> mismatch "a string" j in
  { to_json = (fun s -> Json.String s); of_json; write = Binary.str; read = Binary.get_str }

(* Every item takes at least one byte, so a count beyond the bytes left
   is malformed input, not an allocation size. *)
let read_list item (r : Binary.reader) =
  let n = Binary.get_uvarint r in
  if n > String.length r.src - r.pos then fail "Codec: count %d exceeds the input" n;
  List.init n (fun _ -> item r)

let rec write_items item k = function [] -> () | x :: rest -> item k x; write_items item k rest

let write_list item k l =
  Binary.uvarint k (List.length l);
  write_items item k l

let rec write_json k = function
  | Json.Null -> Binary.u8 k 0
  | Json.Bool b -> Binary.u8 k 1; Binary.u8 k (Bool.to_int b)
  | Json.Int v -> Binary.u8 k 2; Binary.varint k v
  | Json.Float v -> Binary.u8 k 3; Binary.f64 k v
  | Json.String s -> Binary.u8 k 4; Binary.str k s
  | Json.List items -> Binary.u8 k 5; write_list write_json k items
  | Json.Assoc fields ->
    Binary.u8 k 6;
    write_list (fun k (name, v) -> Binary.str k name; write_json k v) k fields

let rec read_json r =
  match Binary.get_u8 r with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Binary.get_u8 r <> 0)
  | 2 -> Json.Int (Binary.get_varint r)
  | 3 -> Json.Float (Binary.get_f64 r)
  | 4 -> Json.String (Binary.get_str r)
  | 5 -> Json.List (read_list read_json r)
  | 6 -> Json.Assoc (read_list (fun r -> let name = Binary.get_str r in (name, read_json r)) r)
  | n -> fail "Codec: JSON value tag %d" n

let json = { to_json = Fun.id; of_json = Fun.id; write = write_json; read = read_json }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let list c =
  let of_json = function Json.List l -> List.map c.of_json l | j -> mismatch "an array" j in
  { to_json = (fun l -> Json.List (List.map c.to_json l)); of_json; write = write_list c.write;
    read = read_list c.read }

let conv encode decode c =
  { to_json = (fun v -> c.to_json (encode v)); of_json = (fun j -> decode (c.of_json j));
    write = (fun k v -> c.write k (encode v)); read = (fun r -> decode (c.read r)) }

let split ~json ~binary = { json with write = binary.write; read = binary.read }

let json_null v c =
  { c with to_json = (fun x -> if x = v then Json.Null else c.to_json x);
           of_json = (function Json.Null -> v | j -> c.of_json j) }

let enum name values =
  let values = Array.of_list values in
  let rec index v i = if values.(i) == v then i else index v (i + 1) in
  let named s =
    match List.find_opt (fun v -> name v = s) (Array.to_list values) with
    | Some v -> v
    | None -> invalid_arg ("Codec.enum: unknown name " ^ s)
  in
  { (conv name named string) with write = (fun k v -> Binary.u8 k (index v 0));
                                  read = (fun r -> values.(Binary.get_u8 r)) }

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

(* [emit] prepends an object's fields onto the fields that follow it,
   so nested and spliced objects build one list without appends. *)
type ('r, 'k) fields = {
  emit : 'r -> (string * Json.t) list -> (string * Json.t) list;
  parse : (string * Json.t) list -> 'k;
  put : Binary.sink -> 'r -> unit;
  take : Binary.reader -> 'k;
}

type 'r obj = ('r, 'r) fields

let nothing _ _ = ()
let record make = { emit = (fun _ rest -> rest); parse = (fun _ -> make); put = nothing; take = (fun _ -> make) }

(* A record's first field skips the call to the empty writer before it. *)
let splice (o : 'a obj) get f =
  let fput = f.put and oput = o.put in
  { emit = (fun v rest -> f.emit v (o.emit (get v) rest));
    parse = (fun fs -> let make = f.parse fs in make (o.parse fs));
    put = (if fput == nothing then fun k v -> oput k (get v) else fun k v -> fput k v; oput k (get v));
    take = (fun r -> let make = f.take r in make (o.take r)) }

let member name fs = Option.value (List.assoc_opt name fs) ~default:Json.Null

let obj1 name c =
  { emit = (fun v rest -> (name, c.to_json v) :: rest); parse = (fun fs -> c.of_json (member name fs));
    put = c.write; take = c.read }

let field name c get = splice (obj1 name c) get

let obj1_or default name c =
  let o = obj1 name c in
  { o with emit = (fun v rest -> if v = default then rest else o.emit v rest);
           parse = (fun fs -> if List.mem_assoc name fs then o.parse fs else default) }

let obj2 n1 c1 n2 c2 =
  { emit = (fun (a, b) rest -> (n1, c1.to_json a) :: (n2, c2.to_json b) :: rest);
    parse = (fun fs -> let a = c1.of_json (member n1 fs) in (a, c2.of_json (member n2 fs)));
    put = (fun k (a, b) -> c1.write k a; c2.write k b);
    take = (fun r -> let a = c1.read r in (a, c2.read r)) }

let obj3 n1 c1 n2 c2 n3 c3 =
  record (fun a b c -> (a, b, c))
  |> field n1 c1 (fun (a, _, _) -> a)
  |> field n2 c2 (fun (_, b, _) -> b)
  |> field n3 c3 (fun (_, _, c) -> c)

let obj o =
  let of_json = function Json.Assoc fs -> o.parse fs | j -> mismatch "an object" j in
  { to_json = (fun v -> Json.Assoc (o.emit v [])); of_json; write = o.put; read = o.take }

(* ------------------------------------------------------------------ *)
(* Tagged unions                                                       *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) case = {
  tag : int;
  name : string;
  tag_field : (string * Json.t) option;  (** [None] for the untagged case. *)
  body : 'b obj;
  make : 'b -> 'a;
}

type 'a any_case = Any : ('a, 'b) case -> 'a any_case

(* What a union's destructor returns: a case with its payload when
   encoding, the case alone when only its name is wanted. *)
type 'a selected = Value : ('a, 'b) case * 'b -> 'a selected | Case : ('a, 'b) case -> 'a selected

module Select = struct
  type _ t = [] : unit t | ( :: ) : 'a * 'b t -> ('a * 'b) t
end

(* The destructor gets one selector per case, all at once, and returns
   the match as a closure over them (the constructor keeps OCaml from
   fusing the two into one function that re-reads the list on every
   call).  It is fed two selector lists: [select]'s build the
   payload-carrying [Value], [classify]'s return a preallocated [Case],
   so naming a value allocates nothing. *)
type 'a dispatch = Dispatch of ('a -> 'a selected) [@@unboxed]

type ('a, 'all, 'rest) cases = {
  union_tag : string;
  all : 'a any_case list;
  destruct : 'all Select.t -> 'a dispatch;
  select : 'rest Select.t -> 'all Select.t;
  classify : 'rest Select.t -> 'all Select.t;
}

let union union_tag destruct = { union_tag; all = []; destruct; select = Fun.id; classify = Fun.id }

let add_case c sel name u =
  { u with all = Any c :: u.all; select = (fun rest -> u.select Select.(sel :: rest));
           classify = (fun rest -> u.classify Select.(name :: rest)) }

let tagged u tag name body make = { tag; name; tag_field = Some (u.union_tag, Json.String name); body; make }

let case tag name body make u =
  let c = tagged u tag name body make in
  let only = Case c in
  add_case c (fun x -> Value (c, x)) (fun _ -> only) u

let case2 tag name body make u =
  let c = tagged u tag name body (fun (a, b) -> make a b) in
  let only = Case c in
  add_case c (fun a b -> Value (c, (a, b))) (fun _ _ -> only) u

let untagged tag body make u =
  let c = { tag; name = ""; tag_field = None; body; make } in
  let only = Case c in
  add_case c (fun x -> Value (c, x)) (fun _ -> only) u

let case_name u =
  let (Dispatch classify) = u.destruct (u.classify Select.[]) in
  fun v -> match classify v with Case c -> c.name | Value (c, _) -> c.name

let bare_case () = invalid_arg "Codec: a union selector returned no payload"

let variant u =
  let (Dispatch select) = u.destruct (u.select Select.[]) in
  let untagged = List.find_opt (fun (Any c) -> c.tag_field = None) u.all in
  let parse_case fs =
    let tag = member u.union_tag fs in
    match (List.find_opt (fun (Any c) -> c.tag_field = Some (u.union_tag, tag)) u.all, untagged) with
    | Some any, _ | None, Some any -> any
    | None, None -> mismatch ("a known " ^ u.union_tag) tag
  in
  { emit =
      (fun v rest ->
        match select v with
        | Value ({ tag_field = Some t; _ } as c, x) -> t :: c.body.emit x rest
        | Value (c, x) -> c.body.emit x rest
        | Case _ -> bare_case ());
    parse = (fun fs -> let (Any c) = parse_case fs in c.make (c.body.parse fs));
    put =
      (fun k v ->
        match select v with
        | Value (c, x) -> Binary.u8 k c.tag; c.body.put k x
        | Case _ -> bare_case ());
    take =
      (fun r ->
        let tag = Binary.get_u8 r in
        match List.find_opt (fun (Any c) -> c.tag = tag) u.all with
        | Some (Any c) -> c.make (c.body.take r)
        | None -> fail "Codec: unknown %s tag %d" u.union_tag tag) }

let splice_after_tag (h : 'h obj) hget (u : 'a obj) uget f =
  { emit =
      (fun v rest ->
        f.emit v
          (match u.emit (uget v) rest with
          | tag :: fields -> tag :: h.emit (hget v) fields
          | [] -> h.emit (hget v) rest));
    parse = (fun fs -> let make = f.parse fs in make (h.parse fs) (u.parse fs));
    put = (fun k v -> f.put k v; h.put k (hget v); u.put k (uget v));
    take = (fun r -> let make = f.take r in let hv = h.take r in make hv (u.take r)) }

(* ------------------------------------------------------------------ *)
(* Framings                                                            *)
(* ------------------------------------------------------------------ *)

let binary_tag = 'B'

let encode (framing : Framing.t) c v =
  match framing with
  | Json -> Json.to_string (c.to_json v)
  | Binary ->
    let buf = Buffer.create 256 in
    Buffer.add_char buf binary_tag;
    c.write (Binary.buffer_sink buf) v;
    Buffer.contents buf

(* Constructors a description calls on decode (Addr.prefix,
   Payload.of_tokens_trailing, Hfl.of_string, ...) reject bad values
   with Invalid_argument or Failure: on the wire, malformed input like
   any other. *)
let decode c s =
  try
    if String.length s > 0 && s.[0] = binary_tag then begin
      let r = Binary.reader ~pos:1 s in
      let v = c.read r in
      if r.pos <> String.length s then fail "Codec: %d trailing bytes" (String.length s - r.pos);
      v
    end
    else c.of_json (Json.of_string s)
  with Invalid_argument m | Failure m | Json.Parse_error m -> raise (Binary.Decode_error m)

let binary_size c v =
  let k, count = Binary.counting_sink () in
  c.write k v;
  1 + count ()
