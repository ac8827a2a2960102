let fail fmt = Printf.ksprintf (fun s -> raise (Binary.Decode_error s)) fmt
let mismatch what j = fail "Codec: expected %s, got %s" what (Json.to_string j)

type 'a t = {
  to_json : 'a -> Json.t;
  of_json : Json.t -> 'a;
  write : Binary.sink -> 'a -> unit;
  read : Binary.reader -> 'a;
  size : 'a -> int;  (* [String.length (Json.to_string (to_json v))], counted *)
}

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let int what lo hi write read =
  let of_json = function Json.Int v when v >= lo && v <= hi -> v | j -> mismatch what j in
  { to_json = (fun v -> Json.Int v); of_json; write; read; size = Json.int_length }

let u8 = int "u8" 0 0xFF Binary.u8 Binary.get_u8
let u16 = int "u16" 0 0xFFFF Binary.u16 Binary.get_u16
let u32 = int "u32" 0 0xFFFF_FFFF Binary.u32 Binary.get_u32
let uvarint = int "uvarint" 0 max_int Binary.uvarint Binary.get_uvarint
let varint = int "varint" min_int max_int Binary.varint Binary.get_varint

let float =
  let of_json = function Json.Float v -> v | Json.Int v -> float_of_int v | j -> mismatch "a number" j in
  { to_json = (fun v -> Json.Float v); of_json; write = Binary.f64; read = Binary.get_f64;
    size = Json.float_length }

let bool =
  let read r = match Binary.get_u8 r with 0 -> false | 1 -> true | n -> fail "Codec: bool %d" n in
  let of_json = function Json.Bool b -> b | j -> mismatch "a boolean" j in
  { to_json = (fun b -> Json.Bool b); of_json; write = (fun k b -> Binary.u8 k (Bool.to_int b)); read;
    size = (fun b -> if b then 4 else 5) }

let string =
  let of_json = function Json.String s -> s | j -> mismatch "a string" j in
  { to_json = (fun s -> Json.String s); of_json; write = Binary.str; read = Binary.get_str;
    size = Json.string_length }

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

let json =
  { to_json = Fun.id; of_json = Fun.id; write = write_json; read = read_json; size = Json.wire_size }

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

(* A JSON array or object of members whose sizes, each with the comma
   or bracket after it, sum to [n]: one more byte opens it, and an empty
   one is its two brackets. *)
let enclosed n = if n = 0 then 2 else n + 1

let rec items_size c acc = function [] -> acc | x :: rest -> items_size c (acc + c.size x + 1) rest

let rec members_size c acc = function
  | [] -> acc
  | (name, v) :: rest -> members_size c (acc + Json.string_length name + c.size v + 2) rest

let list c =
  let of_json = function Json.List l -> List.map c.of_json l | j -> mismatch "an array" j in
  { to_json = (fun l -> Json.List (List.map c.to_json l)); of_json; write = write_list c.write;
    read = read_list c.read; size = (fun l -> enclosed (items_size c 0 l)) }

let assoc c =
  let member (name, v) = (name, c.to_json v) and of_member (name, j) = (name, c.of_json j) in
  let of_json = function Json.Assoc fs -> List.map of_member fs | j -> mismatch "an object" j in
  let write k (name, v) = Binary.str k name; c.write k v in
  let read r = let name = Binary.get_str r in (name, c.read r) in
  { to_json = (fun l -> Json.Assoc (List.map member l)); of_json; write = write_list write;
    read = read_list read; size = (fun l -> enclosed (members_size c 0 l)) }

let conv encode decode c =
  { to_json = (fun v -> c.to_json (encode v)); of_json = (fun j -> decode (c.of_json j));
    write = (fun k v -> c.write k (encode v)); read = (fun r -> decode (c.read r));
    size = (fun v -> c.size (encode v)) }

let split ~json ~binary = { json with write = binary.write; read = binary.read }
let json_size_by size c = { c with size }

let json_null v c =
  { c with to_json = (fun x -> if x = v then Json.Null else c.to_json x);
           of_json = (function Json.Null -> v | j -> c.of_json j);
           size = (fun x -> if x = v then 4 else c.size x) }

let enum name values =
  let values = Array.of_list values in
  let names = Array.map name values in
  let rec index v i = if values.(i) == v then i else index v (i + 1) in
  let rec named_from s i =
    if i = Array.length names then invalid_arg ("Codec.enum: unknown name " ^ s)
    else if String.equal names.(i) s then values.(i)
    else named_from s (i + 1)
  in
  let named s = named_from s 0 in
  { (conv name named string) with write = (fun k v -> Binary.u8 k (index v 0));
                                  read = (fun r -> values.(Binary.get_u8 r)) }

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

(* [emit] prepends an object's fields onto the fields that follow it,
   so nested and spliced objects build one list without appends.
   [measure] sums the JSON size of the members [emit] would write, each
   with the comma or brace after it. *)
type ('r, 'k) fields = {
  emit : 'r -> (string * Json.t) list -> (string * Json.t) list;
  parse : (string * Json.t) list -> 'k;
  put : Binary.sink -> 'r -> unit;
  take : Binary.reader -> 'k;
  measure : 'r -> int;
}

type 'r obj = ('r, 'r) fields

let nothing _ _ = ()

let record make =
  { emit = (fun _ rest -> rest); parse = (fun _ -> make); put = nothing; take = (fun _ -> make);
    measure = (fun _ -> 0) }

(* A record's first field skips the call to the empty writer before it. *)
let splice (o : 'a obj) get f =
  let fput = f.put and oput = o.put in
  { emit = (fun v rest -> f.emit v (o.emit (get v) rest));
    parse = (fun fs -> let make = f.parse fs in make (o.parse fs));
    put = (if fput == nothing then fun k v -> oput k (get v) else fun k v -> fput k v; oput k (get v));
    take = (fun r -> let make = f.take r in make (o.take r));
    measure = (fun v -> f.measure v + o.measure (get v)) }

(* A field lookup that allocates nothing; an absent field reads as [null]. *)
let rec member name = function
  | [] -> Json.Null
  | (n, v) :: rest -> if String.equal n name then v else member name rest

(* A member's name, quoted, its colon and the separator after it. *)
let name_size name = Json.string_length name + 2

let obj1 name c =
  let n = name_size name in
  { emit = (fun v rest -> (name, c.to_json v) :: rest); parse = (fun fs -> c.of_json (member name fs));
    put = c.write; take = c.read; measure = (fun v -> n + c.size v) }

let field name c get = splice (obj1 name c) get

let obj1_or default name c =
  let o = obj1 name c in
  { o with emit = (fun v rest -> if v = default then rest else o.emit v rest);
           parse = (fun fs -> if List.mem_assoc name fs then o.parse fs else default);
           measure = (fun v -> if v = default then 0 else o.measure v) }

let obj2 n1 c1 n2 c2 =
  let s1 = name_size n1 and s2 = name_size n2 in
  { emit = (fun (a, b) rest -> (n1, c1.to_json a) :: (n2, c2.to_json b) :: rest);
    parse = (fun fs -> let a = c1.of_json (member n1 fs) in (a, c2.of_json (member n2 fs)));
    put = (fun k (a, b) -> c1.write k a; c2.write k b);
    take = (fun r -> let a = c1.read r in (a, c2.read r));
    measure = (fun (a, b) -> s1 + c1.size a + s2 + c2.size b) }

let obj3 n1 c1 n2 c2 n3 c3 =
  record (fun a b c -> (a, b, c))
  |> field n1 c1 (fun (a, _, _) -> a)
  |> field n2 c2 (fun (_, b, _) -> b)
  |> field n3 c3 (fun (_, _, c) -> c)

let obj o =
  let of_json = function Json.Assoc fs -> o.parse fs | j -> mismatch "an object" j in
  { to_json = (fun v -> Json.Assoc (o.emit v [])); of_json; write = o.put; read = o.take;
    size = (fun v -> enclosed (o.measure v)) }

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
   call).  It is fed three selector lists: [select]'s build the
   payload-carrying [Value], [classify]'s return a preallocated [Case],
   so naming a value allocates nothing, and [measure]'s size the
   payload where the destructor hands it over and return the [Case],
   so sizing a value allocates nothing either. *)
type 'a dispatch = Dispatch of ('a -> 'a selected) [@@unboxed]

type ('a, 'all, 'rest) cases = {
  union_tag : string;
  all : 'a any_case list;
  destruct : 'all Select.t -> 'a dispatch;
  select : 'rest Select.t -> 'all Select.t;
  classify : 'rest Select.t -> 'all Select.t;
  measure : 'rest Select.t -> 'all Select.t;
}

let union union_tag destruct =
  { union_tag; all = []; destruct; select = Fun.id; classify = Fun.id; measure = Fun.id }

let add_case c sel name size u =
  { u with all = Any c :: u.all; select = (fun rest -> u.select Select.(sel :: rest));
           classify = (fun rest -> u.classify Select.(name :: rest));
           measure = (fun rest -> u.measure Select.(size :: rest)) }

(* A measuring selector has only a [Case] to return, so it leaves the
   size it counted in this cell, and the union reads it back as soon as
   the selector returns.  Nothing runs in between, and a selector
   stores only after its payload's own sizing (which may measure inner
   unions through the same cell) has finished.  One cell per domain:
   agents size their messages on other domains in sharded runs. *)
let measured = Domain.DLS.new_key (fun () -> ref 0)

let tagged u tag name body make = { tag; name; tag_field = Some (u.union_tag, Json.String name); body; make }

(* The tag member, ["tag":"name"] and its separator. *)
let tag_size u name = name_size u.union_tag + Json.string_length name

let case tag name body make u =
  let c = tagged u tag name body make in
  let only = Case c and n = tag_size u name in
  add_case c (fun x -> Value (c, x)) (fun _ -> only)
    (fun x -> Domain.DLS.get measured := n + body.measure x; only) u

(* Sizing a two-part payload pairs it up for the body. *)
let case2 tag name body make u =
  let c = tagged u tag name body (fun (a, b) -> make a b) in
  let only = Case c and n = tag_size u name in
  add_case c (fun a b -> Value (c, (a, b))) (fun _ _ -> only)
    (fun a b -> Domain.DLS.get measured := n + body.measure (a, b); only) u

let untagged tag body make u =
  let c = { tag; name = ""; tag_field = None; body; make } in
  let only = Case c in
  add_case c (fun x -> Value (c, x)) (fun _ -> only)
    (fun x -> Domain.DLS.get measured := body.measure x; only) u

let case_name u =
  let (Dispatch classify) = u.destruct (u.classify Select.[]) in
  fun v -> match classify v with Case c -> c.name | Value (c, _) -> c.name

let bare_case () = invalid_arg "Codec: a union selector returned no payload"

(* The cases are resolved here, once: JSON finds a case by comparing
   its tag string with each case's name, binary indexes an array by the
   tag byte.  Where two cases share a name or tag, the one added last
   wins, as it does in [all]. *)
let variant u =
  let (Dispatch select) = u.destruct (u.select Select.[]) in
  let (Dispatch measure) = u.destruct (u.measure Select.[]) in
  let untagged = List.find_opt (fun (Any c) -> c.tag_field = None) u.all in
  let tagged = Array.of_list (List.filter (fun (Any c) -> c.tag_field <> None) u.all) in
  let names = Array.map (fun (Any c) -> c.name) tagged in
  let by_tag = Array.make (List.fold_left (fun m (Any c) -> max m (c.tag + 1)) 0 u.all) None in
  List.iter (fun (Any c as any) -> by_tag.(c.tag) <- Some any) (List.rev u.all);
  let rec named s i =
    if i = Array.length names then -1 else if String.equal names.(i) s then i else named s (i + 1)
  in
  let parse_case fs =
    let tag = member u.union_tag fs in
    let i = match tag with Json.String s -> named s 0 | _ -> -1 in
    if i >= 0 then tagged.(i)
    else match untagged with Some any -> any | None -> mismatch ("a known " ^ u.union_tag) tag
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
        match if tag < Array.length by_tag then by_tag.(tag) else None with
        | Some (Any c) -> c.make (c.body.take r)
        | None -> fail "Codec: unknown %s tag %d" u.union_tag tag);
    measure =
      (fun v ->
        match measure v with
        | Case _ -> !(Domain.DLS.get measured)
        | Value _ -> bare_case ()) }

let splice_after_tag (h : 'h obj) hget (u : 'a obj) uget f =
  { emit =
      (fun v rest ->
        f.emit v
          (match u.emit (uget v) rest with
          | tag :: fields -> tag :: h.emit (hget v) fields
          | [] -> h.emit (hget v) rest));
    parse = (fun fs -> let make = f.parse fs in make (h.parse fs) (u.parse fs));
    put = (fun k v -> f.put k v; h.put k (hget v); u.put k (uget v));
    take = (fun r -> let make = f.take r in let hv = h.take r in make hv (u.take r));
    measure = (fun v -> f.measure v + h.measure (hget v) + u.measure (uget v)) }

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

let to_json c v = c.to_json v

(* Constructors a description calls on decode (Addr.prefix,
   Payload.of_tokens_trailing, Hfl.of_string, ...) reject bad values
   with Invalid_argument or Failure: on the wire, malformed input like
   any other. *)
let of_json c j =
  try c.of_json j with Invalid_argument m | Failure m -> raise (Binary.Decode_error m)

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

let json_size c v = c.size v

let binary_size c v =
  let k, count = Binary.counting_sink () in
  c.write k v;
  1 + count ()
