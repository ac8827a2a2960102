let fail fmt = Printf.ksprintf (fun s -> raise (Binary.Decode_error s)) fmt
let mismatch what j = fail "Codec: expected %s, got %s" what (Json.to_string j)

(* Reading JSON text: the lexer, and a stack of member indexes, one
   frame per object being read (see [index_members]). *)
type reading = {
  lx : Json.Lexer.t;
  mutable members : int array;
  mutable top : int;
  mutable busy : bool;
}

let unexpected r what = fail "Codec: expected %s at position %d" what r.lx.pos

type 'a t = {
  to_json : 'a -> Json.t;
  of_json : Json.t -> 'a;
  print : Buffer.t -> 'a -> unit;  (* [Json.write] of [to_json v], written straight *)
  scan : reading -> 'a;  (* [of_json] of the value at the lexer, read straight *)
  write : Binary.sink -> 'a -> unit;
  read : Binary.reader -> 'a;
  size : 'a -> int;  (* [String.length (Json.to_string (to_json v))], counted *)
}

(* ------------------------------------------------------------------ *)
(* Primitives                                                          *)
(* ------------------------------------------------------------------ *)

let at_number r = match Json.Lexer.peek r.lx with Some ('-' | '0' .. '9') -> true | _ -> false

let int what lo hi write read =
  let of_json = function Json.Int v when v >= lo && v <= hi -> v | j -> mismatch what j in
  let scan r =
    let lx = r.lx in
    if at_number r && Json.Lexer.number lx && lx.int_value >= lo && lx.int_value <= hi then lx.int_value
    else unexpected r what
  in
  { to_json = (fun v -> Json.Int v); of_json; print = Json.add_int; scan; write; read;
    size = Json.int_length }

let u8 = int "u8" 0 0xFF Binary.u8 Binary.get_u8
let u16 = int "u16" 0 0xFFFF Binary.u16 Binary.get_u16
let u32 = int "u32" 0 0xFFFF_FFFF Binary.u32 Binary.get_u32
let uvarint = int "uvarint" 0 max_int Binary.uvarint Binary.get_uvarint
let varint = int "varint" min_int max_int Binary.varint Binary.get_varint

let float =
  let of_json = function Json.Float v -> v | Json.Int v -> float_of_int v | j -> mismatch "a number" j in
  let scan r =
    if not (at_number r) then unexpected r "a number"
    else if Json.Lexer.number r.lx then float_of_int r.lx.int_value
    else Json.Lexer.float r.lx
  in
  { to_json = (fun v -> Json.Float v); of_json; print = (fun b v -> Buffer.add_string b (Json.float_literal v));
    scan; write = Binary.f64; read = Binary.get_f64; size = Json.float_length }

let bool =
  let read r = match Binary.get_u8 r with 0 -> false | 1 -> true | n -> fail "Codec: bool %d" n in
  let of_json = function Json.Bool b -> b | j -> mismatch "a boolean" j in
  let scan r =
    match Json.Lexer.peek r.lx with
    | Some 't' -> Json.Lexer.literal r.lx "true"; true
    | Some 'f' -> Json.Lexer.literal r.lx "false"; false
    | _ -> unexpected r "a boolean"
  in
  { to_json = (fun b -> Json.Bool b); of_json; print = (fun k b -> Buffer.add_string k (if b then "true" else "false"));
    scan; write = (fun k b -> Binary.u8 k (Bool.to_int b)); read;
    size = (fun b -> if b then 4 else 5) }

let string =
  let of_json = function Json.String s -> s | j -> mismatch "a string" j in
  let scan r =
    match Json.Lexer.peek r.lx with
    | Some '"' ->
      Json.Lexer.string r.lx;
      Buffer.contents r.lx.text
    | _ -> unexpected r "a string"
  in
  { to_json = (fun s -> Json.String s); of_json; print = Json.add_string; scan; write = Binary.str;
    read = Binary.get_str; size = Json.string_length }

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
  { to_json = Fun.id; of_json = Fun.id; print = Json.write; scan = (fun r -> Json.Lexer.value r.lx);
    write = write_json; read = read_json; size = Json.wire_size }

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

(* Printing and scanning sequences: each helper takes what it works on
   as arguments, so none is a closure built per call. *)
let rec print_items c b = function
  | [] -> ()
  | x :: rest ->
    Buffer.add_char b ',';
    c.print b x;
    print_items c b rest

let print_list c b = function
  | [] -> Buffer.add_string b "[]"
  | x :: rest ->
    Buffer.add_char b '[';
    c.print b x;
    print_items c b rest;
    Buffer.add_char b ']'

let[@tail_mod_cons] rec scan_items c r =
  let v = c.scan r in
  if Json.Lexer.more r.lx ']' then v :: scan_items c r else [ v ]

let scan_list c r = if Json.Lexer.opens r.lx '[' ']' then scan_items c r else []

let list c =
  let of_json = function Json.List l -> List.map c.of_json l | j -> mismatch "an array" j in
  { to_json = (fun l -> Json.List (List.map c.to_json l)); of_json; print = print_list c;
    scan = scan_list c; write = write_list c.write; read = read_list c.read;
    size = (fun l -> enclosed (items_size c 0 l)) }

let print_member c b (name, v) =
  Json.add_string b name;
  Buffer.add_char b ':';
  c.print b v

let rec print_members c b = function
  | [] -> ()
  | m :: rest ->
    Buffer.add_char b ',';
    print_member c b m;
    print_members c b rest

let print_assoc c b = function
  | [] -> Buffer.add_string b "{}"
  | m :: rest ->
    Buffer.add_char b '{';
    print_member c b m;
    print_members c b rest;
    Buffer.add_char b '}'

let[@tail_mod_cons] rec scan_members c r =
  let lx = r.lx in
  Json.Lexer.string lx;
  let name = Buffer.contents lx.text in
  Json.Lexer.skip_ws lx;
  Json.Lexer.expect lx ':';
  Json.Lexer.skip_ws lx;
  let v = c.scan r in
  if Json.Lexer.more lx '}' then (name, v) :: scan_members c r else [ (name, v) ]

let scan_assoc c r = if Json.Lexer.opens r.lx '{' '}' then scan_members c r else []

let assoc c =
  let member (name, v) = (name, c.to_json v) and of_member (name, j) = (name, c.of_json j) in
  let of_json = function Json.Assoc fs -> List.map of_member fs | j -> mismatch "an object" j in
  let write k (name, v) = Binary.str k name; c.write k v in
  let read r = let name = Binary.get_str r in (name, c.read r) in
  { to_json = (fun l -> Json.Assoc (List.map member l)); of_json; print = print_assoc c;
    scan = scan_assoc c; write = write_list write; read = read_list read;
    size = (fun l -> enclosed (members_size c 0 l)) }

let conv encode decode c =
  { to_json = (fun v -> c.to_json (encode v)); of_json = (fun j -> decode (c.of_json j));
    print = (fun b v -> c.print b (encode v)); scan = (fun r -> decode (c.scan r));
    write = (fun k v -> c.write k (encode v)); read = (fun r -> decode (c.read r));
    size = (fun v -> c.size (encode v)) }

let split ~json ~binary = { json with write = binary.write; read = binary.read }
let json_size_by size c = { c with size }

let json_null v c =
  { c with to_json = (fun x -> if x = v then Json.Null else c.to_json x);
           of_json = (function Json.Null -> v | j -> c.of_json j);
           print = (fun b x -> if x = v then Buffer.add_string b "null" else c.print b x);
           scan =
             (fun r ->
               match Json.Lexer.peek r.lx with
               | Some 'n' -> Json.Lexer.literal r.lx "null"; v
               | _ -> c.scan r);
           size = (fun x -> if x = v then 4 else c.size x) }

(* The first of [names] the string token at [start] decodes to: its
   index, or -1. *)
let rec named lx start names i =
  if i = Array.length names then -1
  else begin
    lx.Json.Lexer.pos <- start;
    if Json.Lexer.string_is lx names.(i) then i else named lx start names (i + 1)
  end

let enum name values =
  let values = Array.of_list values in
  let names = Array.map name values in
  let rec index v i = if values.(i) == v then i else index v (i + 1) in
  let rec named_from s i =
    if i = Array.length names then invalid_arg ("Codec.enum: unknown name " ^ s)
    else if String.equal names.(i) s then values.(i)
    else named_from s (i + 1)
  in
  let c = conv name (fun s -> named_from s 0) string in
  let scan r =
    let start = r.lx.pos in
    match named r.lx start names 0 with
    | -1 ->
      (* Not a string, or a name no value has: rejected. *)
      r.lx.pos <- start;
      c.scan r
    | i -> values.(i)
  in
  { c with scan; write = (fun k v -> Binary.u8 k (index v 0)); read = (fun r -> values.(Binary.get_u8 r)) }

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

(* [emit] prepends an object's fields onto the fields that follow it,
   so nested and spliced objects build one list without appends.
   [measure] sums the JSON size of the members [emit] would write, each
   with the comma or brace after it.  [print] writes the members into
   an object whose text starts at the given buffer position (a member
   after the first writes a comma), a union's tag member apart, in
   [print_tag], so that [splice_after_tag] can write fields after it.
   [scan] reads them from the indexed members of the object at the
   given frame. *)
type ('r, 'k) fields = {
  emit : 'r -> (string * Json.t) list -> (string * Json.t) list;
  parse : (string * Json.t) list -> 'k;
  print_tag : Buffer.t -> int -> 'r -> unit;
  print : Buffer.t -> int -> 'r -> unit;
  scan : reading -> int -> 'k;
  put : Binary.sink -> 'r -> unit;
  take : Binary.reader -> 'k;
  measure : 'r -> int;
}

type 'r obj = ('r, 'r) fields

let nothing _ _ = ()
let no_members _ _ _ = ()

let record make =
  { emit = (fun _ rest -> rest); parse = (fun _ -> make); print_tag = no_members; print = no_members;
    scan = (fun _ _ -> make); put = nothing; take = (fun _ -> make); measure = (fun _ -> 0) }

(* An object's members, its tag first. *)
let print_obj o b start v =
  o.print_tag b start v;
  o.print b start v

(* A record's first field skips the call to the empty writers before it. *)
let splice (o : 'a obj) get f =
  let fput = f.put and oput = o.put and fprint = f.print in
  { emit = (fun v rest -> f.emit v (o.emit (get v) rest));
    parse = (fun fs -> let make = f.parse fs in make (o.parse fs));
    print_tag = no_members;
    print =
      (if fprint == no_members then fun b s v -> print_obj o b s (get v)
       else fun b s v -> fprint b s v; print_obj o b s (get v));
    scan = (fun r fr -> let make = f.scan r fr in make (o.scan r fr));
    put = (if fput == nothing then fun k v -> oput k (get v) else fun k v -> fput k v; oput k (get v));
    take = (fun r -> let make = f.take r in make (o.take r));
    measure = (fun v -> f.measure v + o.measure (get v)) }

(* A field lookup that allocates nothing; an absent field reads as [null]. *)
let rec member name = function
  | [] -> Json.Null
  | (n, v) :: rest -> if String.equal n name then v else member name rest

(* A member's name, quoted, its colon and the separator after it. *)
let name_size name = Json.string_length name + 2

(* Member names and tags are escaped once, when a description is built. *)
let quoted s =
  let b = Buffer.create 16 in
  Json.add_string b s;
  Buffer.contents b

let member_text name = quoted name ^ ":"
let separate b start = if Buffer.length b > start then Buffer.add_char b ','

(* Reading an object: its members are indexed once, in a frame pushed
   on [members]: the member count, then each member's name position,
   value position and read mark.  A field finds the first member of
   its name and reads its value in place; a member no field read (a
   duplicate, or a name the description lacks) is then parsed whole, so
   malformed text anywhere is rejected as [Json.of_string] rejects
   it. *)
let push r x =
  if r.top = Array.length r.members then begin
    let grown = Array.make (2 * r.top) 0 in
    Array.blit r.members 0 grown 0 r.top;
    r.members <- grown
  end;
  r.members.(r.top) <- x;
  r.top <- r.top + 1

let rec index_from r frame =
  let lx = r.lx in
  let name = lx.pos in
  Json.Lexer.skip_string lx;
  Json.Lexer.skip_ws lx;
  Json.Lexer.expect lx ':';
  Json.Lexer.skip_ws lx;
  let value = lx.pos in
  Json.Lexer.skip lx;
  push r name;
  push r value;
  push r 0;
  r.members.(frame) <- r.members.(frame) + 1;
  if Json.Lexer.more lx '}' then index_from r frame

(* At an object's brace: its frame, with the lexer past the object. *)
let index_members r =
  let frame = r.top in
  push r 0;
  if Json.Lexer.opens r.lx '{' '}' then index_from r frame;
  frame

let entry frame i = frame + 1 + (3 * i)

let rec find_from r frame name i =
  if i = r.members.(frame) then -1
  else begin
    let e = entry frame i in
    r.lx.pos <- r.members.(e);
    if Json.Lexer.string_is r.lx name then e else find_from r frame name (i + 1)
  end

(* The first member named [name]: its entry, or -1. *)
let find r frame name = find_from r frame name 0

let read_entry r e (c : _ t) =
  r.lx.pos <- r.members.(e + 1);
  let v = c.scan r in
  r.members.(e + 2) <- 1;
  v

(* An absent member reads as [null], as [member] has it. *)
let read_absent r (c : _ t) =
  let lx = r.lx in
  let src = lx.src and pos = lx.pos in
  Json.Lexer.reset lx "null";
  let v = c.scan r in
  lx.src <- src;
  lx.pos <- pos;
  v

let read_member r frame name c =
  match find r frame name with -1 -> read_absent r c | e -> read_entry r e c

let rec check_unread r frame i =
  if i < r.members.(frame) then begin
    let e = entry frame i in
    if r.members.(e + 2) = 0 then begin
      r.lx.pos <- r.members.(e);
      Json.Lexer.string r.lx;
      r.lx.pos <- r.members.(e + 1);
      ignore (Json.Lexer.value r.lx)
    end;
    check_unread r frame (i + 1)
  end

let scan_obj o r =
  let frame = index_members r in
  let stop = r.lx.pos in
  let v = o.scan r frame in
  check_unread r frame 0;
  r.top <- frame;
  r.lx.pos <- stop;
  v

let obj1 name c =
  let n = name_size name and text = member_text name in
  { emit = (fun v rest -> (name, c.to_json v) :: rest); parse = (fun fs -> c.of_json (member name fs));
    print_tag = no_members;
    print = (fun b s v -> separate b s; Buffer.add_string b text; c.print b v);
    scan = (fun r fr -> read_member r fr name c);
    put = c.write; take = c.read; measure = (fun v -> n + c.size v) }

let field name c get = splice (obj1 name c) get

let obj1_or default name c =
  let o = obj1 name c in
  { o with emit = (fun v rest -> if v = default then rest else o.emit v rest);
           parse = (fun fs -> if List.mem_assoc name fs then o.parse fs else default);
           print = (fun b s v -> if v <> default then o.print b s v);
           scan = (fun r fr -> match find r fr name with -1 -> default | e -> read_entry r e c);
           measure = (fun v -> if v = default then 0 else o.measure v) }

let obj2 n1 c1 n2 c2 =
  let s1 = name_size n1 and s2 = name_size n2 and t1 = member_text n1 and t2 = member_text n2 in
  { emit = (fun (a, b) rest -> (n1, c1.to_json a) :: (n2, c2.to_json b) :: rest);
    parse = (fun fs -> let a = c1.of_json (member n1 fs) in (a, c2.of_json (member n2 fs)));
    print_tag = no_members;
    print =
      (fun k s (a, b) ->
        separate k s;
        Buffer.add_string k t1;
        c1.print k a;
        Buffer.add_char k ',';
        Buffer.add_string k t2;
        c2.print k b);
    scan = (fun r fr -> let a = read_member r fr n1 c1 in (a, read_member r fr n2 c2));
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
  { to_json = (fun v -> Json.Assoc (o.emit v [])); of_json;
    print =
      (fun b v ->
        Buffer.add_char b '{';
        print_obj o b (Buffer.length b) v;
        Buffer.add_char b '}');
    scan = scan_obj o; write = o.put; read = o.take; size = (fun v -> enclosed (o.measure v)) }

(* ------------------------------------------------------------------ *)
(* Tagged unions                                                       *)
(* ------------------------------------------------------------------ *)

type ('a, 'b) case = {
  tag : int;
  name : string;
  tag_field : (string * Json.t) option;  (** [None] for the untagged case. *)
  tag_text : string;  (** The tag member's text, [""] for the untagged case. *)
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
   payload where the destructor hands it over and return the [Case], so
   sizing a value allocates nothing either. *)
type 'a dispatch = Dispatch of ('a -> 'a selected) [@@unboxed]

type ('a, 'all, 'rest) cases = {
  union_tag : string;
  all : 'a any_case list;
  destruct : 'all Select.t -> 'a dispatch;
  select : 'rest Select.t -> 'all Select.t;
  classify : 'rest Select.t -> 'all Select.t;
  measure : 'rest Select.t -> 'all Select.t;
  mutable classifier : ('a -> 'a selected) option;  (* [classify]'s dispatch, once built *)
}

let union union_tag destruct =
  { union_tag; all = []; destruct; select = Fun.id; classify = Fun.id; measure = Fun.id;
    classifier = None }

(* Each step keeps only the selector lists, not the step before it. *)
let add_case c sel name size u =
  let select = u.select and classify = u.classify and measure = u.measure in
  { u with all = Any c :: u.all; select = (fun rest -> select Select.(sel :: rest));
           classify = (fun rest -> classify Select.(name :: rest));
           measure = (fun rest -> measure Select.(size :: rest)) }

(* A measuring selector has only a [Case] to return, so it leaves the
   size it counted in this cell, and the union reads it back as soon as
   the selector returns.  Nothing runs in between, and a selector
   stores only after its payload's own sizing (which may measure inner
   unions through the same cell) has finished.  One cell per domain:
   agents size their messages on other domains in sharded runs. *)
let measured = Domain.DLS.new_key (fun () -> ref 0)

let tagged u tag name body make =
  { tag; name; tag_field = Some (u.union_tag, Json.String name);
    tag_text = member_text u.union_tag ^ quoted name; body; make }

(* The tag member, ["tag":"name"] and its separator. *)
let tag_size u name = name_size u.union_tag + Json.string_length name

let case tag name body make u =
  let c = tagged u tag name body make in
  let only = Case c and n = tag_size u name in
  add_case c (fun x -> Value (c, x)) (fun _ -> only)
    (fun x -> Domain.DLS.get measured := n + body.measure x; only)
    u

(* Sizing a two-part payload pairs it up for the body. *)
let case2 tag name body make u =
  let c = tagged u tag name body (fun (a, b) -> make a b) in
  let only = Case c and n = tag_size u name in
  add_case c (fun a b -> Value (c, (a, b))) (fun _ _ -> only)
    (fun a b -> Domain.DLS.get measured := n + body.measure (a, b); only)
    u

let untagged tag body make u =
  let c = { tag; name = ""; tag_field = None; tag_text = ""; body; make } in
  let only = Case c in
  add_case c (fun x -> Value (c, x)) (fun _ -> only)
    (fun x -> Domain.DLS.get measured := body.measure x; only)
    u

(* One [classify] dispatch per union, shared by [case_name] and
   [variant]. *)
let classifier u =
  match u.classifier with
  | Some classify -> classify
  | None ->
    let (Dispatch classify) = u.destruct (u.classify Select.[]) in
    u.classifier <- Some classify;
    classify

let case_name u =
  let classify = classifier u in
  fun v -> match classify v with Case c -> c.name | Value (c, _) -> c.name

let bare_case () = invalid_arg "Codec: a union selector returned no payload"

(* The cases are resolved here, once: JSON finds a case by comparing
   its tag string with each case's name, binary indexes an array by the
   tag byte.  Where two cases share a name or tag, the one added last
   wins, as it does in [all]. *)
let variant u =
  let (Dispatch select) = u.destruct (u.select Select.[]) in
  let classify = classifier u in
  let (Dispatch measure) = u.destruct (u.measure Select.[]) in
  let untagged = List.find_opt (fun (Any c) -> c.tag_field = None) u.all in
  let tagged = Array.of_list (List.filter (fun (Any c) -> c.tag_field <> None) u.all) in
  let names = Array.map (fun (Any c) -> c.name) tagged in
  let by_tag = Array.make (List.fold_left (fun m (Any c) -> max m (c.tag + 1)) 0 u.all) None in
  List.iter (fun (Any c as any) -> by_tag.(c.tag) <- Some any) (List.rev u.all);
  let rec named_in s i =
    if i = Array.length names then -1 else if String.equal names.(i) s then i else named_in s (i + 1)
  in
  let parse_case fs =
    let tag = member u.union_tag fs in
    let i = match tag with Json.String s -> named_in s 0 | _ -> -1 in
    if i >= 0 then tagged.(i)
    else match untagged with Some any -> any | None -> mismatch ("a known " ^ u.union_tag) tag
  in
  (* The tag member counts as read only when it names a case. *)
  let scan_case r fr =
    let e = find r fr u.union_tag in
    let i = if e < 0 then -1 else named r.lx r.members.(e + 1) names 0 in
    if i >= 0 then begin
      r.members.(e + 2) <- 1;
      tagged.(i)
    end
    else match untagged with Some any -> any | None -> unexpected r ("a known " ^ u.union_tag)
  in
  { emit =
      (fun v rest ->
        match select v with
        | Value ({ tag_field = Some t; _ } as c, x) -> t :: c.body.emit x rest
        | Value (c, x) -> c.body.emit x rest
        | Case _ -> bare_case ());
    parse = (fun fs -> let (Any c) = parse_case fs in c.make (c.body.parse fs));
    print_tag =
      (fun b s v ->
        let text = match classify v with Case c -> c.tag_text | Value (c, _) -> c.tag_text in
        if text <> "" then begin
          separate b s;
          Buffer.add_string b text
        end);
    print =
      (fun b s v ->
        match select v with
        | Value (c, x) -> print_obj c.body b s x
        | Case _ -> bare_case ());
    scan = (fun r fr -> let (Any c) = scan_case r fr in c.make (c.body.scan r fr));
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

(* JSON writes [h]'s members after [u]'s tag member; [u] must be a
   union, so that [print_tag] writes its tag apart. *)
let splice_after_tag (h : 'h obj) hget (u : 'a obj) uget f =
  if u.print_tag == no_members then invalid_arg "Codec.splice_after_tag: not a union";
  { emit =
      (fun v rest ->
        f.emit v
          (match u.emit (uget v) rest with
          | tag :: fields -> tag :: h.emit (hget v) fields
          | [] -> h.emit (hget v) rest));
    parse = (fun fs -> let make = f.parse fs in make (h.parse fs) (u.parse fs));
    print_tag = no_members;
    print =
      (fun b s v ->
        f.print b s v;
        let x = uget v in
        u.print_tag b s x;
        print_obj h b s (hget v);
        u.print b s x);
    scan = (fun r fr -> let make = f.scan r fr in let hv = h.scan r fr in make hv (u.scan r fr));
    put = (fun k v -> f.put k v; h.put k (hget v); u.put k (uget v));
    take = (fun r -> let make = f.take r in let hv = h.take r in make hv (u.take r));
    measure = (fun v -> f.measure v + h.measure (hget v) + u.measure (uget v)) }

(* ------------------------------------------------------------------ *)
(* Framings                                                            *)
(* ------------------------------------------------------------------ *)

let binary_tag = 'B'

(* Per-domain scratch, as [Compress] keeps its workspace: the buffer
   every encoding is written into before it is copied out, and the
   reading state.  A call made while the domain's own is in use (a
   [conv] function that encodes or decodes) gets fresh ones. *)
type scratch = { text : Buffer.t; mutable writing : bool; reading : reading }

let fresh_reading () = { lx = Json.Lexer.create (); members = Array.make 64 0; top = 0; busy = false }

let scratch =
  Domain.DLS.new_key (fun () ->
      { text = Buffer.create 256; writing = false; reading = fresh_reading () })

let write_framed (framing : Framing.t) (c : _ t) b v =
  match framing with
  | Json -> c.print b v
  | Binary ->
    Buffer.add_char b binary_tag;
    c.write (Binary.buffer_sink b) v

(* [v] written into the domain's scratch buffer, and [result] of it. *)
let written framing c v result =
  let w = Domain.DLS.get scratch in
  if w.writing then begin
    let b = Buffer.create 256 in
    write_framed framing c b v;
    result b
  end
  else begin
    w.writing <- true;
    Buffer.clear w.text;
    match write_framed framing c w.text v with
    | () ->
      w.writing <- false;
      result w.text
    | exception e ->
      w.writing <- false;
      raise e
  end

let encode framing c v = written framing c v Buffer.contents

let to_json c v = c.to_json v

(* Constructors a description calls on decode (Addr.prefix,
   Payload.of_tokens_trailing, Hfl.of_string, ...) reject bad values
   with Invalid_argument or Failure: on the wire, malformed input like
   any other. *)
let of_json c j =
  try c.of_json j with Invalid_argument m | Failure m -> raise (Binary.Decode_error m)

let scan_text (c : _ t) r =
  Json.Lexer.skip_ws r.lx;
  let v = c.scan r in
  Json.Lexer.finish r.lx;
  v

let read_text c s =
  let shared = (Domain.DLS.get scratch).reading in
  let r = if shared.busy then fresh_reading () else shared in
  r.busy <- true;
  r.top <- 0;
  Json.Lexer.reset r.lx s;
  match scan_text c r with
  | v ->
    r.busy <- false;
    Json.Lexer.reset r.lx "";
    v
  | exception e ->
    r.busy <- false;
    Json.Lexer.reset r.lx "";
    raise e

let decode c s =
  try
    if String.length s > 0 && s.[0] = binary_tag then begin
      let r = Binary.reader ~pos:1 s in
      let v = c.read r in
      if r.pos <> String.length s then fail "Codec: %d trailing bytes" (String.length s - r.pos);
      v
    end
    else read_text c s
  with Invalid_argument m | Failure m | Json.Parse_error m -> raise (Binary.Decode_error m)

let json_size c v = c.size v
let binary_size c v = written Binary c v Buffer.length
