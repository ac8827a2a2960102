type dim = Dim_src_ip | Dim_dst_ip | Dim_src_port | Dim_dst_port | Dim_proto

type field =
  | Src_ip of Addr.prefix
  | Dst_ip of Addr.prefix
  | Src_port of int
  | Dst_port of int
  | Proto of Packet.proto

type t = field list

type granularity = dim list

let any = []
let full_granularity = [ Dim_src_ip; Dim_dst_ip; Dim_src_port; Dim_dst_port; Dim_proto ]

let dim_of_field = function
  | Src_ip _ -> Dim_src_ip
  | Dst_ip _ -> Dim_dst_ip
  | Src_port _ -> Dim_src_port
  | Dst_port _ -> Dim_dst_port
  | Proto _ -> Dim_proto

let field_matches (tup : Five_tuple.t) = function
  | Src_ip p -> Addr.in_prefix tup.src_ip p
  | Dst_ip p -> Addr.in_prefix tup.dst_ip p
  | Src_port port -> tup.src_port = port
  | Dst_port port -> tup.dst_port = port
  | Proto proto -> tup.proto = proto

let matches_tuple hfl tup = List.for_all (field_matches tup) hfl

let field_matches_packet (p : Packet.t) = function
  | Src_ip pre -> Addr.in_prefix p.src_ip pre
  | Dst_ip pre -> Addr.in_prefix p.dst_ip pre
  | Src_port port -> p.src_port = port
  | Dst_port port -> p.dst_port = port
  | Proto proto -> p.proto = proto

(* Equivalent to [matches_tuple hfl (Five_tuple.of_packet p)] but reads
   the packet's header fields directly: the packet path calls this per
   rule, and the tuple record + closure it used to build per call was
   pure garbage. *)
let rec matches_packet hfl p =
  match hfl with
  | [] -> true
  | f :: rest -> field_matches_packet p f && matches_packet rest p

let matches_bidir hfl tup =
  matches_tuple hfl tup || matches_tuple hfl (Five_tuple.reverse tup)

(* [a] subsumes [b] iff every constraint of [a] is implied by some
   constraint of [b] on the same dimension. *)
let field_subsumes fa fb =
  match (fa, fb) with
  | Src_ip pa, Src_ip pb | Dst_ip pa, Dst_ip pb -> Addr.prefix_subsumes pa pb
  | Src_port a, Src_port b | Dst_port a, Dst_port b -> a = b
  | Proto a, Proto b -> a = b
  | (Src_ip _ | Dst_ip _ | Src_port _ | Dst_port _ | Proto _), _ -> false

(* Written out rather than as [List.for_all]/[List.exists] over
   closures: scans call this once per stored entry. *)
let rec implied fa = function [] -> false | fb :: rest -> field_subsumes fa fb || implied fa rest

let rec subsumes a b = match a with [] -> true | fa :: rest -> implied fa b && subsumes rest b

let well_formed hfl =
  let dims = List.map dim_of_field hfl in
  List.length (List.sort_uniq Stdlib.compare dims) = List.length dims

let compatible_with_granularity hfl g =
  List.for_all (fun f -> List.mem (dim_of_field f) g) hfl

(* Inverse of [key_of_tuple full_granularity]: the tuple an HFL pins
   exactly, when it constrains every dimension to a single value. *)
let to_tuple hfl =
  let src = ref (-1) and dst = ref (-1) in
  let sport = ref (-1) and dport = ref (-1) in
  let proto = ref None in
  let exact = ref true in
  List.iter
    (fun f ->
      match f with
      | Src_ip p ->
        if Addr.prefix_len p = 32 && !src < 0 then src := Addr.to_int (Addr.prefix_base p)
        else exact := false
      | Dst_ip p ->
        if Addr.prefix_len p = 32 && !dst < 0 then dst := Addr.to_int (Addr.prefix_base p)
        else exact := false
      | Src_port v -> if !sport < 0 then sport := v else exact := false
      | Dst_port v -> if !dport < 0 then dport := v else exact := false
      | Proto v -> (
        match !proto with None -> proto := Some v | Some _ -> exact := false))
    hfl;
  match !proto with
  | Some proto when !exact && !src >= 0 && !dst >= 0 && !sport >= 0 && !dport >= 0 ->
    Some
      {
        Five_tuple.src_ip = Addr.of_int !src;
        dst_ip = Addr.of_int !dst;
        src_port = !sport;
        dst_port = !dport;
        proto;
      }
  | Some _ | None -> None

(* The projections recurse directly: [List.filter_map] would build a
   closure per call and a [Some] per field, and a new flow's key is built
   once per flow. *)
let field_of_dim d ~src_ip ~dst_ip ~src_port ~dst_port ~proto =
  match d with
  | Dim_src_ip -> Src_ip (Addr.prefix src_ip 32)
  | Dim_dst_ip -> Dst_ip (Addr.prefix dst_ip 32)
  | Dim_src_port -> Src_port src_port
  | Dim_dst_port -> Dst_port dst_port
  | Dim_proto -> Proto proto

let rec key_of_tuple g (tup : Five_tuple.t) =
  match g with
  | [] -> []
  | d :: rest ->
    field_of_dim d ~src_ip:tup.src_ip ~dst_ip:tup.dst_ip ~src_port:tup.src_port
      ~dst_port:tup.dst_port ~proto:tup.proto
    :: key_of_tuple rest tup

let rec key_of_packet g (p : Packet.t) =
  match g with
  | [] -> []
  | d :: rest ->
    field_of_dim d ~src_ip:p.src_ip ~dst_ip:p.dst_ip ~src_port:p.src_port
      ~dst_port:p.dst_port ~proto:p.proto
    :: key_of_packet rest p

(* Text form, e.g. "nw_src=10.0.0.0/24,tp_dst=80": sized by arithmetic,
   then written into one buffer of exactly that size.  Digits are
   counted and written on the non-positive side, where [min_int] has a
   magnitude. *)

let field_name = function
  | Src_ip _ -> "nw_src="
  | Dst_ip _ -> "nw_dst="
  | Src_port _ -> "tp_src="
  | Dst_port _ -> "tp_dst="
  | Proto _ -> "proto="

let rec neg_digits m k = if m > -10 then k else neg_digits (m / 10) (k + 1)
let dec_length n = if n < 0 then neg_digits n 2 else neg_digits (-n) 1

let octet a shift = (Addr.to_int a lsr shift) land 0xFF

let prefix_length p =
  let a = Addr.prefix_base p in
  dec_length (octet a 24) + dec_length (octet a 16) + dec_length (octet a 8)
  + dec_length (octet a 0)
  + 4 (* three dots and the slash *)
  + dec_length (Addr.prefix_len p)

let field_length f =
  String.length (field_name f)
  +
  match f with
  | Src_ip p | Dst_ip p -> prefix_length p
  | Src_port v | Dst_port v -> dec_length v
  | Proto p -> String.length (Packet.proto_to_string p)

let rec text_length = function
  | [] -> 0
  | [ f ] -> field_length f
  | f :: rest -> field_length f + 1 + text_length rest

(* Write [n] ending just before [stop]; [m] is [n] or [-n], whichever is
   not positive. *)
let rec write_neg b stop m =
  Bytes.set b (stop - 1) (Char.unsafe_chr (48 - (m mod 10)));
  if m <= -10 then write_neg b (stop - 1) (m / 10)

let write_dec b pos n =
  let stop = pos + dec_length n in
  if n < 0 then begin
    Bytes.set b pos '-';
    write_neg b stop n
  end
  else write_neg b stop (-n);
  stop

let write_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let write_char b pos c =
  Bytes.set b pos c;
  pos + 1

let write_prefix b pos p =
  let a = Addr.prefix_base p in
  let pos = write_char b (write_dec b pos (octet a 24)) '.' in
  let pos = write_char b (write_dec b pos (octet a 16)) '.' in
  let pos = write_char b (write_dec b pos (octet a 8)) '.' in
  let pos = write_char b (write_dec b pos (octet a 0)) '/' in
  write_dec b pos (Addr.prefix_len p)

let write_field b pos f =
  let pos = write_string b pos (field_name f) in
  match f with
  | Src_ip p | Dst_ip p -> write_prefix b pos p
  | Src_port v | Dst_port v -> write_dec b pos v
  | Proto p -> write_string b pos (Packet.proto_to_string p)

let rec write_fields b pos = function
  | [] -> ()
  | [ f ] -> ignore (write_field b pos f : int)
  | f :: rest -> write_fields b (write_char b (write_field b pos f) ',') rest

let to_string hfl =
  let b = Bytes.create (text_length hfl) in
  write_fields b 0 hfl;
  Bytes.unsafe_to_string b

let field_of_string s =
  match String.index_opt s '=' with
  | None -> invalid_arg (Printf.sprintf "Hfl.of_string: missing '=' in %S" s)
  | Some i ->
    let key = String.sub s 0 i in
    let value = String.sub s (i + 1) (String.length s - i - 1) in
    (match key with
    | "nw_src" -> Src_ip (Addr.prefix_of_string value)
    | "nw_dst" -> Dst_ip (Addr.prefix_of_string value)
    | "tp_src" -> Src_port (int_of_string value)
    | "tp_dst" -> Dst_port (int_of_string value)
    | "proto" -> Proto (Packet.proto_of_string value)
    | _ -> invalid_arg (Printf.sprintf "Hfl.of_string: unknown field %S" key))

let of_string s =
  if String.length s = 0 then []
  else List.map field_of_string (String.split_on_char ',' s)

let field_equal a b =
  match (a, b) with
  | Src_ip p, Src_ip q | Dst_ip p, Dst_ip q -> Addr.prefix_equal p q
  | Src_port p, Src_port q | Dst_port p, Dst_port q -> p = q
  | Proto p, Proto q -> p = q
  | (Src_ip _ | Dst_ip _ | Src_port _ | Dst_port _ | Proto _), _ -> false

let dim_rank = function
  | Dim_src_ip -> 0
  | Dim_dst_ip -> 1
  | Dim_src_port -> 2
  | Dim_dst_port -> 3
  | Dim_proto -> 4

(* Total order on fields: by dimension, then by value — the canonical
   order used to compare constraint lists. *)
let field_compare a b =
  let c = Int.compare (dim_rank (dim_of_field a)) (dim_rank (dim_of_field b)) in
  if c <> 0 then c
  else
    match (a, b) with
    | Src_ip p, Src_ip q | Dst_ip p, Dst_ip q ->
      let c = Int.compare (Addr.to_int (Addr.prefix_base p)) (Addr.to_int (Addr.prefix_base q)) in
      if c <> 0 then c else Int.compare (Addr.prefix_len p) (Addr.prefix_len q)
    | Src_port p, Src_port q | Dst_port p, Dst_port q -> Int.compare p q
    | Proto p, Proto q -> Stdlib.compare p q
    | (Src_ip _ | Dst_ip _ | Src_port _ | Dst_port _ | Proto _), _ -> 0 (* same dim *)

(* Equality up to constraint order, via canonical sorting.  (Mutual
   existence checks are not enough: [A;A] would equal [A;B].) *)
let equal a b =
  a == b
  || List.length a = List.length b
     && List.equal field_equal (List.sort field_compare a) (List.sort field_compare b)

let pp fmt hfl =
  if hfl = [] then Format.pp_print_string fmt "<any>"
  else Format.pp_print_string fmt (to_string hfl)
