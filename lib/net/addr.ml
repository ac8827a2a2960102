type t = int (* 32-bit value in the low bits *)

type prefix = { base : t; len : int }

let of_int n = n land 0xFFFFFFFF
let to_int a = a

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] ->
    let octet x =
      match int_of_string_opt x with
      | Some v when v >= 0 && v <= 255 -> v
      | _ -> invalid_arg (Printf.sprintf "Addr.of_string: bad octet %S in %S" x s)
    in
    (octet a lsl 24) lor (octet b lsl 16) lor (octet c lsl 8) lor octet d
  | _ -> invalid_arg (Printf.sprintf "Addr.of_string: malformed address %S" s)

let to_string a =
  Printf.sprintf "%d.%d.%d.%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
    ((a lsr 8) land 0xFF) (a land 0xFF)

let equal = Int.equal
let compare = Int.compare
let hash = Hashtbl.hash

let mask_of_len len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg "Addr.prefix: mask length out of range";
  { base = addr land mask_of_len len; len }

let prefix_of_string s =
  match String.index_opt s '/' with
  | None -> prefix (of_string s) 32
  | Some i ->
    let addr = of_string (String.sub s 0 i) in
    let len_str = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt len_str with
    | Some len -> prefix addr len
    | None -> invalid_arg (Printf.sprintf "Addr.prefix_of_string: bad mask in %S" s))

let prefix_len p = p.len
let prefix_base p = p.base
let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.base) p.len
let prefix_equal p q = p.len = q.len && equal p.base q.base
let in_prefix a p = a land mask_of_len p.len = p.base

let prefix_subsumes p q =
  p.len <= q.len && q.base land mask_of_len p.len = p.base

let host_in_prefix p i =
  let capacity = if p.len >= 32 then 1 else 1 lsl (32 - p.len) in
  if i < 0 || i >= capacity then invalid_arg "Addr.host_in_prefix: offset out of range";
  of_int (p.base + i)

let pp fmt a = Format.pp_print_string fmt (to_string a)
