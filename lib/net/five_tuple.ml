type t = {
  src_ip : Addr.t;
  dst_ip : Addr.t;
  src_port : int;
  dst_port : int;
  proto : Packet.proto;
}

let of_packet (p : Packet.t) =
  {
    src_ip = p.src_ip;
    dst_ip = p.dst_ip;
    src_port = p.src_port;
    dst_port = p.dst_port;
    proto = p.proto;
  }

let reverse t =
  {
    src_ip = t.dst_ip;
    dst_ip = t.src_ip;
    src_port = t.dst_port;
    dst_port = t.src_port;
    proto = t.proto;
  }

let compare a b =
  let c = Addr.compare a.src_ip b.src_ip in
  if c <> 0 then c
  else
    let c = Addr.compare a.dst_ip b.dst_ip in
    if c <> 0 then c
    else
      let c = Int.compare a.src_port b.src_port in
      if c <> 0 then c
      else
        let c = Int.compare a.dst_port b.dst_port in
        if c <> 0 then c else Stdlib.compare a.proto b.proto

let canonical t =
  let r = reverse t in
  if compare t r <= 0 then t else r

let equal a b = compare a b = 0

let to_string t =
  Printf.sprintf "%s %s:%d>%s:%d"
    (Packet.proto_to_string t.proto)
    (Addr.to_string t.src_ip) t.src_port (Addr.to_string t.dst_ip) t.dst_port

let of_string s =
  let malformed () = invalid_arg (Printf.sprintf "Five_tuple.of_string: malformed tuple %S" s) in
  let endpoint e =
    match String.rindex_opt e ':' with
    | Some i -> (
      let p = String.sub e (i + 1) (String.length e - i - 1) in
      match int_of_string_opt p with
      | Some port when String.for_all (fun c -> '0' <= c && c <= '9') p && port <= 0xFFFF ->
        (Addr.of_string (String.sub e 0 i), port)
      | _ -> malformed ())
    | None -> malformed ()
  in
  match String.split_on_char ' ' s with
  | [ proto; rest ] -> (
    match String.split_on_char '>' rest with
    | [ a; b ] ->
      let src_ip, src_port = endpoint a and dst_ip, dst_port = endpoint b in
      { src_ip; dst_ip; src_port; dst_port; proto = Packet.proto_of_string proto }
    | _ -> malformed ())
  | _ -> malformed ()

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* ------------------------------------------------------------------ *)
(* Packed keys                                                         *)
(* ------------------------------------------------------------------ *)

(* The whole five-tuple fits in 98 bits, i.e. two native ints on 64-bit
   platforms: [pa] = src_ip:32 | src_port:16 and [pb] = dst_ip:32 |
   dst_port:16 | proto:2.  The hash is precomputed at pack time so hot
   lookups neither allocate nor walk any structure. *)
type packed = { pa : int; pb : int; phash : int }

let proto_code = function Packet.Tcp -> 0 | Packet.Udp -> 1 | Packet.Icmp -> 2
let proto_of_code = function 0 -> Packet.Tcp | 1 -> Packet.Udp | _ -> Packet.Icmp

(* Avalanching two-word mixer (murmur3-finalizer style, one extra
   round): [pb] is spread by a multiply before combining so the two
   words never cancel, then two xor-shift/multiply rounds diffuse every
   key bit into every hash bit — including the low bits the flat
   tables' power-of-two slot masks keep.  The old single-round mixer
   (and the polymorphic [Hashtbl.hash] before it) clustered adversarial
   key patterns like sequential ports or same-subnet addresses; the
   bucket-skew property in test_net pins the new distribution.
   Constants are odd and fit OCaml's 63-bit native int, in which all
   arithmetic here wraps mod 2^63.  Result is non-negative, as the flat
   tables require ([-1] marks their empty slots). *)
let mix pa pb =
  let h = pa + (pb * 0x2545F4914F6CDD1D) in
  let h = (h lxor (h lsr 30)) * 0x3C79AC492BA7B653 in
  let h = (h lxor (h lsr 27)) * 0x1C69B3F74AC4AE35 in
  (h lxor (h lsr 31)) land max_int

let hash_words ~pa ~pb = mix pa pb

let pack_ints src_ip src_port dst_ip dst_port code =
  let pa = (src_ip lsl 16) lor (src_port land 0xFFFF) in
  let pb = (dst_ip lsl 18) lor ((dst_port land 0xFFFF) lsl 2) lor code in
  { pa; pb; phash = mix pa pb }

(* Scalar word accessors: the packed words of a tuple without building
   the [packed] record — the state-table fast path probes flat tables
   with these and allocates nothing. *)
let word_a t = (Addr.to_int t.src_ip lsl 16) lor (t.src_port land 0xFFFF)

let word_b t =
  (Addr.to_int t.dst_ip lsl 18)
  lor ((t.dst_port land 0xFFFF) lsl 2)
  lor proto_code t.proto

let word_a_packet (p : Packet.t) =
  (Addr.to_int p.src_ip lsl 16) lor (p.src_port land 0xFFFF)

let word_b_packet (p : Packet.t) =
  (Addr.to_int p.dst_ip lsl 18)
  lor ((p.dst_port land 0xFFFF) lsl 2)
  lor proto_code p.proto

(* Field-level variants for callers that hold the header fields loose
   (e.g. a state table reconstructing words from a stored Hfl key)
   without a tuple record to pass. *)
let word_a_of ~src_ip ~src_port = (Addr.to_int src_ip lsl 16) lor (src_port land 0xFFFF)

let word_b_of ~dst_ip ~dst_port ~proto =
  (Addr.to_int dst_ip lsl 18) lor ((dst_port land 0xFFFF) lsl 2) lor proto_code proto

let hash t = mix (word_a t) (word_b t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let pack t =
  pack_ints (Addr.to_int t.src_ip) t.src_port (Addr.to_int t.dst_ip) t.dst_port
    (proto_code t.proto)

let pack_packet (p : Packet.t) =
  pack_ints (Addr.to_int p.src_ip) p.src_port (Addr.to_int p.dst_ip) p.dst_port
    (proto_code p.proto)

let packed_reverse k =
  pack_ints (k.pb lsr 18) ((k.pb lsr 2) land 0xFFFF) (k.pa lsr 16) (k.pa land 0xFFFF)
    (k.pb land 3)

let unpack k =
  {
    src_ip = Addr.of_int (k.pa lsr 16);
    src_port = k.pa land 0xFFFF;
    dst_ip = Addr.of_int (k.pb lsr 18);
    dst_port = (k.pb lsr 2) land 0xFFFF;
    proto = proto_of_code (k.pb land 3);
  }

let packed_equal a b = a.pa = b.pa && a.pb = b.pb
let packed_hash k = k.phash

(* Word-level access for the batch packet path: [Packet_batch] stores
   the two packed words in parallel int arrays and rebuilds a probe key
   only at table-lookup time. *)
let packed_pa k = k.pa
let packed_pb k = k.pb
let pack_words ~pa ~pb = { pa; pb; phash = mix pa pb }

(* Direction-insensitive hash without materializing the reversed key:
   feed the smaller (pa, pb) word pair of the two directions through the
   same finalizer.  Used for shard placement, so both directions of a
   connection land on the same shard. *)
let packed_canonical_hash k =
  let rpa = ((k.pb lsr 18) lsl 16) lor ((k.pb lsr 2) land 0xFFFF) in
  let rpb = ((k.pa lsr 16) lsl 18) lor ((k.pa land 0xFFFF) lsl 2) lor (k.pb land 3) in
  if k.pa < rpa || (k.pa = rpa && k.pb <= rpb) then mix k.pa k.pb else mix rpa rpb

module Packed_table = Hashtbl.Make (struct
  type t = packed

  let equal = packed_equal
  let hash = packed_hash
end)
