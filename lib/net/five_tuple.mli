(** Transport five-tuples: the finest flow identity in the system. *)

type t = {
  src_ip : Addr.t;
  dst_ip : Addr.t;
  src_port : int;
  dst_port : int;
  proto : Packet.proto;
}

val of_packet : Packet.t -> t
(** Five-tuple of a packet as sent. *)

val reverse : t -> t
(** The tuple of the opposite direction. *)

val canonical : t -> t
(** Direction-insensitive form: the lexicographically smaller of [t]
    and [reverse t].  Two packets of the same bidirectional connection
    have equal canonical tuples. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val hash : t -> int
(** Avalanching hash of the packed key words — identical to
    [packed_hash (pack t)], so record-keyed and packed-keyed tables
    agree.  (Replaces the polymorphic [Hashtbl.hash], whose weak mixing
    clustered sequential ports and same-subnet addresses.) *)

val to_string : t -> string
(** ["tcp 10.0.0.1:3456>1.1.1.5:80"]. *)

val of_string : string -> t
(** Inverse of {!to_string}; raises [Invalid_argument] on any other
    text, a port outside 0–65535 included. *)

val pp : Format.formatter -> t -> unit

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by five-tuples (direction-sensitive). *)

(** {2 Packed keys}

    A five-tuple packed into two native ints with a precomputed hash:
    the allocation-free key the packet path probes state and flow
    tables with.  Requires a 64-bit platform (the 98 key bits are split
    48/50 across the two words). *)

type packed
(** An immutable packed five-tuple key. *)

val pack : t -> packed

val pack_packet : Packet.t -> packed
(** [pack_packet p] is [pack (of_packet p)] without building the
    intermediate tuple. *)

val packed_reverse : packed -> packed
(** Packed key of the opposite direction. *)

val unpack : packed -> t

val packed_equal : packed -> packed -> bool

val packed_hash : packed -> int
(** The hash precomputed at pack time: [hash_words] of the two words. *)

val hash_words : pa:int -> pb:int -> int
(** The avalanching two-word mixer itself: non-negative, suitable as
    the [h] argument of {!Flat_table} probes.  Every place a packed key
    (or an int widened to the packed shape) is hashed composes this
    mixer. *)

val word_a : t -> int
(** First packed word of a tuple ([src_ip:32 | src_port:16]) without
    materializing the [packed] record — the allocation-free fast path
    of flat-table probes. *)

val word_b : t -> int
(** Second packed word ([dst_ip:32 | dst_port:16 | proto:2]). *)

val word_a_packet : Packet.t -> int
val word_b_packet : Packet.t -> int
(** Packed words straight from a packet's headers — [word_a (of_packet
    p)] etc. without the intermediate tuple; the batch fill path derives
    its key columns with these. *)

val word_a_of : src_ip:Addr.t -> src_port:int -> int

val word_b_of : dst_ip:Addr.t -> dst_port:int -> proto:Packet.proto -> int
(** Packed words from loose header fields, for callers without a tuple
    or packet to hand (state tables reconstructing probe words from a
    stored Hfl key). *)

val packed_pa : packed -> int
(** First packed word: [src_ip:32 | src_port:16]. *)

val packed_pb : packed -> int
(** Second packed word: [dst_ip:32 | dst_port:16 | proto:2]. *)

val pack_words : pa:int -> pb:int -> packed
(** Rebuild a key from its two words (hash recomputed).  Inverse of
    {!packed_pa}/{!packed_pb}; the batch packet path stores the words
    in parallel int arrays and re-materializes probe keys with this. *)

val packed_canonical_hash : packed -> int
(** Direction-insensitive hash: equal for a key and its
    {!packed_reverse}, computed without materializing the reverse.
    This is the shard-placement hash — both directions of a
    bidirectional connection map to the same shard. *)

module Packed_table : Hashtbl.S with type key = packed
(** Hash tables keyed by packed five-tuples (direction-sensitive). *)
