(** Compact binary wire primitives.

    Building blocks of the binary protocol framing: big-endian fixed
    ints, LEB128 varints (zigzag for signed values), IEEE-754 doubles
    and length-prefixed strings. *)

exception Decode_error of string
(** Raised by every [get_*] on malformed or truncated input. *)

type sink
(** Where encoders write. *)

val buffer_sink : Buffer.t -> sink

val u8 : sink -> int -> unit
val u16 : sink -> int -> unit
(** Big-endian. *)

val u32 : sink -> int -> unit
(** Big-endian. *)

val uvarint : sink -> int -> unit
(** LEB128; raises [Invalid_argument] on negative input. *)

val varint : sink -> int -> unit
(** Zigzag LEB128 for signed values. *)

val f64 : sink -> float -> unit
(** IEEE-754 bits, big-endian; exact round-trip. *)

val str : sink -> string -> unit
(** [uvarint] length followed by the bytes. *)

type reader = { src : string; mutable pos : int }

val reader : ?pos:int -> string -> reader

val get_u8 : reader -> int
val get_u16 : reader -> int
val get_u32 : reader -> int
val get_uvarint : reader -> int
(** Rejects encodings wider than a non-negative [int]. *)

val get_varint : reader -> int
val get_f64 : reader -> float
val get_str : reader -> string
