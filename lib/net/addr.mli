(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address. *)

type prefix
(** A CIDR prefix: address plus mask length.  The host bits of the
    stored address are always zero. *)

val of_string : string -> t
(** [of_string "10.1.2.3"] parses dotted-quad notation.  Raises
    [Invalid_argument] on malformed input. *)

val of_int : int -> t
(** [of_int n] is the address whose 32-bit big-endian value is
    [n land 0xFFFFFFFF]. *)

val to_int : t -> int
(** 32-bit value of the address. *)

val to_string : t -> string
(** Dotted-quad rendering. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val prefix_of_string : string -> prefix
(** [prefix_of_string "10.1.2.0/24"] parses CIDR notation; a bare
    address is treated as a /32.  Raises [Invalid_argument] on
    malformed input or a mask length outside [0, 32]. *)

val prefix : t -> int -> prefix
(** [prefix addr len] is the CIDR prefix of [addr] with mask length
    [len]; host bits are cleared. *)

val prefix_len : prefix -> int
(** Mask length of a prefix. *)

val prefix_base : prefix -> t
(** Network address (host bits zero) of a prefix. *)

val prefix_to_string : prefix -> string
(** CIDR rendering, e.g. ["10.1.2.0/24"]. *)

val prefix_equal : prefix -> prefix -> bool

val in_prefix : t -> prefix -> bool
(** [in_prefix a p] is [true] iff [a] falls inside [p]. *)

val prefix_subsumes : prefix -> prefix -> bool
(** [prefix_subsumes p q] is [true] iff every address in [q] is also in
    [p] (i.e. [p] is coarser than or equal to [q]). *)

val host_in_prefix : prefix -> int -> t
(** [host_in_prefix p i] is the [i]-th host address inside [p]
    (offset [i] added to the network address).  Raises
    [Invalid_argument] if [i] exceeds the prefix capacity. *)

val pp : Format.formatter -> t -> unit
