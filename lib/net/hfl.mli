(** Header-field lists: the paper's [<HeaderFieldList>] abstraction.

    A header-field list (HFL) is a conjunction of constraints over
    packet header dimensions.  It is the key used throughout OpenMB to
    identify per-flow state ([getSupportPerflow(hfl)]), to scope
    network routing updates, and to name moved state in events.

    A middlebox keys its per-flow state at a particular {e granularity}
    — the set of dimensions its internal keys distinguish (e.g. the
    Balance load balancer keys only on source IP and port).  Requests
    coarser than the granularity return all matching fine-grained
    chunks; requests finer than it are errors (§4.1.2). *)

type dim = Dim_src_ip | Dim_dst_ip | Dim_src_port | Dim_dst_port | Dim_proto
(** One header dimension. *)

type field =
  | Src_ip of Addr.prefix
  | Dst_ip of Addr.prefix
  | Src_port of int
  | Dst_port of int
  | Proto of Packet.proto
      (** One constraint.  IP constraints are CIDR prefixes; port and
          protocol constraints are exact. *)

type t = field list
(** A conjunction of constraints.  The empty list matches everything
    (the paper's [moveInternal(Prads2, Prads1, [])] uses this to move
    all flows). *)

type granularity = dim list
(** The set of dimensions a middlebox keys per-flow state on. *)

val any : t
(** Matches all traffic. *)

val full_granularity : granularity
(** All five dimensions — the granularity of five-tuple-keyed MBs. *)

val dim_of_field : field -> dim
(** Dimension a field constrains. *)

val matches_tuple : t -> Five_tuple.t -> bool
(** [matches_tuple hfl tup] is [true] iff [tup] satisfies every
    constraint. *)

val matches_packet : t -> Packet.t -> bool
(** [matches_packet hfl p] is [matches_tuple hfl (Five_tuple.of_packet p)]. *)

val matches_bidir : t -> Five_tuple.t -> bool
(** Like {!matches_tuple} but also true when the reversed tuple
    matches; used by MBs whose state is connection-oriented. *)

val subsumes : t -> t -> bool
(** [subsumes a b] is [true] iff every tuple matching [b] also matches
    [a] (i.e. [a] is coarser than or equal to [b]).  Sound and complete
    for constraint lists without duplicate dimensions. *)

val well_formed : t -> bool
(** No two constraints on the same dimension. *)

val compatible_with_granularity : t -> granularity -> bool
(** [compatible_with_granularity hfl g] is [true] iff [hfl] only
    constrains dimensions in [g] — i.e. the request is not finer than
    the MB's state granularity. *)

val key_of_tuple : granularity -> Five_tuple.t -> t
(** [key_of_tuple g tup] projects [tup] onto the dimensions of [g],
    yielding the exact-match HFL that names the state chunk for that
    flow at that MB. *)

val key_of_packet : granularity -> Packet.t -> t
(** [key_of_packet g p] is [key_of_tuple g (Five_tuple.of_packet p)],
    read from the packet's header fields without the tuple. *)

val to_tuple : t -> Five_tuple.t option
(** [to_tuple hfl] is the five-tuple [hfl] pins exactly — [Some tup]
    iff [hfl] constrains all five dimensions, each to a single value
    (/32 IP prefixes, one port, one protocol; no duplicate
    dimensions).  Inverse of [key_of_tuple full_granularity], up to
    constraint order. *)

val equal : t -> t -> bool
(** Equality up to constraint order. *)

val to_string : t -> string
(** OpenFlow-style rendering, e.g.
    ["nw_src=1.1.1.0/24,tp_dst=80"]; [""] for {!any}. *)

val text_length : t -> int
(** [text_length h] is [String.length (to_string h)], computed without
    rendering. *)

val of_string : string -> t
(** Inverse of {!to_string}.  Raises [Invalid_argument] on malformed
    input. *)

val pp : Format.formatter -> t -> unit
