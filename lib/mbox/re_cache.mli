(** Packet cache for redundancy elimination.

    A fixed-capacity window over an append-only stream of content
    tokens, addressed by {e absolute} offsets (the offset of a token
    never changes; old offsets fall out of the window as new content
    arrives).  This is the ring buffer of the paper's RE encoder and
    decoder (§6.1), with two position-synchronization modes:

    - {e explicit}: writers place tokens at caller-supplied absolute
      offsets (used by OpenMB-enabled decoders, which append at the
      offset stamped on each encoded packet — robust to reordering);
    - {e implicit}: classic SmartRE behaviour, the writer appends at
      its own head position.  One missed packet permanently desynchronizes
      an implicit decoder from its encoder.

    The mode is a property of the {e user} (the cache itself supports
    both write styles). *)

type t

val create : capacity:int -> unit -> t
(** Cache holding the most recent [capacity] tokens.  [capacity] must
    be positive. *)

val capacity : t -> int

val pos : t -> int
(** Head: the absolute offset the next self-appended token would get. *)

val write : t -> offset:int -> token:int -> unit
(** Place [token] at absolute [offset]; advances {!pos} to
    [offset + 1] when beyond it. *)

val append : t -> int array -> int
(** Append tokens at the head; returns the base offset they were
    written at. *)

val read : t -> offset:int -> int option
(** Token at absolute [offset], or [None] if it was never written or
    has left the window. *)

val read_run : t -> offset:int -> len:int -> int array option
(** [len] consecutive tokens from [offset]; [None] if any is absent. *)

val in_window : t -> int -> bool
(** Whether an absolute offset is within the current window. *)

val clone : t -> t
(** Deep copy (the encoder's internal cache clone on [NumCaches]
    growth). *)

val serialize : t -> string
(** Compact binary serialization of the window contents and head —
    the decoder's shared-supporting-state chunk body (an MB-private
    format; opaque to the controller per §4.1.2). *)

val deserialize : string -> t
(** Inverse of {!serialize}.  Raises [Invalid_argument] on corrupt
    input. *)

val equal_contents : t -> t -> bool
(** Same head and same resident (offset, token) pairs — cache
    synchronization check used by tests. *)
