(** Structure-of-arrays packet vector: the unit of the batch data path.

    A batch carries up to a window's worth of packets as parallel
    columns — the two packed five-tuple key words ({!Five_tuple.packed_pa}
    / {!Five_tuple.packed_pb}), the precomputed key hash, wire size,
    arrival timestamp — plus a payload slot array of
    the {!Packet.t} records themselves.  Vectorized passes (flow-table
    classification, NAT/monitor/firewall fast paths) run over the flat
    int columns; anything that needs the full packet (wildcard rule
    scans, state-table updates, controller punts) falls out to a scalar
    sidecar via {!get}.

    Batches are pooled and reused like the engine's pooled event cells:
    steady-state batch flow allocates nothing.  Ownership convention:
    {e the receiver of a batch owns it} and must either {!release} it or
    forward it onward.  Before posting a batch to another shard,
    {!detach} it — pools are single-domain. *)

open Openmb_sim

type t
(** A mutable, growable packet batch. *)

type pool
(** A free list of batches (single-domain; not thread-safe). *)

(** {2 Construction} *)

val create : ?capacity:int -> unit -> t
(** An unpooled batch (GC-owned; {!release} just clears it).  The
    default capacity is 64; batches grow by doubling. *)

val pool : ?telemetry:Telemetry.t -> unit -> pool
(** A batch pool.  With [?telemetry], the number of outstanding batches
    feeds the ["batch.pool_outstanding"] gauge (whose peak is the
    pool high-water mark). *)

val alloc : ?capacity:int -> pool -> t
(** Take a cleared batch from the pool's free list, or build a fresh one
    ([capacity] applies only when building). *)

val singleton : pool -> Packet.t -> t
(** A pooled batch holding one packet: how a scalar entry point joins
    the batch path. *)

val release : t -> unit
(** Clear the batch (dropping all packet references) and return it to
    its home pool.  No-op beyond the clear for unpooled or {!detach}ed
    batches. *)

val detach : t -> unit
(** Unlink the batch from its home pool, transferring ownership to the
    GC.  Required before a cross-shard post: the receiving shard's
    {!release} must not touch the sending shard's free list. *)

(** {2 Member access} *)

val length : t -> int
val capacity : t -> int

val push : t -> Packet.t -> unit
(** Append a packet, filling every column (packs the five-tuple,
    precomputes the hash and wire size). *)

val get : t -> int -> Packet.t
(** The full packet record of member [i] — the scalar-sidecar escape
    hatch. *)

val set : t -> int -> Packet.t -> unit
(** Replace member [i] with a rewritten packet (NAT translation, load
    balancer redirect), re-deriving its key and size columns so the next
    hop classifies the new header. *)

val key_a : t -> int array
(** First packed key words, [src_ip:32 | src_port:16]; valid indices are
    [0 .. length - 1].  The arrays returned by {!key_a}/{!key_b}/
    {!key_hash}/{!sizes} are the batch's own columns — they are
    invalidated by {!push} (growth) and rewritten by {!compact}. *)

val key_b : t -> int array
(** Second packed key words, [dst_ip:32 | dst_port:16 | proto:2]. *)

val key_hash : t -> int array
(** Precomputed packed-key hashes. *)

val sizes : t -> int array
(** Wire sizes in bytes. *)

val arrival : t -> int -> Time.t
(** Timestamp of member [i]. *)

val total_bytes : t -> int
(** Sum of the size column: the batch's wire footprint when it crosses a
    link as a single message. *)

(** {2 Drops and compaction} *)

val drop : t -> int -> unit
(** Mark member [i] dropped; it stays in place until {!compact}. *)

val is_dropped : t -> int -> bool

val compact : t -> int
(** Remove drop-marked members in place, preserving the relative order
    of survivors (per-flow FIFO is maintained).  Returns the number of
    members removed. *)

val clear : t -> unit
(** Empty the batch, dropping all packet references. *)

val iter : t -> (Packet.t -> unit) -> unit
(** Apply to each live member in order. *)

val drain : t -> (Packet.t -> unit) -> unit
(** [iter] then {!release}: hand each member to a scalar consumer and
    retire the batch. *)

(** {2 Pool statistics} *)

val pool_created : pool -> int
val pool_outstanding : pool -> int
val pool_high_water : pool -> int
