(** One shard of a sharded simulation: a private engine, PRNG stream
    and telemetry registry, plus outboxes toward every other shard.

    A {!Sharded_engine} partitions the flow space across [N] logical
    shards.  Everything a shard owns — its {!Engine} (timer wheel and
    event-cell pools included), its {!Prng} stream, its {!Telemetry}
    registry — is touched only by the domain currently running that
    shard, so shard-local work needs no synchronisation at all.

    Cross-shard traffic goes through {!post}: the message is
    appended to the source shard's outbox for the destination and is
    exchanged at the next {e epoch barrier}, where the coordinator
    merges every destination's incoming messages in deterministic
    [(deliver-at, source-shard, sequence)] order.  A post whose target
    is the local shard short-circuits to a plain engine schedule.

    The creation and exchange entry points ({!create}, {!drain},
    {!inject}) are {!Sharded_engine}'s internals — use that module, not
    this one, to build a sharded simulation. *)

type t
(** A shard handle.  Valid for the lifetime of its sharded engine. *)

val id : t -> int
(** This shard's index in [\[0, shards)]. *)

val shards : t -> int
(** Total logical shards in the sharded engine that owns this shard. *)

val engine : t -> Engine.t
(** The shard-private engine.  Schedule shard-local work here. *)

val prng : t -> Prng.t
(** The shard-private PRNG stream, derived deterministically from the
    sharded engine's seed and this shard's index — independent of the
    domain count. *)

val telemetry : t -> Telemetry.t
(** The shard-private registry; aggregate across shards with
    {!Sharded_engine.merged_snapshot}. *)

val post : t -> dst:int -> at:Time.t -> ('a -> unit) -> 'a -> unit
(** [post src ~dst ~at f x] runs [f x] on shard [dst] no earlier than
    [at].  When [dst] is the local shard this is exactly
    [Engine.call_at]; otherwise the message crosses at the next epoch
    barrier and its delivery time is clamped to the epoch horizon, so
    cross-shard latency is at most one epoch longer than asked.
    Raises [Invalid_argument] if [at] is in the local past or [dst] is
    out of range. *)

type route = { route : 'a. at:Time.t -> ('a -> unit) -> 'a -> unit }
(** A polymorphic posting function toward one fixed destination shard —
    the hook components like {!Channel} and the controller take to make
    their deliveries shard-safe without knowing about shards. *)

val route_to : t -> dst:int -> route
(** [route_to src ~dst] is [{ route = post src ~dst }]. *)

val posted : t -> int
(** Cross-shard messages this shard has posted (local short-circuits
    excluded). *)

(** {2 Sharded-engine internals} *)

type omsg
(** An outbox record: deliver-at time, per-source sequence number and
    the closure-free payload. *)

val msg_at : omsg -> Time.t
val msg_seq : omsg -> int

val create :
  ?slot_us:float ->
  ?span_capacity:int ->
  id:int ->
  shards:int ->
  prng:Prng.t ->
  unit ->
  t

val drain : t -> dst:int -> omsg list
(** Remove and return the outbox toward [dst], in posting order. *)

val inject : t -> at:Time.t -> omsg -> unit
(** Schedule a drained message on this (destination) shard's engine at
    [at], which must not precede the shard's clock. *)
