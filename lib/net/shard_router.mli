(** Flow-space partitioning over a sharded simulation.

    Assigns every flow to the logical shard that owns it — by
    {!Five_tuple.packed_canonical_hash} of its packed key, so both
    directions of a connection land together — and hands out
    {!Openmb_sim.Shard.route}s for moving deliveries onto the owner.
    The router also counts placements per shard, which is what the
    scale bench reports as hash-sharding skew. *)

type t

val create : Openmb_sim.Sharded_engine.t -> t
(** A router over the engine's logical shards.  Cheap: precomputes the
    [shards x shards] route table once. *)

val shards : t -> int

val owner : t -> Five_tuple.packed -> int
(** Owning shard of a packed key: [packed_canonical_hash mod shards].
    Direction-insensitive. *)

val place : t -> Five_tuple.packed -> int
(** Like {!owner}, but also counts the placement toward the skew
    statistics.  Call once per flow (not per packet). *)

val route : t -> src:int -> dst:int -> Openmb_sim.Shard.route
(** The precomputed route posting from shard [src] onto shard [dst].
    Pass it to {!Openmb_sim.Channel.create}'s [?via] or
    {!Openmb_core.Controller.connect}'s [?remote]. *)

val placements : t -> int array
(** Flows counted by {!place}, per shard.  A fresh copy. *)

val skew : t -> float
(** Max/mean of {!placements} — [1.0] is a perfectly even split.
    [nan] before any placement. *)
