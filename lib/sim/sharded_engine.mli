(** Sharded multi-domain simulator core.

    Partitions a simulation across [shards] logical {!Shard}s — each
    with its own {!Engine} (timer wheel, event-cell pools), {!Prng}
    stream and {!Telemetry} registry — and runs them on [domains]
    OCaml 5 domains with a deterministic {e epoch-barrier} exchange:

    - Virtual time is cut into epochs of fixed length.  Within an
      epoch every shard runs its own engine up to the epoch horizon,
      completely independently.

    - Cross-shard messages ({!Shard.post}) accumulate in per-source
      outboxes.  At the barrier the coordinator drains them into each
      destination, clamped to the epoch horizon and ordered by
      [(deliver-at, source shard, per-source sequence)] — a total
      order independent of how shards were scheduled onto domains.

    - All shards then advance together into the next epoch.

    Because shard-local execution is sequential and the exchange order
    is total, a seeded run's result depends only on the shard count,
    the seed and the epoch length — {b never on [domains]}: an
    8-domain run is bit-identical to the same workload on 1 domain.
    Epoch length trades barrier overhead against cross-shard latency
    (a cross-shard message arrives at most one epoch late); it never
    affects shard-local event order.

    Consecutive all-idle epochs are skipped geometrically (the horizon
    stride doubles while no events execute and nothing is exchanged,
    and resets to one epoch on any activity), so sparse phases such as
    quiescence waits don't cost one barrier per epoch. *)

type t

val create :
  ?slot_us:float ->
  ?domains:int ->
  ?epoch:Time.t ->
  ?seed:int ->
  ?span_capacity:int ->
  shards:int ->
  unit ->
  t
(** [create ~shards ()] builds [shards] logical shards.

    [domains] (default [1]) is the number of OCaml domains {!run} uses;
    it is capped at [shards].  [epoch] (default 1 ms of simulated
    time) is the barrier interval.  [seed] (default [0]) derives every
    shard's independent PRNG stream.  [slot_us] and [span_capacity]
    are passed through to each shard's engine and telemetry. *)

val shards : t -> int
val domains : t -> int

val shard : t -> int -> Shard.t
(** [shard t i] for [i] in [\[0, shards)]. *)

val run : ?until:Time.t -> t -> unit
(** Run epochs until every shard's queue drains and no message is in
    flight, or — with [?until] — until the clamped horizon reaches
    [until], leaving later events pending and every shard's clock at
    [until].  With [domains > 1] the epoch bodies execute on spawned
    domains (one worker per domain, shards assigned round-robin);
    workers live for the duration of this call. *)

val now : t -> Time.t
(** The epoch horizon reached so far (every shard's clock after
    {!run} returns). *)

val executed : t -> int
(** Total events dispatched across all shards. *)

val pending : t -> int
(** Live events still queued across all shards. *)

val exchanged : t -> int
(** Cross-shard messages delivered at barriers so far. *)

val epochs : t -> int
(** Barrier rounds run so far (idle-skipped epochs count once). *)

val merged_snapshot : t -> Telemetry.snapshot
(** {!Telemetry.merge} of every shard's registry, shard 0 first. *)
