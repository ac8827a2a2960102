(** The OpenMB middlebox controller (§5).

    The controller brokers every exchange of state and events between
    middleboxes: it translates northbound calls into sequences of
    southbound operations, streams state chunks from source to
    destination, tracks put acknowledgements, buffers re-process events
    until the state they apply to has been installed at the
    destination, and issues the deferred deletes once events quiesce
    (Figure 5).  Those decisions are {!Transfer}'s; the controller is
    its I/O shell, turning the machine's actions into channel sends,
    engine timers, spans and counters.

    All controller work passes through a single simulated CPU, so
    concurrent operations contend — reproducing the linear scaling of
    Figure 10(b).  State transfers can optionally be compressed (§8.3).

    Because the host simulation is single-threaded and event-driven,
    northbound calls are continuation-passing: each takes an [on_done]
    callback fired when the operation returns. *)

type t

type config = {
  quiescence : Openmb_sim.Time.t;
      (** Idle time after which a transfer's events are assumed done
          and the deferred delete is issued (paper: 5 s). *)
  cpu_fixed : Openmb_sim.Time.t;
      (** Controller CPU per processed message (thread wake-up,
          locking). *)
  cpu_per_byte : Openmb_sim.Time.t;
      (** Controller CPU per message byte (socket read, JSON parse). *)
  channel_latency : Openmb_sim.Time.t;
      (** Propagation latency of the controller–MB connections. *)
  channel_bandwidth : float;  (** Bytes/second of those connections. *)
  forward_events : bool;
      (** Forward re-process events to destinations (true in OpenMB;
          the event ablation bench disables it to demonstrate the lost
          state updates). *)
  framing : Openmb_wire.Framing.t;
      (** Wire framing of every controller–MB connection; determines
          message sizes and hence channel transfer costs. *)
  batch_chunks : int;
      (** Maximum chunks coalesced into one [putBatch] message during a
          transfer; at least 1.  A batch of one is still a [putBatch]:
          every chunk travels the same path. *)
  batch_bytes : int;
      (** Byte bound on a batch: a batch is cut early once its chunks
          reach this size, so a few large chunks don't ride in one
          oversized message. *)
  put_window : int;
      (** Maximum [putBatch] messages in flight to the destination at
          once; acks refill the window; at least 1.  Batching and
          windowing change only message timing, never the per-key ack
          bookkeeping. *)
  request_timeout : Openmb_sim.Time.t;
      (** Base idle timeout on a southbound op: if no reply activity is
          seen for this long, the op is retried (if idempotent) or
          failed with {!Errors.Timeout}.  [Time.zero] disables timeouts
          and retries entirely. *)
  retry_backoff_cap : Openmb_sim.Time.t;
      (** Upper bound on the exponential backoff between retries
          (attempt [n] waits [request_timeout * 2^n], capped here). *)
  max_retries : int;
      (** Retransmissions attempted on an idempotent op before it is
          failed with {!Errors.Timeout}.  Retried mutations are safe:
          they carry a sequence number the agent applies at most
          once. *)
}

val default_config : config
(** 5 s quiescence, 8 µs + 0.3 µs/byte CPU, 200 µs / 125 MB/s
    channels — calibrated to the paper's controller numbers; transfers
    batch up to 16 chunks / 32 KiB per [putBatch] with a 4-batch send
    window.  Requests time out after 30 s idle with up to 4 retries
    backing off to 120 s — generous enough that only real failures trip
    it.  (Compression of transfers is controlled by
    {!Chunk.compression_enabled}.) *)

val create :
  Openmb_sim.Engine.t ->
  ?config:config ->
  ?faults:Openmb_sim.Faults.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  unit ->
  t
(** Raises [Invalid_argument] when [config.put_window] or
    [config.batch_chunks] is below 1: with no batch allowed in flight,
    or none cut, a transfer would wait forever on chunks no op owns.

    [faults], when given, subjects every controller–MB channel to the
    fault plan's link profile (named ["<mb>/op"], ["<mb>/reply"],
    ["<mb>/event"]) and arms the plan's scheduled MB crashes at
    {!connect} time.

    [telemetry] hosts the controller's registry metrics
    (["controller.*"] counters/gauges, the ["controller.op_latency"],
    ["controller.serialization_window"] and
    ["controller.transfer_duration"] histograms) and its trace spans —
    one span per southbound op (named after the request, stamped with a
    fresh causality id that also rides the wire message as
    {!Message.to_mb.tid}) and one per transfer.  Without it the
    controller keeps a private instance, so the {!counters} accessors
    work either way; share one instance across controller and agents to
    get linked cross-component traces. *)

val telemetry : t -> Openmb_sim.Telemetry.t
(** The instance passed to {!create} (or the private default). *)

type remote = {
  to_agent : Openmb_sim.Shard.route;
      (** Posts execution onto the agent's shard (controller → MB
          deliveries: requests, state chunks). *)
  to_controller : Openmb_sim.Shard.route;
      (** Posts execution onto the controller's shard (MB → controller
          deliveries: replies, events). *)
  agent_faults : Openmb_sim.Faults.t option;
      (** Fault instance owned by the {e agent's} shard, applied to the
          reply/event channels (their sends run on the agent's domain,
          so they must not draw from the controller-shard instance).
          [None] leaves those channels fault-free. *)
}
(** Routing for an MB agent living on another shard of a
    {!Openmb_sim.Sharded_engine}. *)

val connect :
  t ->
  ?remote:remote ->
  ?id_base:int ->
  ?arm_faults:bool ->
  Mb_agent.t ->
  unit
(** Establish the op and event connections to an MB agent and register
    it under its impl name.  Raises [Failure] on duplicate names.  The
    config's [framing] sizes every message on its channels.

    [id_base] (default 0) offsets the connection's op and sequence
    counters.  A successor controller re-adopting an agent after a
    failover must number above anything its predecessor could have
    issued — the agent's dedup caches survived — so replicas pass an
    epoch-shifted base.  [arm_faults:false] skips arming the fault
    plan's crash schedule for this MB (a re-adoption must not
    double-schedule crashes the first connect already armed).

    With [?remote], the agent lives on a different shard: the op
    channel stays on the controller's engine but delivers through
    [remote.to_agent], while the reply and event channels live on the
    {e agent's} engine (sends happen there) and deliver through
    [remote.to_controller].  Those channels use the agent's telemetry
    instance and [remote.agent_faults], keeping every mutation
    shard-local; cross-shard deliveries are clamped to the next epoch
    barrier, which adds up to one epoch of latency per direction. *)

val disconnect : t -> string -> unit
(** Forget an MB (e.g. a terminated instance); in-flight operations on
    it are abandoned. *)

(** {1 Northbound API}

    The six operations of §5 plus introspection subscription. *)

type move_result = {
  chunks_moved : int;
  bytes_moved : int;
  events_forwarded : int;
  duration : Openmb_sim.Time.t;  (** Call start to return. *)
}

val read_config :
  t ->
  src:string ->
  key:Config_tree.path ->
  on_done:((Config_tree.entry list, Errors.t) result -> unit) ->
  unit

val write_config :
  t ->
  dst:string ->
  key:Config_tree.path ->
  values:Openmb_wire.Json.t list ->
  on_done:((unit, Errors.t) result -> unit) ->
  unit

val del_config :
  t ->
  dst:string ->
  key:Config_tree.path ->
  on_done:((unit, Errors.t) result -> unit) ->
  unit

val stats :
  t ->
  src:string ->
  key:Openmb_net.Hfl.t ->
  on_done:((Southbound.stats, Errors.t) result -> unit) ->
  unit

val move_internal :
  t ->
  src:string ->
  dst:string ->
  key:Openmb_net.Hfl.t ->
  on_done:((move_result, Errors.t) result -> unit) ->
  unit
(** Move the per-flow supporting and reporting state matching [key]
    from [src] to [dst].  [on_done] fires when every exported chunk has
    been acknowledged by [dst]; event forwarding continues afterwards,
    and the state is deleted from [src] once events quiesce.

    The move is transactional: if any leg fails mid-transfer (an op
    error, a timeout after retries are exhausted, a destination crash),
    [on_done] fires with [Error (Move_aborted _)], buffered re-process
    events are flushed back to [src], its exported entries are
    un-marked ([abortPerflow]) so they remain re-exportable, and no
    delete is ever issued — the source keeps its state intact.  The
    destination may retain partial copies; the source stays
    authoritative. *)

val clone_support :
  t ->
  src:string ->
  dst:string ->
  on_done:((move_result, Errors.t) result -> unit) ->
  unit
(** Clone shared supporting state from [src] to [dst]; no delete is
    ever issued (§5). *)

val merge_internal :
  t ->
  src:string ->
  dst:string ->
  on_done:((move_result, Errors.t) result -> unit) ->
  unit
(** Transfer shared supporting and reporting state from [src] into
    [dst], which merges it with its own (§4.1.2–4.1.3). *)

val subscribe_introspection :
  t ->
  ?expires_after:Openmb_sim.Time.t ->
  mb:string ->
  codes:string list ->
  key:Openmb_net.Hfl.t ->
  handler:(Event.t -> unit) ->
  unit ->
  unit
(** Enable matching introspection events at [mb] and deliver them to
    [handler].  With [expires_after], the subscription (and the MB-side
    event generation) is torn down after that long — §4.2.2's guard
    against event overload. *)

val unsubscribe_introspection : t -> mb:string -> codes:string list -> unit
(** Remove subscriptions on [mb] whose code lists intersect [codes]
    ([codes = []] removes all of them) and disable the MB-side
    generation. *)

val abort_perflow :
  t ->
  mb:string ->
  key:Openmb_net.Hfl.t ->
  on_done:((unit, Errors.t) result -> unit) ->
  unit
(** Clear the moved marks matching [key] at [mb], making the state
    re-exportable.  The transactional abort path issues this
    internally; it is exposed northbound so a successor controller can
    roll back a predecessor's partial export before re-running the
    move. *)

val delete_perflow :
  t ->
  mb:string ->
  key:Openmb_net.Hfl.t ->
  on_done:((unit, Errors.t) result -> unit) ->
  unit
(** Issue the deferred delete of moved per-flow state (supporting and
    reporting) matching [key] at [mb].  Removes only entries marked
    moved by a completed export, so re-issuing it after a failover —
    whether or not the dead leader's own delete ran — is idempotent. *)

val clone_config :
  t ->
  src:string ->
  dst:string ->
  key:Config_tree.path ->
  on_done:((int, Errors.t) result -> unit) ->
  unit
(** The [cloneConfig] composition of §5: read the configuration subtree
    at [key] from [src] and write every entry to [dst]; returns the
    number of entries cloned. *)

(** {1 Reporting} *)

type counters = {
  msgs_processed : int;  (** Messages that crossed the controller CPU. *)
  evt_forwarded : int;  (** Re-process events forwarded to destinations. *)
  evt_dropped : int;  (** Re-process events that matched no active transfer. *)
  evt_returned : int;
      (** Buffered re-process events flushed back to the source by an
          aborted transfer. *)
  evt_buffered_peak : int;
      (** High-water mark of buffered re-process events. *)
  op_retries : int;  (** Southbound requests retransmitted. *)
  op_timeouts : int;  (** Southbound requests failed with {!Errors.Timeout}. *)
  aborted_transfers : int;  (** Transfers rolled back ({!Errors.Move_aborted}). *)
  dedup_hits : int;
      (** Duplicate requests the agents answered from their replay
          caches.  Counted by agents sharing this controller's
          telemetry instance; [0] when agents keep their own. *)
}

val counters : t -> counters
(** Snapshot of every controller counter — the single stats surface the
    benches print and the chaos oracle asserts over (a fault-free run
    must show [evt_dropped = 0] and no retries, timeouts or aborts). *)

val pp_counters : Format.formatter -> counters -> unit

val events_buffered_peak : t -> int
(** High-water mark of buffered re-process events across transfers. *)

val events_forwarded : t -> int
(** Total re-process events forwarded to destinations. *)

val events_dropped : t -> int
(** Re-process events that matched no active transfer. *)

val active_transfers : t -> int
(** Transfers still forwarding events (including returned ones awaiting
    quiescence). *)

val messages_processed : t -> int
(** Messages that crossed the controller CPU. *)

val op_retries : t -> int
val op_timeouts : t -> int
val transfers_aborted : t -> int

(** {1 Fencing}

    Replicated deployments ({!Controller_replica}) fence a deposed
    leader at takeover.  Fencing models lease expiry: the config store
    stops honoring the old epoch, so nothing the deposed instance does
    can reach an agent. *)

val fence : t -> unit
(** Permanently silence this controller: every pending and future CPU
    dispatch — sends, receives, retry timers, quiescence deletes — is
    discarded.  Idempotent; there is no unfence. *)
