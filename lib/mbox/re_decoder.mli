(** Redundancy-elimination decoder (SmartRE analog).

    Reconstructs encoded packets from its packet cache and appends the
    reconstructed payload so the cache tracks the encoder's.  In
    {e explicit} mode reconstruction is placed at the absolute offset
    stamped on the packet; in {e implicit} (classic) mode it is
    appended at the decoder's own head, so a single missed packet
    permanently desynchronizes the caches — the failure Table 3's
    baseline exhibits.

    OpenMB integration: the cache is shared supporting state.
    [getSupportShared] exports it (and marks it cloned, so each
    subsequent cache update raises a re-process event);
    a [putBatch] carrying it installs a received cache.  Setting the
    ["SyncEvents"] config key to [false] stops the post-clone event
    stream once the control application has finished the migration. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?capacity_tokens:int ->
  ?mode:Re_encoder.mode ->
  name:string ->
  unit ->
  t
(** A decoder serving the encoder's cache 0; the ["CacheId"] config key
    selects another encoder-side cache index. *)

val default_cost : Openmb_core.Southbound.cost_model

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: undecodable members are compacted out. *)

val cache : t -> Re_cache.t

val cache_id : t -> int

val decoded_bytes : t -> int
(** Shim-expanded bytes successfully reconstructed. *)

val undecodable_bytes : t -> int
(** Shim-expanded bytes that could not be correctly reconstructed
    (missing or stale cache contents, or wrong cache id). *)

val packets_decoded : t -> int
val packets_failed : t -> int
