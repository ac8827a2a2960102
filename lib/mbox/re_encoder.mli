(** Redundancy-elimination encoder (SmartRE analog).

    Maintains one packet cache and fingerprint table {e per decoder}
    (§6.1 footnote 5).  For each packet it finds maximal runs of
    payload tokens already present in the assigned decoder's cache,
    replaces them with shims, appends the original payload to that
    cache, and forwards the (possibly smaller) encoded packet.

    Configuration state (§6.1):
    - ["NumCaches"]: raising it clones cache 0 into the new slots —
      the internal clone triggered by [writeConfig(Enc, "NumCaches", [2])];
    - ["CacheFlows"]: ordered list of destination prefixes; a packet is
      encoded against the cache whose prefix matches first
      (default: cache 0 for everything). *)

type mode = Explicit | Implicit
(** Position-sync mode stamped on encoded packets: [Explicit] carries
    the append offset (OpenMB-enabled deployments); [Implicit] is
    classic SmartRE, relying on identical packet arrival order. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?capacity_tokens:int ->
  ?mode:mode ->
  name:string ->
  unit ->
  t
(** [capacity_tokens] defaults to 65536 (4 MiB of content); [mode] to
    [Explicit]. *)

val default_cost : Openmb_core.Southbound.cost_model

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: members are encoded in index order (shared
    cache state makes order observable). *)

val num_caches : t -> int

val cache : t -> int -> Re_cache.t
(** Direct cache access for tests; raises [Invalid_argument] for an
    unknown index. *)

val encoded_bytes : t -> int
(** Total payload bytes replaced by shims (the paper's "encoded
    bytes"). *)
