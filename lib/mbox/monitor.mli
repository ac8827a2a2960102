(** Passive traffic monitor (the repo's PRADS analog).

    Maintains a per-flow {e reporting} record (packet/byte counters,
    first/last seen, detected service) and one shared [prads_stat]
    counter block covering all traffic.  Raises
    ["monitor.new_asset"] introspection events when it identifies a
    service on a flow.

    OpenMB integration: per-flow reporting state moves between
    instances (scale up/down); shared reporting state merges by adding
    counters (§4.1.3) — never clones, to avoid double reporting.  The
    scaling evaluation's invariant is that the sum of all instances'
    outputs equals a single unscaled instance's output. *)

type t

type flow_record = {
  fr_first : float;
  mutable fr_last : float;
  mutable fr_pkts : int;
  mutable fr_bytes : int;
  mutable fr_service : string;  (** Detected service, [""] if none yet. *)
}
(** The mutable fields are updated in place by every packet of the
    flow. *)

type totals = {
  mutable tot_pkts : int;
  mutable tot_bytes : int;
  mutable tot_tcp : int;
  mutable tot_udp : int;
  mutable tot_icmp : int;
  mutable tot_new_flows : int;
}
(** The shared [prads_stat] block, updated in place by every batch. *)

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  name:string ->
  unit ->
  t

val default_cost : Openmb_core.Southbound.cost_model
(** PRADS-calibrated: lightweight packets, cheap flat-record
    serialization (§8.2 — chunks are a single small structure). *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: the shared totals are accumulated once per batch.
    The service-port list is the [service/ports] config as last written
    through {!impl}'s config operations. *)

val totals : t -> totals
(** A copy of the current shared counters of this instance. *)

val flow_records : t -> (Openmb_net.Hfl.t * flow_record) list
(** Copies of the per-flow reporting records currently resident here:
    later packets do not change them. *)

val tracked_flows : t -> int

(** {1 State descriptions} (chunk bodies) *)

val flow_record_codec : flow_record Openmb_wire.Codec.t
(** [{"first","last","pkts","bytes","service"}]. *)

val totals_codec : totals Openmb_wire.Codec.t
(** [{"pkts","bytes","tcp","udp","icmp","new_flows"}]. *)
