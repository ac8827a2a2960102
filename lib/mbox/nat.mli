(** Source NAT middlebox.

    Rewrites outbound packets to a public address with an allocated
    external port and reverses the translation for inbound packets.
    Mappings are per-flow supporting state keyed on the internal
    (source IP, source port, protocol) — the NAT's granularity is
    coarser than a five-tuple, exercising the paper's granularity
    rules.  The address/port mapping is the {e critical} state a
    failover must preserve; idle timers are non-critical and reset to
    defaults on import (§2's failure-recovery discussion).

    Raises ["nat.new_mapping"] introspection events carrying the new
    mapping (§4.2.2's canonical example). *)

type t

type mapping = {
  m_int_ip : Openmb_net.Addr.t;
  m_int_port : int;
  m_ext_ip : Openmb_net.Addr.t;
  m_ext_port : int;
  m_proto : Openmb_net.Packet.proto;
  m_created : float;
  mutable m_last_active : float;
      (** Non-critical; reset on failover import.  Updated in place by
          every packet of the flow. *)
}

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?external_ips:Openmb_net.Addr.t list ->
  external_ip:Openmb_net.Addr.t ->
  internal_prefix:Openmb_net.Addr.prefix ->
  name:string ->
  unit ->
  t
(** [external_ips] extends the translation pool beyond [external_ip]
    (carrier-grade NAT): each address contributes ~45k external ports,
    so million-flow runs pass a pool of a few dozen addresses. *)

val default_cost : Openmb_core.Southbound.cost_model
(** NAT-calibrated per-packet and serialization costs. *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: members are translated in index order (the
    external-port cursor makes order observable) and forwarded as one
    batch; unmatched inbound packets are compacted out. *)

val mappings : t -> mapping list
(** Copies of the current mappings: later packets do not change them. *)

val mapping_count : t -> int

val lookup_external : t -> ext_port:int -> mapping option
(** Reverse-path lookup used by inbound translation; returns a copy, as
    {!mappings} does. *)

val packets_dropped : t -> int
(** Inbound packets with no matching mapping. *)

(** {1 State descriptions} *)

val mapping_codec : mapping Openmb_wire.Codec.t
(** The chunk body, all seven fields; read back, [m_last_active] is
    [m_created] (timers reset on import). *)

val announcement_codec : Openmb_net.Addr.t -> mapping Openmb_wire.Codec.t
(** [announcement_codec ext_ip]: the ["nat.new_mapping"] info
    [{"int_ip","int_port","ext_port","proto"}], which [static_mappings]
    takes back (failure recovery) as a mapping to [ext_ip], the NAT's
    first pool address, with zero timers. *)
