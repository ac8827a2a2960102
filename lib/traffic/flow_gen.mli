(** Flow-level packet synthesis.

    Builds the packet sequences of individual transport flows — TCP
    handshake, data exchange (optionally carrying HTTP transactions),
    and teardown — with timestamps spread over the flow's lifetime.
    The trace generators compose these into whole traces. *)

type content = {
  payload_for : int -> Openmb_net.Payload.t;
      (** Payload for the [i]-th data packet of the flow. *)
}

val fresh_content :
  Openmb_sim.Prng.t -> tokens_per_packet:int -> content
(** Every packet gets previously-unseen random tokens (no cross- or
    intra-flow redundancy). *)

val empty_content : content
(** Zero-length payloads (control-plane-ish flows). *)

val tcp_flow :
  ids:Trace.Id_gen.gen ->
  prng:Openmb_sim.Prng.t ->
  tuple:Openmb_net.Five_tuple.t ->
  start:float ->
  duration:float ->
  data_packets:int ->
  ?content:content ->
  ?http:(string * string) list ->
  unit ->
  Openmb_net.Packet.t list
(** A full TCP flow: SYN, SYN-ACK, [data_packets] data packets
    alternating originator/responder, and FIN.  With [http] = [(host, uri); ...], transactions are spread
    over the flow: each request is marked [Http_request] on an
    originator packet and answered by an [Http_response] on the next
    responder packet.  Timestamps are uniform over
    [\[start, start + duration\]] (sorted). *)

val udp_flow :
  ids:Trace.Id_gen.gen ->
  prng:Openmb_sim.Prng.t ->
  tuple:Openmb_net.Five_tuple.t ->
  start:float ->
  duration:float ->
  data_packets:int ->
  ?content:content ->
  unit ->
  Openmb_net.Packet.t list
(** A UDP exchange (no handshake or teardown). *)

val syn_probe :
  ids:Trace.Id_gen.gen ->
  tuple:Openmb_net.Five_tuple.t ->
  start:float ->
  Openmb_net.Packet.t
(** A lone SYN (scanner probe). *)
