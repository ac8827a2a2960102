(** Simulated network link.

    Delivers packets to the attached receiver after propagation latency
    plus store-and-forward serialization delay, in FIFO order.  A
    non-zero latency is what creates the paper's in-flight-packet
    window: packets already on the wire keep arriving at the old
    middlebox after a routing update.

    Links carry whole {!Packet_batch.t} vectors: a batch crosses as a
    single message (its serialization time is the sum of its members'
    wire bytes) and lands as one delivery event at the receiver.  A
    single packet is a 1-member batch. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?faults:Openmb_sim.Faults.link ->
  ?latency:Openmb_sim.Time.t ->
  name:string ->
  dst:(Packet.t -> unit) ->
  unit ->
  t
(** [create engine ~name ~dst ()] is a 1 Gbit/s link, matching the
    paper's testbed NICs, delivering to [dst].  [latency] defaults to
    50 µs (one LAN hop).  With [?faults], each
    batch member consults the fault stream individually (drop /
    duplicate / delay per packet) — drops are compacted out, delayed
    members and duplicate copies split off as 1-member deliveries. *)

val set_dst_batch : t -> (Packet_batch.t -> unit) -> unit
(** Attach a batch receiver in place of [dst].  Without one, arriving
    batches are drained member-by-member through [dst]. *)

val send : t -> Packet.t -> unit
(** Put a packet on the wire: {!send_batch} of a 1-member batch from the
    link's pool. *)

val send_batch : t -> Packet_batch.t -> unit
(** Put a whole batch on the wire as one message.  Ownership of the
    batch passes to the link (released if everything is dropped,
    forwarded to the receiver otherwise).  An empty batch is released
    immediately without touching the channel. *)

val name : t -> string

val packets_sent : t -> int
(** Total packets ever sent, counting each batch member. *)

val bytes_sent : t -> int
