(** Packet traces.

    A trace is a time-sorted sequence of packets; replaying it injects
    each packet into the simulated network at its timestamp, with one
    engine event in flight.  The generators in this library synthesize
    traces with the distributional properties of the paper's three
    capture sets (cloud, university data center, high-redundancy). *)

type t
(** An immutable, time-sorted packet trace. *)

val of_packets : Openmb_net.Packet.t list -> t
(** Sorts by timestamp (stable).  Input already in order is kept as it
    is after one linear check. *)

val packets : t -> Openmb_net.Packet.t list
val packet_count : t -> int

val payload_bytes : t -> int
(** Total body bytes across the trace. *)

val duration : t -> Openmb_sim.Time.t
(** Last timestamp (traces start at/after zero). *)

val merge : t list -> t
(** Interleave traces by timestamp. *)

val filter : t -> f:(Openmb_net.Packet.t -> bool) -> t

val replay : Openmb_sim.Engine.t -> t -> into:(Openmb_net.Packet.t -> unit) -> unit
(** Deliver every packet to [into] at its timestamp, in exactly the
    order one engine event per packet, scheduled by this call, would
    fire in.  The replay holds one event in flight: the call reserves
    the events' insertion sequence numbers ({!Openmb_sim.Engine.reserve})
    and files the first, and each event files the next before calling
    [into].  Scheduling is O(1) and the engine's cell pool does not grow
    with the trace.  Raises [Invalid_argument] if the engine clock is
    already past the first packet. *)

val replay_batched :
  Openmb_sim.Engine.t ->
  t ->
  ?pool:Openmb_net.Packet_batch.pool ->
  batch:int ->
  window:Openmb_sim.Time.t ->
  into:(Openmb_net.Packet_batch.t -> unit) ->
  unit ->
  unit
(** Batch replay: packets are grouped through a size-or-deadline window
    of at most [batch] members and at most [window] of timestamp spread
    from the first member, and each batch is delivered to [into] as one
    scheduled event: a full batch (or the trace's last) at its last
    member's timestamp, a window-expired one at its deadline.  The
    batch is taken from [pool] (a private one without [?pool]) and
    filled when its event fires, so if [into] releases each batch the
    replay keeps only as many live as are in flight.  [into] owns each
    batch.  Like {!replay} it holds one engine event in flight, filing
    each batch's event from its predecessor's, in the order one event
    per batch scheduled by this call would fire in.  Raises
    [Invalid_argument] if [batch < 1], or if the engine clock is already
    past the first batch's delivery time. *)

module Id_gen : sig
  type gen
  (** Packet-id allocator shared across a run's generators. *)

  val create : unit -> gen
  val next : gen -> int
end
