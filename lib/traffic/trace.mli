(** Packet traces.

    A trace is a time-sorted sequence of packets; replaying it
    schedules each packet's injection into the simulated network at its
    timestamp.  The generators in this library synthesize traces with
    the distributional properties of the paper's three capture sets
    (cloud, university data center, high-redundancy). *)

type t
(** An immutable, time-sorted packet trace. *)

val of_packets : Openmb_net.Packet.t list -> t
(** Sorts by timestamp (stable). *)

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
(** Schedule every packet's delivery to [into] at its timestamp.
    Raises [Invalid_argument] if the engine clock is already past the
    first packet. *)

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
    batch.  Raises [Invalid_argument] if [batch < 1]. *)

module Id_gen : sig
  type gen
  (** Packet-id allocator shared across a run's generators. *)

  val create : unit -> gen
  val next : gen -> int
end
