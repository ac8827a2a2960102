(** OpenFlow-style switch.

    A switch owns a {!Flow_table.t} and a set of named output ports,
    each attached to a {!Link.t}.  Received packets are matched against
    the table after a fixed switching delay; misses and
    [To_controller] actions are punted to a registered handler. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  name:string ->
  unit ->
  t
(** [create engine ~name ()] is a switch with an empty flow table and
    no ports, forwarding after a 10 µs switching delay.  With [telemetry],
    the switch mirrors its packet counters into the shared
    ["switch.received"] / ["switch.dropped"] / ["switch.to_controller"]
    registry counters (aggregated across switches sharing the
    instance). *)

val name : t -> string

val attach_port : t -> port:string -> Link.t -> unit
(** Bind output [port] to a link.  Re-binding an existing port replaces
    it. *)

val table : t -> Flow_table.t
(** The switch's flow table (for direct rule manipulation by the SDN
    controller). *)

val on_miss : t -> (Packet.t -> unit) -> unit
(** Handler invoked on table miss or [To_controller]; default drops and
    counts. *)

val receive : t -> Packet.t -> unit
(** Packet arrival on any ingress port: {!receive_batch} of a 1-member
    batch from the switch's pool. *)

val receive_batch : t -> Packet_batch.t -> unit
(** Batch arrival: the whole batch is classified with one flow-table
    pass after the switching delay.  When every member forwards to the
    same port the batch is handed onward intact; mixed verdicts are
    resolved member-by-member in original index order (per-arrival FIFO
    is preserved across the forward/drop/punt split), with each output
    port's survivors re-batched and flushed once.  Ownership of the
    batch passes to the switch.  With [telemetry], batch sizes feed the
    ["switch.batch_occupancy"] count histogram. *)

val batch_pool : t -> Packet_batch.pool
(** The switch's pool (split batches and {!receive}'s 1-member
    batches) — exposed for pool high-water reporting. *)

val packets_received : t -> int
val packets_dropped : t -> int
