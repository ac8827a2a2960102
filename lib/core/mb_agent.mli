(** Middlebox-side OpenMB runtime.

    Wraps a {!Southbound.impl} and attaches it to the MB controller:
    receives requests from the controller connection, executes them on
    the MB's (serial) control thread while charging the impl's
    simulated CPU costs, streams state chunks and acknowledgements
    back, and forwards the MB's events — subject to the introspection
    filter — up the event connection.  The filter is handed to the MB
    with the event sink, so the MB builds only the introspection events
    it admits (§4.2.2).

    This is the analog of the ≈500-line common code base the paper
    links into each modified middlebox (§7). *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  impl:Southbound.impl ->
  unit ->
  t
(** An agent not yet attached to a controller.

    With [telemetry], the agent counts its replay-cache hits
    (["mb.dedup_hits"]) and raised events (["mb.events_raised"]),
    observes per-chunk serialize/deserialize costs (["mb.serialize"],
    ["mb.apply"] histograms), and emits one trace span per executed
    request — tagged with the causality id ({!Message.to_mb.tid}) the
    controller stamped on the wire message, so a shared instance links
    both sides of every op.  Pass the controller's
    {!Controller.telemetry} to get linked traces. *)

val impl : t -> Southbound.impl
val name : t -> string

val engine : t -> Openmb_sim.Engine.t
(** The engine this agent executes on — the agent's shard in a sharded
    simulation.  {!Controller.connect} with [?remote] uses it to keep
    the agent-side channels on the agent's engine. *)

val telemetry : t -> Openmb_sim.Telemetry.t option
(** The instance passed to {!create}, if any. *)

val set_uplinks :
  t ->
  send_reply:(Message.from_mb -> unit) ->
  send_event:(Message.from_mb -> unit) ->
  unit
(** Install the transmit functions toward the controller (set up by
    {!Controller.connect}): one for op replies, one for events,
    mirroring the paper's two threads per MB. *)

val handle_request : t -> Message.to_mb -> unit
(** Entry point for requests arriving from the controller.  Requests
    are executed at most once: duplicated deliveries of a completed op
    replay its recorded replies, duplicates of a running op are
    dropped, and a sequence-numbered put ([Put_batch]) replays its
    original outcome even when retried under a fresh op id.  While
    {!crash}ed, requests are silently dropped. *)

(** {1 Crash model}

    A crash abandons everything in flight on the control thread and
    wipes the volatile at-most-once caches — after a {!restart} a
    retried put re-applies, which is safe because per-flow puts
    overwrite.  Durable state survives: the MB's own state tables, its
    configuration tree, and the introspection filter. *)

val crash : t -> unit
(** Take the MB down: drop in-flight southbound operations, stop
    accepting requests, and stop emitting events.  Idempotent. *)

val restart : t -> unit
(** Bring a crashed MB back up with empty volatile caches.  A no-op if
    not crashed. *)

val is_crashed : t -> bool

val op_active : t -> bool
(** Whether a state operation is currently executing. *)

val events_raised : t -> int
(** Events the MB emitted that passed the filter and were sent. *)
