(** Deployment wiring for the evaluation scenarios.

    Builds the common testbed shape: a traffic source feeding an
    OpenFlow switch whose ports lead to middlebox slots, with each
    middlebox's egress draining into a sink host; an SDN controller
    owning the switch and an MB controller owning the middleboxes —
    the two control planes a control application coordinates. *)

type t

val create :
  ?ctrl_config:Openmb_core.Controller.config ->
  ?faults:Openmb_sim.Faults.plan ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?install_delay:Openmb_sim.Time.t ->
  ?with_recorder:bool ->
  unit ->
  t
(** Fresh engine, MB controller, SDN controller and one switch named
    ["s1"].  [faults]
    instantiates a fault-injection plan against the engine and hands it
    to the MB controller: every controller–MB channel draws from the
    plan's link profile and MBs attached later get the plan's scheduled
    crashes armed.

    One {!Openmb_sim.Telemetry.t} instance ([telemetry], or a fresh one)
    is shared by every component the scenario wires — engine, fault
    injector, controller, switch and agents — so registry counters
    aggregate deployment-wide and controller/agent trace spans link up.
    A fresh instance keeps a timeline only when [with_recorder] is true
    (default false): the controller, the agents and the control
    applications then log their activity into its trace
    ({!Openmb_sim.Telemetry.timeline}), one row per op, forwarded event
    and retry for the whole run.  Without it the trace stays empty, so a
    long run keeps nothing that grows with its length.
    Middlebox bases are built by the caller: pass {!telemetry} to their
    [create] to include data-path metrics and, on a timeline, their
    packet and event instants. *)

val engine : t -> Openmb_sim.Engine.t

(** The deployment-wide telemetry instance (shared with the
    controller's — {!Openmb_core.Controller.telemetry} returns the same
    value). *)
val telemetry : t -> Openmb_sim.Telemetry.t
val controller : t -> Openmb_core.Controller.t
val faults : t -> Openmb_sim.Faults.t option
val sdn : t -> Openmb_net.Sdn_controller.t
val switch : t -> Openmb_net.Switch.t

val attach_mb :
  ?receive_batch:(Openmb_net.Packet_batch.t -> unit) ->
  t ->
  port:string ->
  receive:(Openmb_net.Packet.t -> unit) ->
  base:Openmb_mbox.Mb_base.t ->
  impl:Openmb_core.Southbound.impl ->
  unit
(** Wire a middlebox into the deployment: switch port [port] leads to
    [receive]; the MB's egress leads to the sink; the MB connects to
    the MB controller via a fresh agent (on the shared telemetry).  With
    [?receive_batch] (the MB's [receive_batch]), batches arriving on the
    ingress link stay whole; without it each member enters through
    [receive]. *)

val attach_mb_agent :
  ?receive_batch:(Openmb_net.Packet_batch.t -> unit) ->
  t ->
  port:string ->
  receive:(Openmb_net.Packet.t -> unit) ->
  base:Openmb_mbox.Mb_base.t ->
  impl:Openmb_core.Southbound.impl ->
  Openmb_core.Mb_agent.t
(** Like {!attach_mb} but returns the created agent, so tests can crash
    and restart it directly. *)

val chain :
  ?receive_batch:(Openmb_net.Packet_batch.t -> unit) ->
  receive:(Openmb_net.Packet.t -> unit) ->
  Openmb_mbox.Mb_base.t ->
  unit
(** [chain ~receive base] points [base]'s egress at another MB's
    [receive] — for in-path pairs like RE encoder→switch→decoder this
    links MB stages directly.  With [?receive_batch], surviving batches
    are handed to the next hop whole, in a single engine event. *)

val install_default_route : t -> port:string -> unit
(** Lowest-priority rule sending everything to [port] (installed
    immediately, no SDN delay — initial provisioning). *)

val route :
  t ->
  match_:Openmb_net.Hfl.t ->
  port:string ->
  ?priority:int ->
  ?on_done:(unit -> unit) ->
  unit ->
  unit
(** Routing update through the SDN controller (takes install-delay
    time; [on_done] fires when active). *)

val inject : t -> Openmb_traffic.Trace.t -> into:(Openmb_net.Packet.t -> unit) -> unit
(** Replay a trace into an entry point ([Switch.receive (switch t)] or
    an upstream MB's receive). *)

val inject_batched :
  t ->
  Openmb_traffic.Trace.t ->
  ?pool:Openmb_net.Packet_batch.pool ->
  batch:int ->
  window:Openmb_sim.Time.t ->
  into:(Openmb_net.Packet_batch.t -> unit) ->
  unit ->
  unit
(** Batch replay into a batch entry point
    ([Switch.receive_batch (switch t)]) — see
    {!Openmb_traffic.Trace.replay_batched}. *)

val run : ?until:Openmb_sim.Time.t -> t -> unit
(** Drive the engine. *)

val at : t -> Openmb_sim.Time.t -> (unit -> unit) -> unit
(** Schedule a control action. *)
