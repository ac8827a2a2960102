(** Stateful firewall.

    Evaluates an ordered rule list (configuration state, §4.1.1's
    iptables/IOS example) on the first packet of each flow, caches the
    verdict as per-flow supporting state, and permits established
    connections' reverse traffic.  Shared reporting state counts
    allowed and denied packets and merges by addition. *)

type t

type action = Allow | Deny

type rule = { rl_match : Openmb_net.Hfl.t; rl_action : action }

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?rules:rule list ->
  ?default_action:action ->
  name:string ->
  unit ->
  t
(** [rules] default to empty; [default_action] to [Allow]. *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: verdicts evaluated per member (rule parsing
    hoisted to once per batch), denied members compacted out, survivors
    forwarded as one batch. *)

val rules : t -> rule list
(** Current ordered rule list (reflects [setConfig] updates). *)

val allowed : t -> int
val denied : t -> int

val cached_verdicts : t -> int
(** Per-flow verdict-cache population. *)

(** {1 State and configuration descriptions}

    A [rules] or [default] config write with a value these do not read
    fails with [Op_failed] and keeps the old value. *)

val verdict_codec : action Openmb_wire.Codec.t  (** Per-flow: [{"verdict":"allow"}]. *)

val counters_codec : (int * int) Openmb_wire.Codec.t  (** Shared: [{"allowed","denied"}]. *)

val rule_codec : rule Openmb_wire.Codec.t  (** [{"match":"<hfl>","action":"deny"}]. *)
