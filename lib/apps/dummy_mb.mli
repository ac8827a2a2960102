(** Synthetic middlebox for controller benchmarking.

    §8.3 isolates the MB controller's performance with "dummy" MBs that
    replay traces of past state in response to gets, ack puts, and
    generate events for the lifetime of the experiment — all state
    202 bytes and all events 128 bytes.  This module is that MB, plus
    enough configurability to double as the test suite's minimal
    southbound implementation. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?granularity:Openmb_net.Hfl.granularity ->
  ?chunk_bytes:int ->
  ?kind:string ->
  name:string ->
  unit ->
  t
(** [chunk_bytes] (default 202) sizes each per-flow chunk's sealed
    body.  [cost] defaults to near-zero state-op costs so controller
    time dominates. *)

val default_cost : Openmb_core.Southbound.cost_model
(** Negligible MB-side costs (1 µs scale). *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Openmb_mbox.Mb_base.t

val populate : t -> n:int -> unit
(** Install [n] synthetic per-flow supporting records under distinct
    keys (10.0.x.y sources). *)

val populate_reporting : t -> n:int -> unit
(** Install [n] synthetic per-flow reporting records. *)

val set_shared_support : t -> string -> unit
(** Install an opaque shared supporting blob. *)

val set_shared_report : t -> string -> unit

val shared_support : t -> string option
(** Current blob; merged puts concatenate with ["+"], so tests can
    observe merge semantics. *)

val shared_report : t -> string option

val chunk_count : t -> int
(** Per-flow supporting entries resident. *)

val has_state_for : t -> Openmb_net.Packet.t -> bool
(** Whether a per-flow supporting entry exists for the packet's flow
    (either direction) — the chaos tests' "replayed against present
    state" check. *)

val key_for : int -> Openmb_net.Hfl.t
(** Key of the [i]-th synthetic record installed by {!populate}. *)

val support_entries : t -> (string * string) list
(** Per-flow supporting records as (key string, value) pairs sorted by
    key — lets tests compare two MBs' state tables for equality. *)

val report_entries : t -> (string * string) list

val start_events : t -> rate_pps:float -> unit
(** Begin raising re-process events (128-byte packets keyed to resident
    chunks, round-robin) at the given rate until {!stop_events}. *)

val stop_events : t -> unit

val reprocessed : t -> int
(** Packets this MB replayed via [Reprocess_packet] requests. *)

