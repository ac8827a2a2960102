(** Layer-4 load balancer (Balance analog).

    Assigns each client connection to a backend server and rewrites the
    destination address accordingly.  Per the paper's Balance example
    (§4.1.2), per-flow state is keyed {e only on source IP and port} —
    the destination is always the balancer itself — so requests at
    five-tuple granularity are finer than the MB's granularity and
    return an error.

    Assignments are per-flow supporting state; moving one mid-flow
    keeps the connection pinned to the same backend at the new
    instance, which is requirement R1's canonical correctness case.
    Raises ["lb.new_assignment"] introspection events. *)

type t

type policy = Round_robin | Least_conn | Source_hash

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  ?policy:policy ->
  backends:Openmb_net.Addr.t list ->
  name:string ->
  unit ->
  t
(** [policy] defaults to [Round_robin].  [backends] must be
    non-empty. *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: members are rewritten in place and forwarded as
    one batch. *)

val assignments : t -> (Openmb_net.Hfl.t * Openmb_net.Addr.t) list
(** (flow key, backend) pairs currently resident. *)

val assignment_count : t -> int

val backend_codec : Openmb_net.Addr.t Openmb_wire.Codec.t
(** A flow's backend, [{"backend":"10.9.0.1"}]: the per-flow chunk body
    and the ["lb.new_assignment"] info. *)

val backend_load : t -> (Openmb_net.Addr.t * int) list
(** Current connection count per backend. *)

