(** State events raised by middleboxes (§4.2).

    Events are raised when an MB {e establishes or updates state} in
    response to a trigger — not when the trigger itself occurs — so the
    controller gains visibility into the occurrence of state actions
    while the MB's internal logic stays hidden.

    Two families exist: {e re-process} events carry a copy of a packet
    that updated moved/cloned state, so the destination MB can replay
    the state change (§4.2.1); {e introspection} events announce
    MB-specific state creations (a NAT mapping, a load-balancer
    assignment) to interested control applications (§4.2.2). *)

type t =
  | Reprocess of { key : Openmb_net.Hfl.t; packet : Openmb_net.Packet.t }
      (** [key] identifies the moved/cloned state the packet updated. *)
  | Introspect of {
      code : string;  (** MB-specific event code, e.g. ["nat.new_mapping"]. *)
      key : Openmb_net.Hfl.t;  (** The relevant state's key. *)
      info : Openmb_wire.Json.t;  (** Additional MB-specific values. *)
    }

val key : t -> Openmb_net.Hfl.t
(** The state key the event concerns. *)

val describe : t -> string

(** {1 Filters}

    Introspection event generation can be enabled or disabled based on
    event codes and keys so that controller, network and MB are not at
    risk of overload (§4.2.2).  The filter gates generation, not only
    delivery: the agent hands its live filter to the MB
    (the [set_event_sink] of {!Southbound.impl}), and the MB asks
    {!Filter.admits_introspect} before it builds an event.  Re-process
    events are never filtered — they are required for atomicity. *)

module Filter : sig
  type event = t

  type t
  (** Mutable filter set; initially everything is disabled. *)

  val create : unit -> t

  val enable : t -> codes:string list -> key:Openmb_net.Hfl.t -> unit
  (** Allow introspection events whose code is in [codes] (or any code
      if [codes] is empty) and whose key is subsumed by [key]. *)

  val disable : t -> codes:string list -> unit
  (** Remove every enablement whose code list intersects [codes]; with
      [codes = []], remove all enablements. *)

  val admits_introspect : t -> code:string -> key:Openmb_net.Hfl.t -> bool
  (** Whether an introspection event with this code and key would be
      admitted.  It allocates nothing, and an empty filter answers at
      once, so an MB asks it before building the event: an event
      nobody enabled is never built. *)

  val admits : t -> event -> bool
  (** Whether the event should be emitted.  [Reprocess] events are
      always admitted. *)
end
