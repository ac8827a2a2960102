(** The MB-facing ("southbound") API (§4).

    Every OpenMB-capable middlebox implements {!impl}: a set of
    synchronous state-access operations mirroring the paper's API —
    configuration get/set/del, per-flow and shared supporting state,
    per-flow and shared reporting state — plus packet processing and an
    event sink.  {!Mb_agent} wraps an [impl] to attach it to the MB
    controller over simulated channels and to charge the simulated CPU
    costs from the [impl]'s {!cost_model}. *)

type stats = {
  perflow_support_chunks : int;
  perflow_report_chunks : int;
  perflow_support_bytes : int;
  perflow_report_bytes : int;
  shared_support_bytes : int;
  shared_report_bytes : int;
}
(** Answer to the [stats] northbound call: how much state of each class
    exists for a key. *)

val empty_stats : stats

type cost_model = {
  per_packet : Openmb_sim.Time.t;
      (** Normal per-packet processing latency (the paper measures
          6.93 ms for Bro, 0.78 ms end-to-end for RE). *)
  op_slowdown : float;
      (** Multiplier (> 1.0) applied to per-packet latency while a
          state operation is in progress; 1.02 reproduces the paper's
          ≤2% penalty. *)
  scan_per_entry : Openmb_sim.Time.t;
      (** Per-table-entry cost of the linear search performed on gets
          (§7: Bro and PRADS scan their connection tables). *)
  serialize_per_chunk : Openmb_sim.Time.t;
      (** Fixed serialization cost per exported chunk. *)
  serialize_per_byte : Openmb_sim.Time.t;
      (** Size-proportional serialization cost. *)
  deserialize_per_chunk : Openmb_sim.Time.t;
      (** Fixed import cost per chunk (puts are ≈6× cheaper than gets
          in the paper because no scan is needed). *)
  deserialize_per_byte : Openmb_sim.Time.t;  (** Size-proportional import cost. *)
}
(** Simulated CPU costs charged by the {!Mb_agent} when executing
    southbound operations. *)

type impl = {
  name : string;  (** Instance name, unique per deployment. *)
  kind : string;  (** MB type, e.g. ["bro"]; governs chunk sealing. *)
  granularity : Openmb_net.Hfl.granularity;
      (** Dimensions this MB keys per-flow state on. *)
  cost : cost_model;
  table_entries : unit -> int;
      (** Current per-flow table population (for scan cost). *)
  get_config : Config_tree.path -> (Config_tree.entry list, Errors.t) result;
  set_config : Config_tree.path -> Openmb_wire.Json.t list -> (unit, Errors.t) result;
  del_config : Config_tree.path -> (unit, Errors.t) result;
  get_support_perflow : Openmb_net.Hfl.t -> (Chunk.t list, Errors.t) result;
      (** Also marks the matching state as moved so subsequent updates
          raise re-process events. *)
  put_support_perflow : Chunk.t -> (unit, Errors.t) result;
  del_support_perflow : Openmb_net.Hfl.t -> (int, Errors.t) result;
  get_support_shared : unit -> (Chunk.t option, Errors.t) result;
  put_support_shared : Chunk.t -> (unit, Errors.t) result;
      (** Merges when shared supporting state already exists (§4.1.2). *)
  get_report_perflow : Openmb_net.Hfl.t -> (Chunk.t list, Errors.t) result;
  put_report_perflow : Chunk.t -> (unit, Errors.t) result;
  del_report_perflow : Openmb_net.Hfl.t -> (int, Errors.t) result;
  get_report_shared : unit -> (Chunk.t option, Errors.t) result;
  put_report_shared : Chunk.t -> (unit, Errors.t) result;
      (** Merges or starts afresh per MB-specific logic (§4.1.3). *)
  abort_perflow : Openmb_net.Hfl.t -> unit;
      (** Roll back an in-progress per-flow export: clear the
          moved-but-not-deleted marks on entries matching the key so
          the state is owned by this MB again and a later transfer can
          re-export it.  Must be a no-op for keys with no marked
          entries.  [Mb_base.default_impl] supplies it for every
          per-flow class an MB keeps. *)
  on_crash : unit -> unit;
      (** Notification that the hosting agent crashed.  The agent's
          volatile dedup caches are gone, so any op reply still in
          flight is lost and the controller's retransmissions will
          re-execute against this (surviving) MB state.  An MB whose
          export bookkeeping cannot tolerate a re-executed get latches
          that here; [Mb_base.default_impl] does so for every per-flow
          class an MB keeps. *)
  stats : Openmb_net.Hfl.t -> stats;
  process_packet : Openmb_net.Packet.t -> side_effects:bool -> unit;
      (** Run the MB's packet-processing logic.  With
          [side_effects:false] (re-process events) state is updated but
          no traffic is emitted and no alerts/log entries are
          generated twice (§4.2.1). *)
  set_event_sink : Event.Filter.t -> (Event.t -> unit) -> unit;
      (** Install the callback the MB raises events through, with the
          live introspection filter in front of it; the agent installs
          itself and its filter here.  The MB builds an introspection
          event only when {!Event.Filter.admits_introspect} says the
          filter would pass it (§4.2.2); until an agent attaches, its
          filter is empty and nothing is built. *)
  set_op_active : bool -> unit;
      (** Called by the agent when a state operation starts/finishes
          executing on this MB, so the packet path can apply
          [cost.op_slowdown]. *)
}
(** One OpenMB-capable middlebox. *)

val check_granularity : impl -> Openmb_net.Hfl.t -> (unit, Errors.t) result
(** [Error Granularity_too_fine] when the request constrains dimensions
    outside the MB's granularity. *)

val put_chunk : impl -> Chunk.t -> (unit, Errors.t) result
(** Apply one chunk via the put operation selected by its role and
    partition — how a [putBatch], the protocol's only put, reaches the
    four per-role puts above. *)

val default_cost : cost_model
(** Neutral cost model for tests: 100 µs per packet, 2% op slowdown,
    microsecond-scale state-op costs. *)
