(** Connection-tracking intrusion detection system (the repo's Bro
    analog).

    Maintains a connection record — TCP state machine, history string,
    byte/packet counters, and an analyzer tree including an HTTP
    analyzer — for every flow, keyed on the full five-tuple.  Produces
    [conn.log] and [http.log] entries (the outputs the paper diffs for
    its correctness experiment) and raises alerts on exploit signatures
    and port scans.

    OpenMB integration: per-flow supporting state is the connection
    record (serialized as a deep JSON tree standing in for Bro's >100
    serializable classes); shared supporting state is the scan-detector
    table; getting state sets the [moved] flag so packet-driven updates
    raise re-process events; deleting moved state does not produce
    spurious log entries. *)

type t

type tcp_state = Ts_syn | Ts_synack | Ts_est | Ts_closed | Ts_reset_orig | Ts_reset_resp

type conn = {
  orig : Openmb_net.Five_tuple.t;  (** Originator direction. *)
  mutable started : float;
  mutable last_seen : float;
  mutable tcp : tcp_state;
  mutable history : string;
  mutable orig_pkts : int;
  mutable orig_bytes : int;
  mutable resp_pkts : int;
  mutable resp_bytes : int;
  mutable open_http : (string * string * string) list;  (** Method, host, URI. *)
  mutable http_done : (string * string * string * int) list;  (** And the status. *)
  mutable logged : bool;
}
(** A connection record (per-flow supporting state), updated in place
    by every packet of the connection. *)

type scan_rec = { mutable syn_count : int; mutable alerted : bool }
(** One source's entry in the scan detector (shared supporting state). *)

type conn_entry = {
  ce_tuple : Openmb_net.Five_tuple.t;
  ce_start : float;  (** Seconds. *)
  ce_duration : float;
  ce_orig_bytes : int;
  ce_resp_bytes : int;
  ce_state : string;  (** Bro-style: SF, S0, S1, RSTO, OTH... *)
  ce_anomalous : bool;
      (** Entry produced by abrupt termination (state stranded at an MB
          that stopped seeing the flow's packets). *)
}

type http_entry = {
  he_tuple : Openmb_net.Five_tuple.t;
  he_method : string;
  he_host : string;
  he_uri : string;
  he_status : int;
}

type alert = {
  al_time : float;
  al_kind : string;  (** ["http-exploit"] or ["port-scan"]. *)
  al_source : string;  (** Offending endpoint. *)
  al_detail : string;
}

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  ?cost:Openmb_core.Southbound.cost_model ->
  name:string ->
  unit ->
  t

val default_cost : Openmb_core.Southbound.cost_model
(** Bro-calibrated costs: heavyweight per-packet processing and
    expensive per-chunk serialization (§8.2). *)

val impl : t -> Openmb_core.Southbound.impl
val base : t -> Mb_base.t

val receive : t -> Openmb_net.Packet.t -> unit
(** Network entry point: {!receive_batch} of a 1-member batch. *)

val receive_batch : t -> Openmb_net.Packet_batch.t -> unit
(** The data path: the analysis runs per member, the batch is
    forwarded whole. *)

val conn_log : t -> conn_entry list
(** Completed-connection log, in emission order. *)

val http_log : t -> http_entry list
val alerts : t -> alert list

val finalize : t -> unit
(** Tear the instance down: every still-open, non-moved connection is
    force-logged as an anomalous entry (what happens to stranded state
    when an MB is deprecated or was loaded from a whole-VM snapshot). *)

val anomalous_entries : t -> int
(** Anomalous [conn.log] entries emitted so far. *)

val memory_bytes : t -> int
(** Modelled resident size of per-flow state (for the snapshot-size
    experiment): the in-memory footprint is larger than the serialized
    form by a constant factor. *)

val serialized_bytes : t -> key:Openmb_net.Hfl.t -> int
(** Total serialized size of the per-flow state matching [key] — the
    number of bytes OpenMB would move. *)

val memory_bytes_for : t -> key:Openmb_net.Hfl.t -> int
(** In-memory footprint of the state matching [key]. *)

(** {1 State descriptions} *)

val conn_codec : conn Openmb_wire.Codec.t
(** The per-flow chunk body: the TCP state twice (top level and TCP
    analyzer) and the analyzers as a list tagged by ["name"].  The TCP
    analyzer's reassembly buffer is derived from [orig] and the byte
    counts, never read back.  JSON's ["S1"] names [Ts_synack] and
    [Ts_est] and reads back as [Ts_est]; no HTTP analyzer is an error. *)

val scan_codec : (string * scan_rec) list Openmb_wire.Codec.t
(** The scan table: [{"10.0.0.99":{"syns":22,"alerted":true},...}]. *)

val snapshot_into : t -> t -> unit
(** Copy {e all} state (connection records and scan table) into another
    instance, as restoring a whole-VM snapshot would — the baseline
    §8.1.2 compares against.  Bypasses the OpenMB APIs by design. *)
