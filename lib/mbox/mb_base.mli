(** Common middlebox runtime.

    Every middlebox in this repo is built on this base: it provides the
    simulated packet data path (serial processing with queueing, the
    op-slowdown penalty, per-packet latency measurement), event
    emission honouring the moved/cloned flags, a configuration tree,
    and helpers for assembling a {!Openmb_core.Southbound.impl}. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?recorder:Openmb_sim.Recorder.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  name:string ->
  kind:string ->
  cost:Openmb_core.Southbound.cost_model ->
  unit ->
  t
(** With [telemetry], every processed packet increments the shared
    ["mb.pkts"] counter and feeds its data-path latency (including
    queueing) into the ["mb.pkt_latency"] histogram. *)

val engine : t -> Openmb_sim.Engine.t
val name : t -> string
val kind : t -> string
val config : t -> Openmb_core.Config_tree.t
val now : t -> Openmb_sim.Time.t

val set_egress : t -> (Openmb_net.Packet.t -> unit) -> unit
(** Forward processed packets to a per-packet receiver: each outgoing
    batch is drained member by member. *)

val set_egress_batch : t -> (Openmb_net.Packet_batch.t -> unit) -> unit
(** Forward processed batches to a batch receiver (the MB's egress
    link).  Replaces any earlier egress. *)

val forward_batch : t -> Openmb_net.Packet_batch.t -> unit
(** Emit a whole batch on the egress (ownership passes on; the batch is
    released when no egress is set or it is empty). *)

val raise_event : t -> Openmb_core.Event.t -> unit
(** Send an event up to the agent (no-op before an agent attaches). *)

val set_op_active : t -> bool -> unit
(** Called by the agent while southbound ops execute; the packet path
    then applies [cost.op_slowdown]. *)

val op_active : t -> bool

val set_work : t -> (side_effects:bool -> Openmb_net.Packet_batch.t -> unit) -> unit
(** Install the MB's packet pass, run on each batch once it has been
    through data-path queueing.  It performs the MB's state updates and
    (only when [side_effects] is true) any forwarding or alerting, and
    takes ownership of the batch.  The default releases every batch. *)

val inject_batch : t -> Openmb_net.Packet_batch.t -> side_effects:bool -> unit
(** The data path: the batch waits for the serial data-path clock, is
    charged [n × per-packet cost] (times [cost.op_slowdown] while an op
    is active) as a single event, and is then handed to the installed
    work.  Counters, latency stats (including queueing) and histograms
    are updated once with weight [n]; batch sizes feed the
    ["mb.batch_occupancy"] count histogram.  With a recorder and
    [side_effects], each member also logs a ["pkt"] timeline entry.  An
    empty batch is released without scheduling anything. *)

val inject : t -> Openmb_net.Packet.t -> side_effects:bool -> unit
(** {!inject_batch} of a 1-member batch from the base's pool; it charges
    and records exactly what a lone packet costs. *)

val process_batch :
  t ->
  ('mb -> Openmb_net.Packet.t -> side_effects:bool -> Openmb_net.Packet.t option) ->
  'mb ->
  side_effects:bool ->
  Openmb_net.Packet_batch.t ->
  unit
(** The work of a middlebox whose pass is per-packet:
    [set_work base (process_batch base process mb)] loops [process mb]
    over the members — [Some p'] rewrites the member in place (key
    columns refreshed), [None] drops it — then compacts and
    {!forward_batch}es the survivors, or releases the batch when
    [side_effects] is false. *)

val register_series : t -> Openmb_sim.Timeseries.t -> unit
(** Register this MB's per-instance scrape set on a {!Openmb_sim.Timeseries}
    scraper: [<name>.pkts] (packets processed, Sum), [<name>.dp_backlog_us]
    (data-path queueing backlog, Max) and [<name>.lat_mean_us] (mean
    per-packet latency, Max).  The shared registry metrics ([mb.pkts],
    ...) aggregate all MBs on one telemetry instance; these series keep
    per-MB identity, which is what the dashboard and the future
    autoscaler consume.  The sources only read MB state.  Unregister by
    dropping the scraper — series handles do not outlive it. *)

val latency_stats : t -> Openmb_sim.Stats.t
(** Per-packet processing latency (including queueing). *)

val latency_during_op_stats : t -> Openmb_sim.Stats.t
(** Latency of the subset of packets that arrived while a state
    operation was executing (the §8.2 get-call comparison). *)

val packets_processed : t -> int

val record : t -> kind:string -> detail:(unit -> string) -> unit
(** Log a timeline entry under this MB's name.  [detail] is called
    only when a recorder is attached. *)

(** {1 Chunk helpers} *)

val seal_json :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  Openmb_wire.Json.t ->
  Openmb_core.Chunk.t
(** Serialize a JSON value and seal it as a chunk of this MB's kind. *)

val unseal_json :
  t -> Openmb_core.Chunk.t -> (Openmb_wire.Json.t, Openmb_core.Errors.t) result
(** Unseal and parse a chunk produced by a same-kind MB. *)

val seal_raw :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  string ->
  Openmb_core.Chunk.t
(** Seal an MB-private binary serialization (used by RE's cache). *)

val unseal_raw : t -> Openmb_core.Chunk.t -> (string, Openmb_core.Errors.t) result

(** {1 Impl assembly} *)

val default_impl : t -> table_entries:(unit -> int) -> Openmb_core.Southbound.impl
(** A southbound impl with this base's name/kind/cost wired in, config
    ops backed by {!config}, granularity {!Openmb_net.Hfl.full_granularity},
    every state operation returning [Error (Illegal_operation _)] —
    middleboxes override the operations they support — and
    [process_packet] wired to {!inject}, so re-processing runs the
    installed work on a 1-member batch. *)
