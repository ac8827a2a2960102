(** Common middlebox runtime.

    Every middlebox in this repo is built on this base: it provides the
    simulated packet data path (serial processing with queueing, the
    op-slowdown penalty, per-packet latency measurement), event
    emission honouring the moved/cloned flags, a configuration tree,
    and helpers for assembling a {!Openmb_core.Southbound.impl}. *)

type t

val create :
  Openmb_sim.Engine.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  name:string ->
  kind:string ->
  cost:Openmb_core.Southbound.cost_model ->
  unit ->
  t
(** With [telemetry], every processed packet increments the shared
    ["mb.pkts"] counter and feeds its data-path latency (including
    queueing) into the ["mb.pkt_latency"] histogram; on a
    {!Openmb_sim.Telemetry.timeline} instance the MB also logs its
    timeline instants there under its name (see {!record}). *)

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

val introspects : t -> code:string -> key:Openmb_net.Hfl.t -> bool
(** Whether the attached agent's filter admits an introspection event
    with this code and key ({!Openmb_core.Event.Filter.admits_introspect}
    on the filter [set_event_sink] installed; false before an agent
    attaches).  Ask it before building the event: an event its consumer
    would discard is never built (§4.2.2). *)

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
    ["mb.batch_occupancy"] count histogram.  On a timeline and with
    [side_effects], each member also logs a ["pkt"] instant whose
    detail is the member's flow label.  An empty batch is released
    without scheduling anything. *)

val inject : t -> Openmb_net.Packet.t -> side_effects:bool -> unit
(** {!inject_batch} of a 1-member batch from the base's pool; it charges
    and records exactly what a lone packet costs. *)

val drop : Openmb_net.Packet.t
(** What a per-packet pass returns to drop its input.  It is recognised
    by physical equality and never forwarded. *)

val process_batch :
  t ->
  ('mb -> Openmb_net.Packet.t -> side_effects:bool -> Openmb_net.Packet.t) ->
  'mb ->
  side_effects:bool ->
  Openmb_net.Packet_batch.t ->
  unit
(** The work of a middlebox whose pass is per-packet:
    [set_work base (process_batch base process mb)] loops [process mb]
    over the members, then compacts and {!forward_batch}es the
    survivors, or releases the batch when [side_effects] is false.
    [process mb p] returns the packet that takes [p]'s place: [p] itself
    keeps the member, another packet rewrites it in place (key columns
    refreshed), and {!drop} drops it.  No option is built per packet.
    With [side_effects] false the result only decides the member's fate
    in a batch that is released anyway. *)

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

val record : t -> kind:string -> detail:(unit -> string) -> unit
(** Log a timeline instant named [kind] under this MB's name, stamped
    with the engine's clock.  Without a timeline telemetry it logs
    nothing and [detail] is never called. *)

(** {1 Chunk helpers}

    A chunk body is a state value's {!Openmb_wire.Codec} description
    encoded as JSON; RE's caches keep a private binary form. *)

val seal_raw :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  string ->
  Openmb_core.Chunk.t
(** Seal a serialized value as a chunk of this MB's kind. *)

(** {1 Per-flow state} *)

val import :
  t ->
  role:Openmb_core.Taxonomy.role ->
  partition:Openmb_core.Taxonomy.partition ->
  decode:(string -> 'a) ->
  (Openmb_net.Hfl.t -> 'a -> unit) ->
  Openmb_core.Chunk.t ->
  (unit, Openmb_core.Errors.t) result
(** [import t ~role ~partition ~decode apply chunk] is the put every
    state class shares: a chunk of another class is refused with
    [Illegal_operation]; the rest is unsealed and [decode]d, with
    {!Openmb_wire.Binary.Decode_error} (a description's decoder) and
    [Invalid_argument] (RE's cache readers) turned into [Bad_chunk];
    only then does [apply] receive the chunk's key and the value — the
    MB's merge or replace step for shared state, the table insert for
    per-flow state. *)

type 'a perflow
(** One per-flow state class (§4.1, Fig. 5): a table of this MB, the
    role its entries play, their value codec and the class's crash
    latch. *)

val perflow :
  t ->
  'a State_table.t ->
  role:Openmb_core.Taxonomy.role ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  'a perflow
(** Create the class once per MB, next to its table, and hand it to
    {!default_impl}, which answers every per-flow operation with it:

    - get: [Granularity_too_fine] for a key finer than the table's
      granularity.  Otherwise one pass seals each matching entry not
      yet marked [moved], marks it, and registers the key as a move
      filter, so flows that start mid-move are born marked.  Entries
      already marked belong to an earlier pending transfer and are
      skipped — unless a crash of the hosting agent latched the class
      while marks were outstanding: a get whose range holds a mark may
      then be the retransmission of one whose reply died in the crash,
      and is refused with [Illegal_operation] so the transfer aborts
      and its re-run exports everything;
    - put: {!import} of a per-flow chunk of [role], inserted under the
      chunk's key (clearing any mark there);
    - del: removes the matching entries still marked (one re-imported
      since its export belongs to a newer transfer and stays) and the
      move filter;
    - [abort_perflow]: clears the matching marks and drops the move
      filter and the latch;
    - [on_crash]: latches the class if any entry carries a mark;
    - [stats]: the matching entries and their sealed size.

    [decode] raises {!Openmb_wire.Binary.Decode_error} or
    [Invalid_argument] on a malformed body. *)

(** {1 Impl assembly} *)

val default_impl :
  t -> ?support:'a perflow -> ?report:'b perflow -> unit -> Openmb_core.Southbound.impl
(** A southbound impl with this base's name/kind/cost wired in, config
    ops backed by {!config}, and [process_packet] wired to {!inject},
    so re-processing runs the installed work on a 1-member batch.

    [support] and [report] are the per-flow classes the MB keeps (see
    {!perflow}); they answer the per-flow gets, puts and deletes,
    [abort_perflow], [on_crash] and the per-flow part of [stats], and
    the first present one's table gives [granularity] and
    [table_entries] (full granularity and 0 with neither).  A get of a
    class the MB lacks returns an empty stream and a delete 0 — a move
    touches both supporting and reporting state, and most MBs hold only
    one — while a put returns [Illegal_operation].  Shared state reads
    as absent and its puts are [Illegal_operation]: an MB that keeps
    some overrides both, its put through {!import}. *)
