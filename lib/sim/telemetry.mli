(** Unified telemetry: metric registry + structured trace spans.

    One {!t} instance is shared by the components of a scenario (engine,
    channels, controller, agents, middleboxes); each registers named
    {!counter}s, {!gauge}s and log-2-bucketed latency {!histogram}s and
    stamps {e spans} against the virtual clock.  The design goals, in
    order:

    - {b Zero-alloc hot path.}  [incr]/[add]/[observe]/[span_begin] do
      not allocate: counters and gauges are single mutable immediates,
      histogram state lives in preallocated [int]/[float] arrays, and
      spans are rows of a structure-of-arrays ring buffer with interned
      actor/name strings.

    - {b Bounded memory.}  The span ring overwrites its oldest rows
      once full (an overwritten span's [span_end] is a safe no-op).
      Only a {e timeline} instance keeps every span: it backs the
      per-component activity log the Figure 7 timeline and the §8.2
      checks read.

    - {b Causality.}  Every span carries an operation id ([op]); the
      controller stamps southbound requests with a fresh id and agents
      tag their spans with the id of the request being served, so one
      logical operation links across components in the exported trace.

    Handles obtained from a registry stay valid for the registry's
    lifetime; re-requesting a name returns the same metric.  Components
    created without a telemetry instance fall back to the shared
    {!null_counter}/{!null_gauge}/{!null_histogram} sinks, keeping the
    instrumented code branch-free. *)

type t
(** A telemetry instance: metric registry + span ring + op-id source. *)

val create : ?span_capacity:int -> ?timeline:bool -> unit -> t
(** Fresh instance.  [span_capacity] bounds the span ring (default
    [4096] rows, rounded up to [16]); the ring's arrays are allocated
    lazily on the first span.  With [~timeline:true] (default false)
    the trace grows instead of wrapping, so no span is ever lost, and
    components log their timeline instants into it (see {!timeline}). *)

val timeline : t -> bool
(** Whether this instance was created with [~timeline:true].
    Components ask it before logging a timeline instant — a packet
    processed, a get started, an event raised — and build the
    instant's detail only when it holds: on any other instance they log
    nothing. *)

(** {1 Counters} *)

type counter
(** A monotone event count. *)

val counter : t -> string -> counter
(** [counter t name] is the counter registered under [name], created on
    first request.  Raises [Invalid_argument] if [name] is already a
    gauge or histogram. *)

val null_counter : counter
(** Shared sink for uninstrumented components: increments land in a
    dummy cell that no snapshot reads. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {1 Gauges} *)

type gauge
(** A current-level measurement; remembers its peak. *)

val gauge : t -> string -> gauge
val null_gauge : gauge

val set_gauge : gauge -> int -> unit
(** Set the current level (peak updated when exceeded). *)

val gauge_value : gauge -> int
val gauge_peak : gauge -> int

(** {1 Histograms}

    Latencies in seconds, bucketed by [floor (log2 nanoseconds)] into
    64 preallocated slots — factor-of-two resolution over [1ns, ∞).
    Quantiles return the {e upper bound} of the containing bucket, so
    [quantile h q] is at least the true q-quantile and less than twice
    it (plus 1ns of integer truncation slack). *)

type histogram

val histogram : t -> string -> histogram
val null_histogram : histogram

val observe : histogram -> float -> unit
(** Record one latency, in seconds.  Negative samples clamp to 0. *)

val observe_n : histogram -> float -> n:int -> unit
(** [observe_n h v ~n] records [n] samples of value [v] with a single
    bucket update — the batch-path form of {!observe}, so histogram
    cost is per batch rather than per packet.  [n <= 0] is a no-op. *)

val observe_count : histogram -> int -> unit
(** Record a dimensionless count (batch occupancy, queue depth):
    encoded as [k] nanoseconds so count [k] lands in bucket
    [floor (log2 k)] and quantiles read back in units where the
    printers say "ns". *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_max : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [\[0, 1\]]; [0.0] when empty. *)

(** {1 Removal and reset}

    Scrape sets and MB clone/merge need series lifecycle management:
    a cloned middlebox that is later merged away must not leave its
    metrics in the registry forever (dead series pollute snapshots and
    time-series scrapes). *)

val remove : t -> string -> bool
(** Drop the named metric from the registry; [false] if absent.
    Handles already obtained for it keep working but become detached
    sinks (writes land in the orphaned cell and no longer appear in
    snapshots) — the same contract as {!null_counter}. *)

val reset_counter : counter -> unit
(** Zero a counter in place (registration kept).  Resetting before a
    merge keeps merging associative: a reset series contributes 0 no
    matter how the merge tree is parenthesized. *)

val reset_gauge : gauge -> unit
(** Zero a gauge's level and peak in place. *)

(** {1 Snapshots} *)

type snapshot
(** An immutable copy of every registered metric. *)

val snapshot : t -> snapshot

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-metric delta: counters and histogram buckets subtract; gauges
    keep [after]'s value and peak (levels do not difference).  Metrics
    absent from [before] pass through unchanged. *)

val snapshot_to_json : snapshot -> string
(** Compact JSON object
    [{"counters":{..},"gauges":{..},"histograms":{..}}]. *)

(** {2 Snapshot accessors}

    Per-metric reads, used by gates and the shard-merge property tests.
    All return [None] when [name] is absent or registered as a different
    kind. *)

val snap_counter : snapshot -> string -> int option

val snap_gauge : snapshot -> string -> (int * int) option
(** [(value, peak)]. *)

val snap_hist : snapshot -> string -> (int * float * float) option
(** [(count, sum, max)]. *)

val snap_hist_quantile : snapshot -> string -> float -> float option

(** {2 Merging}

    Combining the per-shard registries of a sharded run into one
    aggregate view ({!Sharded_engine.merged_snapshot}). *)

val merge : snapshot -> snapshot -> snapshot
(** [merge a b] combines two snapshots metric-by-metric: counters sum,
    histograms add bucket-wise (counts and sums add, maxima take the
    larger), and gauges keep the {e last writer}'s value — [b]'s — with
    the peak of both.  Metrics present on only one side pass through.
    Merging is associative, and commutative on counters and histograms
    (gauge values are ordered by construction).  Raises
    [Invalid_argument] when the same name has different kinds on the
    two sides. *)

val merge_all : snapshot list -> snapshot
(** Left fold of {!merge}; the empty list yields an empty snapshot. *)

val pp : Format.formatter -> t -> unit
(** The current state as an aligned table: counters, gauges, then
    histograms with count/p50/p90/p99/max. *)

val add_json_string : Buffer.t -> string -> unit
(** Append [s] as a JSON string literal, quotes included: ['"'], ['\\']
    and bytes below [0x20] are escaped, every other byte (UTF-8 text
    among them) passes through, so any byte string reads back
    unchanged.  Every JSON writer in this library quotes with it. *)

(** {1 Trace spans}

    The span ring proper: telemetry-enabled components write to the
    ring inside {!t}, which a timeline instance never wraps. *)

module Trace : sig
  type t

  type span = int
  (** A token for an open span: its absolute row index.  Tokens are
      plain ints so holding one allocates nothing. *)

  val none : span
  (** Inert token; [span_end] on it is a no-op. *)

  val create : ?capacity:int -> unit -> t
  (** Bounded ring of [capacity] rows (default [4096], min [16]) that
      overwrites oldest-first when full. *)

  val span_begin :
    t ->
    now:Time.t ->
    actor:string ->
    name:string ->
    ?op:int ->
    ?a0:int ->
    ?a1:int ->
    ?detail:string ->
    unit ->
    span
  (** Open a span at virtual time [now].  [actor] and [name] are
      interned (first use of each distinct string allocates, repeats do
      not).  [op] is the causality id; [a0]/[a1] are free arg slots. *)

  val span_end : t -> now:Time.t -> span -> unit
  (** Close a span.  No-op on {!none} and on spans already overwritten
      by ring wrap-around. *)

  val instant :
    t ->
    now:Time.t ->
    actor:string ->
    name:string ->
    ?op:int ->
    ?a0:int ->
    ?a1:int ->
    ?detail:string ->
    unit ->
    unit
  (** Zero-duration span. *)

  val total : t -> int
  (** Spans ever begun. *)

  val length : t -> int
  (** Spans currently held (≤ capacity unless a timeline's). *)

  val overwritten : t -> int
  (** Spans lost to wrap-around ([0] in a timeline's trace). *)

  val lookup_id : t -> string -> int
  (** Interned id of a string, or [-1] if never seen.  Never interns. *)

  val fold :
    t ->
    init:'acc ->
    f:
      ('acc ->
      actor:int ->
      name:int ->
      op:int ->
      a0:int ->
      a1:int ->
      t0:Time.t ->
      t1:Time.t ->
      detail:string ->
      'acc) ->
    'acc
  (** Fold over held rows oldest-first.  [actor]/[name] are interned
      ids (resolve with {!string_of_id}); [t1 < t0] marks a span still
      open. *)

  val string_of_id : t -> int -> string

  val clear : t -> unit
  (** Drop all rows (interned strings are kept). *)

  val export_chrome : t -> out_channel -> unit
  (** Chrome [trace_event] JSON (one process; one thread per actor;
      complete/instant events carrying [op_id] and arg slots) — loads
      in [about:tracing] and Perfetto. *)
end

val trace : t -> Trace.t
(** The span ring owned by this instance (unbounded on a timeline). *)

val next_op_id : t -> int
(** Fresh causality id, starting at 1.  Id [0] means "none". *)

val span_begin :
  t ->
  now:Time.t ->
  actor:string ->
  name:string ->
  ?op:int ->
  ?a0:int ->
  ?a1:int ->
  ?detail:string ->
  unit ->
  Trace.span
(** {!Trace.span_begin} on {!trace}. *)

val span_end : t -> now:Time.t -> Trace.span -> unit

val instant :
  t ->
  now:Time.t ->
  actor:string ->
  name:string ->
  ?op:int ->
  ?a0:int ->
  ?a1:int ->
  ?detail:string ->
  unit ->
  unit

val export_chrome : t -> out_channel -> unit
(** {!Trace.export_chrome} on {!trace}. *)
