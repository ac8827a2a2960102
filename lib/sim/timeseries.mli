(** Time-series telemetry history: a per-registry scraper that samples
    selected counters, gauges and histogram quantiles on a fixed
    virtual-time period into fixed-capacity ring buffers with
    multi-resolution rollups.

    {!Telemetry} answers "what is the value now"; this module answers
    "how did it evolve" — the signal the paper's evaluation watches
    (serialization windows, move latency, scaling behaviour over time)
    and the input the SLO layer ({!Slo}) and the ROADMAP-3 autoscaler
    judge against targets.

    Design goals, in order:

    - {b Zero allocation on the sample path.}  Every ring and rollup
      accumulator is preallocated at registration; a scrape tick is a
      source read (counter/gauge load, histogram bucket walk, or a
      caller-supplied poll closure) plus flat float-array stores.

    - {b Observation must not perturb the simulation.}  Ticks are
      closure-free timer-wheel events ({!Engine.call_at} with the
      scraper as the argument); they draw from no PRNG stream, touch no
      application state, and stop by themselves when their engine has
      nothing else pending — a seeded run with scraping enabled is
      state-fingerprint-identical to the same run without it, across
      any domain count (property-tested in [test/test_shard.ml]).

    - {b Bounded memory, long horizon.}  Each series keeps [cap] raw
      samples plus [cap] buckets at 10x and 100x downsampling
      (min/max/mean/last per bucket), so the retained horizon spans
      [cap * 100] ticks at degraded resolution.  Bucket boundaries are
      aligned to {e absolute} sample indices, so ring wrap-around never
      shifts them.

    - {b Mergeable across shards.}  {!snapshot}s combine like
      {!Telemetry.merge}: series match by name and merge
      pointwise over the overlap of their absolute sample ranges,
      according to each series' {!mode}. *)

type t

type source =
  | Counter of Telemetry.counter  (** Samples the cumulative count. *)
  | Gauge of Telemetry.gauge  (** Samples the current level. *)
  | Quantile of Telemetry.histogram * float
      (** Samples [quantile h q] — e.g. a p99 latency series. *)
  | Poll of (unit -> float)
      (** Escape hatch for values outside the registry (per-MB packet
          counts, pool occupancy).  Called once per tick; must not
          allocate if the zero-alloc guarantee matters to the caller,
          and must not mutate simulation state (determinism). *)

(** How a series combines across shards in {!merge}. *)
type mode =
  | Sum  (** Disjoint-population series: counters, packet counts. *)
  | Max  (** Worst-of series: latency quantiles, backlogs. *)
  | Last  (** Right-hand side wins (gauge-like, ordered by caller). *)

val create : ?cap:int -> Engine.t -> t
(** A scraper bound to [engine]'s virtual clock.  [cap] (default
    [512], min [16]) bounds every ring: raw and both rollup levels each
    retain [cap] entries per series. *)

val add : t -> name:string -> ?mode:mode -> source -> unit
(** Register a series.  The default [mode] follows the source kind:
    [Sum] for counters and polls, [Max] for quantiles, [Sum] for
    gauges (cross-shard gauge levels describe disjoint subsystems, so
    unlike registry merging they add).  Raises [Invalid_argument] on a
    duplicate name. *)

val start : ?until:Time.t -> t -> every:Time.t -> unit
(** Begin scraping: one sample of every series each [every] of virtual
    time, the first immediately.  The tick self-reschedules while its
    engine has other pending events (and, with [until], only up to that
    horizon); when the rest of the simulation drains the scraper stops
    rather than holding the run open.  One scraper per engine: two
    auto-stopping scrapers would keep each other alive.  Raises
    [Invalid_argument] if [every <= 0] or the scraper is running. *)

val stop : t -> unit
(** Stop sampling (the already-scheduled tick becomes a no-op). *)

val running : t -> bool

val set_on_tick : t -> (Time.t -> unit) -> unit
(** Hook run after each sample round — {!Slo.attach} uses this to
    evaluate objectives on fresh samples. *)

(** {1 Reads}

    Samples are addressed by {e absolute} index: the [k]-th sample ever
    taken ([k] in [\[total - retained, total)]).  Rollup buckets are
    likewise addressed by absolute bucket index; bucket [b] of the
    level with factor [f] aggregates raw samples [\[f*b, f*(b+1))]. *)

val ticks : t -> int
(** Sample rounds completed ([= total] samples per series). *)

val total : t -> int

val retained : t -> int
(** Raw samples currently held per series: [min total cap]. *)

val period : t -> Time.t
val n_series : t -> int
val index : t -> string -> int
(** Series index of [name], or [-1]. *)

val raw_get : t -> series:int -> int -> float
(** Raw sample at absolute index [k]; raises [Invalid_argument] outside
    the retained window. *)

val time_of_sample : t -> int -> float
(** Virtual time (seconds) at which sample [k] was taken: the scrape
    start time plus [k] periods. *)

val levels : int
(** Number of rollup levels (2). *)

val level_factor : int -> int
(** Downsampling factor of level [l]: 10 and 100. *)

val completed_buckets : t -> level:int -> int
(** Buckets fully flushed so far at [level]: [total / factor]. *)

val retained_buckets : t -> level:int -> int

val bucket_get : t -> series:int -> level:int -> int -> float * float * float * float
(** [(min, max, mean, last)] of the bucket at absolute bucket index
    [b]; raises [Invalid_argument] outside the retained window. *)

(** {1 Snapshots, merging, export} *)

type snapshot

val snapshot : t -> snapshot
(** Immutable copy of every series (raw window + completed rollup
    buckets), for merging and export. *)

val merge : snapshot -> snapshot -> snapshot
(** Combine two snapshots series-by-series (matched by name, which must
    agree on mode; periods must agree).  Overlapping absolute sample
    ranges combine pointwise per the series {!mode}; the result covers
    the intersection of the two ranges, and series present on only one
    side pass through.  Rollup min/max under [Sum] are conservative
    bounds (sum of per-side minima / maxima), so the min <= mean <= max
    sandwich is preserved.  Associative. *)

val merge_all : snapshot list -> snapshot

val to_json : snapshot -> string
(** Compact JSON:
    [{"period_s":p,"series":{NAME:{"mode":m,"total":n,"first":k,
    "raw":[...],"rollups":[{"factor":10,"first":b,"min":[...],...}]}}}] *)

val pp_dash : status:(string -> string) -> Format.formatter -> t -> unit
(** Terminal dashboard: one sparkline row per series (last 48 raw
    samples) with last/min/max columns, plus the [status] cell per
    series (the SLO column — {!Slo.pp_dash} supplies it). *)
