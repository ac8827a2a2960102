(** Declarative service-level objectives over {!Timeseries} series,
    with multi-window burn-rate evaluation and a breach log.

    An objective names a series, a target (compare each sample, or the
    per-sample delta for cumulative counters, against a threshold) and
    an error budget: the fraction of samples allowed to violate the
    target.  Each evaluation computes, for every configured trailing
    window, the {e burn rate} — observed bad fraction divided by
    budget — and declares a breach when {b all} windows burn at or
    above their thresholds (the classic fast-burn/slow-burn pairing:
    the short window reacts quickly, the long window confirms it is
    not a blip).  Breaches are edge-triggered: one log entry per
    excursion, carrying the virtual timestamp, the offending value and
    the worst burn rate, until the objective recovers. *)

type comparator =
  | Le  (** healthy when [value <= target] *)
  | Ge  (** healthy when [value >= target] *)

(** What is compared against the target. *)
type signal =
  | Level  (** the sample itself (gauges, quantiles) *)
  | Delta
      (** the increase since the previous sample — rate form for
          cumulative counters ("events_dropped rate = 0" is
          [Delta Le 0]) *)

type objective = {
  o_name : string;
  o_series : string;  (** {!Timeseries} series this judges *)
  o_signal : signal;
  o_cmp : comparator;
  o_target : float;
  o_budget : float;  (** allowed bad fraction, in (0, 1] *)
  o_windows : (int * float) list;
      (** [(samples, burn_threshold)] — all must burn to breach *)
}

val objective :
  ?signal:signal ->
  ?budget:float ->
  ?windows:(int * float) list ->
  name:string ->
  series:string ->
  comparator ->
  float ->
  objective
(** Defaults: [signal = Level], [budget = 0.01] (1% of samples),
    [windows = \[(10, 1.0); (100, 1.0)\]].  Windows shorter than the
    series' history so far are evaluated over what exists. *)

type breach = {
  br_objective : string;
  br_series : string;
  br_at : float;  (** virtual time, seconds *)
  br_value : float;  (** offending (most recent bad) value *)
  br_burn : float;  (** worst window burn rate at the transition *)
}

type t

val create : Timeseries.t -> t
val add : t -> objective -> unit

val attach : t -> unit
(** Evaluate after every scrape tick (installs the timeseries
    [on_tick] hook — last attach wins, matching
    {!Timeseries.set_on_tick}). *)

val evaluate : t -> now:Time.t -> unit
(** One evaluation round (what {!attach} runs per tick). *)

val breaches : t -> breach list
(** Edge-triggered breach log, oldest first. *)

val breach_count : t -> int

val set_on_breach : t -> (breach -> unit) -> unit
(** Called on each breach transition — the flight recorder's trigger. *)

val in_breach : t -> string -> bool
(** Is the named objective currently breached? *)

val burn_rate : t -> string -> float
(** Worst-window burn rate of the named objective at its last
    evaluation (0 if unknown or never evaluated). *)

val pp_dash : Format.formatter -> t -> unit
(** {!Timeseries.pp_dash} of the underlying series with this tracker's
    SLO status column, followed by one line per logged breach. *)

val breaches_to_json : t -> string
