(** Post-mortem flight recorder: on SLO breach, invariant failure or
    explicit trigger, capture one JSON artifact bundling everything a
    triage session needs — the recent {!Timeseries} windows, the tail
    of the {!Telemetry.Trace} span ring, a registry snapshot, the SLO
    breach log, and the replayable {!Faults} plan string when the run
    was impaired.  The chaos/soak harnesses wire one of these up so a
    failing seed ships its own black box alongside the plan. *)

type t

val create :
  ?telemetry:Telemetry.t ->
  ?timeseries:Timeseries.t ->
  ?slo:Slo.t ->
  ?fault_plan:string ->
  unit ->
  t
(** All sections optional — absent sources render as JSON [null].  The
    span tail holds the 256 most recent spans. *)

val dump : t -> now:Time.t -> reason:string -> string
(** Render the bundle:
    [{"reason":r,"at_s":t,"fault_plan":p,"breaches":[...],
    "series":{...},"registry":{...},"span_tail":[...]}].
    Also retained as {!last_bundle}. *)

val arm : t -> engine:Engine.t -> unit
(** Install the {!Slo.set_on_breach} hook (requires [slo]): the first
    breach of the run captures a bundle automatically (later breaches
    don't overwrite it — the first excursion is the interesting one).
    Read it back with {!last_bundle}. *)

val last_bundle : t -> string option
(** Most recent bundle rendered by {!dump} / the {!arm} hook. *)

val dumps : t -> int
(** Bundles captured so far. *)
