(** Deterministic fault injection with tc-netem-class impairment
    profiles.

    A {!plan} is a pure description of the faults a run should suffer.
    Each link direction carries a {!dir_profile}: message drop /
    duplication / bounded reorder / latency spikes (the original
    model), plus jitter drawn from a pluggable {!Dist.spec}
    distribution, payload corruption (delivered bits fail the
    receiver's checksum — counted separately from drops but equally
    lost), token-bucket rate limiting with FIFO queueing delay and
    tail-drop, and scheduled blackhole windows.  Plans also carry
    global partition windows and scheduled MB crash / restart points.

    Applying a plan is fully deterministic — every stochastic decision
    draws from a {!Prng} stream derived from the plan seed, the link
    name and the direction, so two runs of the same plan over the same
    traffic make identical fault decisions.  Plans round-trip exactly
    through {!plan_to_string} / {!plan_of_string} (floats print as
    hex literals), so a failing chaos seed can print a plan that
    re-runs verbatim.

    Channels consult a {!link} handle on every send ({!deliveries});
    agents arm their crash schedule once at connect time
    ({!arm_crashes}). *)

type rate_limit = {
  rate_bytes_per_sec : float;  (** Token refill rate. *)
  burst_bytes : int;  (** Bucket depth: bytes admissible instantly. *)
  max_queue : Time.t;
      (** Backlog bound: a message whose queueing delay would exceed
          this is tail-dropped instead of queued. *)
}

type blackhole = { bh_from : Time.t; bh_until : Time.t }
(** Half-open window [\[bh_from, bh_until)] during which every send in
    this direction is silently lost. *)

type dir_profile = {
  drop : float;  (** Probability a message is silently lost. *)
  duplicate : float;  (** Probability a message is delivered twice. *)
  reorder : float;
      (** Probability a delivery is delayed by a uniform draw from
          [\[0, reorder_window)], letting later messages overtake it. *)
  reorder_window : Time.t;
  spike : float;  (** Probability of an additive latency spike. *)
  spike_delay : Time.t;
  jitter : Dist.spec option;
      (** Additive per-delivery jitter drawn from this distribution
          (negative tails clamp to zero).  [None] disables it. *)
  corrupt : float;
      (** Probability the payload is corrupted in flight; the receiver
          discards it on checksum, so the message is lost but counted
          under {!corrupted}, not {!dropped}. *)
  rate : rate_limit option;
      (** Token-bucket shaper for this direction; [None] is unshaped. *)
  blackholes : blackhole list;
}

type link_profile = { fwd : dir_profile; rev : dir_profile }
(** Bidirectional profile: [fwd] governs the nominal forward direction
    of a link (controller → MB for control channels), [rev] the
    reverse.  The two directions fault independently, from independent
    streams. *)

val clean_dir : dir_profile
(** All-zero profile: every message delivered exactly once, on time. *)

val symmetric : dir_profile -> link_profile
(** Same profile both ways (streams still independent). *)

type partition = { part_from : Time.t; part_until : Time.t }
(** Half-open window [\[part_from, part_until)] during which every
    message sent on a faulted link is lost (both directions). *)

type crash = {
  crash_at : Time.t;
  restart_after : Time.t option;
      (** [None] means the MB never comes back. *)
}

type plan = {
  seed : int;
  link : link_profile;  (** Applied to every faulted link. *)
  partitions : partition list;
  crashes : (string * crash) list;  (** Keyed by MB name. *)
}

val clean_plan : seed:int -> plan
(** A plan that injects nothing — useful as an oracle baseline. *)

val random_plan : seed:int -> mbs:string list -> horizon:Time.t -> plan
(** The canonical legacy seed-to-plan generator shared by the chaos
    harness and [bench failover --faults]: drop up to 12%, duplication
    up to 10%, reorder up to 30% within [horizon/20], spikes up to 5%
    of [horizon/10], zero to two partitions, and for each named MB a
    40% chance of one crash (75% of which restart).  Both directions
    share one symmetric profile; the netem-class fields stay off. *)

val random_impairment_plan : seed:int -> mbs:string list -> horizon:Time.t -> plan
(** Production-grade generator: independent per-direction profiles
    with distribution-drawn jitter (uniform / exponential / lognormal /
    bounded-Pareto, scaled to [horizon]), a 50% chance of a token-bucket
    shaper per direction, up to 3% corruption, zero to two blackhole
    windows per direction, partitions, and restarting crashes for the
    named MBs.  Every pathology window is bounded, so retried
    operations eventually land — the property long soaks rely on. *)

type t
(** A plan being applied to one engine; owns the fault counters. *)

type direction = [ `Fwd | `Rev ]

type link
(** Per-channel, per-direction fault stream (owns that direction's
    token-bucket state). *)

val create : ?telemetry:Telemetry.t -> Engine.t -> plan -> t
(** With [?telemetry], every realized fault also increments the
    matching ["faults.*"] registry counter (dropped / duplicated /
    delayed / corrupted / throttled / shaper_dropped / blackholed /
    crashes / restarts), mirroring the accessors below. *)

val link : t -> ?dir:direction -> name:string -> unit -> link
(** [link t ~dir ~name] is the fault stream for direction [dir]
    (default [`Fwd]) of the channel called [name].  Streams are
    independent per (name, direction) and of creation order. *)

val deliveries : link -> now:Time.t -> bytes:int -> Time.t list
(** [deliveries l ~now ~bytes] decides the fate of one [bytes]-byte
    message sent at [now]: the empty list loses it (partition,
    blackhole, shaper tail-drop, random drop or corruption — see the
    counters for which), otherwise each element is an extra delay to
    add to one delivery of the message (two elements duplicate it).
    Delays include the shaper's FIFO queueing delay plus jitter. *)

val arm_crashes :
  t -> name:string -> on_crash:(unit -> unit) -> on_restart:(unit -> unit) -> unit
(** Schedule every crash entry for [name] in the plan: [on_crash] runs
    at [crash_at], and [on_restart] runs [restart_after] later when
    present. *)

(** {1 Counters}

    Each loss is counted under exactly one cause; {!lost} is their
    sum.  [delayed] counts deliveries with nonzero reorder / spike /
    jitter delay; [throttled] counts messages the shaper queued
    (admitted with delay). *)

val dropped : t -> int
(** Random drops plus partition losses. *)

val duplicated : t -> int
val delayed : t -> int

val corrupted : t -> int
(** Messages delivered corrupt and discarded by the receiver. *)

val throttled : t -> int
(** Messages that crossed the shaper with a queueing delay. *)

val shaper_dropped : t -> int
(** Messages tail-dropped by a full shaper queue. *)

val blackholed : t -> int
(** Messages lost to a scheduled blackhole window. *)

val crashes_fired : t -> int
val restarts_fired : t -> int

val lost : t -> int
(** [dropped + blackholed + shaper_dropped + corrupted]: every message
    that was sent but never delivered.  Conservation:
    [received = sent - lost + duplicated]. *)

(** {1 Plan printer / parser} *)

val plan_to_string : plan -> string
(** Single-line form whose floats are hex literals;
    [plan_of_string (plan_to_string p) = p] exactly.  MB names in crash
    entries must avoid the separator characters
    [{'|'; ';'; ','; '@'; '~'; '{'; '}'}]. *)

val plan_of_string : string -> plan
(** Inverse of {!plan_to_string}; raises [Failure] on malformed
    input. *)
