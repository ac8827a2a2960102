(** Replicated controller: a leader / warm-standby pair with
    log-shipping state replication and automatic failover.

    The OpenMB controller of §5 is a single process; this module wraps
    two of them into one highly-available deployment.  The leader
    serves the northbound API and streams a sequence-numbered op log —
    move intents and their outcomes — to the standby over a
    fault-injectable channel with cumulative acks and heartbeat-driven
    retransmission (snapshot re-sync bootstraps a rejoining peer).  The
    standby runs a silence-based failure detector; when the leader goes
    quiet past the failover timeout it promotes itself:

    - the deposed leader is {e fenced} ({!Controller.fence} — modeling
      lease expiry at the config store), so nothing it still tries can
      reach an agent;
    - a fresh {!Controller.t} re-adopts every agent with an
      epoch-shifted op/sequence base (the agents never crashed, so
      their dedup caches survive the old leader);
    - deferred deletes of recently completed moves are re-issued
      (idempotent: they only touch moved-marked entries);
    - every move still pending is rolled back via the transactional
      [abortPerflow] path and re-run.

    With only two replicas there is no quorum: a partition can promote
    the standby while the leader lives.  Fencing keeps that safe
    (split-brain cannot issue conflicting ops); the deposed leader
    rejoins as the new warm standby, so availability ping-pongs rather
    than halting.  All decisions are driven by the simulation clock and
    the deployment's fault plan, so whole-cluster runs stay
    deterministic. *)

type t

type config = {
  heartbeat_every : Openmb_sim.Time.t;
      (** Leader → standby heartbeat period; also the retransmission
          tick for unacknowledged log entries. *)
  failover_timeout : Openmb_sim.Time.t;
      (** Silence after which the standby promotes itself.  Must
          comfortably exceed [heartbeat_every] plus log-link jitter or
          healthy deployments will flap. *)
  log_latency : Openmb_sim.Time.t;
      (** Propagation latency of the replication channel. *)
  log_bandwidth : float;  (** Bytes/second of the replication channel. *)
  move_retry_backoff : Openmb_sim.Time.t;
      (** Base of the exponential backoff between replica-level re-runs
          of a failed move (attempt [n] waits [base * 2^n], capped). *)
  move_retry_cap : Openmb_sim.Time.t;
  max_move_attempts : int;
      (** Move attempts before the client sees the underlying error.
          Long soaks set this high: every injected pathology is
          bounded, so a retried move eventually lands. *)
  cleanup_linger : Openmb_sim.Time.t;
      (** How long a completed move stays replayable.  A takeover
          within this window re-issues the move's deferred delete,
          covering a leader that died between a move's completion and
          its quiescence-delayed cleanup.  Must exceed the controller
          quiescence by a healthy margin. *)
  ctrl : Controller.config;  (** Config for each member's controller. *)
}

val default_config : config
(** 100 ms heartbeats, 500 ms failover timeout, 200 µs / 125 MB/s log
    channel, up to 16 move attempts backing off 200 ms → 30 s, 20 s
    cleanup linger, {!Controller.default_config} members. *)

val create :
  Openmb_sim.Engine.t ->
  ?config:config ->
  ?faults:Openmb_sim.Faults.t ->
  ?telemetry:Openmb_sim.Telemetry.t ->
  unit ->
  t
(** Create the pair, ["ctrl-a"] and ["ctrl-b"]; the first member starts
    as leader, the second as warm standby.  With [?faults], both the
    controller–MB channels and the replication link (plan name
    ["replica/log"]: log stream on the forward direction, acks on the
    reverse) suffer the plan's impairments.  The pair keeps heartbeat /
    detector timers armed until {!stop}, so drive the engine with
    [Engine.run ~until].  The leader is a {!Controller.create}, so a
    [ctrl] config it rejects raises [Invalid_argument] here. *)

val connect : t -> Mb_agent.t -> unit
(** Adopt an agent: connects it to the current leader and remembers it
    for re-adoption at every takeover.  Raises [Failure] if no leader
    is live. *)

val move :
  t ->
  src:string ->
  dst:string ->
  key:Openmb_net.Hfl.t ->
  on_done:((Controller.move_result, Errors.t) result -> unit) ->
  unit
(** Replicated {!Controller.move_internal}: the intent is logged to the
    standby before the first attempt, failed attempts are rolled back
    ([abortPerflow]) and re-run with exponential backoff, and a
    takeover resumes the move on the new leader.  [on_done] fires once,
    with the final outcome; a client-visible error means
    [max_move_attempts] genuine failures. *)

val kill : t -> name:string -> unit
(** Crash a member.  A killed leader simply goes silent — the standby's
    detector notices and promotes itself after [failover_timeout].
    Idempotent on a dead member. *)

val revive : t -> name:string -> unit
(** Restart a dead member.  If a leader is live it rejoins as warm
    standby and is re-synced via snapshot; if the whole pair was down
    it promotes itself on the log prefix it had applied before dying. *)

val stop : t -> unit
(** Cancel the heartbeat and detector timers so a final [Engine.run]
    can drain; in-flight moves are not interrupted but no further
    failover decisions are made. *)

(** {1 Introspection} *)

val telemetry : t -> Openmb_sim.Telemetry.t

val leader : t -> Controller.t option
(** The live leader's controller (for read-side northbound calls and
    counters); [None] while the whole pair is down. *)

val leader_name : t -> string option

val role : t -> name:string -> [ `Leader | `Standby | `Down ]

val epoch : t -> int
(** Takeover count; each promotion shifts the op/sequence id base of
    every re-adopted connection by [epoch lsl 40]. *)

val failovers : t -> int
val log_retransmits : t -> int
val snapshots : t -> int

val moves_retried : t -> int
(** Replica-level re-runs after a failed attempt (op-level retries are
    counted by the member controllers). *)

val moves_rerun : t -> int
(** Pending moves resumed by takeovers. *)

val moves_resubmitted : t -> int
(** The subset of {!moves_rerun} whose intent never reached the
    standby's log — covered by client re-submission, not replay. *)

val deletes_reissued : t -> int
(** Deferred deletes replayed by takeovers. *)

val log_lag : t -> int
(** Replicable op-log entries appended but not yet acked by the
    standby (the ["replica.log_lag"] registry gauge — the health
    series the scraper watches for a dead replication link). *)

val pending_moves : t -> int
