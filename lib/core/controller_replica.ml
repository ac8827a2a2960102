open Openmb_sim
open Openmb_net

type config = {
  heartbeat_every : Time.t;
  failover_timeout : Time.t;
  log_latency : Time.t;
  log_bandwidth : float;
  move_retry_backoff : Time.t;
  move_retry_cap : Time.t;
  max_move_attempts : int;
  cleanup_linger : Time.t;
  ctrl : Controller.config;
}

let default_config =
  {
    heartbeat_every = Time.ms 100.0;
    failover_timeout = Time.ms 500.0;
    log_latency = Time.us 200.0;
    log_bandwidth = 125e6;
    move_retry_backoff = Time.ms 200.0;
    move_retry_cap = Time.seconds 30.0;
    max_move_attempts = 16;
    cleanup_linger = Time.seconds 20.0;
    ctrl = Controller.default_config;
  }

type intent = { i_lsn : int; i_src : string; i_dst : string; i_key : Hfl.t }

(* The replicated op log.  Move intents and their outcomes consume
   sequence numbers; heartbeats and snapshots do not.  A snapshot is
   the leader's full replicable state (Raft's InstallSnapshot shape):
   it both bootstraps a rejoining standby and serves as the
   retransmission unit while the standby is behind its base. *)
type log_entry =
  | Log_snapshot of {
      base : int;  (* the standby resumes contiguous apply at [base] *)
      pending : intent list;
      recent_done : (intent * Time.t) list;
    }
  | Log_move_start of intent
  | Log_move_done of { lsn : int; start_lsn : int; ok : bool }
  | Log_heartbeat of { watermark : int }

let intent_bytes i =
  32 + String.length i.i_src + String.length i.i_dst
  + Hfl.text_length i.i_key

let entry_bytes = function
  | Log_snapshot { pending; recent_done; _ } ->
    List.fold_left (fun a i -> a + intent_bytes i) 48 pending
    + List.fold_left (fun a (i, _) -> a + intent_bytes i + 8) 0 recent_done
  | Log_move_start i -> 16 + intent_bytes i
  | Log_move_done _ -> 32
  | Log_heartbeat _ -> 16

type role = Leader | Standby | Down

type member = {
  m_name : string;
  mutable role : role;
  mutable ctrl : Controller.t option;
  (* Standby-side replica state, built exclusively from log deliveries:
     out-of-order entries wait in [stash] until the gap before them
     closes, [intents] holds moves started but not finished, and
     [done_intents] keeps recently completed moves so a takeover can
     re-issue their deferred deletes. *)
  stash : (int, log_entry) Hashtbl.t;
  intents : (int, intent) Hashtbl.t;
  done_intents : (int, intent * Time.t) Hashtbl.t;
  mutable applied_lsn : int;
  mutable synced : bool;
  mutable last_heard : Time.t;
  mutable det_timer : Engine.handle option;
}

type move_state = Running | Done_ok of Time.t | Settled

(* A northbound move as the client sees it.  Records linger after
   completion ([Done_ok]) for [cleanup_linger], so a takeover knows
   which deferred deletes may have died with the old leader. *)
type inflight = {
  f_intent : intent;
  f_on_done : (Controller.move_result, Errors.t) result -> unit;
  mutable f_attempts : int;
  mutable f_state : move_state;
}

type t = {
  engine : Engine.t;
  cfg : config;
  faults : Faults.t option;
  tel : Telemetry.t;
  mutable agents : Mb_agent.t list;
  a : member;
  b : member;
  mutable epoch : int;
  mutable next_lsn : int;
  inflight : (int, inflight) Hashtbl.t;
  (* Leader-side replication endpoint; torn down and rebuilt (with a
     new generation) whenever the pair's roles change, so deliveries
     scheduled on a dead incarnation are recognizably stale. *)
  mutable log_ch : log_entry Channel.t option;
  mutable ack_ch : int Channel.t option;
  mutable repl_gen : int;
  unacked : (int, log_entry) Hashtbl.t;
  mutable snapshot_base : int;
  mutable acked_lsn : int;
  mutable hb_timer : Engine.handle option;
  mutable stopped : bool;
  c_failovers : Telemetry.counter;
  c_log : Telemetry.counter;
  c_retrans : Telemetry.counter;
  c_snapshots : Telemetry.counter;
  c_heartbeats : Telemetry.counter;
  c_move_retries : Telemetry.counter;
  c_moves_rerun : Telemetry.counter;
  c_moves_resubmitted : Telemetry.counter;
  c_deletes_reissued : Telemetry.counter;
  (* Replicable entries appended but not yet acked by the standby —
     the op-log lag the health scraper watches; a lag that only grows
     means the replication link is dead or the standby is gone. *)
  g_lag : Telemetry.gauge;
}

let update_lag t = Telemetry.set_gauge t.g_lag (Hashtbl.length t.unacked)

(* [detail] is built only on a timeline. *)
let record t ~kind ~detail =
  if Telemetry.timeline t.tel then
    Telemetry.instant t.tel ~now:(Engine.now t.engine) ~actor:"replica" ~name:kind
      ~detail:(detail ()) ()

let partner t m = if m == t.a then t.b else t.a

let leader_member t =
  if t.a.role = Leader then Some t.a
  else if t.b.role = Leader then Some t.b
  else None

let standby_member t =
  if t.a.role = Standby then Some t.a
  else if t.b.role = Standby then Some t.b
  else None

let member_named t name =
  if String.equal t.a.m_name name then t.a
  else if String.equal t.b.m_name name then t.b
  else failwith (Printf.sprintf "Controller_replica: unknown member %s" name)

let cancel_timer = function Some h -> Engine.cancel h | None -> ()

let mk_member name =
  {
    m_name = name;
    role = Down;
    ctrl = None;
    stash = Hashtbl.create 32;
    intents = Hashtbl.create 16;
    done_intents = Hashtbl.create 16;
    applied_lsn = -1;
    synced = false;
    last_heard = Time.zero;
    det_timer = None;
  }

let reset_standby_state m =
  Hashtbl.reset m.stash;
  Hashtbl.reset m.intents;
  Hashtbl.reset m.done_intents;
  m.applied_lsn <- -1;
  m.synced <- false

(* ------------------------------------------------------------------ *)
(* Log replication (leader side)                                       *)
(* ------------------------------------------------------------------ *)

let send_log t entry =
  match t.log_ch with
  | None -> ()
  | Some ch -> Channel.send ch ~bytes:(entry_bytes entry) entry

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (k1, _) (k2, _) -> Int.compare k1 k2)

let within_linger t ~now at =
  Time.compare Time.(now - at) t.cfg.cleanup_linger <= 0

(* Collapse everything replicable into one snapshot and restart the
   stream from [next_lsn].  Used to bootstrap a rejoining standby and
   re-sent on every heartbeat until the standby's ack reaches the
   base — the ARQ that survives snapshot loss on a faulty log link. *)
let send_snapshot t =
  let now = Engine.now t.engine in
  t.snapshot_base <- t.next_lsn;
  Hashtbl.reset t.unacked;
  update_lag t;
  let pending =
    sorted_bindings t.inflight
    |> List.filter_map (fun (_, f) ->
           match f.f_state with Running -> Some f.f_intent | _ -> None)
  in
  let recent_done =
    sorted_bindings t.inflight
    |> List.filter_map (fun (_, f) ->
           match f.f_state with
           | Done_ok at when within_linger t ~now at -> Some (f.f_intent, at)
           | _ -> None)
  in
  Telemetry.incr t.c_snapshots;
  send_log t (Log_snapshot { base = t.snapshot_base; pending; recent_done })

let append_log t entry =
  (match entry with
  | Log_move_start { i_lsn = lsn; _ } | Log_move_done { lsn; _ } ->
    Hashtbl.replace t.unacked lsn entry;
    update_lag t
  | Log_snapshot _ | Log_heartbeat _ -> ());
  Telemetry.incr t.c_log;
  if standby_member t <> None then send_log t entry

let alloc_lsn t =
  let lsn = t.next_lsn in
  t.next_lsn <- lsn + 1;
  lsn

(* ------------------------------------------------------------------ *)
(* Log replication (standby side)                                      *)
(* ------------------------------------------------------------------ *)

let apply_entry t sb entry =
  match entry with
  | Log_move_start i -> Hashtbl.replace sb.intents i.i_lsn i
  | Log_move_done { start_lsn; ok; _ } -> (
    match Hashtbl.find_opt sb.intents start_lsn with
    | None -> ()
    | Some i ->
      Hashtbl.remove sb.intents start_lsn;
      if ok then
        Hashtbl.replace sb.done_intents start_lsn (i, Engine.now t.engine))
  | Log_snapshot _ | Log_heartbeat _ -> ()

let stash_and_apply t sb lsn entry =
  if sb.synced && lsn > sb.applied_lsn then begin
    Hashtbl.replace sb.stash lsn entry;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt sb.stash (sb.applied_lsn + 1) with
      | None -> continue := false
      | Some e ->
        Hashtbl.remove sb.stash (sb.applied_lsn + 1);
        sb.applied_lsn <- sb.applied_lsn + 1;
        apply_entry t sb e
    done
  end

let send_ack t lsn =
  match t.ack_ch with None -> () | Some ch -> Channel.send ch ~bytes:16 lsn

let on_log_entry t gen sb entry =
  if (not t.stopped) && gen = t.repl_gen && sb.role = Standby then begin
    sb.last_heard <- Engine.now t.engine;
    (match entry with
    | Log_snapshot { base; pending; recent_done } ->
      reset_standby_state sb;
      List.iter (fun i -> Hashtbl.replace sb.intents i.i_lsn i) pending;
      List.iter
        (fun (i, at) -> Hashtbl.replace sb.done_intents i.i_lsn (i, at))
        recent_done;
      sb.applied_lsn <- base - 1;
      sb.synced <- true
    | Log_heartbeat _ -> ()
    | Log_move_start i -> stash_and_apply t sb i.i_lsn entry
    | Log_move_done { lsn; _ } -> stash_and_apply t sb lsn entry);
    send_ack t sb.applied_lsn
  end

let on_ack t gen lsn =
  if (not t.stopped) && gen = t.repl_gen && leader_member t <> None then
    if lsn > t.acked_lsn then begin
      t.acked_lsn <- lsn;
      Hashtbl.iter
        (fun l _ -> if l <= lsn then Hashtbl.remove t.unacked l)
        (Hashtbl.copy t.unacked);
      update_lag t
    end

(* Both directions of the replication link share one fault-plan name,
   so an impairment profile shapes the op stream ([`Fwd]) and the acks
   ([`Rev]) independently, and partitions sever both. *)
let establish_replication t =
  match (leader_member t, standby_member t) with
  | Some _, Some sb ->
    t.repl_gen <- t.repl_gen + 1;
    let gen = t.repl_gen in
    let dir_link d =
      Option.map (fun f -> Faults.link f ~dir:d ~name:"replica/log" ()) t.faults
    in
    t.log_ch <-
      Some
        (Channel.create t.engine
           ?faults:(dir_link `Fwd)
           ~telemetry:t.tel ~latency:t.cfg.log_latency
           ~bytes_per_sec:t.cfg.log_bandwidth
           ~deliver:(fun e -> on_log_entry t gen sb e)
           ());
    t.ack_ch <-
      Some
        (Channel.create t.engine
           ?faults:(dir_link `Rev)
           ~telemetry:t.tel ~latency:t.cfg.log_latency
           ~bytes_per_sec:t.cfg.log_bandwidth
           ~deliver:(fun lsn -> on_ack t gen lsn)
           ());
    t.acked_lsn <- -1;
    send_snapshot t
  | _ ->
    t.repl_gen <- t.repl_gen + 1;
    t.log_ch <- None;
    t.ack_ch <- None

(* ------------------------------------------------------------------ *)
(* Moves: attempt, retry, takeover re-run                              *)
(* ------------------------------------------------------------------ *)

let move_backoff t attempts =
  let base = Time.to_seconds t.cfg.move_retry_backoff in
  let cap = Time.to_seconds t.cfg.move_retry_cap in
  Time.seconds (Float.min (base *. (2.0 ** float_of_int (min attempts 24))) cap)

(* Every closure in an attempt chain captures the epoch it was started
   under; a takeover bumps the epoch, killing stale chains outright —
   the new leader re-runs what is still pending, exactly once. *)
let rec start_attempt t lsn =
  match Hashtbl.find_opt t.inflight lsn with
  | None -> ()
  | Some f when f.f_state <> Running -> ()
  | Some f -> (
    match leader_member t with
    | None | Some { ctrl = None; _ } ->
      (* No live controller: the promotion that installs one re-runs
         every pending move, so there is nothing to schedule here. *)
      ()
    | Some { ctrl = Some ctrl; _ } ->
      let ep = t.epoch in
      let i = f.f_intent in
      Controller.move_internal ctrl ~src:i.i_src ~dst:i.i_dst ~key:i.i_key
        ~on_done:(fun res ->
          if (not t.stopped) && ep = t.epoch && f.f_state = Running then
            handle_move_result t lsn f res))

and handle_move_result t lsn f res =
  match res with
  | Ok mv ->
    let now = Engine.now t.engine in
    f.f_state <- Done_ok now;
    append_log t
      (Log_move_done { lsn = alloc_lsn t; start_lsn = lsn; ok = true });
    record t ~kind:"move-done"
      ~detail:
        (fun () -> Printf.sprintf "lsn=%d %s->%s attempts=%d" lsn f.f_intent.i_src
           f.f_intent.i_dst (f.f_attempts + 1));
    schedule_settle t lsn;
    f.f_on_done (Ok mv)
  | Error e ->
    f.f_attempts <- f.f_attempts + 1;
    if f.f_attempts >= t.cfg.max_move_attempts then begin
      f.f_state <- Settled;
      Hashtbl.remove t.inflight lsn;
      append_log t
        (Log_move_done { lsn = alloc_lsn t; start_lsn = lsn; ok = false });
      record t ~kind:"move-failed"
        ~detail:(fun () -> Printf.sprintf "lsn=%d %s" lsn (Errors.to_string e));
      f.f_on_done (Error e)
    end
    else begin
      Telemetry.incr t.c_move_retries;
      let ep = t.epoch in
      ignore
        (Engine.schedule_after t.engine
           (move_backoff t f.f_attempts)
           (fun () ->
             if (not t.stopped) && ep = t.epoch && f.f_state = Running then
               rerun_move t lsn))
    end

(* Abort-then-attempt: clear whatever moved marks a failed (or deposed)
   attempt left at the source, with an acknowledged round trip so the
   un-marking cannot race the re-run's export even on a reordering op
   channel, then try the move again. *)
and rerun_move t lsn =
  match Hashtbl.find_opt t.inflight lsn with
  | None -> ()
  | Some f when f.f_state <> Running -> ()
  | Some f -> (
    match leader_member t with
    | None | Some { ctrl = None; _ } -> ()
    | Some { ctrl = Some ctrl; _ } ->
      let ep = t.epoch in
      let i = f.f_intent in
      Controller.abort_perflow ctrl ~mb:i.i_src ~key:i.i_key
        ~on_done:(fun _ ->
          (* Best effort: if the abort itself failed (source crashed,
             partition outlasting its retries), the move attempt below
             fails the same way and re-enters the backoff loop. *)
          if (not t.stopped) && ep = t.epoch && f.f_state = Running then
            start_attempt t lsn))

(* A completed move stays in [inflight] for [cleanup_linger] so a
   takeover within that window re-issues its deferred delete; after
   the linger the delete is assumed durable and the record dropped. *)
and schedule_settle t lsn =
  ignore
    (Engine.schedule_after t.engine t.cfg.cleanup_linger (fun () ->
         match Hashtbl.find_opt t.inflight lsn with
         | Some f when f.f_state <> Running ->
           f.f_state <- Settled;
           Hashtbl.remove t.inflight lsn
         | Some _ | None -> ()))

(* ------------------------------------------------------------------ *)
(* Roles: promotion, heartbeats, failure detection                     *)
(* ------------------------------------------------------------------ *)

let rec promote t m =
  t.epoch <- t.epoch + 1;
  Telemetry.incr t.c_failovers;
  let o = partner t m in
  let o_was_alive = o.role = Leader in
  (* Fence the deposed leader: in deployment terms its lease epoch just
     expired at the config store, so nothing it still tries can land.
     Demote it before the recovery below — [rerun_move] resolves the
     leader by role, and a partner still marked [Leader] would shadow
     the promoting member and silently swallow every re-run. *)
  (match o.ctrl with Some c -> Controller.fence c | None -> ());
  o.ctrl <- None;
  if o_was_alive then o.role <- Standby;
  cancel_timer m.det_timer;
  m.det_timer <- None;
  let ctrl =
    Controller.create t.engine ~config:t.cfg.ctrl ?faults:t.faults ~telemetry:t.tel ()
  in
  m.role <- Leader;
  m.ctrl <- Some ctrl;
  record t ~kind:"takeover"
    ~detail:(fun () -> Printf.sprintf "%s epoch=%d" m.m_name t.epoch);
  (* Re-adopt every agent.  The agents did not crash: their dedup
     caches still hold the old leader's op and sequence numbers, so the
     new connection numbers from an epoch-shifted base; the plan's
     crash schedule was armed by the first connect and must not fire
     twice. *)
  let id_base = t.epoch lsl 40 in
  List.iter
    (fun agent -> Controller.connect ctrl ~id_base ~arm_faults:false agent)
    (List.rev t.agents);
  (* Recovery, in log order.  First re-issue the deferred deletes of
     recently completed moves — the old leader may have died between a
     move's completion and its quiescence-delayed delete; the delete
     only touches moved-marked entries, so replaying it is idempotent.
     Then abort-and-re-run every move still pending.  Pending moves
     known from the standby's log view are replays; pending moves the
     log never delivered are covered because their clients re-submit to
     the new leader (modeled by the shared inflight table), counted
     separately. *)
  let now = Engine.now t.engine in
  let deletes = Hashtbl.create 8 in
  Hashtbl.iter
    (fun lsn (i, at) ->
      if within_linger t ~now at then Hashtbl.replace deletes lsn i)
    m.done_intents;
  Hashtbl.iter
    (fun lsn f ->
      match f.f_state with
      | Done_ok at when within_linger t ~now at -> Hashtbl.replace deletes lsn f.f_intent
      | _ -> ())
    t.inflight;
  List.iter
    (fun (_, i) ->
      Telemetry.incr t.c_deletes_reissued;
      Controller.delete_perflow ctrl ~mb:i.i_src ~key:i.i_key
        ~on_done:(fun _ -> ()))
    (sorted_bindings deletes);
  let from_log = Hashtbl.copy m.intents in
  List.iter
    (fun (lsn, f) ->
      if f.f_state = Running then begin
        Telemetry.incr t.c_moves_rerun;
        if not (Hashtbl.mem from_log lsn) then
          Telemetry.incr t.c_moves_resubmitted;
        rerun_move t lsn
      end)
    (sorted_bindings t.inflight);
  reset_standby_state m;
  (* A deposed-but-alive partner immediately rejoins as the new warm
     standby; a killed one stays down until revived. *)
  if o_was_alive then begin
    reset_standby_state o;
    o.role <- Standby;
    o.last_heard <- Engine.now t.engine;
    arm_detector t o
  end;
  establish_replication t;
  ensure_heartbeat t

and arm_detector t m =
  cancel_timer m.det_timer;
  let interval =
    Time.seconds (Time.to_seconds t.cfg.failover_timeout /. 4.0)
  in
  let rec tick () =
    m.det_timer <- None;
    if (not t.stopped) && m.role = Standby then begin
      let now = Engine.now t.engine in
      if Time.compare Time.(now - m.last_heard) t.cfg.failover_timeout > 0 then
        promote t m
      else m.det_timer <- Some (Engine.schedule_after t.engine interval tick)
    end
  in
  m.det_timer <- Some (Engine.schedule_after t.engine interval tick)

and ensure_heartbeat t =
  if t.hb_timer = None && not t.stopped then begin
    let rec tick () =
      t.hb_timer <- None;
      if not t.stopped then begin
        (match (leader_member t, standby_member t) with
        | Some _, Some _ ->
          Telemetry.incr t.c_heartbeats;
          if t.acked_lsn < t.snapshot_base - 1 then begin
            (* The standby never confirmed the snapshot base: re-send
               it rather than entries it cannot yet apply. *)
            Telemetry.incr t.c_retrans;
            send_snapshot t
          end
          else begin
            send_log t (Log_heartbeat { watermark = t.next_lsn - 1 });
            List.iter
              (fun (_, e) ->
                Telemetry.incr t.c_retrans;
                send_log t e)
              (sorted_bindings t.unacked)
          end
        | _ -> ());
        t.hb_timer <- Some (Engine.schedule_after t.engine t.cfg.heartbeat_every tick)
      end
    in
    t.hb_timer <- Some (Engine.schedule_after t.engine t.cfg.heartbeat_every tick)
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create engine ?(config = default_config) ?faults ?telemetry () =
  let tel =
    match telemetry with Some tel -> tel | None -> Telemetry.create ()
  in
  let t =
    {
      engine;
      cfg = config;
      faults;
      tel;
      agents = [];
      a = mk_member "ctrl-a";
      b = mk_member "ctrl-b";
      epoch = 0;
      next_lsn = 0;
      inflight = Hashtbl.create 32;
      log_ch = None;
      ack_ch = None;
      repl_gen = 0;
      unacked = Hashtbl.create 32;
      snapshot_base = 0;
      acked_lsn = -1;
      hb_timer = None;
      stopped = false;
      c_failovers = Telemetry.counter tel "replica.failovers";
      c_log = Telemetry.counter tel "replica.log_entries";
      c_retrans = Telemetry.counter tel "replica.log_retransmits";
      c_snapshots = Telemetry.counter tel "replica.snapshots";
      c_heartbeats = Telemetry.counter tel "replica.heartbeats";
      c_move_retries = Telemetry.counter tel "replica.move_retries";
      c_moves_rerun = Telemetry.counter tel "replica.moves_rerun";
      c_moves_resubmitted = Telemetry.counter tel "replica.moves_resubmitted";
      c_deletes_reissued = Telemetry.counter tel "replica.deletes_reissued";
      g_lag = Telemetry.gauge tel "replica.log_lag";
    }
  in
  t.a.role <- Leader;
  t.a.ctrl <-
    Some
      (Controller.create engine ~config:config.ctrl ?faults ~telemetry:tel ());
  t.b.role <- Standby;
  t.b.synced <- true;
  t.b.last_heard <- Engine.now engine;
  establish_replication t;
  ensure_heartbeat t;
  arm_detector t t.b;
  t

let connect t agent =
  t.agents <- agent :: t.agents;
  match leader_member t with
  | Some { ctrl = Some ctrl; _ } ->
    Controller.connect ctrl ~id_base:(t.epoch lsl 40) ~arm_faults:true agent
  | _ -> failwith "Controller_replica.connect: no live leader"

let move t ~src ~dst ~key ~on_done =
  if t.stopped then
    ignore
      (Engine.schedule_after t.engine Time.zero (fun () ->
           on_done (Error (Errors.Op_failed "replica stopped"))))
  else begin
    let lsn = alloc_lsn t in
    let intent = { i_lsn = lsn; i_src = src; i_dst = dst; i_key = key } in
    Hashtbl.replace t.inflight lsn
      { f_intent = intent; f_on_done = on_done; f_attempts = 0; f_state = Running };
    append_log t (Log_move_start intent);
    record t ~kind:"move-submit"
      ~detail:(fun () -> Printf.sprintf "lsn=%d %s->%s" lsn src dst);
    start_attempt t lsn
  end

let kill t ~name =
  let m = member_named t name in
  if m.role <> Down then begin
    record t ~kind:"kill" ~detail:(fun () -> name);
    (match m.ctrl with Some c -> Controller.fence c | None -> ());
    m.ctrl <- None;
    cancel_timer m.det_timer;
    m.det_timer <- None;
    (* A dead leader simply goes silent; the standby's failure detector
       notices the missing heartbeats and promotes itself.  A dead
       standby is noticed by the leader's next snapshot re-sync when it
       revives. *)
    m.role <- Down;
    if leader_member t = None && standby_member t = None then begin
      t.log_ch <- None;
      t.ack_ch <- None
    end
  end

let revive t ~name =
  let m = member_named t name in
  if m.role = Down && not t.stopped then begin
    record t ~kind:"revive" ~detail:(fun () -> name);
    match leader_member t with
    | None ->
      (* Cold start: the revived process promotes itself on whatever
         log prefix it had applied before dying. *)
      promote t m
    | Some _ ->
      reset_standby_state m;
      m.role <- Standby;
      m.last_heard <- Engine.now t.engine;
      arm_detector t m;
      establish_replication t
  end

let stop t =
  t.stopped <- true;
  cancel_timer t.hb_timer;
  t.hb_timer <- None;
  cancel_timer t.a.det_timer;
  t.a.det_timer <- None;
  cancel_timer t.b.det_timer;
  t.b.det_timer <- None

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let telemetry t = t.tel
let epoch t = t.epoch
let leader t = Option.bind (leader_member t) (fun m -> m.ctrl)
let leader_name t = Option.map (fun m -> m.m_name) (leader_member t)

let role t ~name =
  match (member_named t name).role with
  | Leader -> `Leader
  | Standby -> `Standby
  | Down -> `Down

let failovers t = Telemetry.counter_value t.c_failovers
let log_retransmits t = Telemetry.counter_value t.c_retrans
let snapshots t = Telemetry.counter_value t.c_snapshots
let moves_retried t = Telemetry.counter_value t.c_move_retries
let moves_rerun t = Telemetry.counter_value t.c_moves_rerun
let moves_resubmitted t = Telemetry.counter_value t.c_moves_resubmitted
let deletes_reissued t = Telemetry.counter_value t.c_deletes_reissued
let log_lag t = Telemetry.gauge_value t.g_lag
let pending_moves t =
  Hashtbl.fold
    (fun _ f n -> if f.f_state = Running then n + 1 else n)
    t.inflight 0
