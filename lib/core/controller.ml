open Openmb_sim
open Openmb_net

type config = {
  quiescence : Time.t;
  cpu_fixed : Time.t;
  cpu_per_byte : Time.t;
  channel_latency : Time.t;
  channel_bandwidth : float;
  forward_events : bool;
  framing : Openmb_wire.Framing.t;
  batch_chunks : int;
  batch_bytes : int;
  put_window : int;
  request_timeout : Time.t;
  retry_backoff_cap : Time.t;
  max_retries : int;
}

let default_config =
  {
    quiescence = Time.seconds 5.0;
    cpu_fixed = Time.us 8.0;
    cpu_per_byte = Time.us 0.3;
    channel_latency = Time.us 200.0;
    channel_bandwidth = 125e6;
    forward_events = true;
    framing = Openmb_wire.Framing.Json;
    batch_chunks = 16;
    batch_bytes = 32768;
    put_window = 4;
    (* Generous enough that a healthy deployment never trips it even
       under heavy controller contention; chaos configs tighten it. *)
    request_timeout = Time.seconds 30.0;
    retry_backoff_cap = Time.seconds 120.0;
    max_retries = 4;
  }

type move_result = {
  chunks_moved : int;
  bytes_moved : int;
  events_forwarded : int;
  duration : Time.t;
}

type counters = {
  msgs_processed : int;
  evt_forwarded : int;
  evt_dropped : int;
  evt_returned : int;
  evt_buffered_peak : int;
  op_retries : int;
  op_timeouts : int;
  aborted_transfers : int;
  dedup_hits : int;
}

(* A handler consumes successive replies to one op, each with the time
   it was received; [`Done] removes it. *)
type handler = now:Time.t -> Message.reply -> [ `Keep | `Done ]

(* One in-flight southbound request.  [po_last_activity] is refreshed
   by every reply on the op, so a streaming get stays alive as long as
   chunks keep arriving; the timeout chain measures idleness against
   it.  It keeps the receive time's box, which the receive path holds
   anyway, so refreshing it allocates nothing.  Every request is
   retried: the agent answers a duplicate from its caches. *)
type pending_op = {
  po_req : Message.request;
  po_handler : handler;
  po_tid : int;
      (* Causality id stamped on the wire message; the agent tags its
         spans with it, linking both sides of the op in a trace. *)
  po_span : Telemetry.Trace.span;
  po_started : Time.t;
  mutable po_attempts : int;
  mutable po_last_activity : Time.t;
}

type conn = {
  agent : Mb_agent.t;
  to_mb : Message.to_mb Channel.t;
  mutable next_op : int;
  mutable next_seq : int;
      (* Sequence numbers stamped on mutating requests so the agent can
         deduplicate retries and duplicated deliveries. *)
  pending : (int, pending_op) Hashtbl.t;
}

(* The shell's side of one move, clone or merge: what its I/O needs.
   Every decision lives in its [Transfer.t]. *)
type transfer = {
  t_id : int;
  t_span : Telemetry.Trace.span;
  src : string;
  dst : string;
  hfl : Hfl.t;
  started : Time.t;
  mutable events_fwd : int;
  on_done : (move_result, Errors.t) result -> unit;
}

type active = { tr : transfer; m : Transfer.t }

type subscription = {
  sub_mb : string;
  sub_codes : string list;
  sub_key : Hfl.t;
  sub_handler : Event.t -> unit;
}

type t = {
  engine : Engine.t;
  cfg : config;
  faults : Faults.t option;
  tel : Telemetry.t;
  mbs : (string, conn) Hashtbl.t;
  mutable transfers : active list;
  mutable next_transfer : int;
  mutable subscriptions : subscription list;
  (* A one-element float array, as the engine's clock is: each charge
     stores a newly computed time, which a float field would box. *)
  cpu_free_at : float array;
  (* A fenced controller is a dead leader: its lease has expired and a
     replica has taken over.  Every CPU dispatch — sends, receives,
     timeout retries, quiescence finalization — is gated on this flag,
     so a fenced instance can never emit another southbound op or
     mutate shared state, no matter what timers were already armed. *)
  mutable fenced : bool;
  (* Registry-backed counters; the [counters] record below is a view of
     these.  [c_dedup] is shared with agents on the same telemetry
     instance — the agent increments it on a replayed reply. *)
  c_msgs : Telemetry.counter;
  c_evt_fwd : Telemetry.counter;
  c_evt_dropped : Telemetry.counter;
  c_evt_returned : Telemetry.counter;
  c_retries : Telemetry.counter;
  c_timeouts : Telemetry.counter;
  c_aborted : Telemetry.counter;
  c_dedup : Telemetry.counter;
  g_buf : Telemetry.gauge;
  g_window : Telemetry.gauge;
  h_op : Telemetry.histogram;
  h_serial : Telemetry.histogram;
  h_transfer : Telemetry.histogram;
}

let create engine ?(config = default_config) ?faults ?telemetry () =
  (* A window of no batches never sends a queued chunk, and no op times
     out while chunks wait in the queue: the transfer would hang. *)
  if config.put_window < 1 then invalid_arg "Controller.create: put_window must be at least 1";
  if config.batch_chunks < 1 then
    invalid_arg "Controller.create: batch_chunks must be at least 1";
  (* Without a shared instance the controller keeps a private one, so
     the counter accessors below stay per-controller either way. *)
  let tel = match telemetry with Some tel -> tel | None -> Telemetry.create () in
  {
    engine;
    cfg = config;
    faults;
    tel;
    mbs = Hashtbl.create 8;
    transfers = [];
    next_transfer = 0;
    subscriptions = [];
    cpu_free_at = [| Time.zero |];
    fenced = false;
    c_msgs = Telemetry.counter tel "controller.msgs";
    c_evt_fwd = Telemetry.counter tel "controller.evt_forwarded";
    c_evt_dropped = Telemetry.counter tel "controller.evt_dropped";
    c_evt_returned = Telemetry.counter tel "controller.evt_returned";
    c_retries = Telemetry.counter tel "controller.op_retries";
    c_timeouts = Telemetry.counter tel "controller.op_timeouts";
    c_aborted = Telemetry.counter tel "controller.transfers_aborted";
    c_dedup = Telemetry.counter tel "mb.dedup_hits";
    g_buf = Telemetry.gauge tel "controller.evt_buffered";
    g_window = Telemetry.gauge tel "controller.put_window";
    h_op = Telemetry.histogram tel "controller.op_latency";
    h_serial = Telemetry.histogram tel "controller.serialization_window";
    h_transfer = Telemetry.histogram tel "controller.transfer_duration";
  }

let telemetry t = t.tel

(* [detail] is built only on a timeline. *)
let record t ~kind ~detail =
  if Telemetry.timeline t.tel then
    Telemetry.instant t.tel ~now:(Engine.now t.engine) ~actor:"controller" ~name:kind
      ~detail:(detail ()) ()

(* Charge the (serial) controller CPU for a message of [bytes] bytes;
   the work ends at [cpu_free_at.(0)].  Concurrent operations contend
   here, which is what makes simultaneous moves slow each other down
   (Fig. 10b). *)
let charge t bytes =
  let cost =
    Time.(t.cfg.cpu_fixed + seconds (to_seconds t.cfg.cpu_per_byte *. float_of_int bytes))
  in
  let now = Engine.now t.engine and free = t.cpu_free_at.(0) in
  let start = if now > free then now else free in
  t.cpu_free_at.(0) <- Time.(start + cost);
  Telemetry.incr t.c_msgs

(* Charge, then run [k].  The continuation re-checks the fence: a
   takeover between dispatch and execution must still silence this
   instance. *)
let cpu t bytes k =
  if not t.fenced then begin
    charge t bytes;
    Engine.call_at t.engine t.cpu_free_at.(0) (fun () -> if not t.fenced then k ()) ()
  end

let fence t =
  if not t.fenced then begin
    t.fenced <- true;
    record t ~kind:"fenced" ~detail:(fun () -> "controller fenced (lease expired)")
  end

let find_conn t name = Hashtbl.find_opt t.mbs name

let alloc_seq conn =
  let s = conn.next_seq in
  conn.next_seq <- s + 1;
  s

(* ------------------------------------------------------------------ *)
(* Request transmission, timeouts and retries                          *)
(* ------------------------------------------------------------------ *)

let timeouts_enabled t = Time.compare t.cfg.request_timeout Time.zero > 0

(* Attempt [n] waits [request_timeout * 2^n], capped. *)
let backoff_delay t attempts =
  let base = Time.to_seconds t.cfg.request_timeout in
  let cap = Time.to_seconds t.cfg.retry_backoff_cap in
  Time.seconds (Float.min (base *. (2.0 ** float_of_int attempts)) cap)

let transmit t conn op tid req =
  let msg = { Message.op; tid; req } in
  let bytes = Message.request_wire_bytes ~framing:t.cfg.framing msg in
  cpu t bytes (fun () -> Channel.send conn.to_mb ~bytes msg)

(* One timer chain per op: each firing either re-arms (activity since),
   retransmits and re-arms (idle, attempts left), or fails
   the op with [Errors.Timeout].  Exactly one check event is
   outstanding per pending op; resolution (reply or disconnect) ends
   the chain at its next firing. *)
let rec check_timeout t conn op po () =
  if (not t.fenced) && Hashtbl.mem conn.pending op then begin
    let delay = backoff_delay t po.po_attempts in
    let due = Time.(po.po_last_activity + delay) in
    let now = Engine.now t.engine in
    if Time.compare now due < 0 then
      ignore (Engine.schedule_at t.engine due (check_timeout t conn op po))
    else if po.po_attempts < t.cfg.max_retries then begin
      po.po_attempts <- po.po_attempts + 1;
      po.po_last_activity <- now;
      Telemetry.incr t.c_retries;
      Telemetry.instant t.tel ~now ~actor:"controller" ~name:"op-retry" ~op:po.po_tid
        ~a0:po.po_attempts
        ?detail:
          (if Telemetry.timeline t.tel then
             Some
               (Printf.sprintf "op=%d attempt=%d %s" op po.po_attempts
                  (Message.describe_request po.po_req))
           else None)
        ();
      transmit t conn op po.po_tid po.po_req;
      ignore
        (Engine.schedule_at t.engine
           Time.(now + backoff_delay t po.po_attempts)
           (check_timeout t conn op po))
    end
    else begin
      Hashtbl.remove conn.pending op;
      Telemetry.incr t.c_timeouts;
      Telemetry.span_end t.tel ~now po.po_span;
      Telemetry.observe t.h_op Time.(to_seconds (now - po.po_started));
      record t ~kind:"op-timeout"
        ~detail:(fun () -> Printf.sprintf "op=%d %s" op (Message.describe_request po.po_req));
      ignore
        (po.po_handler ~now
           (Message.Op_error (Errors.Timeout (Message.describe_request po.po_req))))
    end
  end

(* Send [req] to [conn], registering [handler] for its replies. *)
let op_send t conn req handler =
  let op = conn.next_op in
  conn.next_op <- op + 1;
  let now = Engine.now t.engine in
  let tid = Telemetry.next_op_id t.tel in
  let span =
    Telemetry.span_begin t.tel ~now ~actor:"controller"
      ~name:(Message.request_name req) ~op:tid ~a0:op ()
  in
  let po =
    {
      po_req = req;
      po_handler = handler;
      po_tid = tid;
      po_span = span;
      po_started = now;
      po_attempts = 0;
      po_last_activity = now;
    }
  in
  Hashtbl.replace conn.pending op po;
  transmit t conn op tid req;
  if timeouts_enabled t then
    ignore
      (Engine.schedule_at t.engine
         Time.(Engine.now t.engine + backoff_delay t 0)
         (check_timeout t conn op po))

(* Fire-and-forget request (deferred deletes, event forwarding). *)
let op_send_ignore t conn req =
  op_send t conn req (fun ~now:_ _ -> `Done)

let fail_async t err on_done =
  ignore (Engine.schedule_after t.engine Time.zero (fun () -> on_done (Error err)))

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)
(* ------------------------------------------------------------------ *)

let forward_reprocess t tr ev =
  if not t.cfg.forward_events then Telemetry.incr t.c_evt_dropped
  else
  match ev with
  | Event.Reprocess { key; packet } -> (
    match find_conn t tr.dst with
    | None -> Telemetry.incr t.c_evt_dropped
    | Some dst_conn ->
      tr.events_fwd <- tr.events_fwd + 1;
      Telemetry.incr t.c_evt_fwd;
      record t ~kind:"event-fwd"
        ~detail:(fun () -> Printf.sprintf "%s->%s %s" tr.src tr.dst (Event.describe ev));
      op_send_ignore t dst_conn (Message.Reprocess_packet { key; packet }))
  | Event.Introspect _ -> ()

let handle_reprocess_event t src_name ev key =
  (* Route to the transfer whose source raised it and whose scope
     covers the key.  Events about shared state carry the empty key and
     can only belong to a clone/merge; keyed events prefer a move
     transfer covering the key, falling back to a concurrent
     clone/merge (which replays every packet).  Most-recent transfer
     wins on a remaining tie. *)
  let move_match { tr; m } =
    String.equal tr.src src_name && Transfer.kind m = Transfer.Move && Hfl.subsumes tr.hfl key
  in
  let shared_match { tr; m } = String.equal tr.src src_name && Transfer.kind m <> Transfer.Move in
  let found =
    match if key = Hfl.any then None else List.find_opt move_match t.transfers with
    | Some a -> Some a
    | None -> List.find_opt shared_match t.transfers
  in
  match found with
  | None -> Telemetry.incr t.c_evt_dropped
  | Some { m; _ } -> Transfer.event m ~now:(Engine.now t.engine) key ev

let handle_introspect_event t src_name ev =
  match ev with
  | Event.Introspect { code; key; _ } ->
    List.iter
      (fun s ->
        if
          String.equal s.sub_mb src_name
          && (s.sub_codes = [] || List.mem code s.sub_codes)
          && Hfl.subsumes s.sub_key key
        then s.sub_handler ev)
      t.subscriptions
  | Event.Reprocess _ -> ()

(* The buffered-events gauge follows the total over live transfers,
   set wherever it may change: an event buffered, a flush (the
   [Forward]s of buffered events), an abort or a dropped connection
   (their transfers leave the list). *)
let sync_buffered t =
  Telemetry.set_gauge t.g_buf
    (List.fold_left (fun acc a -> acc + Transfer.buffered a.m) 0 t.transfers)

(* ------------------------------------------------------------------ *)
(* Connection management                                               *)
(* ------------------------------------------------------------------ *)

let dispatch_from_mb t mb_name msg =
  match msg with
  | Message.Event_msg (Event.Reprocess { key; _ } as ev) ->
    handle_reprocess_event t mb_name ev key
  | Message.Event_msg (Event.Introspect _ as ev) -> handle_introspect_event t mb_name ev
  | Message.Reply { op; reply } -> (
    match find_conn t mb_name with
    | None -> ()
    | Some conn -> (
      match Hashtbl.find conn.pending op with
      | exception Not_found -> ()
      | po -> (
        let now = Engine.now t.engine in
        po.po_last_activity <- now;
        match po.po_handler ~now reply with
        | `Keep -> ()
        | `Done ->
          Hashtbl.remove conn.pending op;
          Telemetry.span_end t.tel ~now po.po_span;
          Telemetry.observe t.h_op Time.(to_seconds (now - po.po_started)))))

(* One MB's receiving end, bound once at [connect]: a delivered message
   is charged and scheduled with [receive] and this record, so receiving
   builds no closure. *)
type inbox = { ctl : t; mb_name : string }

let receive ib msg = if not ib.ctl.fenced then dispatch_from_mb ib.ctl ib.mb_name msg

type remote = {
  to_agent : Shard.route;
  to_controller : Shard.route;
  agent_faults : Faults.t option;
}

let connect t ?remote ?(id_base = 0) ?(arm_faults = true) agent =
  let name = Mb_agent.name agent in
  if Hashtbl.mem t.mbs name then
    failwith (Printf.sprintf "Controller.connect: duplicate MB name %s" name);
  (* The config's framing sizes every message on the MB's three
     channels. *)
  let framing = t.cfg.framing in
  (* Control-plane direction mapping: the op channel is the link's
     forward direction, replies and events travel the reverse one. *)
  let faulted inst tag dir =
    match inst with
    | None -> None
    | Some f -> Some (Faults.link f ~dir ~name:(name ^ "/" ^ tag) ())
  in
  let inbox = { ctl = t; mb_name = name } in
  let deliver msg =
    (* Receiving costs controller CPU proportional to message size. *)
    if not t.fenced then begin
      charge t (Message.reply_wire_bytes ~framing msg);
      Engine.call2_at t.engine t.cpu_free_at.(0) receive inbox msg
    end
  in
  (* Up-channels (MB → controller) are driven by the agent's sends, so
     with a remote agent they must live on the agent's engine, draw from
     the agent's telemetry and fault instances, and only hand the final
     delivery back to the controller's shard via the route. *)
  let mk_channel tag =
    match remote with
    | None ->
      Channel.create t.engine ?faults:(faulted t.faults tag `Rev) ~telemetry:t.tel
        ~latency:t.cfg.channel_latency ~bytes_per_sec:t.cfg.channel_bandwidth ~deliver ()
    | Some r ->
      Channel.create (Mb_agent.engine agent)
        ?faults:(faulted r.agent_faults tag `Rev)
        ?telemetry:(Mb_agent.telemetry agent)
        ~via:r.to_controller.Shard.route ~latency:t.cfg.channel_latency
        ~bytes_per_sec:t.cfg.channel_bandwidth ~deliver ()
  in
  let reply_ch = mk_channel "reply" and event_ch = mk_channel "event" in
  (* The op channel is driven by controller sends and stays local; with
     a remote agent only the delivery execution crosses shards. *)
  let to_mb =
    Channel.create t.engine ?faults:(faulted t.faults "op" `Fwd) ~telemetry:t.tel
      ?via:(Option.map (fun r -> r.to_agent.Shard.route) remote)
      ~latency:t.cfg.channel_latency ~bytes_per_sec:t.cfg.channel_bandwidth
      ~deliver:(fun msg -> Mb_agent.handle_request agent msg)
      ()
  in
  Mb_agent.set_uplinks agent
    ~send_reply:(fun msg ->
      Channel.send reply_ch ~bytes:(Message.reply_wire_bytes ~framing msg) msg)
    ~send_event:(fun msg ->
      Channel.send event_ch ~bytes:(Message.reply_wire_bytes ~framing msg) msg);
  (* Crash schedules mutate the agent, so they are armed on the agent's
     own fault instance when it has one; otherwise the controller-side
     plan fires them and routes the mutation onto the agent's shard.
     [arm_faults = false] skips arming entirely — a replica re-adopting
     an agent after failover must not double-schedule the plan's
     crashes. *)
  let plan, on_agent =
    match remote with
    | Some { agent_faults = Some f; _ } -> (Some f, fun k -> k ())
    | Some ({ agent_faults = None; _ } as r) ->
      (t.faults, fun k -> r.to_agent.Shard.route ~at:(Engine.now t.engine) k ())
    | None -> (t.faults, fun k -> k ())
  in
  if arm_faults then
    Option.iter
      (fun f ->
        Faults.arm_crashes f ~name
          ~on_crash:(fun () -> on_agent (fun () -> Mb_agent.crash agent))
          ~on_restart:(fun () -> on_agent (fun () -> Mb_agent.restart agent)))
      plan;
  (* [id_base] offsets this connection's op and sequence counters.  An
     agent's dedup caches survive a controller failover (the agent did
     not crash), so a successor controller must start numbering above
     anything its predecessor could have issued or its first mutations
     would be swallowed as replays. *)
  Hashtbl.replace t.mbs name
    {
      agent;
      to_mb;
      next_op = id_base;
      next_seq = id_base;
      pending = Hashtbl.create 16;
    }

let disconnect t name =
  (match find_conn t name with
  | Some conn ->
    (* Abandon in-flight ops: their handlers never fire and their
       timeout chains die at the next check. *)
    Hashtbl.reset conn.pending
  | None -> ());
  Hashtbl.remove t.mbs name;
  t.transfers <-
    List.filter
      (fun { tr; _ } -> not (String.equal tr.src name || String.equal tr.dst name))
      t.transfers;
  sync_buffered t

(* ------------------------------------------------------------------ *)
(* Simple northbound operations                                        *)
(* ------------------------------------------------------------------ *)

let with_conn t name on_err k =
  match find_conn t name with
  | None -> fail_async t (Errors.Unknown_mb name) on_err
  | Some conn -> k conn

let read_config t ~src ~key ~on_done =
  with_conn t src on_done (fun conn ->
      op_send t conn (Message.Get_config key) (fun ~now:_ reply ->
          (match reply with
          | Message.Config_values entries -> on_done (Ok entries)
          | Message.Op_error e -> on_done (Error e)
          | Message.State_chunk _ | Message.End_of_state _ | Message.Ack
          | Message.Stats_reply _ | Message.Batch_ack _ ->
            on_done (Error (Errors.Op_failed "unexpected reply to getConfig")));
          `Done))

(* A callback for [n] ops: [on_done] fires once, after the last one
   reports, with the first error if any. *)
let join n on_done =
  let remaining = ref n and failed = ref None in
  fun res ->
    (match res with Error e when !failed = None -> failed := Some e | Error _ | Ok () -> ());
    decr remaining;
    if !remaining = 0 then on_done (match !failed with Some e -> Error e | None -> Ok ())

let expect_ack on_done ~now:_ reply =
  (match reply with
  | Message.Ack -> on_done (Ok ())
  | Message.Op_error e -> on_done (Error e)
  | Message.State_chunk _ | Message.End_of_state _ | Message.Config_values _
  | Message.Stats_reply _ | Message.Batch_ack _ ->
    on_done (Error (Errors.Op_failed "unexpected reply")));
  `Done

let write_config t ~dst ~key ~values ~on_done =
  with_conn t dst on_done (fun conn ->
      op_send t conn (Message.Set_config (key, values)) (expect_ack on_done))

let del_config t ~dst ~key ~on_done =
  with_conn t dst on_done (fun conn ->
      op_send t conn (Message.Del_config key) (expect_ack on_done))

(* Northbound failover-recovery surface.  [abort_perflow] clears the
   moved marks a dead leader's partial export left at [mb], making the
   state re-exportable before a successor re-runs the move.
   [delete_perflow] re-issues the deferred delete of a move whose
   completion outlived its leader: it removes only moved-marked entries,
   so replaying it after the original delete (or against untouched
   state) is harmless. *)
let abort_perflow t ~mb ~key ~on_done =
  with_conn t mb on_done (fun conn ->
      op_send t conn (Message.Abort_perflow key) (expect_ack on_done))

let delete_perflow t ~mb ~key ~on_done =
  with_conn t mb on_done (fun conn ->
      let leg = join 2 on_done in
      op_send t conn (Message.Del_support_perflow key) (expect_ack leg);
      op_send t conn (Message.Del_report_perflow key) (expect_ack leg))

let stats t ~src ~key ~on_done =
  with_conn t src on_done (fun conn ->
      op_send t conn (Message.Get_stats key) (fun ~now:_ reply ->
          (match reply with
          | Message.Stats_reply s -> on_done (Ok s)
          | Message.Op_error e -> on_done (Error e)
          | Message.State_chunk _ | Message.End_of_state _ | Message.Ack
          | Message.Config_values _ | Message.Batch_ack _ ->
            on_done (Error (Errors.Op_failed "unexpected reply to stats")));
          `Done))

let unsubscribe_introspection t ~mb ~codes =
  t.subscriptions <-
    List.filter
      (fun s ->
        not
          (String.equal s.sub_mb mb
          && (codes = [] || List.exists (fun c -> List.mem c s.sub_codes) codes)))
      t.subscriptions;
  match find_conn t mb with
  | None -> ()
  | Some conn -> op_send_ignore t conn (Message.Disable_events { codes })

let subscribe_introspection t ?expires_after ~mb ~codes ~key ~handler () =
  with_conn t mb
    (fun _ -> ())
    (fun conn ->
      t.subscriptions <-
        { sub_mb = mb; sub_codes = codes; sub_key = key; sub_handler = handler }
        :: t.subscriptions;
      op_send_ignore t conn (Message.Enable_events { codes; key });
      (* §4.2.2: event generation can be limited to a fixed period so
         controller, network and MB are not at risk of overload. *)
      match expires_after with
      | None -> ()
      | Some delay ->
        ignore
          (Engine.schedule_after t.engine delay (fun () ->
               unsubscribe_introspection t ~mb ~codes)))

(* cloneConfig (§5): a composition of readConfig and writeConfig that
   duplicates a configuration subtree onto another instance. *)
let clone_config t ~src ~dst ~key ~on_done =
  read_config t ~src ~key ~on_done:(function
    | Error e -> on_done (Error e)
    | Ok [] -> on_done (Ok 0)
    | Ok entries ->
      let total = List.length entries in
      let written = join total (fun res -> on_done (Result.map (fun () -> total) res)) in
      List.iter
        (fun (entry : Config_tree.entry) ->
          write_config t ~dst ~key:entry.path ~values:entry.values ~on_done:written)
        entries)

(* ------------------------------------------------------------------ *)
(* Transfers: move / clone / merge                                     *)
(* ------------------------------------------------------------------ *)

let remove_transfer t tr = t.transfers <- List.filter (fun a -> a.tr.t_id <> tr.t_id) t.transfers

let to_src t tr req =
  match find_conn t tr.src with None -> () | Some conn -> op_send_ignore t conn req

(* Carry out one action of a transfer's machine, in the order the
   machine emits them.  [dst_conn] is the destination's connection as
   of the transfer's start. *)
let act t tr dst_conn m action =
  match action with
  | Transfer.Put_batch chunks ->
    Telemetry.set_gauge t.g_window (Transfer.inflight m);
    op_send t dst_conn
      (Message.Put_batch { seq = alloc_seq dst_conn; chunks })
      (fun ~now reply ->
        (* The batch is out of the window before its acks run. *)
        Telemetry.set_gauge t.g_window (Transfer.inflight m - 1);
        (match reply with
        | Message.Batch_ack { seq = _; count = _; errors } ->
          Transfer.batch_acked m ~now chunks errors
        | Message.Op_error e -> Transfer.batch_failed m e
        | Message.Ack | Message.State_chunk _ | Message.End_of_state _
        | Message.Config_values _ | Message.Stats_reply _ ->
          Transfer.batch_failed m (Errors.Op_failed "unexpected reply to putBatch"));
        `Done)
  | Transfer.Forward ev ->
    forward_reprocess t tr ev;
    sync_buffered t
  | Transfer.Buffered -> sync_buffered t
  | Transfer.Serial_window window -> Telemetry.observe t.h_serial (Time.to_seconds window)
  | Transfer.Return ev -> (
    match find_conn t tr.src with
    | None -> Telemetry.incr t.c_evt_dropped
    | Some src_conn -> (
      match ev with
      | Event.Reprocess { key; packet } ->
        Telemetry.incr t.c_evt_returned;
        op_send_ignore t src_conn (Message.Reprocess_packet { key; packet })
      | Event.Introspect _ -> ()))
  | Transfer.Abort_perflow -> to_src t tr (Message.Abort_perflow tr.hfl)
  | Transfer.Abort err ->
    (* The caller sees [Error (Move_aborted _)] naming the underlying
       cause. *)
    remove_transfer t tr;
    sync_buffered t;
    Telemetry.incr t.c_aborted;
    Telemetry.span_end t.tel ~now:(Engine.now t.engine) tr.t_span;
    record t ~kind:"transfer-abort"
      ~detail:(fun () ->
        Printf.sprintf "#%d %s->%s: %s" tr.t_id tr.src tr.dst (Errors.to_string err));
    tr.on_done
      (Error (match err with Errors.Move_aborted _ -> err | e -> Errors.Move_aborted (Errors.to_string e)))
  | Transfer.Complete ->
    let now = Engine.now t.engine in
    Telemetry.span_end t.tel ~now tr.t_span;
    Telemetry.observe t.h_transfer Time.(to_seconds (now - tr.started));
    record t ~kind:"transfer-done"
      ~detail:(fun () ->
        Printf.sprintf "#%d %s->%s chunks=%d" tr.t_id tr.src tr.dst (Transfer.chunks m));
    tr.on_done
      (Ok
         {
           chunks_moved = Transfer.chunks m;
           bytes_moved = Transfer.bytes m;
           events_forwarded = tr.events_fwd;
           duration = Time.(now - tr.started);
         })
  | Transfer.Arm_quiescence delay ->
    ignore
      (Engine.schedule_after t.engine delay (fun () ->
           if (not t.fenced) && List.exists (fun a -> a.tr.t_id = tr.t_id) t.transfers then
             Transfer.quiesce m ~now:(Engine.now t.engine)))
  | Transfer.Finish ->
    remove_transfer t tr;
    record t ~kind:"transfer-final"
      ~detail:(fun () -> Printf.sprintf "#%d %s->%s" tr.t_id tr.src tr.dst)
  | Transfer.Delete ->
    (* Deferred delete of the moved state at the source (Fig. 5). *)
    to_src t tr (Message.Del_support_perflow tr.hfl);
    to_src t tr (Message.Del_report_perflow tr.hfl)

(* Handler for get [stream] of a transfer: the machine drops duplicates
   and reconciles the [End_of_state] count; [`Done] once it closed the
   stream. *)
let get_stream_handler m stream ~now reply =
  match reply with
  | Message.State_chunk chunk -> if Transfer.chunk m ~stream ~now chunk then `Done else `Keep
  | Message.End_of_state { count } ->
    if Transfer.end_of_state m ~stream ~now count then `Done else `Keep
  | Message.Op_error e ->
    Transfer.fail m e;
    `Done
  | Message.Ack | Message.Config_values _ | Message.Stats_reply _ | Message.Batch_ack _ ->
    Transfer.fail m (Errors.Op_failed "unexpected reply to get");
    `Done

let start_transfer t ~kind ~src ~dst ~hfl ~gets ~on_done =
  match (find_conn t src, find_conn t dst) with
  | None, _ -> fail_async t (Errors.Unknown_mb src) on_done
  | _, None -> fail_async t (Errors.Unknown_mb dst) on_done
  | Some src_conn, Some dst_conn ->
    let src_impl = Mb_agent.impl src_conn.agent in
    let dst_impl = Mb_agent.impl dst_conn.agent in
    if not (String.equal src_impl.kind dst_impl.kind) then
      fail_async t
        (Errors.Illegal_operation
           (Printf.sprintf "cannot transfer state between MB kinds %s and %s"
              src_impl.kind dst_impl.kind))
        on_done
    else begin
      match Southbound.check_granularity src_impl hfl with
      | Error e -> fail_async t e on_done
      | Ok () ->
        let kind_name =
          match kind with
          | Transfer.Move -> "move"
          | Transfer.Clone -> "clone"
          | Transfer.Merge -> "merge"
        in
        let now = Engine.now t.engine in
        let tr =
          {
            t_id = t.next_transfer;
            t_span =
              Telemetry.span_begin t.tel ~now ~actor:"controller" ~name:kind_name
                ~op:(Telemetry.next_op_id t.tel)
                ~a0:t.next_transfer ();
            src;
            dst;
            hfl;
            started = now;
            events_fwd = 0;
            on_done;
          }
        in
        let m =
          Transfer.create ~kind ~gets:(List.length gets) ~batch_chunks:t.cfg.batch_chunks
            ~batch_bytes:t.cfg.batch_bytes ~put_window:t.cfg.put_window
            ~quiescence:t.cfg.quiescence ~now ~emit:(act t tr dst_conn)
        in
        t.next_transfer <- t.next_transfer + 1;
        t.transfers <- { tr; m } :: t.transfers;
        record t ~kind:"transfer-start"
          ~detail:
            (fun () -> Printf.sprintf "#%d %s %s->%s %s" tr.t_id kind_name src dst
               (Hfl.to_string hfl));
        (* Gets are retryable, and retransmission doubles as the stream's
           ARQ: the agent replays a completed op's cached replies under
           the same op number (re-delivering chunks lost on the reply
           channel; the machine's dedup absorbs the repeats), drops the
           duplicate while the op is still executing, and only re-executes
           when the original request never arrived — in which case nothing
           was exported and a fresh export is sound.  The unsound case, an
           agent restart wiping the replay cache mid-transfer, is refused
           at the source (moved marks present → error → abort). *)
        List.iteri
          (fun stream req -> op_send t src_conn req (get_stream_handler m stream))
          gets
    end

let move_internal t ~src ~dst ~key ~on_done =
  start_transfer t ~kind:Transfer.Move ~src ~dst ~hfl:key
    ~gets:[ Message.Get_support_perflow key; Message.Get_report_perflow key ]
    ~on_done

let clone_support t ~src ~dst ~on_done =
  start_transfer t ~kind:Transfer.Clone ~src ~dst ~hfl:Hfl.any
    ~gets:[ Message.Get_support_shared ] ~on_done

let merge_internal t ~src ~dst ~on_done =
  start_transfer t ~kind:Transfer.Merge ~src ~dst ~hfl:Hfl.any
    ~gets:[ Message.Get_support_shared; Message.Get_report_shared ]
    ~on_done

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let events_buffered_peak t = Telemetry.gauge_peak t.g_buf
let events_forwarded t = Telemetry.counter_value t.c_evt_fwd
let events_dropped t = Telemetry.counter_value t.c_evt_dropped
let active_transfers t = List.length t.transfers
let messages_processed t = Telemetry.counter_value t.c_msgs
let op_retries t = Telemetry.counter_value t.c_retries
let op_timeouts t = Telemetry.counter_value t.c_timeouts
let transfers_aborted t = Telemetry.counter_value t.c_aborted

(* The record is a point-in-time view of the registry counters; the
   registry itself (via [telemetry]) is the richer interface. *)
let counters t =
  {
    msgs_processed = Telemetry.counter_value t.c_msgs;
    evt_forwarded = Telemetry.counter_value t.c_evt_fwd;
    evt_dropped = Telemetry.counter_value t.c_evt_dropped;
    evt_returned = Telemetry.counter_value t.c_evt_returned;
    evt_buffered_peak = Telemetry.gauge_peak t.g_buf;
    op_retries = Telemetry.counter_value t.c_retries;
    op_timeouts = Telemetry.counter_value t.c_timeouts;
    aborted_transfers = Telemetry.counter_value t.c_aborted;
    dedup_hits = Telemetry.counter_value t.c_dedup;
  }

let pp_counters fmt c =
  Format.fprintf fmt
    "msgs=%d fwd=%d dropped=%d returned=%d buf-peak=%d retries=%d timeouts=%d aborts=%d \
     dedup=%d"
    c.msgs_processed c.evt_forwarded c.evt_dropped c.evt_returned c.evt_buffered_peak
    c.op_retries c.op_timeouts c.aborted_transfers c.dedup_hits
