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

(* A handler consumes successive replies to one op; [`Done] removes it. *)
type handler = Message.reply -> [ `Keep | `Done ]

(* One in-flight southbound request.  [po_last_activity] is refreshed
   by every reply on the op, so a streaming get stays alive as long as
   chunks keep arriving; the timeout chain measures idleness against
   it.  Only idempotent requests are retried. *)
type pending_op = {
  po_req : Message.request;
  po_handler : handler;
  po_retryable : bool;
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
  framing : Openmb_wire.Framing.t;
      (* Negotiated when the channel was set up; sizes every message on
         this connection. *)
  mutable next_op : int;
  mutable next_seq : int;
      (* Sequence numbers stamped on mutating requests so the agent can
         deduplicate retries and duplicated deliveries. *)
  pending : (int, pending_op) Hashtbl.t;
}

type transfer_kind = T_move | T_clone | T_merge

type transfer = {
  t_id : int;
  t_span : Telemetry.Trace.span;
  kind : transfer_kind;
  src : string;
  dst : string;
  hfl : Hfl.t;
  started : Time.t;
  mutable open_gets : int;
  mutable pending_puts : int;
  (* Windowed batching pipeline: streamed chunks queue here until a
     size-bounded Put_batch is cut; at most [put_window] batches are in
     flight at once.  Each queued or in-flight chunk is counted in
     [pending_puts] and marked in [putting] from the moment it is
     received — identical bookkeeping to the per-chunk path. *)
  queued : Chunk.t Queue.t;
  mutable queued_bytes : int;
  mutable inflight_batches : int;
  mutable returned : bool;
  mutable chunks : int;
  mutable bytes : int;
  mutable events_fwd : int;
  acked : (Hfl.t, unit) Hashtbl.t;
  putting : (Hfl.t, int) Hashtbl.t;
      (* Outstanding put count per key: a flow with both a supporting
         and a reporting chunk is only [acked] — and its buffered
         events only flushed — once every chunk under the key has been
         acknowledged. *)
  buffered : (Hfl.t, Event.t Queue.t) Hashtbl.t;
  mutable buffered_count : int;
  mutable last_event : Time.t;
  put_started : (Hfl.t, Time.t) Hashtbl.t;
      (* First time a chunk for the key was received from the get
         stream; the gap to the key's completing ack is the per-flow
         serialization window (the paper's Fig. 7 metric). *)
  on_done : (move_result, Errors.t) result -> unit;
}

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
  mutable transfers : transfer list;
  mutable next_transfer : int;
  mutable subscriptions : subscription list;
  mutable cpu_free_at : Time.t;
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
    cpu_free_at = Time.zero;
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

(* Charge the (serial) controller CPU for a message of [bytes] bytes,
   then run [k].  Concurrent operations contend here, which is what
   makes simultaneous moves slow each other down (Fig. 10b). *)
let cpu t bytes k =
  if not t.fenced then begin
    let cost =
      Time.(t.cfg.cpu_fixed + seconds (to_seconds t.cfg.cpu_per_byte *. float_of_int bytes))
    in
    let start = Time.max (Engine.now t.engine) t.cpu_free_at in
    t.cpu_free_at <- Time.(start + cost);
    Telemetry.incr t.c_msgs;
    (* The continuation re-checks the fence: a takeover between dispatch
       and execution must still silence this instance. *)
    Engine.call_at t.engine t.cpu_free_at (fun () -> if not t.fenced then k ()) ()
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
  let bytes = Message.request_wire_bytes ~framing:conn.framing msg in
  cpu t bytes (fun () -> Channel.send conn.to_mb ~bytes msg)

(* One timer chain per op: each firing either re-arms (activity since),
   retransmits and re-arms (idle, retryable, attempts left), or fails
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
    else if po.po_retryable && po.po_attempts < t.cfg.max_retries then begin
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
        (po.po_handler
           (Message.Op_error (Errors.Timeout (Message.describe_request po.po_req))))
    end
  end

(* Send [req] to [conn], registering [handler] for its replies. *)
let op_send ?(retryable = true) t conn req handler =
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
      po_retryable = retryable;
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
  op_send t conn req (fun _ -> `Done)

let fail_async t err on_done =
  ignore (Engine.schedule_after t.engine Time.zero (fun () -> on_done (Error err)))

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-key bookkeeping is keyed by the HFL value itself, under the
   polymorphic hash and structural equality: equal exactly when the
   keys' text forms are, constraint order included (unlike
   [Hfl.equal]), and nothing is rendered per chunk.  Shared state and
   whole clone/merge transfers are keyed [Hfl.any]. *)
let transfer_key_id transfer key =
  match transfer.kind with T_move -> key | T_clone | T_merge -> Hfl.any

let forward_reprocess t transfer ev =
  if not t.cfg.forward_events then Telemetry.incr t.c_evt_dropped
  else
  match ev with
  | Event.Reprocess { key; packet } -> (
    match find_conn t transfer.dst with
    | None -> Telemetry.incr t.c_evt_dropped
    | Some dst_conn ->
      transfer.events_fwd <- transfer.events_fwd + 1;
      Telemetry.incr t.c_evt_fwd;
      record t ~kind:"event-fwd"
        ~detail:(fun () ->
          Printf.sprintf "%s->%s %s" transfer.src transfer.dst (Event.describe ev));
      op_send_ignore t dst_conn (Message.Reprocess_packet { key; packet }))
  | Event.Introspect _ -> ()

let buffer_event t transfer key ev =
  let id = transfer_key_id transfer key in
  let q =
    match Hashtbl.find_opt transfer.buffered id with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace transfer.buffered id q;
      q
  in
  Queue.push ev q;
  transfer.buffered_count <- transfer.buffered_count + 1;
  let total =
    List.fold_left (fun acc tr -> acc + tr.buffered_count) 0 t.transfers
  in
  Telemetry.set_gauge t.g_buf total

let flush_buffered t transfer id =
  match Hashtbl.find_opt transfer.buffered id with
  | None -> ()
  | Some q ->
    Hashtbl.remove transfer.buffered id;
    Queue.iter
      (fun ev ->
        transfer.buffered_count <- transfer.buffered_count - 1;
        forward_reprocess t transfer ev)
      q

let handle_reprocess_event t src_name ev key =
  (* Route to the transfer whose source raised it and whose scope
     covers the key.  Events about shared state carry the empty key and
     can only belong to a clone/merge; keyed events prefer a move
     transfer covering the key, falling back to a concurrent
     clone/merge (which replays every packet).  Most-recent transfer
     wins on a remaining tie. *)
  let is_shared_event = key = Hfl.any in
  let move_match tr =
    String.equal tr.src src_name
    && (match tr.kind with T_move -> true | T_clone | T_merge -> false)
    && Hfl.subsumes tr.hfl key
  in
  let shared_match tr =
    String.equal tr.src src_name
    && match tr.kind with T_clone | T_merge -> true | T_move -> false
  in
  let found =
    if is_shared_event then List.find_opt shared_match t.transfers
    else
      match List.find_opt move_match t.transfers with
      | Some tr -> Some tr
      | None -> List.find_opt shared_match t.transfers
  in
  match found with
  | None -> Telemetry.incr t.c_evt_dropped
  | Some transfer ->
    transfer.last_event <- Engine.now t.engine;
    let id = transfer_key_id transfer key in
    (* Forward once the destination holds the state the event applies
       to: either its puts have all been acknowledged, or the source's
       export stream has ended without a chunk for this key — the flow
       started mid-move and exists only through its replayed packets. *)
    let ready =
      Hashtbl.mem transfer.acked id
      || (transfer.open_gets = 0 && not (Hashtbl.mem transfer.putting id))
    in
    if ready then forward_reprocess t transfer ev else buffer_event t transfer key ev

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
      match Hashtbl.find_opt conn.pending op with
      | None -> ()
      | Some po -> (
        let now = Engine.now t.engine in
        po.po_last_activity <- now;
        match po.po_handler reply with
        | `Keep -> ()
        | `Done ->
          Hashtbl.remove conn.pending op;
          Telemetry.span_end t.tel ~now po.po_span;
          Telemetry.observe t.h_op Time.(to_seconds (now - po.po_started)))))

type remote = {
  to_agent : Shard.route;
  to_controller : Shard.route;
  agent_faults : Faults.t option;
}

let connect t ?framing ?remote ?(id_base = 0) ?(arm_faults = true) agent =
  let name = Mb_agent.name agent in
  if Hashtbl.mem t.mbs name then
    failwith (Printf.sprintf "Controller.connect: duplicate MB name %s" name);
  (* The framing is negotiated once per MB connection — the config
     default unless this MB asked for an override — and sizes every
     message on its three channels. *)
  let framing = Option.value framing ~default:t.cfg.framing in
  (* Control-plane direction mapping: the op channel is the link's
     forward direction, replies and events travel the reverse one. *)
  let faulted inst tag dir =
    match inst with
    | None -> None
    | Some f -> Some (Faults.link f ~dir ~name:(name ^ "/" ^ tag) ())
  in
  let deliver msg =
    (* Receiving costs controller CPU proportional to message size. *)
    cpu t (Message.reply_wire_bytes ~framing msg) (fun () -> dispatch_from_mb t name msg)
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
  (if not arm_faults then ()
   else
  match remote with
  | Some { agent_faults = Some f; _ } ->
    Faults.arm_crashes f ~name
      ~on_crash:(fun () -> Mb_agent.crash agent)
      ~on_restart:(fun () -> Mb_agent.restart agent)
  | Some ({ agent_faults = None; _ } as r) -> (
    match t.faults with
    | None -> ()
    | Some f ->
      let route k = r.to_agent.Shard.route ~at:(Engine.now t.engine) k () in
      Faults.arm_crashes f ~name
        ~on_crash:(fun () -> route (fun () -> Mb_agent.crash agent))
        ~on_restart:(fun () -> route (fun () -> Mb_agent.restart agent)))
  | None -> (
    match t.faults with
    | None -> ()
    | Some f ->
      Faults.arm_crashes f ~name
        ~on_crash:(fun () -> Mb_agent.crash agent)
        ~on_restart:(fun () -> Mb_agent.restart agent)));
  (* [id_base] offsets this connection's op and sequence counters.  An
     agent's dedup caches survive a controller failover (the agent did
     not crash), so a successor controller must start numbering above
     anything its predecessor could have issued or its first mutations
     would be swallowed as replays. *)
  Hashtbl.replace t.mbs name
    {
      agent;
      to_mb;
      framing;
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
    List.filter (fun tr -> not (String.equal tr.src name || String.equal tr.dst name))
      t.transfers

(* ------------------------------------------------------------------ *)
(* Simple northbound operations                                        *)
(* ------------------------------------------------------------------ *)

let with_conn t name on_err k =
  match find_conn t name with
  | None -> fail_async t (Errors.Unknown_mb name) on_err
  | Some conn -> k conn

let read_config t ~src ~key ~on_done =
  with_conn t src on_done (fun conn ->
      op_send t conn (Message.Get_config key) (fun reply ->
          (match reply with
          | Message.Config_values entries -> on_done (Ok entries)
          | Message.Op_error e -> on_done (Error e)
          | Message.State_chunk _ | Message.End_of_state _ | Message.Ack
          | Message.Stats_reply _ | Message.Batch_ack _ ->
            on_done (Error (Errors.Op_failed "unexpected reply to getConfig")));
          `Done))

let expect_ack on_done reply =
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
      let remaining = ref 2 in
      let failed = ref None in
      let leg reply =
        (match reply with
        | Message.Ack -> ()
        | Message.Op_error e -> if !failed = None then failed := Some e
        | Message.State_chunk _ | Message.End_of_state _ | Message.Config_values _
        | Message.Stats_reply _ | Message.Batch_ack _ ->
          if !failed = None then failed := Some (Errors.Op_failed "unexpected reply"));
        decr remaining;
        if !remaining = 0 then
          on_done (match !failed with Some e -> Error e | None -> Ok ());
        `Done
      in
      op_send t conn (Message.Del_support_perflow key) leg;
      op_send t conn (Message.Del_report_perflow key) leg)

let stats t ~src ~key ~on_done =
  with_conn t src on_done (fun conn ->
      op_send t conn (Message.Get_stats key) (fun reply ->
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
  read_config t ~src ~key ~on_done:(fun res ->
      match res with
      | Error e -> on_done (Error e)
      | Ok entries ->
        let total = List.length entries in
        if total = 0 then on_done (Ok 0)
        else begin
          let remaining = ref total in
          let failed = ref None in
          List.iter
            (fun (entry : Config_tree.entry) ->
              write_config t ~dst ~key:entry.path ~values:entry.values
                ~on_done:(fun res ->
                  (match res with
                  | Error e when !failed = None -> failed := Some e
                  | Error _ | Ok () -> ());
                  decr remaining;
                  if !remaining = 0 then
                    match !failed with
                    | Some e -> on_done (Error e)
                    | None -> on_done (Ok total)))
            entries
        end)

(* ------------------------------------------------------------------ *)
(* Transfers: move / clone / merge                                     *)
(* ------------------------------------------------------------------ *)

let finalize_transfer t transfer =
  t.transfers <- List.filter (fun tr -> tr.t_id <> transfer.t_id) t.transfers;
  record t ~kind:"transfer-final"
    ~detail:(fun () -> Printf.sprintf "#%d %s->%s" transfer.t_id transfer.src transfer.dst);
  match transfer.kind with
  | T_move -> (
    (* Deferred delete of the moved state at the source (Fig. 5). *)
    match find_conn t transfer.src with
    | None -> ()
    | Some src_conn ->
      op_send_ignore t src_conn (Message.Del_support_perflow transfer.hfl);
      op_send_ignore t src_conn (Message.Del_report_perflow transfer.hfl))
  | T_clone | T_merge -> ()

let rec schedule_quiescence_check t transfer =
  let due = Time.(transfer.last_event + t.cfg.quiescence) in
  let delay = Time.(due - Engine.now t.engine) in
  (* Clamp to a positive minimum: floating-point rounding can make
     [due - now] collapse to zero while [now - last_event] still
     compares below the quiescence threshold, which would re-arm the
     check at the same instant forever. *)
  let delay = Time.max delay (Time.ms 1.0) in
  ignore
    (Engine.schedule_after t.engine delay (fun () ->
         if (not t.fenced) && List.exists (fun tr -> tr.t_id = transfer.t_id) t.transfers
         then begin
           let idle = Time.(Engine.now t.engine - transfer.last_event) in
           if Time.compare idle t.cfg.quiescence >= 0 then finalize_transfer t transfer
           else schedule_quiescence_check t transfer
         end))

let maybe_return t transfer =
  if (not transfer.returned) && transfer.open_gets = 0 && transfer.pending_puts = 0 then begin
    transfer.returned <- true;
    Telemetry.span_end t.tel ~now:(Engine.now t.engine) transfer.t_span;
    Telemetry.observe t.h_transfer
      Time.(to_seconds (Engine.now t.engine - transfer.started));
    (* Any still-buffered events belong to flows that started mid-move
       (no chunk was ever exported for them): replay them now, in
       order — the destination rebuilds their state from scratch. *)
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) transfer.buffered [] in
    List.iter (flush_buffered t transfer) ids;
    transfer.last_event <- Engine.now t.engine;
    record t ~kind:"transfer-done"
      ~detail:
        (fun () -> Printf.sprintf "#%d %s->%s chunks=%d" transfer.t_id transfer.src transfer.dst
           transfer.chunks);
    transfer.on_done
      (Ok
         {
           chunks_moved = transfer.chunks;
           bytes_moved = transfer.bytes;
           events_forwarded = transfer.events_fwd;
           duration = Time.(Engine.now t.engine - transfer.started);
         });
    schedule_quiescence_check t transfer
  end

(* Transactional rollback (the paper's move/clone are all-or-nothing
   from the caller's perspective): on any mid-transfer failure the
   source keeps its state — buffered re-process events flush back to
   it, and an [Abort_perflow] clears the moved marks its exports left
   behind so the state is re-exportable.  The destination may retain
   already-installed copies; the source stays authoritative and no
   delete is ever issued.  The caller sees [Error (Move_aborted _)]
   naming the underlying cause. *)
let abort_transfer t transfer err =
  if not transfer.returned then begin
    transfer.returned <- true;
    t.transfers <- List.filter (fun tr -> tr.t_id <> transfer.t_id) t.transfers;
    Telemetry.incr t.c_aborted;
    Telemetry.span_end t.tel ~now:(Engine.now t.engine) transfer.t_span;
    (match find_conn t transfer.src with
    | None ->
      Hashtbl.iter
        (fun _ q -> Telemetry.add t.c_evt_dropped (Queue.length q))
        transfer.buffered
    | Some src_conn ->
      Hashtbl.iter
        (fun _ q ->
          Queue.iter
            (fun ev ->
              match ev with
              | Event.Reprocess { key; packet } ->
                Telemetry.incr t.c_evt_returned;
                op_send_ignore t src_conn (Message.Reprocess_packet { key; packet })
              | Event.Introspect _ -> ())
            q)
        transfer.buffered;
      match transfer.kind with
      | T_move -> op_send_ignore t src_conn (Message.Abort_perflow transfer.hfl)
      | T_clone | T_merge -> ());
    Hashtbl.reset transfer.buffered;
    transfer.buffered_count <- 0;
    record t ~kind:"transfer-abort"
      ~detail:
        (fun () -> Printf.sprintf "#%d %s->%s: %s" transfer.t_id transfer.src transfer.dst
           (Errors.to_string err));
    let err =
      match err with
      | Errors.Move_aborted _ -> err
      | e -> Errors.Move_aborted (Errors.to_string e)
    in
    transfer.on_done (Error err)
  end

let chunk_key_id (chunk : Chunk.t) =
  match chunk.partition with Taxonomy.Per_flow -> chunk.key | Taxonomy.Shared -> Hfl.any

(* Track a chunk the moment it is received from the get stream: it is
   now this transfer's responsibility, events on its key must buffer
   until the destination acknowledges it. *)
let track_chunk t transfer (chunk : Chunk.t) =
  transfer.pending_puts <- transfer.pending_puts + 1;
  transfer.chunks <- transfer.chunks + 1;
  transfer.bytes <- transfer.bytes + Chunk.size_bytes chunk;
  let id = chunk_key_id chunk in
  if not (Hashtbl.mem transfer.put_started id) then
    Hashtbl.replace transfer.put_started id (Engine.now t.engine);
  let n = try Hashtbl.find transfer.putting id with Not_found -> 0 in
  Hashtbl.replace transfer.putting id (n + 1)

(* The per-key bookkeeping one acknowledged chunk performs; the batched
   path runs it once per chunk, in batch order, so reprocess-event
   buffering and flushing behave exactly as under sequential acks.  A
   key becomes [acked] — and its buffered events flush — only when its
   last outstanding chunk is acknowledged, so a flow with both
   supporting and reporting state never sees events forwarded after
   half its state landed. *)
let ack_chunk t transfer key_id =
  transfer.pending_puts <- transfer.pending_puts - 1;
  let n = try Hashtbl.find transfer.putting key_id with Not_found -> 1 in
  if n <= 1 then begin
    Hashtbl.remove transfer.putting key_id;
    Hashtbl.replace transfer.acked key_id ();
    (* Every chunk under the key is installed: the key's serialization
       window — first export to last ack — closes here. *)
    (match Hashtbl.find_opt transfer.put_started key_id with
    | Some started ->
      Hashtbl.remove transfer.put_started key_id;
      Telemetry.observe t.h_serial Time.(to_seconds (Engine.now t.engine - started))
    | None -> ());
    flush_buffered t transfer key_id
  end
  else Hashtbl.replace transfer.putting key_id (n - 1)

(* Issue a put for a streamed chunk and track its acknowledgement —
   the legacy one-message-per-chunk path, kept for [batch_chunks <= 1]
   (and as the semantic reference the equivalence property test holds
   the batched pipeline to). *)
let issue_put t transfer dst_conn (chunk : Chunk.t) =
  let seq = alloc_seq dst_conn in
  let req =
    match (chunk.role, chunk.partition) with
    | Taxonomy.Supporting, Taxonomy.Per_flow -> Message.Put_support_perflow { seq; chunk }
    | Taxonomy.Supporting, Taxonomy.Shared -> Message.Put_support_shared { seq; chunk }
    | Taxonomy.Reporting, Taxonomy.Per_flow -> Message.Put_report_perflow { seq; chunk }
    | Taxonomy.Reporting, Taxonomy.Shared -> Message.Put_report_shared { seq; chunk }
    | Taxonomy.Configuring, (Taxonomy.Per_flow | Taxonomy.Shared) ->
      (* Configuration state never travels as chunks. *)
      Message.Put_support_shared { seq; chunk }
  in
  track_chunk t transfer chunk;
  let key_id = chunk_key_id chunk in
  op_send t dst_conn req (fun reply ->
      (match reply with
      | Message.Ack ->
        ack_chunk t transfer key_id;
        maybe_return t transfer
      | Message.Op_error e -> abort_transfer t transfer e
      | Message.State_chunk _ | Message.End_of_state _ | Message.Config_values _
      | Message.Stats_reply _ | Message.Batch_ack _ ->
        abort_transfer t transfer (Errors.Op_failed "unexpected reply to put"));
      `Done)

(* Cut one size-bounded batch off the head of the queue, preserving
   stream order. *)
let next_batch t transfer =
  let batch = ref [] and n = ref 0 and bytes = ref 0 in
  while
    (not (Queue.is_empty transfer.queued))
    && !n < t.cfg.batch_chunks
    && (!n = 0 || !bytes < t.cfg.batch_bytes)
  do
    let c = Queue.pop transfer.queued in
    transfer.queued_bytes <- transfer.queued_bytes - Chunk.size_bytes c;
    batch := c :: !batch;
    incr n;
    bytes := !bytes + Chunk.size_bytes c
  done;
  List.rev !batch

(* Drain the queue into Put_batch messages while the send window has
   room.  A batch is cut when enough chunks or bytes have accumulated,
   or unconditionally once every get stream has ended (the flush of the
   final partial batch).  Acks re-enter here to refill the window. *)
let rec pump t transfer dst_conn =
  let ready_to_cut () =
    (not transfer.returned)
    && (not (Queue.is_empty transfer.queued))
    && transfer.inflight_batches < t.cfg.put_window
    && (Queue.length transfer.queued >= t.cfg.batch_chunks
       || transfer.queued_bytes >= t.cfg.batch_bytes
       || transfer.open_gets = 0)
  in
  if ready_to_cut () then begin
    let batch = next_batch t transfer in
    transfer.inflight_batches <- transfer.inflight_batches + 1;
    Telemetry.set_gauge t.g_window transfer.inflight_batches;
    op_send t dst_conn
      (Message.Put_batch { seq = alloc_seq dst_conn; chunks = batch })
      (fun reply ->
        transfer.inflight_batches <- transfer.inflight_batches - 1;
        Telemetry.set_gauge t.g_window transfer.inflight_batches;
        (match reply with
        | Message.Batch_ack { seq = _; count = _; errors } ->
          (* Acknowledge the batch's chunks in order up to the first
             failure — exactly what N sequential acks would do. *)
          (try
             List.iteri
               (fun idx chunk ->
                 match List.assoc_opt idx errors with
                 | Some e ->
                   abort_transfer t transfer e;
                   raise Exit
                 | None -> ack_chunk t transfer (chunk_key_id chunk))
               batch
           with Exit -> ());
          maybe_return t transfer;
          pump t transfer dst_conn
        | Message.Op_error e -> abort_transfer t transfer e
        | Message.Ack | Message.State_chunk _ | Message.End_of_state _
        | Message.Config_values _ | Message.Stats_reply _ ->
          abort_transfer t transfer (Errors.Op_failed "unexpected reply to putBatch"));
        `Done);
    pump t transfer dst_conn
  end

let enqueue_chunk t transfer dst_conn chunk =
  track_chunk t transfer chunk;
  Queue.push chunk transfer.queued;
  transfer.queued_bytes <- transfer.queued_bytes + Chunk.size_bytes chunk;
  pump t transfer dst_conn

(* Handler for one of the source-side get streams of a transfer.  Each
   stream keeps its own accounting so losses, duplicates and reorder on
   the reply channel are detected rather than silently corrupting the
   move: duplicated chunks are dropped, and the stream only closes once
   the [End_of_state] count has been reconciled against the chunks
   actually received — a missing chunk keeps the op open until its
   timeout aborts the transfer. *)
let get_stream_handler t transfer dst_conn =
  let seen = Hashtbl.create 16 in
  let received = ref 0 in
  let announced = ref (-1) in
  let close () =
    transfer.open_gets <- transfer.open_gets - 1;
    if t.cfg.batch_chunks > 1 then pump t transfer dst_conn;
    maybe_return t transfer
  in
  fun reply ->
    if transfer.returned then `Done
    else
      match reply with
      | Message.State_chunk chunk ->
        let id = chunk_key_id chunk in
        if Hashtbl.mem seen id then `Keep
        else begin
          Hashtbl.replace seen id ();
          incr received;
          if t.cfg.batch_chunks <= 1 then issue_put t transfer dst_conn chunk
          else enqueue_chunk t transfer dst_conn chunk;
          if !announced >= 0 && !received >= !announced then begin
            close ();
            `Done
          end
          else `Keep
        end
      | Message.End_of_state { count } ->
        if !received >= count then begin
          close ();
          `Done
        end
        else begin
          (* Chunks overtaken by the end marker are still in flight:
             keep the op open until they arrive (or its timeout aborts
             the transfer). *)
          announced := count;
          `Keep
        end
      | Message.Op_error e ->
        abort_transfer t transfer e;
        `Done
      | Message.Ack | Message.Config_values _ | Message.Stats_reply _
      | Message.Batch_ack _ ->
        abort_transfer t transfer (Errors.Op_failed "unexpected reply to get");
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
          match kind with T_move -> "move" | T_clone -> "clone" | T_merge -> "merge"
        in
        let transfer =
          {
            t_id = t.next_transfer;
            t_span =
              Telemetry.span_begin t.tel ~now:(Engine.now t.engine) ~actor:"controller"
                ~name:kind_name
                ~op:(Telemetry.next_op_id t.tel)
                ~a0:t.next_transfer ();
            kind;
            src;
            dst;
            hfl;
            started = Engine.now t.engine;
            open_gets = List.length gets;
            pending_puts = 0;
            queued = Queue.create ();
            queued_bytes = 0;
            inflight_batches = 0;
            returned = false;
            chunks = 0;
            bytes = 0;
            events_fwd = 0;
            acked = Hashtbl.create 64;
            putting = Hashtbl.create 64;
            buffered = Hashtbl.create 16;
            buffered_count = 0;
            last_event = Engine.now t.engine;
            put_started = Hashtbl.create 64;
            on_done;
          }
        in
        t.next_transfer <- t.next_transfer + 1;
        t.transfers <- transfer :: t.transfers;
        record t ~kind:"transfer-start"
          ~detail:
            (fun () -> Printf.sprintf "#%d %s %s->%s %s" transfer.t_id kind_name src dst
               (Hfl.to_string hfl));
        (* Gets are retryable, and retransmission doubles as the stream's
           ARQ: the agent replays a completed op's cached replies under
           the same op number (re-delivering chunks lost on the reply
           channel; the handler's dedup absorbs the repeats), drops the
           duplicate while the op is still executing, and only re-executes
           when the original request never arrived — in which case nothing
           was exported and a fresh export is sound.  The unsound case, an
           agent restart wiping the replay cache mid-transfer, is refused
           at the source (moved marks present → error → abort). *)
        List.iter
          (fun req ->
            op_send t src_conn req (get_stream_handler t transfer dst_conn))
          gets
    end

let move_internal t ~src ~dst ~key ~on_done =
  start_transfer t ~kind:T_move ~src ~dst ~hfl:key
    ~gets:[ Message.Get_support_perflow key; Message.Get_report_perflow key ]
    ~on_done

let clone_support t ~src ~dst ~on_done =
  start_transfer t ~kind:T_clone ~src ~dst ~hfl:Hfl.any
    ~gets:[ Message.Get_support_shared ] ~on_done

let merge_internal t ~src ~dst ~on_done =
  start_transfer t ~kind:T_merge ~src ~dst ~hfl:Hfl.any
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
