open Openmb_sim

type t = {
  engine : Engine.t;
  tel : Telemetry.t option;
  c_dedup : Telemetry.counter;
  c_events : Telemetry.counter;
  h_serialize : Telemetry.histogram;
  h_apply : Telemetry.histogram;
  (* Open agent-side spans keyed by op id; tagged with the controller's
     causality id so exported traces link both halves of an op. *)
  op_spans : Telemetry.Trace.span Openmb_net.Flat_table.t;
  impl : Southbound.impl;
  filter : Event.Filter.t;
  mutable send_reply : Message.from_mb -> unit;
  mutable send_event : Message.from_mb -> unit;
  (* The control thread's clock: a one-element float array, as the
     engine's clock is, so advancing it boxes nothing. *)
  cpu_free_at : float array;
  mutable active_ops : int;
  mutable events_raised : int;
  (* Crash model: a crash abandons everything in flight on the control
     thread (a new incarnation, so the continuations scheduled under
     the old one do nothing) and wipes the volatile dedup caches;
     durable configuration and the MB's own state tables survive.
     While down, requests and raised events are dropped on the floor. *)
  mutable crashed : bool;
  mutable incarnation : incarnation;
  (* Fencing token: op ids encode the issuing controller's replication
     epoch in their high bits (id_base = epoch lsl 40), and epochs only
     grow.  Once any op from epoch [e] is seen, ops from epochs < e are
     a deposed leader's stragglers — a reordering op channel can land
     them *after* the successor's recovery aborts, where executing one
     (e.g. a get that re-marks just-rolled-back entries as exported)
     would corrupt the takeover.  Tracked durably: a crash does not
     reset it, exactly as a lease check against a config store would
     survive the MB restarting. *)
  mutable ctrl_epoch : int;
  (* Volatile at-most-once bookkeeping, in int-keyed flat tables (the
     id rides in key word [pa]).  [ops] holds every op this incarnation
     has seen: an entry appears (empty) when execution starts, so
     duplicates of an in-flight op are dropped (the running execution
     will answer), and accumulates the op's replies so duplicated
     deliveries of a completed op replay instead of re-executing.
     [applied_seq] maps put sequence numbers to their batch ack so
     retried puts are idempotent even across op ids. *)
  ops : Message.reply list Openmb_net.Flat_table.t;
  applied_seq : Message.reply Openmb_net.Flat_table.t;
}

(* What a scheduled control-thread step carries besides its own
   argument: it runs only if its agent has not crashed since. *)
and incarnation = { agent : t }

(* Int-keyed probes into the flat cores: the id is word [pa], [pb] is 0.
   Op ids and sequence numbers are non-negative, as the mixer needs. *)
let[@inline] ihash k = Openmb_net.Five_tuple.hash_words ~pa:k ~pb:0
let ft_find tbl k = Openmb_net.Flat_table.find tbl ~pa:k ~pb:0 ~h:(ihash k)
let ft_replace tbl k v = Openmb_net.Flat_table.replace tbl ~pa:k ~pb:0 ~h:(ihash k) v

let ft_remove tbl k =
  ignore (Openmb_net.Flat_table.remove tbl ~pa:k ~pb:0 ~h:(ihash k) : bool)

(* [detail] is built only on a timeline. *)
let record t ~kind ~detail =
  match t.tel with
  | Some tel when Telemetry.timeline tel ->
    Telemetry.instant tel ~now:(Engine.now t.engine) ~actor:t.impl.name ~name:kind
      ~detail:(detail ()) ()
  | Some _ | None -> ()

let not_attached _ = failwith "Mb_agent: not attached to a controller"

let create engine ?telemetry ~impl () =
  let c name =
    match telemetry with
    | Some tel -> Telemetry.counter tel name
    | None -> Telemetry.null_counter
  in
  let h name =
    match telemetry with
    | Some tel -> Telemetry.histogram tel name
    | None -> Telemetry.null_histogram
  in
  let rec t =
    {
      engine;
      tel = telemetry;
      c_dedup = c "mb.dedup_hits";
      c_events = c "mb.events_raised";
      h_serialize = h "mb.serialize";
      h_apply = h "mb.apply";
      op_spans = Openmb_net.Flat_table.create ~capacity:64 ();
      impl;
      filter = Event.Filter.create ();
      send_reply = not_attached;
      send_event = not_attached;
      cpu_free_at = [| Time.zero |];
      active_ops = 0;
      events_raised = 0;
      crashed = false;
      incarnation = { agent = t };
      ctrl_epoch = 0;
      ops = Openmb_net.Flat_table.create ~capacity:64 ();
      applied_seq = Openmb_net.Flat_table.create ~capacity:64 ();
    }
  in
  (* Events raised by the MB's packet-processing logic flow out through
     the agent; re-process events always pass, introspection events are
     filtered (§4.2.2).  The MB gets the live filter too, so it builds
     only the introspection events this check would pass. *)
  impl.set_event_sink t.filter (fun ev ->
      if (not t.crashed) && Event.Filter.admits t.filter ev then begin
        t.events_raised <- t.events_raised + 1;
        Telemetry.incr t.c_events;
        record t ~kind:"event-raise" ~detail:(fun () -> Event.describe ev);
        t.send_event (Message.Event_msg ev)
      end);
  t

let impl t = t.impl
let name t = t.impl.name
let engine t = t.engine
let telemetry t = t.tel

let set_uplinks t ~send_reply ~send_event =
  t.send_reply <- send_reply;
  t.send_event <- send_event

let op_active t = t.active_ops > 0
let events_raised t = t.events_raised
let is_crashed t = t.crashed

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.incarnation <- { agent = t };
    t.active_ops <- 0;
    t.impl.set_op_active false;
    t.cpu_free_at.(0) <- Engine.now t.engine;
    Openmb_net.Flat_table.clear t.ops;
    Openmb_net.Flat_table.clear t.applied_seq;
    Openmb_net.Flat_table.clear t.op_spans;
    t.impl.on_crash ();
    record t ~kind:"crash" ~detail:(fun () -> "")
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.cpu_free_at.(0) <- Engine.now t.engine;
    record t ~kind:"restart" ~detail:(fun () -> "")
  end

let send_reply_raw t op reply = t.send_reply (Message.Reply { op; reply })

let begin_op_span t op tid req =
  match t.tel with
  | None -> ()
  | Some tel ->
    let span =
      Telemetry.span_begin tel ~now:(Engine.now t.engine) ~actor:t.impl.name
        ~name:("mb." ^ Message.request_name req) ~op:tid ~a0:op ()
    in
    ft_replace t.op_spans op span

(* Everything but a mid-stream chunk finishes the op on the agent side. *)
let reply_is_terminal = function Message.State_chunk _ -> false | _ -> true

let end_op_span t op =
  match ft_find t.op_spans op with
  | None -> ()
  | Some span ->
    ft_remove t.op_spans op;
    (match t.tel with
    | Some tel -> Telemetry.span_end tel ~now:(Engine.now t.engine) span
    | None -> ())

(* Record [reply] in the op's replay cache and send [msg], which carries
   it. *)
let send_reply t op reply msg =
  let prev = match ft_find t.ops op with Some l -> l | None -> [] in
  ft_replace t.ops op (reply :: prev);
  t.send_reply msg;
  if reply_is_terminal reply then end_op_span t op

(* Charge [cost] of serial control-thread CPU; the step runs at
   [cpu_free_at.(0)].  The MB keeps processing packets meanwhile (its
   data path is separate); the impl is told an op is active so it can
   apply the 2% slowdown. *)
let charge t cost =
  let now = Engine.now t.engine and free = t.cpu_free_at.(0) in
  let start = if now > free then now else free in
  t.cpu_free_at.(0) <- Time.(start + cost);
  t.active_ops <- t.active_ops + 1;
  if t.active_ops = 1 then t.impl.set_op_active true

let step_done t =
  t.active_ops <- t.active_ops - 1;
  if t.active_ops = 0 then t.impl.set_op_active false

(* A step's engine event carries its incarnation and its own argument
   ([call2_at]), so scheduling one builds no closure.  A crash between
   scheduling and execution abandons the step: the agent has moved on
   to a new incarnation. *)
let run inc k =
  let t = inc.agent in
  if t.incarnation == inc then begin
    k ();
    step_done t
  end

let send inc msg =
  let t = inc.agent in
  if t.incarnation == inc then begin
    (match msg with
    | Message.Reply { op; reply } -> send_reply t op reply msg
    | Message.Event_msg _ -> invalid_arg "Mb_agent.send: events leave through send_event");
    step_done t
  end

(* Charge [cost], then run [k]. *)
let exec t cost k =
  charge t cost;
  Engine.call2_at t.engine t.cpu_free_at.(0) run t.incarnation k

(* Charge [cost], then send the reply [msg]: a streamed chunk is
   scheduled as its message, with no continuation built for it. *)
let exec_send t cost msg =
  charge t cost;
  Engine.call2_at t.engine t.cpu_free_at.(0) send t.incarnation msg

let chunk_serialize_cost (cost : Southbound.cost_model) chunk =
  Time.(
    cost.serialize_per_chunk
    + seconds
        (to_seconds cost.serialize_per_byte *. float_of_int (Chunk.size_bytes chunk)))

let chunk_deserialize_cost (cost : Southbound.cost_model) chunk =
  Time.(
    cost.deserialize_per_chunk
    + seconds
        (to_seconds cost.deserialize_per_byte *. float_of_int (Chunk.size_bytes chunk)))

(* A put batch's deserialization: the sum of its chunks' costs, each
   observed.  A loop over local refs, which stay unboxed: a float passed
   from call to call would be boxed at each chunk. *)
let batch_cost t chunks =
  let sum = ref Time.zero and rest = ref chunks in
  while !rest != [] do
    match !rest with
    | [] -> ()
    | c :: tl ->
      let dc = chunk_deserialize_cost t.impl.cost c in
      Telemetry.observe t.h_apply (Time.to_seconds dc);
      sum := Time.(!sum + dc);
      rest := tl
  done;
  !sum

let scan_cost t =
  Time.seconds
    (Time.to_seconds t.impl.cost.scan_per_entry *. float_of_int (t.impl.table_entries ()))

let config_op_cost = Time.us 200.0

let reply t op r = send_reply t op r (Message.Reply { op; reply = r })

let reply_result t op = function
  | Ok () -> reply t op Message.Ack
  | Error e -> reply t op (Message.Op_error e)

(* Execute a streaming get: linear scan, then serialize and send each
   matching chunk in turn, then the end-of-state marker carrying the
   chunk count.  [what] names the range for the timeline, built only
   on one. *)
let handle_get t op ~what (fetch : unit -> (Chunk.t list, Errors.t) result) =
  record t ~kind:"get-start" ~detail:what;
  exec t (scan_cost t) (fun () ->
      match fetch () with
      | Error e -> reply t op (Message.Op_error e)
      | Ok chunks ->
        let count = List.length chunks in
        List.iter
          (fun chunk ->
            let cost = chunk_serialize_cost t.impl.cost chunk in
            Telemetry.observe t.h_serialize (Time.to_seconds cost);
            exec_send t cost (Message.Reply { op; reply = Message.State_chunk chunk }))
          chunks;
        exec t Time.zero (fun () ->
            record t ~kind:"get-end"
              ~detail:(fun () -> Printf.sprintf "%s count=%d" (what ()) count);
            reply t op (Message.End_of_state { count })))

(* Shared-state gets return zero or one chunk and skip the scan. *)
let handle_get_shared t op ~what (fetch : unit -> (Chunk.t option, Errors.t) result) =
  record t ~kind:"get-start" ~detail:(fun () -> what);
  exec t Time.zero (fun () ->
      match fetch () with
      | Error e -> reply t op (Message.Op_error e)
      | Ok None ->
        record t ~kind:"get-end" ~detail:(fun () -> what ^ " count=0");
        reply t op (Message.End_of_state { count = 0 })
      | Ok (Some chunk) ->
        let cost = chunk_serialize_cost t.impl.cost chunk in
        Telemetry.observe t.h_serialize (Time.to_seconds cost);
        exec t cost (fun () ->
            reply t op (Message.State_chunk chunk);
            record t ~kind:"get-end" ~detail:(fun () -> what ^ " count=1");
            reply t op (Message.End_of_state { count = 1 })))

let handle_del t op (remove : unit -> (int, Errors.t) result) =
  exec t (scan_cost t) (fun () ->
      match remove () with
      | Ok n ->
        record t ~kind:"del" ~detail:(fun () -> Printf.sprintf "removed=%d" n);
        reply t op Message.Ack
      | Error e -> reply t op (Message.Op_error e))

let seq_of_request = function
  | Message.Put_batch { seq; _ } -> Some seq
  | Message.Get_config _ | Message.Set_config _ | Message.Del_config _
  | Message.Get_support_perflow _ | Message.Del_support_perflow _
  | Message.Get_support_shared | Message.Get_report_perflow _
  | Message.Del_report_perflow _ | Message.Get_report_shared | Message.Get_stats _
  | Message.Enable_events _ | Message.Disable_events _ | Message.Reprocess_packet _
  | Message.Abort_perflow _ ->
    None

let execute t op req =
  let i = t.impl in
  match req with
  | Message.Get_config path ->
    exec t config_op_cost (fun () ->
        match i.get_config path with
        | Ok entries -> reply t op (Message.Config_values entries)
        | Error e -> reply t op (Message.Op_error e))
  | Message.Set_config (path, values) ->
    exec t config_op_cost (fun () -> reply_result t op (i.set_config path values))
  | Message.Del_config path ->
    exec t config_op_cost (fun () -> reply_result t op (i.del_config path))
  | Message.Get_support_perflow hfl ->
    handle_get t op
      ~what:(fun () -> "support " ^ Openmb_net.Hfl.to_string hfl)
      (fun () -> i.get_support_perflow hfl)
  | Message.Del_support_perflow hfl ->
    handle_del t op (fun () -> i.del_support_perflow hfl)
  | Message.Get_support_shared ->
    handle_get_shared t op ~what:"support-shared" i.get_support_shared
  | Message.Get_report_perflow hfl ->
    handle_get t op
      ~what:(fun () -> "report " ^ Openmb_net.Hfl.to_string hfl)
      (fun () -> i.get_report_perflow hfl)
  | Message.Del_report_perflow hfl ->
    handle_del t op (fun () -> i.del_report_perflow hfl)
  | Message.Get_report_shared ->
    handle_get_shared t op ~what:"report-shared" i.get_report_shared
  | Message.Get_stats hfl ->
    exec t config_op_cost (fun () -> reply t op (Message.Stats_reply (i.stats hfl)))
  | Message.Enable_events { codes; key } ->
    Event.Filter.enable t.filter ~codes ~key;
    reply t op Message.Ack
  | Message.Disable_events { codes } ->
    Event.Filter.disable t.filter ~codes;
    reply t op Message.Ack
  | Message.Put_batch { seq; chunks } ->
    (* Deserialization cost is the sum over the batch — one per-role
       put per chunk — but the control-thread round trip, the reply and
       the controller-side ack processing are paid once. *)
    let cost = batch_cost t chunks in
    exec t cost (fun () ->
        let count = List.length chunks in
        let errors = ref [] in
        List.iteri
          (fun idx c ->
            match Southbound.put_chunk i c with
            | Ok () -> ()
            | Error e -> errors := (idx, e) :: !errors)
          chunks;
        let errors = List.rev !errors in
        record t ~kind:"put-batch"
          ~detail:(fun () -> Printf.sprintf "n=%d errors=%d" count (List.length errors));
        let r = Message.Batch_ack { seq; count; errors } in
        ft_replace t.applied_seq seq r;
        reply t op r)
  | Message.Abort_perflow hfl ->
    exec t config_op_cost (fun () ->
        record t ~kind:"abort-perflow" ~detail:(fun () -> Openmb_net.Hfl.to_string hfl);
        i.abort_perflow hfl;
        reply t op Message.Ack)
  | Message.Reprocess_packet { key; packet } ->
    (* Re-processing updates state but performs no external
       side-effects (§4.2.1).  It rides the MB's packet path, not the
       control thread, so no control CPU is charged here; the ack lets
       the controller's retry machinery know the event landed. *)
    record t ~kind:"event-proc"
      ~detail:
        (fun () -> Printf.sprintf "%s %s" (Openmb_net.Hfl.to_string key)
           (Openmb_net.Packet.flow_label packet));
    i.process_packet packet ~side_effects:false;
    reply t op Message.Ack

let handle_request t { Message.op; tid; req } =
  if t.crashed then
    record t ~kind:"drop" ~detail:(fun () -> "crashed: " ^ Message.describe_request req)
  else if op asr 40 < t.ctrl_epoch then
    (* Fenced-out straggler from a deposed leader (see [ctrl_epoch]);
       its issuer is already silenced, so no reply is owed either. *)
    record t ~kind:"drop"
      ~detail:(fun () -> Printf.sprintf "stale epoch op=%d: %s" op (Message.describe_request req))
  else begin
    if op asr 40 > t.ctrl_epoch then t.ctrl_epoch <- op asr 40;
    let seq_hit =
      match seq_of_request req with
      | Some seq -> (
        match ft_find t.applied_seq seq with
        | Some r -> Some (seq, r)
        | None -> None)
      | None -> None
    in
    match seq_hit with
    | Some (seq, r) ->
      (* Already-applied mutation (retry or duplicated delivery):
         replay the recorded outcome under the incoming op id without
         touching state. *)
      Telemetry.incr t.c_dedup;
      record t ~kind:"dedup" ~detail:(fun () -> Printf.sprintf "seq=%d" seq);
      exec t Time.zero (fun () -> send_reply_raw t op r)
    | None -> (
      (* One probe decides all three op-id cases: unseen (entry absent),
         in flight with nothing sent yet (empty list), or already
         replied (replay). *)
      match ft_find t.ops op with
      | Some (_ :: _ as replies) ->
        Telemetry.incr t.c_dedup;
        record t ~kind:"dedup" ~detail:(fun () -> Printf.sprintf "op=%d" op);
        exec t Time.zero (fun () -> List.iter (send_reply_raw t op) (List.rev replies))
      | Some [] -> record t ~kind:"dedup-drop" ~detail:(fun () -> Printf.sprintf "op=%d" op)
      | None ->
        ft_replace t.ops op [];
        begin_op_span t op tid req;
        execute t op req)
  end
