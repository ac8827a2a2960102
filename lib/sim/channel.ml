type 'a t = {
  engine : Engine.t;
  latency : Time.t;
  bytes_per_sec : float;
  deliver : 'a -> unit;
  (* Delivery scheduler: [None] is the local engine's closure-free
     [call_at]; [Some via] reroutes execution (the cross-shard path). *)
  via : (at:Time.t -> ('a -> unit) -> 'a -> unit) option;
  faults : Faults.link option;
  (* When the pipe is next free: a one-element float array, as the
     engine's clock is, so setting it boxes nothing. *)
  free_at : float array;
  mutable bytes_sent : int;
  mutable messages_sent : int;
  (* Registry-wide delivery counters across every channel sharing the
     telemetry instance; null sinks keep the send path branch-free when
     the channel is uninstrumented. *)
  tel_msgs : Telemetry.counter;
  tel_bytes : Telemetry.counter;
}

let create engine ?faults ?telemetry ?via ~latency ~bytes_per_sec ~deliver () =
  if bytes_per_sec <= 0.0 then invalid_arg "Channel.create: bytes_per_sec must be positive";
  let tel_msgs, tel_bytes =
    match telemetry with
    | Some tel -> (Telemetry.counter tel "channel.msgs", Telemetry.counter tel "channel.bytes")
    | None -> (Telemetry.null_counter, Telemetry.null_counter)
  in
  {
    engine;
    latency;
    bytes_per_sec;
    deliver;
    via;
    faults;
    free_at = [| Time.zero |];
    bytes_sent = 0;
    messages_sent = 0;
    tel_msgs;
    tel_bytes;
  }

(* Occupy the pipe for [bytes] and return the resulting arrival time —
   the timing/counter half of [send], exposed so the batch packet path
   (which delivers a whole [Packet_batch] as one message) shares the
   same serialization clock as scalar sends on the same channel. *)
let reserve ch ~bytes =
  let now = Engine.now ch.engine and free = ch.free_at.(0) in
  let start = if now > free then now else free in
  let transfer = Time.seconds (float_of_int bytes /. ch.bytes_per_sec) in
  let done_sending = Time.(start + transfer) in
  ch.free_at.(0) <- done_sending;
  ch.bytes_sent <- ch.bytes_sent + bytes;
  ch.messages_sent <- ch.messages_sent + 1;
  Telemetry.incr ch.tel_msgs;
  Telemetry.add ch.tel_bytes bytes;
  Time.(done_sending + ch.latency)

let send ch ~bytes msg =
  let arrival = reserve ch ~bytes in
  (* The common fault-free local path stays closure-free: the delivery
     callback and message ride in a pooled event cell, so the
     per-message cost is allocation-free.  [via] reroutes the same
     (at, deliver, msg) triple onto another shard's engine. *)
  match ch.faults with
  | None -> (
    match ch.via with
    | None -> Engine.call_at ch.engine arrival ch.deliver msg
    | Some via -> via ~at:arrival ch.deliver msg)
  | Some link ->
    (* Fault decisions are made at send time; extra delays stack on top
       of the normal serialization + propagation arrival, so a reorder
       or spike lets messages queued behind this one overtake it. *)
    List.iter
      (fun extra ->
        let at = Time.(arrival + extra) in
        match ch.via with
        | None -> Engine.call_at ch.engine at ch.deliver msg
        | Some via -> via ~at ch.deliver msg)
      (Faults.deliveries link ~now:(Engine.now ch.engine) ~bytes)

let bytes_sent ch = ch.bytes_sent
let messages_sent ch = ch.messages_sent
