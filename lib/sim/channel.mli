(** Simulated point-to-point message channel.

    Models the UNIX-socket connections between middleboxes and the MB
    controller: messages are delivered in FIFO order after a fixed
    propagation latency plus a size-proportional serialization delay.
    The channel is half-duplex per direction — a large state transfer
    occupying the pipe delays messages queued behind it, which is the
    effect the paper's controller profile (§8.3) attributes to socket
    reads. *)

type 'a t
(** A unidirectional channel carrying ['a] messages. *)

val create :
  Engine.t ->
  ?faults:Faults.link ->
  ?telemetry:Telemetry.t ->
  ?via:(at:Time.t -> ('a -> unit) -> 'a -> unit) ->
  latency:Time.t ->
  bytes_per_sec:float ->
  deliver:('a -> unit) ->
  unit ->
  'a t
(** [create engine ~latency ~bytes_per_sec ~deliver ()] is a channel
    that invokes [deliver msg] on the receiving side once the message
    has crossed.  [bytes_per_sec] must be positive.  With [?faults],
    every send consults the fault stream, which may drop, duplicate or
    further delay the delivery ({!Faults.deliveries}); counters
    ({!bytes_sent}, {!messages_sent}) still count every send.  With
    [?telemetry], sends additionally feed the shared ["channel.msgs"]
    and ["channel.bytes"] registry counters.

    [via] overrides how deliveries are scheduled: instead of the local
    [Engine.call_at engine at deliver msg], the channel hands
    [(at, deliver, msg)] to [via].  This is the cross-shard hook — pass
    a {!Shard.route}'s field to make the delivery execute on the
    receiving component's shard ([Shard.post] clamps the arrival to the
    next epoch barrier when the destination is remote).  The channel's
    own clock, pipe-busy bookkeeping and fault decisions stay on the
    sending side either way. *)

val send : 'a t -> bytes:int -> 'a -> unit
(** [send ch ~bytes msg] enqueues [msg], whose wire representation
    occupies [bytes] bytes, for delivery. *)

val reserve : _ t -> bytes:int -> Time.t
(** [reserve ch ~bytes] occupies the pipe for one [bytes]-sized message
    and returns the time it would arrive, without scheduling a
    delivery.  Counters ({!bytes_sent}, {!messages_sent}, telemetry)
    count the reservation as one send.  This is the batch packet
    path's hook: a whole packet batch crosses as a single message whose
    serialization shares the channel's clock with scalar sends, while
    the caller schedules the delivery (and applies per-member fault
    decisions) itself. *)

val bytes_sent : 'a t -> int
(** Total bytes ever enqueued on this channel. *)

val messages_sent : 'a t -> int
(** Total messages ever enqueued on this channel. *)
