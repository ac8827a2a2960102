(** The OpenMB wire protocol.

    The controller and middleboxes exchange JSON messages to invoke
    operations, send and receive state, and raise and forward events
    (§7); a compact binary framing can be negotiated per channel
    instead.  Each message type is described once, as an
    {!Openmb_wire.Codec} description of its fields and of each
    constructor's JSON name and binary tag, and both framings' encoders
    and decoders and the exact binary size derive from it.  Decoding
    raises only [Openmb_wire.Binary.Decode_error] on malformed input.

    Transfer costs on the simulated channels come from
    {!request_wire_bytes}/{!reply_wire_bytes}.  Binary sizes are exact.
    JSON sizes are exact except for state- and packet-bearing messages
    ([putBatch], [stateChunk], re-process messages and events),
    which are charged the prototype's calibrated estimate: a 48-byte
    envelope plus the opaque body and its key, and 32 bytes more for
    an event.  That estimate is the cost model behind Figs 8 and 10;
    exact JSON escapes cipher bytes and runs about 1.5x larger. *)

type op_id = int
(** Correlates replies with requests within one MB connection. *)

type request =
  | Get_config of Config_tree.path
  | Set_config of Config_tree.path * Openmb_wire.Json.t list
  | Del_config of Config_tree.path
  | Get_support_perflow of Openmb_net.Hfl.t
  | Del_support_perflow of Openmb_net.Hfl.t
  | Get_support_shared
  | Get_report_perflow of Openmb_net.Hfl.t
  | Del_report_perflow of Openmb_net.Hfl.t
  | Get_report_shared
  | Get_stats of Openmb_net.Hfl.t
  | Enable_events of { codes : string list; key : Openmb_net.Hfl.t }
  | Disable_events of { codes : string list }
  | Reprocess_packet of { key : Openmb_net.Hfl.t; packet : Openmb_net.Packet.t }
      (** Controller forwarding a re-process event to the destination
          MB. *)
  | Put_batch of { seq : int; chunks : Chunk.t list }
      (** State chunks installed with one message and one coalesced
          {!Batch_ack}, and the protocol's only put: the controller's
          transfer pipeline batches streamed chunks instead of paying
          one put/ack round trip each, and a single chunk travels as a
          batch of one.  Chunks self-describe their role and partition,
          so a batch may mix supporting and reporting state; the agent
          installs each through the per-role put they select
          ({!Southbound.put_chunk}). *)
  | Abort_perflow of Openmb_net.Hfl.t
      (** Roll back an in-progress per-flow export: un-mark the
          exported-but-not-deleted entries matching the key so a later
          transfer can export them again.  Sent by the controller when
          a transactional move aborts. *)

(** {!Put_batch} carries a connection-scoped sequence number [seq];
    the agent applies each sequence number at most once and replays the
    original reply for duplicates, making retries and duplicated
    deliveries of a put idempotent. *)

type reply =
  | State_chunk of Chunk.t  (** One streamed piece of state during a get. *)
  | End_of_state of { count : int }  (** Terminates a get stream. *)
  | Ack  (** Successful put/del/set/enable/disable/reprocess. *)
  | Config_values of Config_tree.entry list
  | Stats_reply of Southbound.stats
  | Op_error of Errors.t
  | Batch_ack of { seq : int; count : int; errors : (int * Errors.t) list }
      (** Reply to {!Put_batch}: [count] chunks were processed in
          order; [errors] lists the zero-based indices that failed and
          why.  An empty [errors] acknowledges every chunk.  [seq]
          echoes the batch's sequence number. *)

type to_mb = { op : op_id; tid : int; req : request }
(** Controller → MB.  [tid] is the telemetry trace (causality) id: the
    controller stamps each southbound request with the id of the span
    that issued it, and the agent tags its own spans with the same id,
    linking both sides of an operation in an exported trace.  [0] means
    "untraced"; the JSON encoding omits the field in that case, and the
    binary encoding carries it as one varint after [op]. *)

type from_mb =
  | Reply of { op : op_id; reply : reply }
  | Event_msg of Event.t  (** MB-initiated, not tied to an op. *)

(** {1 Field descriptions shared with middlebox state} *)

val addr : Openmb_net.Addr.t Openmb_wire.Codec.t  (** Dotted-quad text in JSON. *)

val proto : Openmb_net.Packet.proto Openmb_wire.Codec.t  (** ["tcp"], ["udp"], ["icmp"]. *)

val hfl : Openmb_net.Hfl.t Openmb_wire.Codec.t  (** {!Openmb_net.Hfl.to_string} in JSON. *)

val to_mb : to_mb Openmb_wire.Codec.t
val from_mb : from_mb Openmb_wire.Codec.t
(** The two envelopes, which the wire strings below encode and decode. *)

(** {1 Wire strings}

    A binary body starts with a [0x42] tag byte and a JSON text with
    ['{'], so the decoders accept either framing and a channel that
    never negotiated binary framing keeps working. *)

val request_to_wire : ?framing:Openmb_wire.Framing.t -> to_mb -> string
(** Encode under the given framing (default [Json]). *)

val request_of_wire : string -> to_mb
val from_mb_to_wire : ?framing:Openmb_wire.Framing.t -> from_mb -> string
val from_mb_of_wire : string -> from_mb

val request_wire_bytes : ?framing:Openmb_wire.Framing.t -> to_mb -> int
(** Bytes the simulated channel charges for the message.  Binary: the
    exact encoding plus its frame's 4-byte length prefix.  JSON: the
    exact text's length, counted from the description without encoding
    it, except the calibrated estimate for state- and packet-bearing
    messages described above.  Sizing a move's or an event's messages
    allocates nothing. *)

val reply_wire_bytes : ?framing:Openmb_wire.Framing.t -> from_mb -> int
(** As {!request_wire_bytes}, for replies and events. *)

val request_name : request -> string
(** The constructor's wire name (["getSupportPerflow"], …) as a static
    literal — suitable as a span name. *)

val describe_request : request -> string
(** Short label like ["getSupportPerflow nw_src=1.1.1.0/24"]. *)

val describe_reply : reply -> string
