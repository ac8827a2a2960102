open Openmb_wire
open Openmb_net

type op_id = int

type request =
  | Get_config of Config_tree.path
  | Set_config of Config_tree.path * Json.t list
  | Del_config of Config_tree.path
  | Get_support_perflow of Hfl.t
  | Put_support_perflow of { seq : int; chunk : Chunk.t }
  | Del_support_perflow of Hfl.t
  | Get_support_shared
  | Put_support_shared of { seq : int; chunk : Chunk.t }
  | Get_report_perflow of Hfl.t
  | Put_report_perflow of { seq : int; chunk : Chunk.t }
  | Del_report_perflow of Hfl.t
  | Get_report_shared
  | Put_report_shared of { seq : int; chunk : Chunk.t }
  | Get_stats of Hfl.t
  | Enable_events of { codes : string list; key : Hfl.t }
  | Disable_events of { codes : string list }
  | Reprocess_packet of { key : Hfl.t; packet : Packet.t }
  | Put_batch of { seq : int; chunks : Chunk.t list }
  | Abort_perflow of Hfl.t

type reply =
  | State_chunk of Chunk.t
  | End_of_state of { count : int }
  | Ack
  | Config_values of Config_tree.entry list
  | Stats_reply of Southbound.stats
  | Op_error of Errors.t
  | Batch_ack of { seq : int; count : int; errors : (int * Errors.t) list }

type to_mb = { op : op_id; tid : int; req : request }

type from_mb = Reply of { op : op_id; reply : reply } | Event_msg of Event.t

(* ------------------------------------------------------------------ *)
(* One description per message type                                   *)
(* ------------------------------------------------------------------ *)

let addr =
  Codec.(
    split ~json:(conv Addr.to_string Addr.of_string string)
      ~binary:(conv Addr.to_int Addr.of_int u32))

let proto = Codec.enum Packet.proto_to_string [ Packet.Tcp; Udp; Icmp ]

(* A header-field list is its text form in JSON and a list of tagged
   fields in binary. *)
let hfl =
  let open Codec in
  let prefix =
    record Addr.prefix |> field "base" addr Addr.prefix_base |> field "len" u8 Addr.prefix_len
  in
  let hfl_field =
    union "field" (fun Select.[ src; dst; sport; dport; proto_ ] -> Dispatch (function
      | Hfl.Src_ip p -> src p
      | Dst_ip p -> dst p
      | Src_port v -> sport v
      | Dst_port v -> dport v
      | Proto v -> proto_ v))
    |> case 0 "nw_src" prefix (fun p -> Hfl.Src_ip p)
    |> case 1 "nw_dst" prefix (fun p -> Hfl.Dst_ip p)
    |> case 2 "tp_src" (obj1 "value" u16) (fun v -> Hfl.Src_port v)
    |> case 3 "tp_dst" (obj1 "value" u16) (fun v -> Hfl.Dst_port v)
    |> case 4 "proto" (obj1 "value" proto) (fun v -> Hfl.Proto v)
    |> variant
  in
  split ~json:(conv Hfl.to_string Hfl.of_string string) ~binary:(list (obj hfl_field))

let path = Codec.(conv Config_tree.path_to_string Config_tree.path_of_string string)

let chunk =
  let open Codec in
  obj
    (record (fun mb_kind role partition key cipher ->
         { Chunk.mb_kind; role; partition; key; cipher })
    |> field "kind" string (fun c -> c.Chunk.mb_kind)
    |> field "role"
         (enum Taxonomy.role_to_string Taxonomy.[ Configuring; Supporting; Reporting ])
         (fun c -> c.Chunk.role)
    |> field "partition"
         (enum Taxonomy.partition_to_string Taxonomy.[ Per_flow; Shared ])
         (fun c -> c.Chunk.partition)
    |> field "key" hfl (fun c -> c.Chunk.key)
    |> field "cipher" string (fun c -> c.Chunk.cipher))

(* TCP flags: named booleans in JSON, one bit each in binary. *)
let flags =
  let open Codec in
  let bits (f : Packet.tcp_flags) =
    Bool.to_int f.syn lor (Bool.to_int f.ack lsl 1) lor (Bool.to_int f.fin lsl 2)
    lor (Bool.to_int f.rst lsl 3)
  in
  let of_bits b =
    { Packet.syn = b land 1 <> 0; ack = b land 2 <> 0; fin = b land 4 <> 0; rst = b land 8 <> 0 }
  in
  split
    ~json:
      (obj
         (record (fun syn ack fin rst -> { Packet.syn; ack; fin; rst })
         |> field "syn" bool (fun f -> f.Packet.syn)
         |> field "ack" bool (fun f -> f.Packet.ack)
         |> field "fin" bool (fun f -> f.Packet.fin)
         |> field "rst" bool (fun f -> f.Packet.rst)))
    ~binary:(conv bits of_bits u8)

let app =
  let open Codec in
  json_null Packet.Plain
    (obj
       (union "t" (fun Select.[ plain; req; resp ] -> Dispatch (function
         | Packet.Plain -> plain ()
         | Http_request { method_; host; uri } -> req (method_, host, uri)
         | Http_response { status } -> resp status))
       |> case 0 "plain" (record ()) (fun () -> Packet.Plain)
       |> case 1 "req" (obj3 "method" string "host" string "uri" string)
            (fun (method_, host, uri) -> Packet.Http_request { method_; host; uri })
       |> case 2 "resp" (obj1 "status" uvarint) (fun status -> Packet.Http_response { status })
       |> variant))

let payload =
  let open Codec in
  obj
    (record (fun tokens trailing -> Payload.of_tokens_trailing (Array.of_list tokens) ~trailing)
    |> field "tokens" (list varint) (fun p -> Array.to_list (Payload.tokens p))
    |> field "trailing" uvarint (fun p -> Payload.size_bytes p mod Payload.token_bytes))

let segment =
  let open Codec in
  obj
    (union "t" (fun Select.[ lit; shim ] -> Dispatch (function
       | Packet.Literal p -> lit p
       | Shim { offset; len } -> shim (offset, len)))
    |> case 0 "lit" (obj1 "payload" payload) (fun p -> Packet.Literal p)
    |> case 1 "shim" (obj2 "offset" uvarint "len" uvarint) (fun (offset, len) ->
           Packet.Shim { offset; len })
    |> variant)

let body =
  let open Codec in
  obj
    (union "t" (fun Select.[ raw; enc ] -> Dispatch (function
       | Packet.Raw p -> raw p
       | Encoded { cache_id; append_base; segments; orig } ->
         enc (cache_id, append_base, segments, orig)))
    |> case 0 "raw" (obj1 "payload" payload) (fun p -> Packet.Raw p)
    |> case 1 "enc"
         (record (fun c b s o -> (c, b, s, o))
         |> field "cache" varint (fun (c, _, _, _) -> c)
         |> field "base" varint (fun (_, b, _, _) -> b)
         |> field "segments" (list segment) (fun (_, _, s, _) -> s)
         |> field "orig" payload (fun (_, _, _, o) -> o))
         (fun (cache_id, append_base, segments, orig) ->
           Packet.Encoded { cache_id; append_base; segments; orig })
    |> variant)

let packet =
  let open Codec in
  obj
    (record (fun id ts src_ip dst_ip src_port dst_port proto flags app body ->
         { Packet.id; ts; src_ip; dst_ip; src_port; dst_port; proto; flags; app; body })
    |> field "id" uvarint (fun p -> p.Packet.id)
    |> field "ts" float (fun p -> p.Packet.ts)
    |> field "src_ip" addr (fun p -> p.Packet.src_ip)
    |> field "dst_ip" addr (fun p -> p.Packet.dst_ip)
    |> field "src_port" u16 (fun p -> p.Packet.src_port)
    |> field "dst_port" u16 (fun p -> p.Packet.dst_port)
    |> field "proto" proto (fun p -> p.Packet.proto)
    |> field "flags" flags (fun p -> p.Packet.flags)
    |> field "app" app (fun p -> p.Packet.app)
    |> field "body" body (fun p -> p.Packet.body))

let request_cases =
  let open Codec in
  let key c = obj1 "key" c in
  let put = obj2 "seq" uvarint "chunk" chunk in
  union "type"
    (fun
      Select.
        [
          get_config; set_config; del_config; get_sp; put_sp; del_sp; get_ss; put_ss; get_rp;
          put_rp; del_rp; get_rs; put_rs; get_stats; enable; disable; reprocess; put_batch; abort;
        ]
    -> Dispatch (function
    | Get_config p -> get_config p
    | Set_config (p, vs) -> set_config p vs
    | Del_config p -> del_config p
    | Get_support_perflow h -> get_sp h
    | Put_support_perflow { seq; chunk } -> put_sp seq chunk
    | Del_support_perflow h -> del_sp h
    | Get_support_shared -> get_ss ()
    | Put_support_shared { seq; chunk } -> put_ss seq chunk
    | Get_report_perflow h -> get_rp h
    | Put_report_perflow { seq; chunk } -> put_rp seq chunk
    | Del_report_perflow h -> del_rp h
    | Get_report_shared -> get_rs ()
    | Put_report_shared { seq; chunk } -> put_rs seq chunk
    | Get_stats h -> get_stats h
    | Enable_events { codes; key } -> enable codes key
    | Disable_events { codes } -> disable codes
    | Reprocess_packet { key; packet } -> reprocess key packet
    | Put_batch { seq; chunks } -> put_batch seq chunks
    | Abort_perflow h -> abort h))
  |> case 0 "getConfig" (key path) (fun p -> Get_config p)
  |> case2 1 "setConfig" (obj2 "key" path "values" (list json)) (fun p vs -> Set_config (p, vs))
  |> case 2 "delConfig" (key path) (fun p -> Del_config p)
  |> case 3 "getSupportPerflow" (key hfl) (fun h -> Get_support_perflow h)
  |> case2 4 "putSupportPerflow" put (fun seq chunk -> Put_support_perflow { seq; chunk })
  |> case 5 "delSupportPerflow" (key hfl) (fun h -> Del_support_perflow h)
  |> case 6 "getSupportShared" (record ()) (fun () -> Get_support_shared)
  |> case2 7 "putSupportShared" put (fun seq chunk -> Put_support_shared { seq; chunk })
  |> case 8 "getReportPerflow" (key hfl) (fun h -> Get_report_perflow h)
  |> case2 9 "putReportPerflow" put (fun seq chunk -> Put_report_perflow { seq; chunk })
  |> case 10 "delReportPerflow" (key hfl) (fun h -> Del_report_perflow h)
  |> case 11 "getReportShared" (record ()) (fun () -> Get_report_shared)
  |> case2 12 "putReportShared" put (fun seq chunk -> Put_report_shared { seq; chunk })
  |> case 13 "getStats" (key hfl) (fun h -> Get_stats h)
  |> case2 14 "enableEvents" (obj2 "codes" (list string) "key" hfl) (fun codes key ->
         Enable_events { codes; key })
  |> case 15 "disableEvents" (obj1 "codes" (list string)) (fun codes -> Disable_events { codes })
  |> case2 16 "reprocessPacket" (obj2 "key" hfl "packet" packet) (fun key packet ->
         Reprocess_packet { key; packet })
  |> case2 17 "putBatch" (obj2 "seq" uvarint "chunks" (list chunk)) (fun seq chunks ->
         Put_batch { seq; chunks })
  |> case 18 "abortPerflow" (key hfl) (fun h -> Abort_perflow h)

(* The trace id rides next to the request's tag: JSON omits it when 0,
   so untraced runs produce the pre-telemetry JSON byte-for-byte. *)
let to_mb =
  let open Codec in
  obj
    (record (fun op tid req -> { op; tid; req })
    |> field "op" uvarint (fun m -> m.op)
    |> splice_after_tag (obj1_or 0 "tid" uvarint) (fun m -> m.tid) (variant request_cases) (fun m ->
           m.req))

let error =
  let open Codec in
  let arg = obj1 "arg" string in
  obj
    (union "code"
       (fun Select.[ granularity; unknown_mb; unknown_key; illegal; bad_chunk; op_failed; timeout; aborted ]
       -> Dispatch (function
       | Errors.Granularity_too_fine -> granularity ()
       | Unknown_mb s -> unknown_mb s
       | Unknown_config_key s -> unknown_key s
       | Illegal_operation s -> illegal s
       | Bad_chunk s -> bad_chunk s
       | Op_failed s -> op_failed s
       | Timeout s -> timeout s
       | Move_aborted s -> aborted s))
    |> case 0 "granularity"
         (record (fun (_ : string) -> ()) |> field "arg" string (fun () -> ""))
         (fun () -> Errors.Granularity_too_fine)
    |> case 1 "unknown_mb" arg (fun s -> Errors.Unknown_mb s)
    |> case 2 "unknown_config_key" arg (fun s -> Errors.Unknown_config_key s)
    |> case 3 "illegal_operation" arg (fun s -> Errors.Illegal_operation s)
    |> case 4 "bad_chunk" arg (fun s -> Errors.Bad_chunk s)
    |> case 5 "op_failed" arg (fun s -> Errors.Op_failed s)
    |> case 6 "timeout" arg (fun s -> Errors.Timeout s)
    |> case 7 "move_aborted" arg (fun s -> Errors.Move_aborted s)
    |> variant)

let stats =
  let open Codec in
  obj
    (record (fun pf_sc pf_rc pf_sb pf_rb sh_sb sh_rb ->
         {
           Southbound.perflow_support_chunks = pf_sc;
           perflow_report_chunks = pf_rc;
           perflow_support_bytes = pf_sb;
           perflow_report_bytes = pf_rb;
           shared_support_bytes = sh_sb;
           shared_report_bytes = sh_rb;
         })
    |> field "pf_support_chunks" uvarint (fun s -> s.Southbound.perflow_support_chunks)
    |> field "pf_report_chunks" uvarint (fun s -> s.Southbound.perflow_report_chunks)
    |> field "pf_support_bytes" uvarint (fun s -> s.Southbound.perflow_support_bytes)
    |> field "pf_report_bytes" uvarint (fun s -> s.Southbound.perflow_report_bytes)
    |> field "sh_support_bytes" uvarint (fun s -> s.Southbound.shared_support_bytes)
    |> field "sh_report_bytes" uvarint (fun s -> s.Southbound.shared_report_bytes))

let entry =
  let open Codec in
  obj
    (record (fun path values -> { Config_tree.path; values })
    |> field "key" path (fun e -> e.Config_tree.path)
    |> field "values" (list json) (fun e -> e.Config_tree.values))

let reply_cases =
  let open Codec in
  union "type"
    (fun Select.[ state_chunk; end_of_state; ack; config_values; stats_reply; op_error; batch_ack ]
    -> Dispatch (function
    | State_chunk c -> state_chunk c
    | End_of_state { count } -> end_of_state count
    | Ack -> ack ()
    | Config_values es -> config_values es
    | Stats_reply s -> stats_reply s
    | Op_error e -> op_error e
    | Batch_ack { seq; count; errors } -> batch_ack (seq, count, errors)))
  |> case 0 "stateChunk" (obj1 "chunk" chunk) (fun c -> State_chunk c)
  |> case 1 "endOfState" (obj1 "count" uvarint) (fun count -> End_of_state { count })
  |> case 2 "ack" (record ()) (fun () -> Ack)
  |> case 3 "configValues" (obj1 "entries" (list entry)) (fun es -> Config_values es)
  |> case 4 "stats" (obj1 "stats" stats) (fun s -> Stats_reply s)
  |> case 5 "error" (obj1 "error" error) (fun e -> Op_error e)
  |> case 6 "batchAck"
       (obj3 "seq" uvarint "count" uvarint "errors" (list (obj (obj2 "i" uvarint "error" error))))
       (fun (seq, count, errors) -> Batch_ack { seq; count; errors })

let event =
  let open Codec in
  obj
    (union "t" (fun Select.[ reprocess; introspect ] -> Dispatch (function
       | Event.Reprocess { key; packet } -> reprocess (key, packet)
       | Introspect { code; key; info } -> introspect (code, key, info)))
    |> case 0 "reprocess" (obj2 "key" hfl "packet" packet) (fun (key, packet) ->
           Event.Reprocess { key; packet })
    |> case 1 "introspect" (obj3 "code" string "key" hfl "info" json) (fun (code, key, info) ->
           Event.Introspect { code; key; info })
    |> variant)

(* A reply's JSON tag is the reply's own name, next to its op id; an
   event is tagged "event" and nested. *)
let from_mb =
  let open Codec in
  obj
    (union "type" (fun Select.[ reply_; event_ ] -> Dispatch (function
       | Reply { op; reply } -> reply_ (op, reply)
       | Event_msg ev -> event_ ev))
    |> untagged 0
         (record (fun op r -> (op, r)) |> field "op" uvarint fst |> splice (variant reply_cases) snd)
         (fun (op, reply) -> Reply { op; reply })
    |> case 1 "event" (obj1 "event" event) (fun ev -> Event_msg ev)
    |> variant)

(* ------------------------------------------------------------------ *)
(* Wire strings                                                        *)
(* ------------------------------------------------------------------ *)

let request_to_wire ?(framing = Framing.Json) m = Codec.encode framing to_mb m
let request_of_wire s = Codec.decode to_mb s
let from_mb_to_wire ?(framing = Framing.Json) m = Codec.encode framing from_mb m
let from_mb_of_wire s = Codec.decode from_mb s

(* ------------------------------------------------------------------ *)
(* Charged sizes                                                       *)
(* ------------------------------------------------------------------ *)

(* Binary sizes are exact: the encoding plus the u32 length prefix of
   its stream frame.  JSON sizes are exact except for state- and
   packet-bearing messages, which are charged the prototype's
   calibrated estimate instead of their escaped text: a fixed envelope
   (op id, type tag, punctuation) plus the opaque body and its key.
   Events add their own framing to the envelope. *)
let frame_prefix = 4
let json_overhead = 48
let event_framing = 32

let chunk_charge (c : Chunk.t) =
  json_overhead + Chunk.size_bytes c + String.length (Hfl.to_string c.key)

let request_wire_bytes ?(framing = Framing.Json) m =
  match framing with
  | Framing.Binary -> frame_prefix + Codec.binary_size to_mb m
  | Framing.Json -> (
    match m.req with
    | Put_support_perflow { chunk = c; _ }
    | Put_support_shared { chunk = c; _ }
    | Put_report_perflow { chunk = c; _ }
    | Put_report_shared { chunk = c; _ } ->
      chunk_charge c
    | Put_batch { chunks; _ } ->
      (* One message envelope plus, per chunk, the chunk object's own
         punctuation — sized like a single put so batching N chunks
         saves exactly N-1 envelopes on the simulated channel. *)
      List.fold_left (fun acc c -> acc + chunk_charge c) json_overhead chunks
    | Reprocess_packet { key; packet } ->
      json_overhead + Packet.wire_bytes packet + String.length (Hfl.to_string key)
    | Get_config _ | Set_config _ | Del_config _ | Get_support_perflow _
    | Del_support_perflow _ | Get_support_shared | Get_report_perflow _
    | Del_report_perflow _ | Get_report_shared | Get_stats _ | Enable_events _
    | Disable_events _ | Abort_perflow _ ->
      String.length (request_to_wire m))

let reply_wire_bytes ?(framing = Framing.Json) m =
  match framing with
  | Framing.Binary -> frame_prefix + Codec.binary_size from_mb m
  | Framing.Json -> (
    match m with
    | Reply { reply = State_chunk c; _ } -> chunk_charge c
    | Event_msg (Event.Reprocess { packet; _ }) ->
      json_overhead + event_framing + Packet.wire_bytes packet
    | Event_msg (Event.Introspect { code; key; info }) ->
      json_overhead + event_framing + String.length code
      + String.length (Hfl.to_string key)
      + Json.wire_size info
    | Reply
        {
          reply =
            End_of_state _ | Ack | Config_values _ | Stats_reply _ | Op_error _ | Batch_ack _;
          _;
        } ->
      String.length (from_mb_to_wire m))

(* ------------------------------------------------------------------ *)
(* Descriptions                                                        *)
(* ------------------------------------------------------------------ *)

let request_name = Codec.case_name request_cases
let reply_name = Codec.case_name reply_cases
let labelled name detail = if detail = "" then name else name ^ " " ^ detail

let describe_request req =
  labelled (request_name req)
    (match req with
    | Get_config p | Set_config (p, _) | Del_config p -> Config_tree.path_to_string p
    | Get_support_perflow h | Del_support_perflow h | Get_report_perflow h
    | Del_report_perflow h | Get_stats h | Abort_perflow h ->
      Hfl.to_string h
    | Put_support_perflow { chunk = c; _ }
    | Put_support_shared { chunk = c; _ }
    | Put_report_perflow { chunk = c; _ }
    | Put_report_shared { chunk = c; _ } ->
      Chunk.describe c
    | Get_support_shared | Get_report_shared -> ""
    | Enable_events { codes; _ } | Disable_events { codes } -> String.concat "," codes
    | Reprocess_packet { packet; _ } -> Packet.flow_label packet
    | Put_batch { chunks; _ } ->
      Printf.sprintf "n=%d (%dB)" (List.length chunks)
        (List.fold_left (fun acc c -> acc + Chunk.size_bytes c) 0 chunks))

let describe_reply reply =
  labelled (reply_name reply)
    (match reply with
    | State_chunk c -> Chunk.describe c
    | End_of_state { count } -> Printf.sprintf "count=%d" count
    | Ack | Stats_reply _ -> ""
    | Config_values es -> Printf.sprintf "n=%d" (List.length es)
    | Op_error e -> Errors.to_string e
    | Batch_ack { seq; count; errors } ->
      Printf.sprintf "seq=%d count=%d errors=%d" seq count (List.length errors))
