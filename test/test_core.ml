(* Tests for the OpenMB framework core: taxonomy, configuration trees,
   chunks, the wire protocol, events, and full controller protocol runs
   against dummy middleboxes. *)

open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

let errt = Alcotest.testable Errors.pp Errors.equal

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let test_taxonomy_table1 () =
  Alcotest.(check bool) "config read-only" true
    (Taxonomy.mb_access Taxonomy.Configuring = Taxonomy.Read_only);
  Alcotest.(check bool) "supporting rw" true
    (Taxonomy.mb_access Taxonomy.Supporting = Taxonomy.Read_write);
  Alcotest.(check bool) "reporting wo" true
    (Taxonomy.mb_access Taxonomy.Reporting = Taxonomy.Write_only);
  Alcotest.(check bool) "controller writes config" true
    (Taxonomy.controller_may_write Taxonomy.Configuring);
  Alcotest.(check bool) "controller can't write supporting" false
    (Taxonomy.controller_may_write Taxonomy.Supporting)

let test_taxonomy_operations () =
  (* Move: per-flow supporting/reporting only. *)
  Alcotest.(check bool) "move pf supporting" true
    (Taxonomy.may_move Taxonomy.Supporting Taxonomy.Per_flow);
  Alcotest.(check bool) "move shared supporting" false
    (Taxonomy.may_move Taxonomy.Supporting Taxonomy.Shared);
  (* Clone: never for reporting (double counting). *)
  Alcotest.(check bool) "clone shared supporting" true
    (Taxonomy.may_clone Taxonomy.Supporting Taxonomy.Shared);
  Alcotest.(check bool) "clone reporting forbidden" false
    (Taxonomy.may_clone Taxonomy.Reporting Taxonomy.Shared);
  Alcotest.(check bool) "clone config" true
    (Taxonomy.may_clone Taxonomy.Configuring Taxonomy.Shared);
  (* Merge: shared state only. *)
  Alcotest.(check bool) "merge shared reporting" true
    (Taxonomy.may_merge Taxonomy.Reporting Taxonomy.Shared);
  Alcotest.(check bool) "merge per-flow forbidden" false
    (Taxonomy.may_merge Taxonomy.Supporting Taxonomy.Per_flow)

let test_taxonomy_strings () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "role roundtrip" true
        (Taxonomy.role_of_string (Taxonomy.role_to_string r) = r))
    [ Taxonomy.Configuring; Taxonomy.Supporting; Taxonomy.Reporting ];
  List.iter
    (fun p ->
      Alcotest.(check bool) "partition roundtrip" true
        (Taxonomy.partition_of_string (Taxonomy.partition_to_string p) = p))
    [ Taxonomy.Per_flow; Taxonomy.Shared ]

(* ------------------------------------------------------------------ *)
(* Config tree                                                         *)
(* ------------------------------------------------------------------ *)

let test_config_set_get () =
  let t = Config_tree.create () in
  Config_tree.set t [ "rules"; "http" ] [ Json.String "allow" ];
  Config_tree.set t [ "rules"; "ssh" ] [ Json.String "deny" ];
  Config_tree.set t [ "cache_size" ] [ Json.Int 500 ];
  (match Config_tree.get t [ "rules"; "http" ] with
  | [ { values = [ Json.String "allow" ]; _ } ] -> ()
  | _ -> Alcotest.fail "leaf lookup");
  Alcotest.(check int) "subtree" 2 (List.length (Config_tree.get t [ "rules" ]));
  Alcotest.(check int) "wildcard root" 3 (List.length (Config_tree.get t [ "*" ]));
  Alcotest.(check int) "size" 3 (Config_tree.size t)

let test_config_del () =
  let t = Config_tree.create () in
  Config_tree.set t [ "a"; "b" ] [ Json.Int 1 ];
  Config_tree.set t [ "a"; "c" ] [ Json.Int 2 ];
  Alcotest.(check bool) "del leaf" true (Config_tree.del t [ "a"; "b" ]);
  Alcotest.(check bool) "gone" false (Config_tree.mem t [ "a"; "b" ]);
  Alcotest.(check bool) "sibling intact" true (Config_tree.mem t [ "a"; "c" ]);
  Alcotest.(check bool) "del subtree" true (Config_tree.del t [ "a" ]);
  Alcotest.(check int) "empty" 0 (Config_tree.size t);
  Alcotest.(check bool) "del absent" false (Config_tree.del t [ "zz" ])

let test_config_replace_all () =
  let t = Config_tree.create () in
  Config_tree.set t [ "old" ] [ Json.Int 1 ];
  let src = Config_tree.create () in
  Config_tree.set src [ "x"; "y" ] [ Json.Int 9 ];
  Config_tree.replace_all t (Config_tree.entries src);
  Alcotest.(check bool) "old gone" false (Config_tree.mem t [ "old" ]);
  Alcotest.(check int) "copied" 1 (List.length (Config_tree.get t [ "x"; "y" ]))

let test_config_value_vs_subtree_conflict () =
  let t = Config_tree.create () in
  Config_tree.set t [ "a" ] [ Json.Int 1 ];
  Alcotest.(check bool) "cannot nest under a value" true
    (match Config_tree.set t [ "a"; "b" ] [ Json.Int 2 ] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_config_path_strings () =
  Alcotest.(check string) "join" "a.b.c" (Config_tree.path_to_string [ "a"; "b"; "c" ]);
  Alcotest.(check string) "root" "*" (Config_tree.path_to_string []);
  Alcotest.(check (list string)) "parse" [ "a"; "b" ] (Config_tree.path_of_string "a.b");
  Alcotest.(check (list string)) "parse root" [] (Config_tree.path_of_string "*")

(* ------------------------------------------------------------------ *)
(* Chunks                                                              *)
(* ------------------------------------------------------------------ *)

let test_chunk_seal_unseal () =
  let key = Hfl.of_string "nw_src=10.0.0.1/32" in
  let c =
    Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow ~key
      ~plain:"secret state"
  in
  (match Chunk.unseal ~mb_kind:"bro" c with
  | Ok s -> Alcotest.(check string) "roundtrip" "secret state" s
  | Error e -> Alcotest.failf "unseal failed: %s" (Errors.to_string e));
  (match Chunk.unseal ~mb_kind:"prads" c with
  | Error (Errors.Bad_chunk _) -> ()
  | Ok _ -> Alcotest.fail "wrong kind must not unseal"
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e))

let test_chunk_opacity () =
  (* The ciphertext must not contain the plaintext. *)
  let plain = "this-is-visible-state-data" in
  let c =
    Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
      ~key:Hfl.any ~plain
  in
  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "ciphertext hides plaintext" false (contains ~sub:"visible" c.cipher)

let test_chunk_compression () =
  let plain = String.concat "" (List.init 100 (fun _ -> "repetitive-state ")) in
  Chunk.compression_enabled := false;
  let raw =
    Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
      ~key:Hfl.any ~plain
  in
  Chunk.compression_enabled := true;
  let small =
    Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Shared
      ~key:Hfl.any ~plain
  in
  Chunk.compression_enabled := false;
  Alcotest.(check bool) "compressed smaller" true
    (Chunk.size_bytes small < Chunk.size_bytes raw);
  (match Chunk.unseal ~mb_kind:"bro" small with
  | Ok s -> Alcotest.(check string) "compressed roundtrip" plain s
  | Error e -> Alcotest.failf "unseal failed: %s" (Errors.to_string e))

let prop_chunk_roundtrip =
  QCheck2.Test.make ~name:"chunk seal/unseal round-trip" ~count:200
    QCheck2.Gen.(pair (string_size (int_range 0 500)) (string_size (int_range 1 10)))
    (fun (plain, kind) ->
      let c =
        Chunk.seal ~mb_kind:kind ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
          ~key:Hfl.any ~plain
      in
      Chunk.unseal ~mb_kind:kind c = Ok plain)

(* Minor words per call of [f], after a first call that may set up
   per-domain scratch state. *)
let alloc_per_call f =
  f ();
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* Words of a string of [n] bytes: its header and its padded bytes. *)
let string_words n = (n / 8) + 2

(* A seal allocates only the sealed string and the chunk record (6
   words), an unseal only the plaintext and its [Ok] (2): the
   compressor's output is sealed from its workspace, the ciphertext
   decrypted into per-domain scratch, and the vendor seed hashed once
   per kind.  Copying the compressed body first, or decrypting a copy
   of the ciphertext, allocates the chunk once more; rebuilding the
   seed string costs 4 words a call for this kind. *)
let test_chunk_seal_unseal_budget () =
  let plain = String.init 200 (fun i -> Char.chr (Char.code 'a' + (i mod 7))) in
  let key = Hfl.of_string "nw_src=10.1.2.3/32,tp_src=1234" in
  let seal () =
    Chunk.seal ~mb_kind:"dummy" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow ~key ~plain
  in
  let check what words budget =
    if words > float_of_int budget then
      Alcotest.failf "%s allocates %.1f minor words, budget %d" what words budget
  in
  Fun.protect
    ~finally:(fun () -> Chunk.compression_enabled := false)
    (fun () ->
      List.iter
        (fun compressed ->
          Chunk.compression_enabled := compressed;
          let what = if compressed then "compressed" else "raw" in
          let c = seal () in
          Alcotest.(check bool) (what ^ " body") compressed (Chunk.size_bytes c < String.length plain);
          check (what ^ " seal")
            (alloc_per_call (fun () -> ignore (Sys.opaque_identity (seal ()))))
            (string_words (Chunk.size_bytes c) + 6);
          check (what ^ " unseal")
            (alloc_per_call (fun () -> ignore (Sys.opaque_identity (Chunk.unseal ~mb_kind:"dummy" c))))
            (string_words (String.length plain) + 2))
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let mk_packet ?(id = 0) () =
  Packet.make ~id ~ts:Time.zero ~src_ip:(Addr.of_string "10.0.0.1")
    ~dst_ip:(Addr.of_string "1.1.1.1") ~src_port:1234 ~dst_port:80 ~proto:Packet.Tcp ()

let test_event_filter () =
  let f = Event.Filter.create () in
  let intro code =
    Event.Introspect { code; key = Hfl.of_string "nw_src=10.0.0.1/32"; info = Json.Null }
  in
  Alcotest.(check bool) "disabled by default" false (Event.Filter.admits f (intro "nat.new"));
  Alcotest.(check bool) "reprocess always admitted" true
    (Event.Filter.admits f (Event.Reprocess { key = Hfl.any; packet = mk_packet () }));
  Event.Filter.enable f ~codes:[ "nat.new" ] ~key:(Hfl.of_string "nw_src=10.0.0.0/8");
  Alcotest.(check bool) "enabled code+key" true (Event.Filter.admits f (intro "nat.new"));
  Alcotest.(check bool) "other code still blocked" false
    (Event.Filter.admits f (intro "lb.assign"));
  Event.Filter.disable f ~codes:[ "nat.new" ];
  Alcotest.(check bool) "disabled again" false (Event.Filter.admits f (intro "nat.new"))

let test_event_filter_key_scope () =
  let f = Event.Filter.create () in
  Event.Filter.enable f ~codes:[] ~key:(Hfl.of_string "nw_src=10.0.0.0/8");
  let intro src =
    Event.Introspect
      { code = "x"; key = Hfl.of_string (Printf.sprintf "nw_src=%s/32" src); info = Json.Null }
  in
  Alcotest.(check bool) "in scope" true (Event.Filter.admits f (intro "10.1.2.3"));
  Alcotest.(check bool) "out of scope" false (Event.Filter.admits f (intro "192.168.1.1"))

(* ------------------------------------------------------------------ *)
(* Messages                                                            *)
(* ------------------------------------------------------------------ *)

(* The fixed message corpus: every constructor of every message type,
   and every packet shape a re-process message can carry. *)

let corpus_packets () =
  let payload = Payload.of_tokens_trailing [| 1; -5; 1 lsl 40; 0 |] ~trailing:17 in
  [
    mk_packet ();
    (* RE-encoded body (Table 3): literals and shims into a decoder cache. *)
    Packet.make ~id:41 ~ts:(Time.ms 12.5) ~src_ip:(Addr.of_string "192.168.7.9")
      ~dst_ip:(Addr.of_string "10.200.0.1") ~src_port:53 ~dst_port:65535 ~proto:Packet.Udp
      ~body:
        (Packet.Encoded
           {
             cache_id = 3;
             append_base = 4096;
             segments =
               [
                 Packet.Literal (Payload.of_tokens [| 9; 10 |]);
                 Packet.Shim { offset = 100; len = 4 };
                 Packet.Literal Payload.empty;
               ];
             orig = payload;
           })
      ();
    (* HTTP request and response, as the IDS analyzer sees them. *)
    Packet.make ~id:42 ~ts:(Time.seconds 3.25) ~src_ip:(Addr.of_string "10.0.0.2")
      ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:40_000 ~dst_port:80 ~proto:Packet.Tcp
      ~flags:Packet.syn_flags
      ~app:(Packet.Http_request { method_ = "GET"; host = "example.org"; uri = "/a?b=\"c\"" })
      ~body:(Packet.Raw payload) ();
    Packet.make ~id:43 ~ts:(Time.us 7.0) ~src_ip:(Addr.of_string "1.1.1.5")
      ~dst_ip:(Addr.of_string "10.0.0.2") ~src_port:80 ~dst_port:40_000 ~proto:Packet.Tcp
      ~flags:Packet.fin_flags ~app:(Packet.Http_response { status = 404 }) ();
    Packet.make ~id:44 ~ts:(Time.ms 1.0) ~src_ip:(Addr.of_string "0.0.0.0")
      ~dst_ip:(Addr.of_string "255.255.255.255") ~src_port:0 ~dst_port:0 ~proto:Packet.Icmp
      ~flags:{ Packet.syn = true; ack = true; fin = true; rst = true } ();
  ]

let all_requests () =
  let key = Hfl.of_string "nw_src=10.0.0.0/24,tp_dst=80" in
  let chunk kind =
    Chunk.seal ~mb_kind:kind ~role:Taxonomy.Reporting ~partition:Taxonomy.Per_flow ~key
      ~plain:"some\nbinary\x01payload"
  in
  [
    Message.Get_config [ "rules"; "http" ];
    Message.Get_config [];
    Message.Set_config ([ "cache" ], [ Json.Int 500; Json.String "lru"; Json.Null ]);
    Message.Del_config [ "rules" ];
    Message.Get_support_perflow key;
    Message.Get_support_perflow
      (Hfl.of_string "nw_dst=1.1.1.0/24,tp_src=99,proto=udp,nw_src=0.0.0.0/0");
    Message.Put_batch { seq = 0; chunks = [ chunk "bro" ] };
    Message.Put_batch
      {
        seq = 9;
        chunks =
          [
            Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
              ~key ~plain:"some\nbinary\x01payload";
          ];
      };
    Message.Del_support_perflow key;
    Message.Get_support_shared;
    Message.Put_batch { seq = 123456; chunks = [ chunk "re-encoder" ] };
    Message.Put_batch
      {
        seq = 10;
        chunks =
          [
            Chunk.seal ~mb_kind:"re-decoder" ~role:Taxonomy.Configuring
              ~partition:Taxonomy.Shared ~key:Hfl.any ~plain:"cache";
          ];
      };
    Message.Put_batch { seq = 7; chunks = [ chunk "bro"; chunk "bro"; chunk "bro" ] };
    Message.Put_batch { seq = 8; chunks = [] };
    Message.Abort_perflow key;
    Message.Abort_perflow Hfl.any;
    Message.Get_report_perflow key;
    Message.Put_batch { seq = 1; chunks = [ chunk "prads" ] };
    Message.Del_report_perflow Hfl.any;
    Message.Get_report_shared;
    Message.Put_batch { seq = 2; chunks = [ chunk "prads" ] };
    Message.Get_stats key;
    Message.Enable_events { codes = [ "nat.new"; "lb.assign" ]; key };
    Message.Disable_events { codes = [] };
    Message.Disable_events { codes = [ "nat.new" ] };
  ]
  @ List.map (fun packet -> Message.Reprocess_packet { key; packet }) (corpus_packets ())

let all_replies () =
  [
    Message.State_chunk
      (Chunk.seal ~mb_kind:"prads" ~role:Taxonomy.Reporting ~partition:Taxonomy.Per_flow
         ~key:(Hfl.of_string "tp_src=99") ~plain:"rec");
    Message.End_of_state { count = 42 };
    Message.Ack;
    Message.Batch_ack { seq = 0; count = 16; errors = [] };
    Message.Batch_ack { seq = 8; count = 3; errors = [ (1, Errors.Bad_chunk "mac") ] };
    Message.Batch_ack
      { seq = 99; count = 2; errors = [ (0, Errors.Op_failed "x"); (1, Errors.Timeout "y") ] };
    Message.Config_values [];
    Message.Config_values
      [
        { Config_tree.path = [ "a"; "b" ]; values = [ Json.Int 1 ] };
        {
          Config_tree.path = [ "c" ];
          values =
            [
              Json.List [ Json.Bool true; Json.Bool false; Json.Float 2.5; Json.Float (-1e-300) ];
              Json.Assoc [ ("k", Json.Null); ("s", Json.String "q\"\\\n\x01") ];
              Json.Int min_int;
            ];
        };
      ];
    Message.Stats_reply
      {
        Southbound.perflow_support_chunks = 1;
        perflow_report_chunks = 2;
        perflow_support_bytes = 300;
        perflow_report_bytes = 400;
        shared_support_bytes = 5;
        shared_report_bytes = 6;
      };
    Message.Op_error Errors.Granularity_too_fine;
    Message.Op_error (Errors.Unknown_mb "x");
    Message.Op_error (Errors.Illegal_operation "move shared");
    Message.Op_error (Errors.Unknown_config_key "a.b");
    Message.Op_error (Errors.Bad_chunk "mac");
    Message.Op_error (Errors.Op_failed "boom");
    Message.Op_error (Errors.Timeout "op=3 putBatch[16]");
    Message.Op_error (Errors.Move_aborted "timed out: getSupportPerflow");
  ]

let all_events () =
  Event.Introspect
    {
      code = "nat.new_mapping";
      key = Hfl.of_string "nw_src=10.0.0.1/32";
      info = Json.Assoc [ ("ext_port", Json.Int 4242) ];
    }
  :: Event.Introspect { code = "lb.assign"; key = Hfl.any; info = Json.Null }
  :: List.map
       (fun packet -> Event.Reprocess { key = Hfl.of_string "tp_dst=80"; packet })
       (corpus_packets ())

let roundtrip_request req =
  let msg = { Message.op = 7; tid = 0; req } in
  let back = Message.request_of_wire (Message.request_to_wire msg) in
  Alcotest.(check bool)
    (Printf.sprintf "request roundtrip: %s" (Message.describe_request req))
    true (back = msg)

(* The causality id on the envelope: omitted from the JSON encoding
   when 0 (untraced messages stay byte-identical to the pre-telemetry
   wire format) and round-trips under both framings otherwise. *)
let test_message_tid_roundtrip () =
  let req = Message.Get_support_perflow (Hfl.of_string "nw_src=10.0.0.0/24") in
  (match Json.of_string (Message.request_to_wire { Message.op = 3; tid = 0; req }) with
  | Json.Assoc fields ->
    Alcotest.(check bool) "tid omitted when 0" false (List.mem_assoc "tid" fields)
  | _ -> Alcotest.fail "request did not encode to an object");
  List.iter
    (fun tid ->
      let msg = { Message.op = 3; tid; req } in
      List.iter
        (fun framing ->
          Alcotest.(check bool)
            (Printf.sprintf "tid=%d survives the wire" tid)
            true
            (Message.request_of_wire (Message.request_to_wire ~framing msg) = msg))
        [ Framing.Json; Framing.Binary ])
    [ 0; 1; 77; 123_456_789 ]

let test_message_request_roundtrips () = List.iter roundtrip_request (all_requests ())

let roundtrip_from_mb what msg =
  Alcotest.(check bool) what true
    (Message.from_mb_of_wire (Message.from_mb_to_wire msg) = msg)

let test_message_reply_roundtrips () =
  List.iter
    (fun reply ->
      roundtrip_from_mb
        (Printf.sprintf "reply roundtrip: %s" (Message.describe_reply reply))
        (Message.Reply { op = 3; reply }))
    (all_replies ())

let test_message_event_roundtrips () =
  List.iter
    (fun ev -> roundtrip_from_mb ("event roundtrip: " ^ Event.describe ev) (Message.Event_msg ev))
    (all_events ())

(* The counted JSON size is the encoder's length on every message of
   the wire pin's corpus, traced and untraced. *)
let test_json_size_is_encoded_length () =
  List.iter
    (fun tid ->
      List.iter
        (fun req ->
          let m = { Message.op = 11; tid; req } in
          Alcotest.(check int) (Message.describe_request req)
            (String.length (Message.request_to_wire m))
            (Codec.json_size Message.to_mb m))
        (all_requests ()))
    [ 0; 123_456_789 ];
  List.iter
    (fun m ->
      Alcotest.(check int) "reply or event"
        (String.length (Message.from_mb_to_wire m))
        (Codec.json_size Message.from_mb m))
    (List.map (fun reply -> Message.Reply { op = 3; reply }) (all_replies ())
    @ List.map (fun ev -> Message.Event_msg ev) (all_events ()))

(* Sizing each JSON message a move or a re-process event sends
   allocates nothing: state- and packet-bearing messages are charged by
   arithmetic, the rest counted from their descriptions.  Encoding one
   to measure it costs 87 (an ack) to 142 words (a batch ack). *)
let test_move_message_sizing_allocates_nothing () =
  let key = Hfl.of_string "nw_src=10.1.2.3/32,tp_src=1234" in
  let chunk =
    Chunk.seal ~mb_kind:"dummy" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow ~key
      ~plain:"state"
  in
  let packet = mk_packet () in
  let check what f =
    let words = alloc_per_call (fun () -> ignore (Sys.opaque_identity (f ()))) in
    if words > 0.0 then Alcotest.failf "sizing %s allocates %.1f minor words" what words
  in
  List.iter
    (fun tid ->
      List.iter
        (fun req ->
          let m = { Message.op = 7; tid; req } in
          check (Message.describe_request req) (fun () -> Message.request_wire_bytes m))
        [
          Message.Get_support_perflow key;
          Message.Get_report_perflow key;
          Message.Put_batch { seq = 3; chunks = [ chunk; chunk ] };
          Message.Del_support_perflow key;
          Message.Del_report_perflow key;
          Message.Abort_perflow key;
          Message.Reprocess_packet { key; packet };
        ])
    [ 0; 123_456_789 ];
  List.iter
    (fun reply ->
      let m = Message.Reply { op = 7; reply } in
      check (Message.describe_reply reply) (fun () -> Message.reply_wire_bytes m))
    [
      Message.State_chunk chunk;
      Message.End_of_state { count = 1000 };
      Message.Ack;
      Message.Batch_ack { seq = 4; count = 16; errors = [] };
      Message.Batch_ack { seq = 5; count = 16; errors = [ (3, Errors.Bad_chunk "mac") ] };
      Message.Op_error (Errors.Timeout "op=3 putBatch");
    ];
  List.iter
    (fun ev ->
      let m = Message.Event_msg ev in
      check (Event.describe ev) (fun () -> Message.reply_wire_bytes m))
    [
      Event.Reprocess { key; packet };
      Event.Introspect
        { code = "nat.new_mapping"; key; info = Json.Assoc [ ("ext_port", Json.Int 4242) ] };
    ]

(* The wire pin covers every kind of message: dropping the corpus's
   last entry of a kind fails here, not silently in the golden.  Replies
   and events are named by their describe label's first word, as the
   chaos generators' coverage check names them. *)
let test_corpus_names_every_kind () =
  let names name xs = List.sort_uniq compare (List.map name xs) in
  let first_word s = List.hd (String.split_on_char ' ' s) in
  Alcotest.(check (list string)) "every request"
    (List.sort compare
       [
         "getConfig"; "setConfig"; "delConfig"; "getSupportPerflow"; "delSupportPerflow";
         "getSupportShared"; "getReportPerflow"; "delReportPerflow"; "getReportShared";
         "getStats"; "enableEvents"; "disableEvents"; "reprocessPacket"; "putBatch";
         "abortPerflow";
       ])
    (names Message.request_name (all_requests ()));
  Alcotest.(check (list string)) "every reply"
    (List.sort compare
       [ "stateChunk"; "endOfState"; "ack"; "configValues"; "stats"; "error"; "batchAck" ])
    (names (fun r -> first_word (Message.describe_reply r)) (all_replies ()));
  Alcotest.(check (list string)) "every event" [ "introspect"; "reprocess" ]
    (names (fun ev -> first_word (Event.describe ev)) (all_events ()))

let test_message_wire_bytes_chunked () =
  let chunk =
    Chunk.seal ~mb_kind:"bro" ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
      ~key:Hfl.any ~plain:(String.make 1000 'x')
  in
  let msg = { Message.op = 0; tid = 0; req = Message.Put_batch { seq = 0; chunks = [ chunk ] } } in
  Alcotest.(check bool) "wire size covers chunk body" true
    (Message.request_wire_bytes msg >= 1000)

(* ------------------------------------------------------------------ *)
(* Wire pinning                                                        *)
(* ------------------------------------------------------------------ *)

(* Every corpus message's bytes under both framings and the sizes the
   controller charges for it, against a recorded golden file.  A codec
   change that moves one byte or one charged size fails here; the
   observed lines land in message_wire.actual next to the test binary
   so an intended format change can be reviewed and re-recorded. *)

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let wire_pin_line label ~json ~binary ~json_bytes ~binary_bytes =
  Printf.sprintf "%s\tjson_bytes=%d\tbinary_bytes=%d\tjson=%S\tbinary=%s" label json_bytes
    binary_bytes json (hex binary)

let wire_pin_lines () =
  let requests =
    List.concat_map
      (fun tid ->
        List.mapi
          (fun i req ->
            let msg = { Message.op = 11; tid; req } in
            wire_pin_line
              (Printf.sprintf "request %02d tid=%d" i tid)
              ~json:(Message.request_to_wire ~framing:Framing.Json msg)
              ~binary:(Message.request_to_wire ~framing:Framing.Binary msg)
              ~json_bytes:(Message.request_wire_bytes ~framing:Framing.Json msg)
              ~binary_bytes:(Message.request_wire_bytes ~framing:Framing.Binary msg))
          (all_requests ()))
      [ 0; 123_456_789 ]
  in
  let from_mb label msg =
    wire_pin_line label
      ~json:(Message.from_mb_to_wire ~framing:Framing.Json msg)
      ~binary:(Message.from_mb_to_wire ~framing:Framing.Binary msg)
      ~json_bytes:(Message.reply_wire_bytes ~framing:Framing.Json msg)
      ~binary_bytes:(Message.reply_wire_bytes ~framing:Framing.Binary msg)
  in
  requests
  @ List.mapi
      (fun i reply -> from_mb (Printf.sprintf "reply %02d" i) (Message.Reply { op = 3; reply }))
      (all_replies ())
  @ List.mapi (fun i ev -> from_mb (Printf.sprintf "event %02d" i) (Message.Event_msg ev))
      (all_events ())

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_message_wire_pinning () =
  let actual = wire_pin_lines () in
  let oc = open_out_bin "message_wire.actual" in
  List.iter (fun l -> output_string oc (l ^ "\n")) actual;
  close_out oc;
  let expected = read_lines "message_wire.golden" in
  Alcotest.(check int) "pinned message count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned wire line" e a) expected actual;
  (* The JSON charge for an event follows its payload: a re-process
     event pays at least for the packet copy it carries, a bare
     introspection event stays small. *)
  List.iter
    (fun ev ->
      let charged = Message.reply_wire_bytes (Message.Event_msg ev) in
      match ev with
      | Event.Reprocess { packet; _ } ->
        Alcotest.(check bool) "reprocess carries the packet" true
          (charged >= Packet.wire_bytes packet)
      | Event.Introspect { info = Json.Null; _ } ->
        Alcotest.(check bool) "introspection is small" true (charged < 100)
      | Event.Introspect _ -> ())
    (all_events ())

(* ------------------------------------------------------------------ *)
(* Compression and sealing pinning                                     *)
(* ------------------------------------------------------------------ *)

(* The LZSS encoding and the sealed bytes of a fixed corpus, against a
   recorded golden file: a compressor or keystream rewrite that moves
   one output byte fails here.  The observed lines land in
   compress_seal.actual next to the test binary. *)

let seeded_bytes ~seed n =
  let g = Prng.create ~seed in
  String.init n (fun _ -> Char.chr (Prng.int g 256))

let pin_corpus () =
  let blob =
    let d = Openmb_apps.Dummy_mb.create (Engine.create ()) ~name:"pin" () in
    Openmb_apps.Dummy_mb.populate d ~n:8;
    snd (List.nth (Openmb_apps.Dummy_mb.support_entries d) 3)
  in
  (* Many candidates share each 3-byte hash, so the match finder's
     chain walk hits its try limit. *)
  let chains =
    let g = Prng.create ~seed:11 in
    String.concat "" (List.init 300 (fun _ -> Printf.sprintf "seq=%04x;" (Prng.int g 0x10000)))
  in
  let repeats =
    String.concat ""
      (List.init 12 (fun i -> Printf.sprintf "state-record-%02d:abcdefghijklmnop;" (i mod 3)))
  in
  [
    ("empty", "");
    ("1 byte", "a");
    ("2 bytes", "ab");
    ("3 bytes", "aaa");
    ("dummy blob", blob);
    ("4 KiB seeded random", seeded_bytes ~seed:7 4096);
    ("10 KiB run", String.make 10240 'x');
    ("repeats of 18+ bytes", repeats);
    ("hash chains", chains);
  ]

let compress_seal_pin_lines () =
  let corpus = pin_corpus () in
  let line label s = Printf.sprintf "%s\tlen=%d\thex=%s" label (String.length s) (hex s) in
  let compressed =
    List.map (fun (label, s) -> line ("compress " ^ label) (Compress.compress s)) corpus
  in
  let sealed =
    Fun.protect
      ~finally:(fun () -> Chunk.compression_enabled := false)
      (fun () ->
        Chunk.compression_enabled := true;
        List.concat_map
          (fun kind ->
            List.map
              (fun (label, plain) ->
                let c =
                  Chunk.seal ~mb_kind:kind ~role:Taxonomy.Supporting
                    ~partition:Taxonomy.Per_flow ~key:Hfl.any ~plain
                in
                line (Printf.sprintf "seal %s %s" kind label) c.cipher)
              (("7 bytes", "abcdefg") :: ("1 KiB seeded random", seeded_bytes ~seed:5 1027)
              :: List.filter (fun (l, _) -> l <> "4 KiB seeded random") corpus))
          [ "dummy"; "bro" ])
  in
  compressed @ sealed

let test_compress_seal_pinning () =
  let actual = compress_seal_pin_lines () in
  let oc = open_out_bin "compress_seal.actual" in
  List.iter (fun l -> output_string oc (l ^ "\n")) actual;
  close_out oc;
  let expected = read_lines "compress_seal.golden" in
  Alcotest.(check int) "pinned line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned bytes" e a) expected actual

(* ------------------------------------------------------------------ *)
(* Binary codec equivalence                                            *)
(* ------------------------------------------------------------------ *)

let test_request_codec_equivalence () =
  List.iter
    (fun req ->
      let msg = { Message.op = 11; tid = 0; req } in
      let bin = Message.request_to_wire ~framing:Framing.Binary msg in
      let json = Message.request_to_wire msg in
      let what = Message.describe_request req in
      Alcotest.(check bool) (what ^ ": binary is tagged") true (bin.[0] = '\x42');
      Alcotest.(check bool) (what ^ ": binary decodes") true
        (Message.request_of_wire bin = msg);
      Alcotest.(check bool) (what ^ ": json decodes") true
        (Message.request_of_wire json = msg);
      Alcotest.(check int)
        (what ^ ": binary wire bytes are exact")
        (4 + String.length bin)
        (Message.request_wire_bytes ~framing:Framing.Binary msg);
      Alcotest.(check bool) (what ^ ": binary is no larger than json") true
        (String.length bin <= String.length json))
    (all_requests ())

let test_reply_codec_equivalence () =
  let msgs =
    List.map (fun reply -> Message.Reply { op = 3; reply }) (all_replies ())
    @ List.map (fun ev -> Message.Event_msg ev) (all_events ())
  in
  List.iter
    (fun msg ->
      let bin = Message.from_mb_to_wire ~framing:Framing.Binary msg in
      let json = Message.from_mb_to_wire msg in
      Alcotest.(check bool) "binary decodes" true (Message.from_mb_of_wire bin = msg);
      Alcotest.(check bool) "json decodes" true (Message.from_mb_of_wire json = msg);
      Alcotest.(check int) "binary wire bytes are exact" (4 + String.length bin)
        (Message.reply_wire_bytes ~framing:Framing.Binary msg))
    msgs

let test_binary_decode_rejects_garbage () =
  let fails s =
    match Message.request_of_wire s with
    | _ -> Alcotest.fail "garbage accepted"
    | exception Openmb_wire.Binary.Decode_error _ -> ()
  in
  (* Tagged as binary but truncated / trailing garbage. *)
  let bin =
    Message.request_to_wire ~framing:Framing.Binary
      { Message.op = 1; tid = 0; req = Message.Get_support_shared }
  in
  fails (String.sub bin 0 (String.length bin - 1));
  fails (bin ^ "\x00");
  (* The retired single-chunk puts' tags and names are errors, never
     another message. *)
  List.iter (fun tag -> fails (Printf.sprintf "\x42\x01\x00%c" (Char.chr tag))) [ 4; 7; 9; 12 ];
  List.iter
    (fun name -> fails (Printf.sprintf {|{"op":1,"type":"%s","seq":0}|} name))
    [ "putSupportPerflow"; "putSupportShared"; "putReportPerflow"; "putReportShared" ]

(* Malformed frames that escaped as other exceptions before both
   framings shared one decoder: a count taken off the wire as an
   allocation size, values a constructor rejects, a missing field. *)
(* A binary re-process request decodes in 269 minor words: its 8 union
   reads (the request, five header fields, the HTTP annotation, the
   body) index their cases by tag.  Searching the case list on each
   read costs 317. *)
let test_binary_request_decode_allocation () =
  let packet =
    Packet.make ~id:42 ~ts:(Time.seconds 0.25) ~src_ip:(Addr.of_string "10.0.0.1")
      ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:1234 ~dst_port:80 ~proto:Packet.Tcp
      ~flags:Packet.syn_flags
      ~app:(Packet.Http_request { method_ = "GET"; host = "example.org"; uri = "/a" })
      ~body:(Packet.Raw (Payload.of_tokens [| 1; 2; 3; 4 |]))
      ()
  in
  let key = Hfl.of_string "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=1234,tp_dst=80,proto=tcp" in
  let msg = { Message.op = 7; tid = 3; req = Message.Reprocess_packet { key; packet } } in
  let wire = Message.request_to_wire ~framing:Framing.Binary msg in
  Alcotest.(check bool) "round-trips" true (Message.request_of_wire wire = msg);
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Message.request_of_wire wire))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 275.0 then
    Alcotest.failf "binary request_of_wire allocates %.1f minor words, budget 275" words

let test_malformed_frames_raise_decode_error () =
  let rejects what decode s =
    match decode s with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Binary.Decode_error _ -> ()
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  let uvarint n =
    let buf = Buffer.create 10 in
    Binary.uvarint (Binary.buffer_sink buf) n;
    Buffer.contents buf
  in
  let cut s n = String.sub s 0 (String.length s - n) in
  let ends_with what suffix s =
    Alcotest.(check string) what suffix (String.sub s (String.length s - String.length suffix) (String.length suffix))
  in
  (* A packet whose body is a one-token raw payload: the frame ends with
     the token count 1, the token 5 (zigzag 0x0a) and trailing 0. *)
  let packet =
    Packet.make ~id:1 ~ts:Time.zero ~src_ip:(Addr.of_string "10.0.0.1")
      ~dst_ip:(Addr.of_string "1.1.1.1") ~src_port:1 ~dst_port:2 ~proto:Packet.Tcp
      ~body:(Packet.Raw (Payload.of_tokens [| 5 |])) ()
  in
  let reprocess =
    Message.request_to_wire ~framing:Framing.Binary
      { Message.op = 1; tid = 0; req = Message.Reprocess_packet { key = Hfl.any; packet } }
  in
  ends_with "reprocess frame ends with its payload" "\x01\x0a\x00" reprocess;
  rejects "token count 2^45" Message.request_of_wire (cut reprocess 3 ^ uvarint (1 lsl 45) ^ "\x0a\x00");
  rejects "trailing 100" Message.request_of_wire (cut reprocess 1 ^ uvarint 100);
  let event =
    Message.from_mb_to_wire ~framing:Framing.Binary
      (Message.Event_msg (Event.Reprocess { key = Hfl.any; packet }))
  in
  ends_with "event frame ends with its payload" "\x01\x0a\x00" event;
  rejects "event token count 2^45" Message.from_mb_of_wire (cut event 3 ^ uvarint (1 lsl 45) ^ "\x0a\x00");
  (* An hfl prefix field ends with its mask length. *)
  let get =
    Message.request_to_wire ~framing:Framing.Binary
      { Message.op = 1; tid = 0; req = Message.Get_support_perflow (Hfl.of_string "nw_src=10.0.0.0/24") }
  in
  ends_with "get frame ends with the mask length" "\x18" get;
  rejects "prefix length 33" Message.request_of_wire (cut get 1 ^ "\x21");
  rejects "JSON without key" Message.request_of_wire {|{"op":1,"type":"getSupportPerflow"}|};
  rejects "JSON reply without op" Message.from_mb_of_wire {|{"type":"ack"}|}

(* ------------------------------------------------------------------ *)
(* Controller end-to-end                                               *)
(* ------------------------------------------------------------------ *)

(* A fast controller config so tests needn't simulate 5 s quiescence. *)
let test_config =
  {
    Controller.default_config with
    quiescence = Time.ms 50.0;
    channel_latency = Time.us 100.0;
  }

type rig = {
  engine : Engine.t;
  ctrl : Controller.t;
  src : Openmb_apps.Dummy_mb.t;
  dst : Openmb_apps.Dummy_mb.t;
}

let make_rig ?(src_chunks = 20) ?granularity ?kind () =
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:test_config () in
  let src = Openmb_apps.Dummy_mb.create engine ?granularity ?kind ~name:"src" () in
  let dst = Openmb_apps.Dummy_mb.create engine ?granularity ?kind ~name:"dst" () in
  Openmb_apps.Dummy_mb.populate src ~n:src_chunks;
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl src) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl dst) ());
  { engine; ctrl; src; dst }

let test_move_internal_basic () =
  let r = make_rig ~src_chunks:20 () in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) ->
    Alcotest.(check int) "all chunks moved" 20 mr.Controller.chunks_moved;
    Alcotest.(check bool) "bytes accounted" true (mr.Controller.bytes_moved > 20 * 100)
  | Some (Error e) -> Alcotest.failf "move failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "move never returned");
  Alcotest.(check int) "dst has the state" 20 (Openmb_apps.Dummy_mb.chunk_count r.dst);
  (* After quiescence the deferred delete must have emptied the src. *)
  Alcotest.(check int) "src deleted after quiescence" 0
    (Openmb_apps.Dummy_mb.chunk_count r.src);
  Alcotest.(check int) "no transfers left" 0 (Controller.active_transfers r.ctrl)

let test_move_internal_subset () =
  let r = make_rig ~src_chunks:30 () in
  (* Keys are 10.0.0.x for the first 250 chunks; move a /30 slice. *)
  let key = Hfl.of_string "nw_src=10.0.0.4/30" in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) -> Alcotest.(check int) "4 chunks in slice" 4 mr.Controller.chunks_moved
  | _ -> Alcotest.fail "move failed");
  Alcotest.(check int) "dst got slice" 4 (Openmb_apps.Dummy_mb.chunk_count r.dst);
  Alcotest.(check int) "src kept the rest" 26 (Openmb_apps.Dummy_mb.chunk_count r.src)

let test_move_unknown_mb () =
  let r = make_rig () in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"nope" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  match !result with
  | Some (Error e) -> Alcotest.check errt "unknown mb" (Errors.Unknown_mb "nope") e
  | _ -> Alcotest.fail "expected failure"

let test_move_granularity_error () =
  (* MB keyed on src ip/port only; a dst-port request is finer. *)
  let r = make_rig ~granularity:Hfl.[ Dim_src_ip; Dim_src_port ] () in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst"
    ~key:(Hfl.of_string "tp_dst=80")
    ~on_done:(fun res -> result := Some res);
  Engine.run r.engine;
  match !result with
  | Some (Error e) -> Alcotest.check errt "granularity" Errors.Granularity_too_fine e
  | _ -> Alcotest.fail "expected granularity error"

let test_move_kind_mismatch () =
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:test_config () in
  let src = Openmb_apps.Dummy_mb.create engine ~kind:"bro" ~name:"src" () in
  let dst = Openmb_apps.Dummy_mb.create engine ~kind:"prads" ~name:"dst" () in
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl src) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl dst) ());
  let result = ref None in
  Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res);
  Engine.run engine;
  match !result with
  | Some (Error (Errors.Illegal_operation _)) -> ()
  | _ -> Alcotest.fail "expected kind-mismatch error"

let test_move_with_events_buffered_and_forwarded () =
  let r = make_rig ~src_chunks:50 () in
  (* The source raises re-process events while the move is in
     flight; every one must reach the destination exactly once. *)
  Openmb_apps.Dummy_mb.start_events r.src ~rate_pps:2000.0;
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res;
      (* Stop events shortly after the move returns so quiescence can
         be reached. *)
      ignore
        (Engine.schedule_after r.engine (Time.ms 10.0) (fun () ->
             Openmb_apps.Dummy_mb.stop_events r.src)));
  Engine.run r.engine;
  (match !result with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "move failed");
  Alcotest.(check bool) "events were forwarded" true (Controller.events_forwarded r.ctrl > 0);
  Alcotest.(check int) "every forwarded event was replayed at dst"
    (Controller.events_forwarded r.ctrl)
    (Openmb_apps.Dummy_mb.reprocessed r.dst);
  Alcotest.(check int) "none dropped" 0 (Controller.events_dropped r.ctrl)

let test_event_for_unmoved_state_dropped () =
  let r = make_rig ~src_chunks:10 () in
  (* Events with no active transfer are dropped and counted. *)
  Openmb_apps.Dummy_mb.start_events r.src ~rate_pps:1000.0;
  ignore
    (Engine.schedule_after r.engine (Time.ms 20.0) (fun () ->
         Openmb_apps.Dummy_mb.stop_events r.src));
  Engine.run r.engine;
  Alcotest.(check bool) "dropped counted" true (Controller.events_dropped r.ctrl > 0);
  Alcotest.(check int) "nothing forwarded" 0 (Controller.events_forwarded r.ctrl)

let test_clone_support () =
  let r = make_rig () in
  Openmb_apps.Dummy_mb.set_shared_support r.src "the-cache";
  let result = ref None in
  Controller.clone_support r.ctrl ~src:"src" ~dst:"dst" ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) -> Alcotest.(check int) "one chunk" 1 mr.Controller.chunks_moved
  | _ -> Alcotest.fail "clone failed");
  Alcotest.(check (option string)) "dst has the clone" (Some "the-cache")
    (Openmb_apps.Dummy_mb.shared_support r.dst);
  (* Clone must NOT delete the source copy. *)
  Alcotest.(check (option string)) "src keeps its copy" (Some "the-cache")
    (Openmb_apps.Dummy_mb.shared_support r.src)

let test_merge_internal () =
  let r = make_rig () in
  Openmb_apps.Dummy_mb.set_shared_support r.src "src-sup";
  Openmb_apps.Dummy_mb.set_shared_report r.src "src-rep";
  Openmb_apps.Dummy_mb.set_shared_support r.dst "dst-sup";
  Openmb_apps.Dummy_mb.set_shared_report r.dst "dst-rep";
  let result = ref None in
  Controller.merge_internal r.ctrl ~src:"src" ~dst:"dst" ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) -> Alcotest.(check int) "two shared chunks" 2 mr.Controller.chunks_moved
  | _ -> Alcotest.fail "merge failed");
  Alcotest.(check (option string)) "supporting merged" (Some "dst-sup+src-sup")
    (Openmb_apps.Dummy_mb.shared_support r.dst);
  Alcotest.(check (option string)) "reporting merged" (Some "dst-rep+src-rep")
    (Openmb_apps.Dummy_mb.shared_report r.dst)

let test_merge_with_empty_shared () =
  (* PRADS-style: no shared supporting state; merge must still
     complete via the reporting chunk alone. *)
  let r = make_rig () in
  Openmb_apps.Dummy_mb.set_shared_report r.src "only-rep";
  let result = ref None in
  Controller.merge_internal r.ctrl ~src:"src" ~dst:"dst" ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) -> Alcotest.(check int) "one chunk" 1 mr.Controller.chunks_moved
  | _ -> Alcotest.fail "merge failed");
  Alcotest.(check (option string)) "reporting arrived" (Some "only-rep")
    (Openmb_apps.Dummy_mb.shared_report r.dst)

let test_read_write_config () =
  let r = make_rig () in
  Config_tree.set (Openmb_mbox.Mb_base.config (Openmb_apps.Dummy_mb.base r.src))
    [ "policy" ] [ Json.String "strict" ];
  let got = ref None in
  Controller.read_config r.ctrl ~src:"src" ~key:[ "policy" ] ~on_done:(fun res ->
      got := Some res);
  Engine.run r.engine;
  (match !got with
  | Some (Ok [ { Config_tree.values = [ Json.String "strict" ]; _ } ]) -> ()
  | _ -> Alcotest.fail "read_config");
  (* Clone it to the destination. *)
  let wrote = ref None in
  Controller.write_config r.ctrl ~dst:"dst" ~key:[ "policy" ]
    ~values:[ Json.String "strict" ] ~on_done:(fun res -> wrote := Some res);
  Engine.run r.engine;
  (match !wrote with
  | Some (Ok ()) -> ()
  | _ -> Alcotest.fail "write_config");
  match
    Config_tree.get (Openmb_mbox.Mb_base.config (Openmb_apps.Dummy_mb.base r.dst))
      [ "policy" ]
  with
  | [ { Config_tree.values = [ Json.String "strict" ]; _ } ] -> ()
  | _ -> Alcotest.fail "config not applied at dst"

let test_read_config_unknown_key () =
  let r = make_rig () in
  let got = ref None in
  Controller.read_config r.ctrl ~src:"src" ~key:[ "no"; "such" ] ~on_done:(fun res ->
      got := Some res);
  Engine.run r.engine;
  match !got with
  | Some (Error (Errors.Unknown_config_key _)) -> ()
  | _ -> Alcotest.fail "expected unknown-key error"

let test_stats_call () =
  let r = make_rig ~src_chunks:15 () in
  let got = ref None in
  Controller.stats r.ctrl ~src:"src" ~key:Hfl.any ~on_done:(fun res -> got := Some res);
  Engine.run r.engine;
  match !got with
  | Some (Ok s) ->
    Alcotest.(check int) "chunk count" 15 s.Southbound.perflow_support_chunks;
    Alcotest.(check int) "bytes" (15 * 202) s.Southbound.perflow_support_bytes
  | _ -> Alcotest.fail "stats failed"

let test_introspection_subscription () =
  let r = make_rig () in
  let seen = ref [] in
  Controller.subscribe_introspection r.ctrl ~mb:"src" ~codes:[ "test.event" ] ~key:Hfl.any
    ~handler:(fun ev -> seen := ev :: !seen)
    ();
  (* Give the Enable_events message time to land, then raise events. *)
  ignore
    (Engine.schedule_after r.engine (Time.ms 5.0) (fun () ->
         Openmb_mbox.Mb_base.raise_event (Openmb_apps.Dummy_mb.base r.src)
           (Event.Introspect { code = "test.event"; key = Hfl.any; info = Json.Null });
         Openmb_mbox.Mb_base.raise_event (Openmb_apps.Dummy_mb.base r.src)
           (Event.Introspect { code = "other.event"; key = Hfl.any; info = Json.Null })));
  Engine.run r.engine;
  Alcotest.(check int) "only subscribed code delivered" 1 (List.length !seen)

let test_concurrent_moves () =
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:test_config () in
  let mbs =
    List.init 4 (fun i ->
        let mb = Openmb_apps.Dummy_mb.create engine ~name:(Printf.sprintf "mb%d" i) () in
        Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl mb) ());
        mb)
  in
  (match mbs with
  | [ a; _b; c; _d ] ->
    Openmb_apps.Dummy_mb.populate a ~n:25;
    Openmb_apps.Dummy_mb.populate c ~n:25
  | _ -> assert false);
  let done_count = ref 0 in
  Controller.move_internal ctrl ~src:"mb0" ~dst:"mb1" ~key:Hfl.any ~on_done:(fun res ->
      (match res with Ok _ -> incr done_count | Error _ -> ()));
  Controller.move_internal ctrl ~src:"mb2" ~dst:"mb3" ~key:Hfl.any ~on_done:(fun res ->
      (match res with Ok _ -> incr done_count | Error _ -> ()));
  Engine.run engine;
  Alcotest.(check int) "both moves completed" 2 !done_count;
  (match mbs with
  | [ _; b; _; d ] ->
    Alcotest.(check int) "mb1 got state" 25 (Openmb_apps.Dummy_mb.chunk_count b);
    Alcotest.(check int) "mb3 got state" 25 (Openmb_apps.Dummy_mb.chunk_count d)
  | _ -> assert false)

let test_clone_config () =
  let r = make_rig () in
  let cfg = Openmb_mbox.Mb_base.config (Openmb_apps.Dummy_mb.base r.src) in
  Config_tree.set cfg [ "rules"; "http" ] [ Json.String "allow" ];
  Config_tree.set cfg [ "rules"; "ssh" ] [ Json.String "deny" ];
  Config_tree.set cfg [ "cache" ] [ Json.Int 512 ];
  let result = ref None in
  Controller.clone_config r.ctrl ~src:"src" ~dst:"dst" ~key:[] ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok n) -> Alcotest.(check int) "three entries cloned" 3 n
  | _ -> Alcotest.fail "cloneConfig failed");
  let dst_cfg = Openmb_mbox.Mb_base.config (Openmb_apps.Dummy_mb.base r.dst) in
  Alcotest.(check int) "destination has the subtree" 3 (Config_tree.size dst_cfg);
  match Config_tree.get dst_cfg [ "rules"; "ssh" ] with
  | [ { Config_tree.values = [ Json.String "deny" ]; _ } ] -> ()
  | _ -> Alcotest.fail "cloned value wrong"

let test_clone_config_unknown_dst () =
  let r = make_rig () in
  Config_tree.set (Openmb_mbox.Mb_base.config (Openmb_apps.Dummy_mb.base r.src))
    [ "x" ] [ Json.Int 1 ];
  let result = ref None in
  Controller.clone_config r.ctrl ~src:"src" ~dst:"nope" ~key:[] ~on_done:(fun res ->
      result := Some res);
  Engine.run r.engine;
  match !result with
  | Some (Error (Errors.Unknown_mb _)) -> ()
  | _ -> Alcotest.fail "expected unknown-mb error"

let test_timed_subscription_expires () =
  let r = make_rig () in
  let seen = ref 0 in
  Controller.subscribe_introspection r.ctrl ~expires_after:(Time.ms 100.0) ~mb:"src"
    ~codes:[ "tick" ] ~key:Hfl.any
    ~handler:(fun _ -> incr seen)
    ();
  let raise_at ts =
    ignore
      (Engine.schedule_at r.engine (Time.ms ts) (fun () ->
           Openmb_mbox.Mb_base.raise_event (Openmb_apps.Dummy_mb.base r.src)
             (Event.Introspect { code = "tick"; key = Hfl.any; info = Json.Null })))
  in
  raise_at 20.0;
  raise_at 50.0;
  raise_at 200.0;
  (* after expiry *)
  Engine.run r.engine;
  Alcotest.(check int) "only events before expiry delivered" 2 !seen

let test_unsubscribe () =
  let r = make_rig () in
  let seen = ref 0 in
  Controller.subscribe_introspection r.ctrl ~mb:"src" ~codes:[ "tick" ] ~key:Hfl.any
    ~handler:(fun _ -> incr seen)
    ();
  ignore
    (Engine.schedule_at r.engine (Time.ms 20.0) (fun () ->
         Openmb_mbox.Mb_base.raise_event (Openmb_apps.Dummy_mb.base r.src)
           (Event.Introspect { code = "tick"; key = Hfl.any; info = Json.Null })));
  ignore
    (Engine.schedule_at r.engine (Time.ms 40.0) (fun () ->
         Controller.unsubscribe_introspection r.ctrl ~mb:"src" ~codes:[ "tick" ]));
  ignore
    (Engine.schedule_at r.engine (Time.ms 60.0) (fun () ->
         Openmb_mbox.Mb_base.raise_event (Openmb_apps.Dummy_mb.base r.src)
           (Event.Introspect { code = "tick"; key = Hfl.any; info = Json.Null })));
  Engine.run r.engine;
  Alcotest.(check int) "nothing delivered after unsubscribe" 1 !seen

let test_disconnect_mid_move () =
  (* The destination vanishes while a move streams: the controller must
     not crash, and the transfer is abandoned (puts can no longer be
     delivered, so the move never returns success). *)
  let r = make_rig ~src_chunks:200 () in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res);
  ignore
    (Engine.schedule_after r.engine (Time.us 400.0) (fun () ->
         Controller.disconnect r.ctrl "dst"));
  Engine.run r.engine;
  (match !result with
  | Some (Ok _) -> Alcotest.fail "move must not complete against a dead destination"
  | Some (Error _) | None -> ());
  Alcotest.(check int) "source keeps its state" 200 (Openmb_apps.Dummy_mb.chunk_count r.src)

let test_corrupt_chunk_rejected () =
  (* A chunk whose ciphertext was corrupted in transit must be refused
     by the destination, failing the move rather than importing
     garbage. *)
  let r = make_rig ~src_chunks:1 () in
  let impl_src = Openmb_apps.Dummy_mb.impl r.src in
  let chunk =
    match impl_src.Southbound.get_support_perflow Hfl.any with
    | Ok [ c ] -> c
    | _ -> Alcotest.fail "expected one chunk"
  in
  let corrupt = { chunk with Chunk.cipher = "garbage" ^ chunk.Chunk.cipher } in
  let impl_dst = Openmb_apps.Dummy_mb.impl r.dst in
  match impl_dst.Southbound.put_support_perflow corrupt with
  | Error (Errors.Bad_chunk _) -> ()
  | Ok () -> Alcotest.fail "corrupt chunk accepted"
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e)

let test_move_empty_key_range () =
  (* Moving a key that matches nothing returns successfully with zero
     chunks (and the deferred delete is a harmless no-op). *)
  let r = make_rig ~src_chunks:5 () in
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst"
    ~key:(Hfl.of_string "nw_src=192.168.0.0/16")
    ~on_done:(fun res -> result := Some res);
  Engine.run r.engine;
  (match !result with
  | Some (Ok mr) -> Alcotest.(check int) "zero chunks" 0 mr.Controller.chunks_moved
  | _ -> Alcotest.fail "empty move failed");
  Alcotest.(check int) "source untouched" 5 (Openmb_apps.Dummy_mb.chunk_count r.src)

let test_buffered_peak_tracked () =
  (* Chunks serialize slowly while events pour in: the controller must
     buffer them (peak > 0) and forward every one afterwards. *)
  let r = make_rig ~src_chunks:100 () in
  Openmb_apps.Dummy_mb.start_events r.src ~rate_pps:5000.0;
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun _ ->
      ignore
        (Engine.schedule_after r.engine (Time.ms 5.0) (fun () ->
             Openmb_apps.Dummy_mb.stop_events r.src)));
  Engine.run r.engine;
  Alcotest.(check bool) "events were buffered at some point" true
    (Controller.events_buffered_peak r.ctrl > 0);
  Alcotest.(check int) "all buffered events eventually replayed"
    (Controller.events_forwarded r.ctrl)
    (Openmb_apps.Dummy_mb.reprocessed r.dst)

(* The buffered-events gauge falls back with the buffers: once the move
   has completed under events, it reads 0, and its peak is the 58 the
   same seedless run always reached.  A gauge set only when an event is
   buffered is left at 26 here, the level before the last flush. *)
let test_buffered_gauge_drains () =
  let r = make_rig ~src_chunks:100 () in
  Openmb_apps.Dummy_mb.start_events r.src ~rate_pps:5000.0;
  let result = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res;
      ignore
        (Engine.schedule_after r.engine (Time.ms 5.0) (fun () ->
             Openmb_apps.Dummy_mb.stop_events r.src)));
  Engine.run r.engine;
  (match !result with Some (Ok _) -> () | _ -> Alcotest.fail "move failed");
  let g = Telemetry.gauge (Controller.telemetry r.ctrl) "controller.evt_buffered" in
  Alcotest.(check int) "nothing buffered, gauge at 0" 0 (Telemetry.gauge_value g);
  Alcotest.(check int) "peak unchanged" 58 (Controller.events_buffered_peak r.ctrl);
  Alcotest.(check int) "no transfers left" 0 (Controller.active_transfers r.ctrl)

(* The agent applies a put's sequence number at most once: a one-chunk
   batch delivered twice under its op id, then once more under a fresh
   op id (a controller's retry), installs the chunk once, and every
   delivery is answered with the batch ack recorded the first time. *)
let test_agent_put_at_most_once () =
  let engine = Engine.create () in
  let tel = Telemetry.create () in
  let src = Openmb_apps.Dummy_mb.create engine ~name:"src" () in
  Openmb_apps.Dummy_mb.populate src ~n:1;
  let chunk =
    match (Openmb_apps.Dummy_mb.impl src).Southbound.get_support_perflow Hfl.any with
    | Ok [ c ] -> c
    | _ -> Alcotest.fail "expected one chunk"
  in
  let dst = Openmb_apps.Dummy_mb.create engine ~name:"dst" () in
  let impl = Openmb_apps.Dummy_mb.impl dst in
  let applied = ref 0 in
  let counting c =
    incr applied;
    impl.Southbound.put_support_perflow c
  in
  let agent =
    Mb_agent.create engine ~telemetry:tel
      ~impl:{ impl with Southbound.put_support_perflow = counting } ()
  in
  let replies = ref [] in
  Mb_agent.set_uplinks agent
    ~send_reply:(function
      | Message.Reply { op; reply } -> replies := (op, reply) :: !replies
      | Message.Event_msg _ -> ())
    ~send_event:ignore;
  let deliver op =
    Mb_agent.handle_request agent
      { Message.op; tid = 0; req = Message.Put_batch { seq = 5; chunks = [ chunk ] } };
    Engine.run engine
  in
  deliver 1;
  let table = Openmb_apps.Dummy_mb.support_entries dst in
  Alcotest.(check int) "first delivery installs the chunk" 1 (List.length table);
  deliver 1;
  deliver 2;
  Alcotest.(check int) "applied once" 1 !applied;
  let ack = Message.Batch_ack { seq = 5; count = 1; errors = [] } in
  Alcotest.(check (list (pair int string))) "every delivery answered with the recorded ack"
    (List.map (fun op -> (op, Message.describe_reply ack)) [ 1; 1; 2 ])
    (List.rev_map (fun (op, r) -> (op, Message.describe_reply r)) !replies);
  Alcotest.(check (list (pair string string))) "table unchanged after the first delivery"
    table (Openmb_apps.Dummy_mb.support_entries dst);
  Alcotest.(check int) "mb.dedup_hits" 2
    (Telemetry.counter_value (Telemetry.counter tel "mb.dedup_hits"))

let test_duplicate_connect_rejected () =
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:test_config () in
  let mb = Openmb_apps.Dummy_mb.create engine ~name:"x" () in
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl mb) ());
  Alcotest.check_raises "duplicate" (Failure "Controller.connect: duplicate MB name x")
    (fun () ->
      Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl mb) ()))

(* With no batch allowed in flight, or none cut, a move never sends a
   queued chunk, and no op owns the queue, so no timeout fires: such a
   config is refused up front, by a controller and by a replicated
   pair's leader. *)
let test_unfinishable_config_rejected () =
  let engine = Engine.create () in
  let rejects what create =
    match create () with
    | _ -> Alcotest.failf "%s was accepted" what
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (what, config) ->
      rejects what (fun () -> ignore (Controller.create engine ~config ()));
      rejects ("a replicated " ^ what) (fun () ->
          ignore
            (Controller_replica.create engine
               ~config:{ Controller_replica.default_config with ctrl = config }
               ())))
    [
      ("put_window = 0", { test_config with put_window = 0 });
      ("batch_chunks = 0", { test_config with batch_chunks = 0 });
    ]

let test_move_under_binary_framing () =
  (* The negotiated framing only changes byte accounting on the
     simulated channels; a move must produce identical functional
     results under either, and binary framing must not inflate the
     bytes transferred. *)
  let run config_framing =
    let engine = Engine.create () in
    let ctrl =
      Controller.create engine
        ~config:{ test_config with Controller.framing = config_framing }
        ()
    in
    let src = Openmb_apps.Dummy_mb.create engine ~name:"src" () in
    let dst = Openmb_apps.Dummy_mb.create engine ~name:"dst" () in
    Openmb_apps.Dummy_mb.populate src ~n:20;
    Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl src) ());
    Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl dst) ());
    let result = ref None in
    Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
        result := Some res);
    Engine.run engine;
    match !result with
    | Some (Ok mr) ->
      ( (mr.Controller.chunks_moved, mr.Controller.bytes_moved),
        mr.Controller.duration,
        Openmb_apps.Dummy_mb.chunk_count dst,
        Openmb_apps.Dummy_mb.chunk_count src )
    | _ -> Alcotest.fail "move failed"
  in
  let moved_j, dur_json, dj, sj = run Framing.Json in
  let moved_b, dur_bin, db, sb = run Framing.Binary in
  Alcotest.(check (pair int int)) "json moved everything" (20, snd moved_j) moved_j;
  Alcotest.(check (pair int int)) "identical state accounting" moved_j moved_b;
  Alcotest.(check (pair int int)) "same dst/src occupancy" (dj, sj) (db, sb);
  (* Smaller messages on the simulated channels: the move returns
     sooner under binary framing. *)
  Alcotest.(check bool) "binary move is faster" true
    (Time.to_seconds dur_bin < Time.to_seconds dur_json)

(* Protocol-level property: an arbitrary sequence of moves between
   three MBs neither loses nor duplicates state — every chunk ends up
   at exactly one instance, and the union of keys is preserved. *)
let prop_moves_conserve_state =
  QCheck2.Test.make ~name:"random move sequences conserve state" ~count:25
    QCheck2.Gen.(
      pair (int_range 1 30) (list_size (int_range 1 6) (pair (int_bound 2) (int_bound 2))))
    (fun (n_chunks, moves) ->
      let engine = Engine.create () in
      let ctrl = Controller.create engine ~config:test_config () in
      let mbs =
        Array.init 3 (fun i ->
            let mb =
              Openmb_apps.Dummy_mb.create engine ~name:(Printf.sprintf "mb%d" i) ()
            in
            Controller.connect ctrl
              (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl mb) ());
            mb)
      in
      Openmb_apps.Dummy_mb.populate mbs.(0) ~n:n_chunks;
      (* Execute the moves strictly one after another (each waits for
         the previous to return), self-moves skipped. *)
      let rec run_moves = function
        | [] -> ()
        | (src, dst) :: rest ->
          if src = dst then run_moves rest
          else
            Controller.move_internal ctrl
              ~src:(Printf.sprintf "mb%d" src)
              ~dst:(Printf.sprintf "mb%d" dst)
              ~key:Hfl.any
              ~on_done:(fun _ -> run_moves rest)
      in
      run_moves moves;
      Engine.run engine;
      let counts = Array.map Openmb_apps.Dummy_mb.chunk_count mbs in
      Array.fold_left ( + ) 0 counts = n_chunks)

(* Batching and windowing change only message timing: a transfer cut
   into batches under a window must be observationally equivalent to
   the reference, batches of one chunk in a window of one — same
   destination state tables, same chunk/byte accounting, the same
   per-key replay order for forwarded re-process events, and the same
   number of replays at the destination — under random scenario shapes
   with packets arriving mid-move. *)
type transfer_trace = {
  tr_chunks : int;
  tr_bytes : int;
  tr_dst_support : (string * string) list;
  tr_dst_report : (string * string) list;
  tr_dst_reprocessed : int;
  tr_fwd_by_key : (string * string list) list;
}

let run_move_scenario ?(timeline = true) ~batch_chunks ~batch_bytes ~put_window ~n_chunks
    ~n_reports ~rate_pps () =
  let engine = Engine.create () in
  let telemetry = Telemetry.create ~timeline () in
  let config = { test_config with batch_chunks; batch_bytes; put_window } in
  let ctrl = Controller.create engine ~config ~telemetry () in
  let src = Openmb_apps.Dummy_mb.create engine ~name:"src" () in
  let dst = Openmb_apps.Dummy_mb.create engine ~name:"dst" () in
  Openmb_apps.Dummy_mb.populate src ~n:n_chunks;
  Openmb_apps.Dummy_mb.populate_reporting src ~n:n_reports;
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl src) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl dst) ());
  if rate_pps > 0.0 then begin
    Openmb_apps.Dummy_mb.start_events src ~rate_pps;
    (* Stop at a fixed virtual time, so the schedule of raised events is
       independent of when the move happens to return. *)
    ignore
      (Engine.schedule_after engine (Time.ms 8.0) (fun () ->
           Openmb_apps.Dummy_mb.stop_events src))
  end;
  let result = ref None in
  Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      result := Some res);
  Engine.run engine;
  match !result with
  | Some (Ok mr) ->
    (* Per-key order of forwarded re-process events; the detail line is
       "src->dst reprocess key=<key> pkt=<label>" (no spaces within
       fields). *)
    let tbl = Hashtbl.create 16 in
    let find_marker detail marker =
      let n = String.length detail and m = String.length marker in
      let rec scan i =
        if i + m > n then None
        else if String.sub detail i m = marker then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let tr = Telemetry.trace telemetry in
    let controller = Telemetry.Trace.lookup_id tr "controller"
    and event_fwd = Telemetry.Trace.lookup_id tr "event-fwd" in
    Telemetry.Trace.fold tr ~init:()
      ~f:(fun () ~actor ~name ~op:_ ~a0:_ ~a1:_ ~t0:_ ~t1:_ ~detail ->
        if actor = controller && name = event_fwd then
          (* The packet label may itself contain spaces, so split on the
             field markers rather than on whitespace. *)
          match (find_marker detail " key=", find_marker detail " pkt=") with
          | Some k, Some p when k < p ->
            let key = String.sub detail (k + 5) (p - k - 5) in
            let pkt = String.sub detail (p + 5) (String.length detail - p - 5) in
            let prev = try Hashtbl.find tbl key with Not_found -> [] in
            Hashtbl.replace tbl key (pkt :: prev)
          | _ -> Alcotest.fail ("unparsable event-fwd detail: " ^ detail));
    {
      tr_chunks = mr.Controller.chunks_moved;
      tr_bytes = mr.Controller.bytes_moved;
      tr_dst_support = Openmb_apps.Dummy_mb.support_entries dst;
      tr_dst_report = Openmb_apps.Dummy_mb.report_entries dst;
      tr_dst_reprocessed = Openmb_apps.Dummy_mb.reprocessed dst;
      tr_fwd_by_key =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []);
    }
  | Some (Error e) -> Alcotest.fail ("move failed: " ^ Errors.to_string e)
  | None -> Alcotest.fail "move did not return"

let prop_batched_transfer_equivalent =
  QCheck2.Test.make ~name:"batched transfer equals batches of one in a window of one" ~count:30
    QCheck2.Gen.(
      pair
        (quad (int_range 1 40) (int_range 0 10) (int_range 2 10) (int_range 1 6))
        (int_bound 4))
    (fun ((n_chunks, n_reports, batch_chunks, put_window), rate_level) ->
      let rate_pps = float_of_int rate_level *. 2000.0 in
      (* Alternate a tight byte bound in so batches also get cut on
         size, not only on chunk count. *)
      let batch_bytes = if batch_chunks mod 2 = 0 then 2048 else 32768 in
      let reference =
        run_move_scenario ~batch_chunks:1 ~batch_bytes:32768 ~put_window:1 ~n_chunks
          ~n_reports ~rate_pps ()
      in
      let batched =
        run_move_scenario ~batch_chunks ~batch_bytes ~put_window ~n_chunks ~n_reports
          ~rate_pps ()
      in
      reference = batched)

(* Off a timeline the controller still forwards re-process events, but
   logs no event-fwd instant for them. *)
let test_event_fwd_off_timeline () =
  let run timeline =
    run_move_scenario ~timeline ~batch_chunks:4 ~batch_bytes:32768 ~put_window:2
      ~n_chunks:40 ~n_reports:0 ~rate_pps:8000.0 ()
  in
  let on = run true and off = run false in
  Alcotest.(check bool) "events forwarded" true (off.tr_dst_reprocessed > 0);
  Alcotest.(check int) "same events either way" on.tr_dst_reprocessed off.tr_dst_reprocessed;
  Alcotest.(check bool) "logged on a timeline" true (on.tr_fwd_by_key <> []);
  Alcotest.(check int) "no event-fwd row off one" 0 (List.length off.tr_fwd_by_key)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_core"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "table 1" `Quick test_taxonomy_table1;
          Alcotest.test_case "operation legality" `Quick test_taxonomy_operations;
          Alcotest.test_case "string roundtrips" `Quick test_taxonomy_strings;
        ] );
      ( "config_tree",
        [
          Alcotest.test_case "set/get" `Quick test_config_set_get;
          Alcotest.test_case "del" `Quick test_config_del;
          Alcotest.test_case "replace_all" `Quick test_config_replace_all;
          Alcotest.test_case "value/subtree conflict" `Quick
            test_config_value_vs_subtree_conflict;
          Alcotest.test_case "path strings" `Quick test_config_path_strings;
        ] );
      ( "chunk",
        [
          Alcotest.test_case "seal/unseal" `Quick test_chunk_seal_unseal;
          Alcotest.test_case "opacity" `Quick test_chunk_opacity;
          Alcotest.test_case "compression" `Quick test_chunk_compression;
          Alcotest.test_case "compress and seal pinning" `Quick test_compress_seal_pinning;
          Alcotest.test_case "seal and unseal budgets" `Quick test_chunk_seal_unseal_budget;
        ]
        @ qcheck [ prop_chunk_roundtrip ] );
      ( "event",
        [
          Alcotest.test_case "filter codes" `Quick test_event_filter;
          Alcotest.test_case "filter key scope" `Quick test_event_filter_key_scope;
        ] );
      ( "message",
        [
          Alcotest.test_case "request roundtrips" `Quick test_message_request_roundtrips;
          Alcotest.test_case "tid roundtrips" `Quick test_message_tid_roundtrip;
          Alcotest.test_case "reply roundtrips" `Quick test_message_reply_roundtrips;
          Alcotest.test_case "event roundtrips" `Quick test_message_event_roundtrips;
          Alcotest.test_case "chunk wire bytes" `Quick test_message_wire_bytes_chunked;
          Alcotest.test_case "json size is the encoded length" `Quick
            test_json_size_is_encoded_length;
          Alcotest.test_case "move message sizing allocates nothing" `Quick
            test_move_message_sizing_allocates_nothing;
          Alcotest.test_case "wire pinning" `Quick test_message_wire_pinning;
          Alcotest.test_case "wire corpus names every kind" `Quick test_corpus_names_every_kind;
          Alcotest.test_case "request codec equivalence" `Quick
            test_request_codec_equivalence;
          Alcotest.test_case "reply codec equivalence" `Quick test_reply_codec_equivalence;
          Alcotest.test_case "binary decode rejects garbage" `Quick
            test_binary_decode_rejects_garbage;
          Alcotest.test_case "malformed frames raise Decode_error" `Quick
            test_malformed_frames_raise_decode_error;
          Alcotest.test_case "binary request decode allocation" `Quick
            test_binary_request_decode_allocation;
        ] );
      ( "agent",
        [ Alcotest.test_case "put applied at most once" `Quick test_agent_put_at_most_once ] );
      ( "controller",
        [
          Alcotest.test_case "move all" `Quick test_move_internal_basic;
          Alcotest.test_case "move subset" `Quick test_move_internal_subset;
          Alcotest.test_case "move unknown MB" `Quick test_move_unknown_mb;
          Alcotest.test_case "move granularity error" `Quick test_move_granularity_error;
          Alcotest.test_case "move kind mismatch" `Quick test_move_kind_mismatch;
          Alcotest.test_case "events buffered and forwarded" `Quick
            test_move_with_events_buffered_and_forwarded;
          Alcotest.test_case "stray events dropped" `Quick
            test_event_for_unmoved_state_dropped;
          Alcotest.test_case "clone support" `Quick test_clone_support;
          Alcotest.test_case "merge internal" `Quick test_merge_internal;
          Alcotest.test_case "merge with empty shared" `Quick test_merge_with_empty_shared;
          Alcotest.test_case "read/write config" `Quick test_read_write_config;
          Alcotest.test_case "read unknown config key" `Quick test_read_config_unknown_key;
          Alcotest.test_case "stats" `Quick test_stats_call;
          Alcotest.test_case "introspection subscription" `Quick
            test_introspection_subscription;
          Alcotest.test_case "concurrent moves" `Quick test_concurrent_moves;
          Alcotest.test_case "clone config" `Quick test_clone_config;
          Alcotest.test_case "clone config unknown dst" `Quick test_clone_config_unknown_dst;
          Alcotest.test_case "timed subscription expires" `Quick
            test_timed_subscription_expires;
          Alcotest.test_case "unsubscribe" `Quick test_unsubscribe;
          Alcotest.test_case "disconnect mid-move" `Quick test_disconnect_mid_move;
          Alcotest.test_case "corrupt chunk rejected" `Quick test_corrupt_chunk_rejected;
          Alcotest.test_case "move empty key range" `Quick test_move_empty_key_range;
          Alcotest.test_case "buffered peak tracked" `Quick test_buffered_peak_tracked;
          Alcotest.test_case "buffered gauge drains" `Quick test_buffered_gauge_drains;
          Alcotest.test_case "duplicate connect" `Quick test_duplicate_connect_rejected;
          Alcotest.test_case "unfinishable config rejected" `Quick
            test_unfinishable_config_rejected;
          Alcotest.test_case "move under binary framing" `Quick
            test_move_under_binary_framing;
          Alcotest.test_case "event-fwd off a timeline" `Quick test_event_fwd_off_timeline;
        ]
        @ qcheck [ prop_moves_conserve_state; prop_batched_transfer_equivalent ] );
    ]
