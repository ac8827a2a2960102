(* Tests for the middlebox implementations. *)

open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core
open Openmb_mbox

let mk_packet ?(id = 0) ?(ts = 0.0) ?(src = "10.0.0.1") ?(dst = "1.1.1.5") ?(sport = 1234)
    ?(dport = 80) ?(proto = Packet.Tcp) ?(flags = Packet.no_flags) ?(app = Packet.Plain)
    ?(tokens = [||]) () =
  Packet.make ~flags ~app
    ~body:(Packet.Raw (Payload.of_tokens tokens))
    ~id ~ts:(Time.seconds ts) ~src_ip:(Addr.of_string src) ~dst_ip:(Addr.of_string dst)
    ~src_port:sport ~dst_port:dport ~proto ()

let run_all engine = Engine.run engine

(* The details of a timeline's [kind] instants by [actor], oldest first. *)
let timeline_details tel ~actor ~kind =
  let tr = Telemetry.trace tel in
  let actor = Telemetry.Trace.lookup_id tr actor and kind = Telemetry.Trace.lookup_id tr kind in
  Telemetry.Trace.fold tr ~init:[]
    ~f:(fun acc ~actor:a ~name ~op:_ ~a0:_ ~a1:_ ~t0:_ ~t1:_ ~detail ->
      if a = actor && name = kind then detail :: acc else acc)
  |> List.rev

(* The filter of an agent whose control application enabled every
   introspection event. *)
let admit_all () =
  let f = Event.Filter.create () in
  Event.Filter.enable f ~codes:[] ~key:Hfl.any;
  f

(* ------------------------------------------------------------------ *)
(* State table                                                         *)
(* ------------------------------------------------------------------ *)

let test_state_table_basic () =
  let t = State_table.create ~granularity:Hfl.full_granularity () in
  let tup = Five_tuple.of_packet (mk_packet ()) in
  let entry, created = State_table.find_or_create t tup ~default:(fun () -> 1) in
  Alcotest.(check bool) "created" true created;
  let entry2, created2 = State_table.find_or_create t tup ~default:(fun () -> 2) in
  Alcotest.(check bool) "found" false created2;
  Alcotest.(check int) "same entry" entry.State_table.value entry2.State_table.value;
  Alcotest.(check int) "size" 1 (State_table.size t)

let test_state_table_bidir () =
  let t = State_table.create ~granularity:Hfl.full_granularity () in
  let tup = Five_tuple.of_packet (mk_packet ()) in
  ignore (State_table.find_or_create t tup ~default:(fun () -> 7));
  (match State_table.find_bidir t (Five_tuple.reverse tup) with
  | Some e -> Alcotest.(check int) "reverse finds" 7 e.State_table.value
  | None -> Alcotest.fail "reverse lookup failed");
  Alcotest.(check bool) "exact reverse lookup misses" true
    (State_table.find t (Five_tuple.reverse tup) = None)

let test_state_table_matching_scan () =
  let t = State_table.create ~granularity:Hfl.full_granularity () in
  for i = 0 to 9 do
    let tup =
      Five_tuple.of_packet (mk_packet ~src:(Printf.sprintf "10.0.0.%d" i) ~sport:(1000 + i) ())
    in
    ignore (State_table.find_or_create t tup ~default:(fun () -> i))
  done;
  let hits = State_table.matching t (Hfl.of_string "nw_src=10.0.0.4/30") in
  Alcotest.(check int) "prefix scan" 4 (List.length hits);
  let removed = State_table.remove_matching t (Hfl.of_string "nw_src=10.0.0.4/30") in
  Alcotest.(check int) "removed" 4 (List.length removed);
  Alcotest.(check int) "left" 6 (State_table.size t)

let test_state_table_insert_clears_moved () =
  let t = State_table.create ~granularity:Hfl.full_granularity () in
  let tup = Five_tuple.of_packet (mk_packet ()) in
  let entry, _ = State_table.find_or_create t tup ~default:(fun () -> 0) in
  entry.State_table.moved <- true;
  State_table.insert t ~key:entry.State_table.key 9;
  match State_table.find t tup with
  | Some e ->
    Alcotest.(check int) "value replaced" 9 e.State_table.value;
    Alcotest.(check bool) "moved cleared" false e.State_table.moved
  | None -> Alcotest.fail "entry vanished"

let test_state_table_indexed_equivalence () =
  let linear = State_table.create ~granularity:Hfl.full_granularity () in
  let indexed = State_table.create ~indexed:true ~granularity:Hfl.full_granularity () in
  for i = 0 to 49 do
    let tup =
      Five_tuple.of_packet
        (mk_packet ~src:(Printf.sprintf "10.0.%d.%d" (i mod 3) (1 + i)) ~sport:(1000 + i) ())
    in
    ignore (State_table.find_or_create linear tup ~default:(fun () -> i));
    ignore (State_table.find_or_create indexed tup ~default:(fun () -> i))
  done;
  let queries =
    [
      Hfl.of_string "nw_src=10.0.0.5/32";
      Hfl.of_string "nw_src=10.0.1.0/24";
      Hfl.of_string "nw_src=10.0.0.5/32,tp_src=1004";
      Hfl.of_string "nw_src=192.168.0.1/32";
      Hfl.any;
    ]
  in
  List.iter
    (fun q ->
      let keys t =
        List.sort String.compare
          (List.map (fun (e : int State_table.entry) -> Hfl.to_string e.key)
             (State_table.matching t q))
      in
      Alcotest.(check (list string))
        (Printf.sprintf "same matches for %s" (Hfl.to_string q))
        (keys linear) (keys indexed))
    queries;
  (* Removal keeps the index consistent. *)
  ignore (State_table.remove_matching indexed (Hfl.of_string "nw_src=10.0.0.5/32"));
  Alcotest.(check (list string)) "removed from index" []
    (List.map
       (fun (e : int State_table.entry) -> Hfl.to_string e.key)
       (State_table.matching indexed (Hfl.of_string "nw_src=10.0.0.5/32")))

let prop_state_table_index_equivalence =
  QCheck2.Test.make ~name:"indexed matching equals linear matching" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) (pair (int_bound 8) (int_range 1 5000)))
        (int_bound 8))
    (fun (flows, q_host) ->
      let mk_tab indexed =
        let t = State_table.create ~indexed ~granularity:Hfl.full_granularity () in
        List.iter
          (fun (host, port) ->
            let tup =
              Five_tuple.of_packet
                (mk_packet ~src:(Printf.sprintf "10.0.0.%d" (1 + host)) ~sport:port ())
            in
            ignore (State_table.find_or_create t tup ~default:(fun () -> port)))
          flows;
        t
      in
      let q = Hfl.of_string (Printf.sprintf "nw_src=10.0.0.%d/32" (1 + q_host)) in
      let keys t =
        List.sort String.compare
          (List.map (fun (e : int State_table.entry) -> Hfl.to_string e.key)
             (State_table.matching t q))
      in
      keys (mk_tab false) = keys (mk_tab true))

(* A random HFL filter of varying coarseness: a source prefix (host
   bits cleared) optionally conjoined with a source-port constraint. *)
let filter_gen =
  QCheck2.Gen.(
    map
      (fun (host, len, port) ->
        let base =
          match len with
          | 32 -> 1 + host
          | 30 -> (1 + host) land lnot 3
          | _ -> 0
        in
        let prefix = Printf.sprintf "nw_src=10.0.0.%d/%d" base len in
        match port with
        | None -> Hfl.of_string prefix
        | Some p -> Hfl.of_string (Printf.sprintf "%s,tp_src=%d" prefix p))
      (triple (int_bound 8) (oneofl [ 8; 24; 30; 32 ]) (opt (int_range 1 5000))))

let flow_tuple (host, port) =
  Five_tuple.of_packet
    (mk_packet ~src:(Printf.sprintf "10.0.0.%d" (1 + host)) ~sport:port ())

let entry_keys entries =
  List.sort String.compare
    (List.map (fun (e : int State_table.entry) -> Hfl.to_string e.key) entries)

let prop_state_table_index_remove_equivalence =
  QCheck2.Test.make ~name:"indexed remove_matching equals linear" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) (pair (int_bound 8) (int_range 1 5000)))
        filter_gen)
    (fun (flows, q) ->
      let mk_tab indexed =
        let t = State_table.create ~indexed ~granularity:Hfl.full_granularity () in
        List.iter
          (fun flow ->
            ignore (State_table.find_or_create t (flow_tuple flow) ~default:(fun () -> 0)))
          flows;
        t
      in
      let a = mk_tab false and b = mk_tab true in
      entry_keys (State_table.remove_matching a q)
      = entry_keys (State_table.remove_matching b q)
      && State_table.size a = State_table.size b
      && entry_keys (State_table.matching a Hfl.any)
         = entry_keys (State_table.matching b Hfl.any))

let prop_state_table_packed_equivalence =
  (* Full-granularity tables keyed by packed five-tuples must be
     observationally identical to the string-keyed implementation,
     including reverse-direction lookups and removal by filter. *)
  QCheck2.Test.make ~name:"packed keys equal string keys" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) (triple (int_bound 8) (int_range 1 5000) bool))
        filter_gen)
    (fun (flows, q) ->
      let tuple_of (host, port, reversed) =
        let tup = flow_tuple (host, port) in
        if reversed then Five_tuple.reverse tup else tup
      in
      let mk_tab packed =
        let t = State_table.create ~packed ~granularity:Hfl.full_granularity () in
        List.iter
          (fun flow ->
            ignore (State_table.find_or_create t (tuple_of flow) ~default:(fun () -> 0)))
          flows;
        t
      in
      let a = mk_tab true and b = mk_tab false in
      let probe t tup =
        let key (e : int State_table.entry) = Hfl.to_string e.key in
        ( Option.map key (State_table.find t tup),
          Option.map key (State_table.find t (Five_tuple.reverse tup)),
          Option.map key (State_table.find_bidir t (Five_tuple.reverse tup)) )
      in
      let lookups_agree =
        List.for_all (fun flow -> probe a (tuple_of flow) = probe b (tuple_of flow)) flows
      in
      entry_keys (State_table.matching a q) = entry_keys (State_table.matching b q)
      && lookups_agree
      && entry_keys (State_table.remove_matching a q)
         = entry_keys (State_table.remove_matching b q)
      && State_table.size a = State_table.size b)

let prop_state_table_masked_equivalence =
  (* Coarse granularities probe the flat core through masked packed
     words: tables at every granularity must stay observationally
     identical to the string-keyed layout, and the exact-key lookup
     ([find_key]) must agree with tuple lookups.  Ports are drawn from
     a tiny range so distinct tuples collide under the mask. *)
  QCheck2.Test.make ~name:"masked granularities equal string keys" ~count:100
    QCheck2.Gen.(
      triple (int_bound 3)
        (list_size (int_range 0 40) (triple (int_bound 8) (int_range 1 50) bool))
        filter_gen)
    (fun (gi, flows, q) ->
      let granularity =
        match gi with
        | 0 -> Hfl.[ Dim_src_ip; Dim_src_port; Dim_proto ] (* the NAT's *)
        | 1 -> Hfl.[ Dim_src_ip; Dim_dst_ip ]
        | 2 -> Hfl.[ Dim_dst_port ]
        | _ -> Hfl.full_granularity
      in
      let tuple_of (host, port, reversed) =
        let tup = flow_tuple (host, port) in
        if reversed then Five_tuple.reverse tup else tup
      in
      let mk_tab packed =
        let t = State_table.create ~packed ~granularity () in
        List.iter
          (fun flow ->
            ignore (State_table.find_or_create t (tuple_of flow) ~default:(fun () -> 0)))
          flows;
        t
      in
      let a = mk_tab true and b = mk_tab false in
      let key (e : int State_table.entry) = Hfl.to_string e.key in
      let probe t tup =
        let r = Five_tuple.reverse tup in
        ( Option.map key (State_table.find t tup),
          Option.map key (State_table.find_bidir t r),
          Option.map key
            (State_table.find_words t ~pa:(Five_tuple.word_a r) ~pb:(Five_tuple.word_b r)) )
      in
      let lookups_agree =
        List.for_all (fun flow -> probe a (tuple_of flow) = probe b (tuple_of flow)) flows
      in
      let find_key_agrees =
        List.for_all
          (fun flow ->
            let tup = tuple_of flow in
            let k = State_table.key_of a tup in
            Option.map key (State_table.find_key a k)
            = Option.map key (State_table.find a tup)
            && Option.map key (State_table.find_key b k)
               = Option.map key (State_table.find b tup))
          flows
      in
      lookups_agree && find_key_agrees
      && entry_keys (State_table.matching a q) = entry_keys (State_table.matching b q)
      && State_table.size a = State_table.size b
      && entry_keys (State_table.remove_matching a q)
         = entry_keys (State_table.remove_matching b q)
      && State_table.size a = State_table.size b)

let prop_add_missing_keys_from_packet =
  (* [add_missing] reads the key from the packet's own fields: at every
     granularity, in every dimension order and on both layouts, the
     stored key is exactly the tuple projection, and a tuple lookup
     finds the entry. *)
  QCheck2.Test.make ~name:"add_missing keys a packet as key_of_tuple" ~count:200
    QCheck2.Gen.(
      triple
        (map2
           (fun keep order -> List.filteri (fun i _ -> List.nth keep i) order)
           (list_repeat 5 bool) (shuffle_l Hfl.full_granularity))
        bool
        (list_size (int_range 1 20)
           (map
              (fun ((src, dst, sport), (dport, proto)) ->
                mk_packet ~src:(Printf.sprintf "10.0.%d.%d" (src / 250) (1 + (src mod 250)))
                  ~dst:(Printf.sprintf "1.1.1.%d" (1 + dst))
                  ~sport ~dport ~proto ())
              (pair
                 (triple (int_bound 600) (int_bound 3) (int_range 1 65535))
                 (pair (int_range 1 65535) (oneofl Packet.[ Tcp; Udp; Icmp ]))))))
    (fun (g, packed, pkts) ->
      let t = State_table.create ~packed ~granularity:g () in
      List.for_all
        (fun (p : Packet.t) ->
          match
            State_table.find_words t ~pa:(Five_tuple.word_a_packet p)
              ~pb:(Five_tuple.word_b_packet p)
          with
          | Some _ -> true (* a flow already keyed: add_missing is for misses *)
          | None ->
            let tup = Five_tuple.of_packet p in
            let e = State_table.add_missing t p 0 in
            e.key = Hfl.key_of_tuple g tup
            && match State_table.find t tup with Some e' -> e' == e | None -> false)
        pkts)

(* ------------------------------------------------------------------ *)
(* Mb_base                                                             *)
(* ------------------------------------------------------------------ *)

let test_mb_base_queueing_latency () =
  let engine = Engine.create () in
  let cost = { Southbound.default_cost with per_packet = Time.ms 1.0 } in
  let base = Mb_base.create engine ~name:"mb" ~kind:"t" ~cost () in
  (* Two packets arriving together: the second queues behind the
     first. *)
  Mb_base.inject base (mk_packet ~id:1 ()) ~side_effects:true;
  Mb_base.inject base (mk_packet ~id:2 ()) ~side_effects:true;
  run_all engine;
  let s = Mb_base.latency_stats base in
  Alcotest.(check int) "two processed" 2 (Stats.count s);
  Alcotest.(check (float 1e-6)) "first latency 1ms" 0.001 (Stats.min_value s);
  Alcotest.(check (float 1e-6)) "second queued to 2ms" 0.002 (Stats.max_value s)

let test_mb_base_op_slowdown () =
  let engine = Engine.create () in
  let cost = { Southbound.default_cost with per_packet = Time.ms 1.0; op_slowdown = 1.5 } in
  let base = Mb_base.create engine ~name:"mb" ~kind:"t" ~cost () in
  Mb_base.set_op_active base true;
  Mb_base.inject base (mk_packet ()) ~side_effects:true;
  run_all engine;
  Alcotest.(check (float 1e-6)) "slowed per-packet cost" 0.0015
    (Stats.max_value (Mb_base.latency_stats base))

(* A 1-member batch is charged exactly what a lone packet was on the
   serial data-path clock: dispatch at [max arrival busy + per-packet
   cost] (times [op_slowdown] while an op is active), latency sample =
   dispatch - arrival.  Irregular costs and arrivals, with queueing, so
   a rounding difference would show; compared bit for bit. *)
let test_mb_base_singleton_charge () =
  let engine = Engine.create () in
  let cost = { Southbound.default_cost with per_packet = Time.us 0.7; op_slowdown = 1.02 } in
  let base = Mb_base.create engine ~name:"mb" ~kind:"t" ~cost () in
  let dispatched = ref [] in
  Mb_base.set_work base (fun ~side_effects:_ b ->
      dispatched := Engine.now engine :: !dispatched;
      Packet_batch.release b);
  (* The lone-packet charge, as the per-packet path computed it. *)
  let busy = ref Time.zero and expected = ref [] and expected_op = ref [] in
  let arrive at ~op =
    ignore
      (Engine.schedule_at engine at (fun () ->
           Mb_base.set_op_active base op;
           let c =
             if op then Time.seconds (Time.to_seconds cost.per_packet *. cost.op_slowdown)
             else cost.per_packet
           in
           busy := Time.(max at !busy + c);
           let lat = Time.to_seconds Time.(!busy - at) in
           expected := (!busy, lat) :: !expected;
           if op then expected_op := lat :: !expected_op;
           Mb_base.inject base (mk_packet ()) ~side_effects:true))
  in
  List.iter
    (fun (us, op) -> arrive (Time.us us) ~op)
    [ (1.3, false); (1.3, false); (1.9, true); (2.05, true); (7.77, false); (7.9, true) ];
  run_all engine;
  let bits = List.map Int64.bits_of_float in
  let expected = List.rev !expected in
  Alcotest.(check (list int64)) "dispatch times" (bits (List.map fst expected))
    (bits (List.rev !dispatched));
  (* Count, sum (in dispatch order), min and max of the samples. *)
  let summary l =
    ( List.length l,
      bits
        [
          List.fold_left ( +. ) 0.0 l;
          List.fold_left Float.min infinity l;
          List.fold_left Float.max 0.0 l;
        ] )
  in
  let of_stats st =
    (Stats.count st, bits [ Stats.total st; Stats.min_value st; Stats.max_value st ])
  in
  Alcotest.(check (pair int (list int64))) "latency samples"
    (summary (List.map snd expected))
    (of_stats (Mb_base.latency_stats base));
  Alcotest.(check (pair int (list int64))) "latency samples during an op"
    (summary (List.rev !expected_op))
    (of_stats (Mb_base.latency_during_op_stats base))

let test_mb_base_seal_roundtrip () =
  let engine = Engine.create () in
  let base = Mb_base.create engine ~name:"mb" ~kind:"kindx" ~cost:Southbound.default_cost () in
  let j = Json.Assoc [ ("a", Json.Int 1) ] in
  let chunk =
    Mb_base.seal_raw base ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
      ~key:Hfl.any (Codec.encode Framing.Json Codec.json j)
  in
  let got = ref Json.Null in
  match
    Mb_base.import base ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow
      ~decode:(Codec.decode Codec.json) (fun _ j' -> got := j') chunk
  with
  | Ok () -> Alcotest.(check bool) "roundtrip" true (Json.equal j !got)
  | Error e -> Alcotest.failf "unseal: %s" (Errors.to_string e)

(* A malformed body of the right class is [Bad_chunk], and a merge
   sees only a whole decoded value. *)
let test_mb_base_import_malformed () =
  let engine = Engine.create () in
  let fw = Firewall.create engine ~name:"fw" () in
  let impl = Firewall.impl fw in
  let seal role partition plain =
    Mb_base.seal_raw (Firewall.base fw) ~role ~partition ~key:Hfl.any plain
  in
  let expect_bad what = function
    | Error (Errors.Bad_chunk _) -> ()
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.failf "%s: %s" what (Errors.to_string e)
  in
  expect_bad "shared counters without [denied]"
    (impl.Southbound.put_report_shared
       (seal Taxonomy.Reporting Taxonomy.Shared {|{"allowed":5}|}));
  Alcotest.(check int) "no half-applied merge" 0 (Firewall.allowed fw);
  expect_bad "per-flow verdict that is not JSON"
    (impl.Southbound.put_support_perflow
       (seal Taxonomy.Supporting Taxonomy.Per_flow "not json"));
  Alcotest.(check int) "nothing imported" 0 (Firewall.cached_verdicts fw)

(* ------------------------------------------------------------------ *)
(* IDS                                                                 *)
(* ------------------------------------------------------------------ *)

let tcp_conversation ?(src = "10.0.0.1") ?(dst = "1.1.1.5") ?(sport = 1234) () =
  (* SYN, SYN-ACK, request, response, FIN. *)
  let fwd ?flags ?app ?(ts = 0.0) id =
    mk_packet ~id ~ts ~src ~dst ~sport ?flags ?app ~tokens:[| id |] ()
  in
  let rev ?flags ?app ?(ts = 0.0) id =
    mk_packet ~id ~ts ~src:dst ~dst:src ~sport:80 ~dport:sport ?flags ?app ~tokens:[| id |] ()
  in
  [
    fwd ~flags:Packet.syn_flags ~ts:0.0 1;
    rev ~flags:Packet.synack_flags ~ts:0.01 2;
    fwd ~ts:0.02 ~app:(Packet.Http_request { method_ = "GET"; host = "h"; uri = "/x" }) 3;
    rev ~ts:0.03 ~app:(Packet.Http_response { status = 200 }) 4;
    fwd ~flags:Packet.fin_flags ~ts:0.04 5;
  ]

let feed_ids ids pkts =
  let engine = Mb_base.engine (Ids.base ids) in
  let start = Time.to_seconds (Engine.now engine) in
  List.iter
    (fun (p : Packet.t) ->
      ignore
        (Engine.schedule_at engine
           (Time.seconds (start +. Time.to_seconds p.Packet.ts))
           (fun () -> Ids.receive ids p)))
    pkts;
  run_all engine

let test_ids_connection_lifecycle () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  feed_ids ids (tcp_conversation ());
  Alcotest.(check int) "one conn logged" 1 (List.length (Ids.conn_log ids));
  let entry = List.hd (Ids.conn_log ids) in
  Alcotest.(check string) "clean close" "SF" entry.Ids.ce_state;
  Alcotest.(check bool) "not anomalous" false entry.Ids.ce_anomalous;
  Alcotest.(check int) "one http txn" 1 (List.length (Ids.http_log ids));
  let h = List.hd (Ids.http_log ids) in
  Alcotest.(check string) "uri" "/x" h.Ids.he_uri;
  Alcotest.(check int) "status" 200 h.Ids.he_status

let test_ids_rst () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  feed_ids ids
    [
      mk_packet ~id:1 ~flags:Packet.syn_flags ();
      mk_packet ~id:2 ~ts:0.01 ~flags:Packet.rst_flags ();
    ];
  let entry = List.hd (Ids.conn_log ids) in
  Alcotest.(check string) "reset by originator" "RSTO" entry.Ids.ce_state

let test_ids_exploit_alert () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  feed_ids ids
    [
      mk_packet ~id:1 ~flags:Packet.syn_flags ();
      mk_packet ~id:2 ~ts:0.01
        ~app:(Packet.Http_request { method_ = "GET"; host = "h"; uri = "/cgi/cmd.exe" })
        ();
    ];
  match Ids.alerts ids with
  | [ a ] -> Alcotest.(check string) "exploit alert" "http-exploit" a.Ids.al_kind
  | l -> Alcotest.failf "expected one alert, got %d" (List.length l)

let test_ids_scan_alert_once () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  let probes =
    List.init 30 (fun i ->
        mk_packet ~id:i ~ts:(0.01 *. float_of_int i) ~flags:Packet.syn_flags
          ~dst:(Printf.sprintf "1.1.2.%d" (i + 1))
          ~sport:(2000 + i) ())
  in
  feed_ids ids probes;
  let scans = List.filter (fun a -> a.Ids.al_kind = "port-scan") (Ids.alerts ids) in
  Alcotest.(check int) "exactly one scan alert" 1 (List.length scans)

let test_ids_get_put_roundtrip () =
  (* Serialize state out of one IDS, import into another, and check the
     connection concludes normally there. *)
  let engine = Engine.create () in
  let a = Ids.create engine ~name:"bro-a" () in
  let b = Ids.create engine ~name:"bro-b" () in
  let pkts = tcp_conversation () in
  let head, tail =
    (List.filteri (fun i _ -> i < 3) pkts, List.filteri (fun i _ -> i >= 3) pkts)
  in
  feed_ids a head;
  let impl_a = Ids.impl a and impl_b = Ids.impl b in
  (match impl_a.Southbound.get_support_perflow Hfl.any with
  | Ok [ chunk ] -> (
    match impl_b.Southbound.put_support_perflow chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | Ok l -> Alcotest.failf "expected 1 chunk, got %d" (List.length l)
  | Error e -> Alcotest.failf "get: %s" (Errors.to_string e));
  ignore (impl_a.Southbound.del_support_perflow Hfl.any);
  feed_ids b tail;
  Alcotest.(check int) "A logged nothing" 0 (List.length (Ids.conn_log a));
  (match Ids.conn_log b with
  | [ entry ] ->
    Alcotest.(check string) "B closed the moved conn" "SF" entry.Ids.ce_state;
    Alcotest.(check bool) "history survived the move" true (entry.Ids.ce_orig_bytes > 0)
  | l -> Alcotest.failf "expected 1 entry at B, got %d" (List.length l));
  Alcotest.(check int) "http logged at B" 1 (List.length (Ids.http_log b))

let test_ids_moved_flag_raises_events () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  let events = ref [] in
  (Ids.impl ids).Southbound.set_event_sink (admit_all ()) (fun ev -> events := ev :: !events);
  feed_ids ids [ mk_packet ~id:1 ~flags:Packet.syn_flags () ];
  ignore ((Ids.impl ids).Southbound.get_support_perflow Hfl.any);
  feed_ids ids [ mk_packet ~id:2 ~ts:0.01 () ];
  let reprocess =
    List.filter (function Event.Reprocess _ -> true | Event.Introspect _ -> false) !events
  in
  Alcotest.(check int) "one reprocess event" 1 (List.length reprocess)

let test_ids_del_after_move_no_anomaly () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  feed_ids ids [ mk_packet ~id:1 ~flags:Packet.syn_flags () ];
  ignore ((Ids.impl ids).Southbound.get_support_perflow Hfl.any);
  ignore ((Ids.impl ids).Southbound.del_support_perflow Hfl.any);
  Ids.finalize ids;
  Alcotest.(check int) "no anomalous entries" 0 (Ids.anomalous_entries ids)

let test_ids_finalize_anomalies () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  (* An established connection cut off mid-stream is anomalous; a lone
     unanswered SYN (S0 - a probe) is a legitimate ending. *)
  feed_ids ids
    [
      mk_packet ~id:1 ~flags:Packet.syn_flags ();
      mk_packet ~id:2 ~ts:0.01 ~flags:Packet.synack_flags ~src:"1.1.1.5" ~dst:"10.0.0.1"
        ~sport:80 ~dport:1234 ();
      mk_packet ~id:3 ~ts:0.02 ~tokens:[| 5 |] ();
      mk_packet ~id:4 ~ts:0.03 ~flags:Packet.syn_flags ~src:"10.0.0.99" ~sport:7777 ();
    ];
  Ids.finalize ids;
  Alcotest.(check int) "only the established conn is anomalous" 1
    (Ids.anomalous_entries ids)

let test_ids_granularity_and_stats () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  feed_ids ids (tcp_conversation ());
  let impl = Ids.impl ids in
  let stats = impl.Southbound.stats Hfl.any in
  Alcotest.(check int) "one chunk" 1 stats.Southbound.perflow_support_chunks;
  (* A connection that carried data has reassembly and analyzer state:
     the chunk is an order of magnitude heavier than PRADS' flat
     record. *)
  Alcotest.(check bool) "bro chunks are heavy" true
    (stats.Southbound.perflow_support_bytes > 500)

let test_ids_scan_state_clone_merge () =
  let engine = Engine.create () in
  let a = Ids.create engine ~name:"bro-a" () in
  let b = Ids.create engine ~name:"bro-b" () in
  (* Fifteen probes at each instance from the same source; merged they
     exceed the threshold of 20. *)
  let probes base =
    List.init 15 (fun i ->
        mk_packet ~id:(base + i) ~ts:(0.01 *. float_of_int i) ~flags:Packet.syn_flags
          ~dst:(Printf.sprintf "1.1.2.%d" ((base mod 100) + i + 1))
          ~sport:(3000 + base + i) ())
  in
  feed_ids a (probes 0);
  feed_ids b (probes 100);
  (match (Ids.impl a).Southbound.get_support_shared () with
  | Ok (Some chunk) -> (
    match (Ids.impl b).Southbound.put_support_shared chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "merge put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "no shared chunk");
  (* One more probe at B must now trip the merged counter. *)
  feed_ids b
    [ mk_packet ~id:999 ~ts:1.0 ~flags:Packet.syn_flags ~dst:"1.1.2.250" ~sport:9999 () ];
  let scans = List.filter (fun al -> al.Ids.al_kind = "port-scan") (Ids.alerts b) in
  Alcotest.(check int) "merged counts trip the alert" 1 (List.length scans)

(* ------------------------------------------------------------------ *)
(* Monitor                                                             *)
(* ------------------------------------------------------------------ *)

let feed_monitor mon pkts =
  let engine = Mb_base.engine (Monitor.base mon) in
  let start = Time.to_seconds (Engine.now engine) in
  List.iter
    (fun (p : Packet.t) ->
      ignore
        (Engine.schedule_at engine
           (Time.seconds (start +. Time.to_seconds p.Packet.ts))
           (fun () -> Monitor.receive mon p)))
    pkts;
  run_all engine

let test_monitor_counters () =
  let engine = Engine.create () in
  let mon = Monitor.create engine ~name:"prads1" () in
  feed_monitor mon
    [
      mk_packet ~id:1 ~tokens:[| 1; 2 |] ();
      mk_packet ~id:2 ~ts:0.01 ~tokens:[| 3 |] ();
      mk_packet ~id:3 ~ts:0.02 ~proto:Packet.Udp ~dport:53 ~sport:5353 ();
    ];
  let t = Monitor.totals mon in
  Alcotest.(check int) "pkts" 3 t.Monitor.tot_pkts;
  Alcotest.(check int) "tcp" 2 t.Monitor.tot_tcp;
  Alcotest.(check int) "udp" 1 t.Monitor.tot_udp;
  Alcotest.(check int) "flows" 2 t.Monitor.tot_new_flows;
  Alcotest.(check int) "bytes" (3 * Payload.token_bytes) t.Monitor.tot_bytes

let test_monitor_asset_event () =
  let engine = Engine.create () in
  let mon = Monitor.create engine ~name:"prads1" () in
  let events = ref [] in
  (Monitor.impl mon).Southbound.set_event_sink (admit_all ()) (fun ev -> events := ev :: !events);
  feed_monitor mon [ mk_packet ~id:1 () ];
  match !events with
  | [ Event.Introspect { code; _ } ] ->
    Alcotest.(check string) "asset event" "monitor.new_asset" code
  | _ -> Alcotest.fail "expected one introspection event"

(* The service-port list is cached: a port added through the config
   interface after a flow started classifies that flow on its next
   packet. *)
let test_monitor_port_added_later () =
  let engine = Engine.create () in
  let mon = Monitor.create engine ~name:"prads1" () in
  let services () = List.map (fun (_, r) -> r.Monitor.fr_service) (Monitor.flow_records mon) in
  feed_monitor mon [ mk_packet ~id:1 ~dport:8080 () ];
  Alcotest.(check (list string)) "unknown port: unclassified" [ "" ] (services ());
  let impl = Monitor.impl mon in
  (match impl.Southbound.set_config [ "service"; "ports" ] [ Json.Int 80; Json.Int 8080 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set_config: %s" (Errors.to_string e));
  feed_monitor mon [ mk_packet ~id:2 ~ts:0.01 ~dport:8080 () ];
  Alcotest.(check (list string)) "classified on the next packet" [ "http" ] (services ())

let test_monitor_move_report () =
  let engine = Engine.create () in
  let a = Monitor.create engine ~name:"prads-a" () in
  let b = Monitor.create engine ~name:"prads-b" () in
  feed_monitor a [ mk_packet ~id:1 (); mk_packet ~id:2 ~ts:0.01 () ];
  (match (Monitor.impl a).Southbound.get_report_perflow Hfl.any with
  | Ok [ chunk ] -> (
    match (Monitor.impl b).Southbound.put_report_perflow chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "expected one report chunk");
  ignore ((Monitor.impl a).Southbound.del_report_perflow Hfl.any);
  Alcotest.(check int) "B tracks the flow" 1 (Monitor.tracked_flows b);
  Alcotest.(check int) "A forgot it" 0 (Monitor.tracked_flows a);
  match Monitor.flow_records b with
  | [ (_, r) ] -> Alcotest.(check int) "counters intact" 2 r.Monitor.fr_pkts
  | _ -> Alcotest.fail "missing record at B"

let test_monitor_shared_merge_adds () =
  let engine = Engine.create () in
  let a = Monitor.create engine ~name:"prads-a" () in
  let b = Monitor.create engine ~name:"prads-b" () in
  feed_monitor a [ mk_packet ~id:1 (); mk_packet ~id:2 ~ts:0.01 () ];
  feed_monitor b [ mk_packet ~id:3 ~src:"10.0.0.9" ~sport:9 () ];
  (match (Monitor.impl a).Southbound.get_report_shared () with
  | Ok (Some chunk) -> (
    match (Monitor.impl b).Southbound.put_report_shared chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "merge: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "no shared chunk");
  let t = Monitor.totals b in
  Alcotest.(check int) "pkts added" 3 t.Monitor.tot_pkts;
  Alcotest.(check int) "flows added" 2 t.Monitor.tot_new_flows

let test_monitor_rejects_wrong_chunk_class () =
  let engine = Engine.create () in
  let a = Monitor.create engine ~name:"prads-a" () in
  feed_monitor a [ mk_packet ~id:1 () ];
  match (Monitor.impl a).Southbound.get_report_perflow Hfl.any with
  | Ok [ chunk ] -> (
    (* A per-flow reporting chunk pushed through the shared-report put
       must be refused. *)
    match (Monitor.impl a).Southbound.put_report_shared chunk with
    | Error (Errors.Illegal_operation _) -> ()
    | Ok () -> Alcotest.fail "wrong-class put accepted"
    | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "expected one chunk"

(* ------------------------------------------------------------------ *)
(* RE cache                                                            *)
(* ------------------------------------------------------------------ *)

let test_re_cache_append_read () =
  let c = Re_cache.create ~capacity:8 () in
  let base = Re_cache.append c [| 10; 11; 12 |] in
  Alcotest.(check int) "base" 0 base;
  Alcotest.(check (option int)) "read" (Some 11) (Re_cache.read c ~offset:1);
  Alcotest.(check (option int)) "missing" None (Re_cache.read c ~offset:5);
  match Re_cache.read_run c ~offset:0 ~len:3 with
  | Some run -> Alcotest.(check (array int)) "run" [| 10; 11; 12 |] run
  | None -> Alcotest.fail "run read failed"

let test_re_cache_window_eviction () =
  let c = Re_cache.create ~capacity:4 () in
  ignore (Re_cache.append c [| 1; 2; 3; 4; 5; 6 |]);
  Alcotest.(check (option int)) "old evicted" None (Re_cache.read c ~offset:0);
  Alcotest.(check (option int)) "recent present" (Some 6) (Re_cache.read c ~offset:5);
  Alcotest.(check bool) "in_window" true (Re_cache.in_window c 5);
  Alcotest.(check bool) "out of window" false (Re_cache.in_window c 0)

let test_re_cache_serialize_roundtrip () =
  let c = Re_cache.create ~capacity:16 () in
  ignore (Re_cache.append c (Array.init 10 (fun i -> i * 7)));
  let c' = Re_cache.deserialize (Re_cache.serialize c) in
  Alcotest.(check bool) "contents equal" true (Re_cache.equal_contents c c');
  Alcotest.(check int) "pos preserved" (Re_cache.pos c) (Re_cache.pos c')

let test_re_cache_clone_independent () =
  let c = Re_cache.create ~capacity:16 () in
  ignore (Re_cache.append c [| 1; 2 |]);
  let d = Re_cache.clone c in
  ignore (Re_cache.append c [| 3 |]);
  Alcotest.(check (option int)) "clone unaffected" None (Re_cache.read d ~offset:2);
  Alcotest.(check (option int)) "original advanced" (Some 3) (Re_cache.read c ~offset:2)

let prop_re_cache_serialize_roundtrip =
  QCheck2.Test.make ~name:"re-cache serialize round-trip" ~count:100
    QCheck2.Gen.(pair (int_range 1 64) (list_size (int_range 0 100) (int_bound 1000000)))
    (fun (cap, tokens) ->
      let c = Re_cache.create ~capacity:cap () in
      ignore (Re_cache.append c (Array.of_list tokens));
      Re_cache.equal_contents c (Re_cache.deserialize (Re_cache.serialize c)))

(* ------------------------------------------------------------------ *)
(* RE encoder / decoder                                                *)
(* ------------------------------------------------------------------ *)

let re_pair engine ?(mode = Re_encoder.Explicit) () =
  let enc = Re_encoder.create engine ~mode ~name:"enc" () in
  let dec = Re_decoder.create engine ~mode ~name:"dec" () in
  Mb_base.set_egress (Re_encoder.base enc) (fun p -> Re_decoder.receive dec p);
  (enc, dec)

let content_packet ~id ~ts tokens = mk_packet ~id ~ts ~tokens ()

let send_via engine enc ~id ~ts tokens =
  let start = Time.to_seconds (Engine.now engine) in
  ignore
    (Engine.schedule_at engine
       (Time.seconds (start +. ts))
       (fun () -> Re_encoder.receive enc (content_packet ~id ~ts tokens)))

let test_re_encode_decode_identity () =
  let engine = Engine.create () in
  let enc, dec = re_pair engine () in
  let sink = ref [] in
  Mb_base.set_egress (Re_decoder.base dec) (fun p -> sink := p :: !sink);
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3; 4 |];
  send_via engine enc ~id:2 ~ts:0.01 [| 1; 2; 3; 4 |];
  send_via engine enc ~id:3 ~ts:0.02 [| 9; 1; 2; 8 |];
  run_all engine;
  Alcotest.(check int) "all delivered" 3 (List.length !sink);
  Alcotest.(check int) "all decoded" 3 (Re_decoder.packets_decoded dec);
  Alcotest.(check int) "none failed" 0 (Re_decoder.packets_failed dec);
  Alcotest.(check bool) "redundancy eliminated" true (Re_encoder.encoded_bytes enc > 0);
  Alcotest.(check int) "decoder reconstructed every eliminated byte"
    (Re_encoder.encoded_bytes enc) (Re_decoder.decoded_bytes dec);
  List.iter
    (fun (p : Packet.t) ->
      match p.Packet.body with
      | Packet.Raw _ -> ()
      | Packet.Encoded _ -> Alcotest.fail "decoder must emit raw packets")
    !sink

let test_re_encoder_shrinks_wire_bytes () =
  let engine = Engine.create () in
  let enc = Re_encoder.create engine ~name:"enc" () in
  let out = ref None in
  Mb_base.set_egress (Re_encoder.base enc) (fun p -> out := Some p);
  let repeated = Array.init 16 (fun i -> 100 + i) in
  send_via engine enc ~id:1 ~ts:0.0 repeated;
  send_via engine enc ~id:2 ~ts:0.01 repeated;
  run_all engine;
  match !out with
  | Some p ->
    Alcotest.(check bool) "encoded smaller than original" true
      (Packet.wire_bytes p < Packet.header_bytes + (16 * Payload.token_bytes));
    Alcotest.(check int) "original size recorded" (16 * Payload.token_bytes)
      (Packet.original_body_bytes p)
  | None -> Alcotest.fail "no output"

let test_re_implicit_desync_on_loss () =
  (* Classic RE: dropping one encoded packet desynchronizes the caches
     and later shims reconstruct wrong content. *)
  let engine = Engine.create () in
  let enc = Re_encoder.create engine ~mode:Re_encoder.Implicit ~name:"enc" () in
  let dec = Re_decoder.create engine ~mode:Re_encoder.Implicit ~name:"dec" () in
  let drop = ref false in
  Mb_base.set_egress (Re_encoder.base enc) (fun p ->
      if !drop then drop := false else Re_decoder.receive dec p);
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3; 4 |];
  ignore (Engine.schedule_at engine (Time.seconds 0.005) (fun () -> drop := true));
  send_via engine enc ~id:2 ~ts:0.01 [| 5; 6; 7; 8 |];
  send_via engine enc ~id:3 ~ts:0.02 [| 20; 21; 22; 23 |];
  send_via engine enc ~id:4 ~ts:0.03 [| 20; 21; 22; 23 |];
  run_all engine;
  Alcotest.(check bool) "desync detected" true (Re_decoder.undecodable_bytes dec > 0)

(* An implicit-mode RE pair that loses packet 2, so later shims fail
   to decode; the decoder logs on [telemetry]. *)
let re_lossy_run telemetry =
  let engine = Engine.create () in
  let enc = Re_encoder.create engine ~mode:Re_encoder.Implicit ~name:"enc" () in
  let dec = Re_decoder.create engine ~telemetry ~mode:Re_encoder.Implicit ~name:"dec" () in
  let drop = ref false in
  Mb_base.set_egress (Re_encoder.base enc) (fun p ->
      if !drop then drop := false else Re_decoder.receive dec p);
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3; 4 |];
  ignore (Engine.schedule_at engine (Time.seconds 0.005) (fun () -> drop := true));
  send_via engine enc ~id:2 ~ts:0.01 [| 5; 6; 7; 8 |];
  send_via engine enc ~id:3 ~ts:0.02 [| 20; 21; 22; 23 |];
  send_via engine enc ~id:4 ~ts:0.03 [| 20; 21; 22; 23 |];
  run_all engine;
  dec

(* The decoder builds its timeline detail lazily: on a timeline, an
   undecodable packet still logs its shim bytes and cache. *)
let test_re_undecodable_recorded () =
  let telemetry = Telemetry.create ~timeline:true () in
  let dec = re_lossy_run telemetry in
  let logged = timeline_details telemetry ~actor:"dec" ~kind:"undecodable" in
  Alcotest.(check int) "one entry per failed packet" (Re_decoder.packets_failed dec)
    (List.length logged);
  Alcotest.(check bool) "at least one failed" true (logged <> []);
  List.iter
    (fun detail ->
      match Scanf.sscanf detail "%dB of shims (cache %d)%!" (fun b c -> (b, c)) with
      | b, c ->
        Alcotest.(check bool) "shim bytes" true (b > 0);
        Alcotest.(check int) "cache id" 0 c
      | exception _ -> Alcotest.failf "unexpected detail %S" detail)
    logged

(* Off a timeline an MB logs nothing: an IDS alert and an RE
   undecodable packet add no trace row (and no "pkt" row either).  On
   one, the same run logs them. *)
let test_nothing_logged_off_timeline () =
  let run timeline =
    let telemetry = Telemetry.create ~timeline () in
    let ids = Ids.create (Engine.create ()) ~telemetry ~name:"bro1" () in
    feed_ids ids
      [
        mk_packet ~id:1 ~flags:Packet.syn_flags ();
        mk_packet ~id:2 ~ts:0.01
          ~app:(Packet.Http_request { method_ = "GET"; host = "h"; uri = "/cgi/cmd.exe" })
          ();
      ];
    let dec = re_lossy_run telemetry in
    Alcotest.(check int) "alert raised" 1 (List.length (Ids.alerts ids));
    Alcotest.(check bool) "undecodable packets" true (Re_decoder.packets_failed dec > 0);
    telemetry
  in
  let on = run true and off = run false in
  Alcotest.(check int) "alert logged on a timeline" 1
    (List.length (timeline_details on ~actor:"bro1" ~kind:"alert"));
  Alcotest.(check int) "no trace row off one" 0 (Telemetry.Trace.total (Telemetry.trace off))

let test_re_explicit_survives_literal_loss () =
  (* Explicit positions: after losing a literal-only packet, later
     shims that do not reference the lost region still decode. *)
  let engine = Engine.create () in
  let enc = Re_encoder.create engine ~mode:Re_encoder.Explicit ~name:"enc" () in
  let dec = Re_decoder.create engine ~mode:Re_encoder.Explicit ~name:"dec" () in
  let drop = ref false in
  Mb_base.set_egress (Re_encoder.base enc) (fun p ->
      if !drop then drop := false else Re_decoder.receive dec p);
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3; 4 |];
  ignore (Engine.schedule_at engine (Time.seconds 0.005) (fun () -> drop := true));
  send_via engine enc ~id:2 ~ts:0.01 [| 50; 51 |];
  send_via engine enc ~id:3 ~ts:0.02 [| 1; 2; 3; 4 |];
  run_all engine;
  Alcotest.(check int) "no failures" 0 (Re_decoder.packets_failed dec);
  Alcotest.(check int) "two decoded" 2 (Re_decoder.packets_decoded dec)

let test_re_decoder_clone_via_chunks () =
  let engine = Engine.create () in
  let enc, dec = re_pair engine () in
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3 |];
  run_all engine;
  let dec2 = Re_decoder.create engine ~name:"dec2" () in
  (match (Re_decoder.impl dec).Southbound.get_support_shared () with
  | Ok (Some chunk) -> (
    match (Re_decoder.impl dec2).Southbound.put_support_shared chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "no cache chunk");
  Alcotest.(check bool) "caches identical" true
    (Re_cache.equal_contents (Re_decoder.cache dec) (Re_decoder.cache dec2))

let test_re_decoder_cloned_raises_events () =
  let engine = Engine.create () in
  let enc, dec = re_pair engine () in
  let events = ref 0 in
  (Re_decoder.impl dec).Southbound.set_event_sink (admit_all ()) (fun _ -> incr events);
  ignore ((Re_decoder.impl dec).Southbound.get_support_shared ());
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2 |];
  run_all engine;
  Alcotest.(check int) "cache update raised an event" 1 !events;
  (match
     (Re_decoder.impl dec).Southbound.set_config [ "SyncEvents" ] [ Json.Bool false ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set_config: %s" (Errors.to_string e));
  send_via engine enc ~id:2 ~ts:0.01 [| 3; 4 |];
  run_all engine;
  Alcotest.(check int) "no further events" 1 !events

let test_re_encoder_num_caches_clone_and_flows () =
  let engine = Engine.create () in
  let enc = Re_encoder.create engine ~name:"enc" () in
  Mb_base.set_egress (Re_encoder.base enc) (fun _ -> ());
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3 |];
  run_all engine;
  (match (Re_encoder.impl enc).Southbound.set_config [ "NumCaches" ] [ Json.Int 2 ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "NumCaches: %s" (Errors.to_string e));
  Alcotest.(check int) "two caches" 2 (Re_encoder.num_caches enc);
  Alcotest.(check bool) "clone matches original" true
    (Re_cache.equal_contents (Re_encoder.cache enc 0) (Re_encoder.cache enc 1));
  send_via engine enc ~id:2 ~ts:0.01 [| 4; 5 |];
  run_all engine;
  Alcotest.(check bool) "mirroring before the split" true
    (Re_cache.equal_contents (Re_encoder.cache enc 0) (Re_encoder.cache enc 1));
  (match
     (Re_encoder.impl enc).Southbound.set_config [ "CacheFlows" ]
       [ Json.String "1.1.1.0/24"; Json.String "1.1.2.0/24" ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "CacheFlows: %s" (Errors.to_string e));
  let start = Time.to_seconds (Engine.now engine) in
  ignore
    (Engine.schedule_at engine
       (Time.seconds (start +. 0.01))
       (fun () ->
         Re_encoder.receive enc (mk_packet ~id:3 ~ts:0.02 ~dst:"1.1.2.9" ~tokens:[| 6 |] ())));
  run_all engine;
  Alcotest.(check bool) "caches diverge after the split" false
    (Re_cache.equal_contents (Re_encoder.cache enc 0) (Re_encoder.cache enc 1))

let prop_re_lossless_path_decodes =
  (* Any token stream pushed through a lossless encoder/decoder pair
     reconstructs perfectly, whatever the redundancy pattern. *)
  QCheck2.Test.make ~name:"re pair decodes arbitrary streams" ~count:60
    QCheck2.Gen.(list_size (int_range 1 30) (list_size (int_range 1 12) (int_bound 40)))
    (fun packets ->
      let engine = Engine.create () in
      let enc = Re_encoder.create engine ~name:"enc" () in
      let dec = Re_decoder.create engine ~name:"dec" () in
      Mb_base.set_egress (Re_encoder.base enc) (fun p -> Re_decoder.receive dec p);
      List.iteri
        (fun i tokens ->
          let ts = 0.01 *. float_of_int i in
          ignore
            (Engine.schedule_at engine (Time.seconds ts) (fun () ->
                 Re_encoder.receive enc
                   (mk_packet ~id:i ~ts ~tokens:(Array.of_list tokens) ()))))
        packets;
      Engine.run engine;
      Re_decoder.packets_failed dec = 0
      && Re_decoder.packets_decoded dec = List.length packets)

(* ------------------------------------------------------------------ *)
(* NAT                                                                 *)
(* ------------------------------------------------------------------ *)

let make_nat ?(name = "nat1") engine =
  Nat.create engine ~name ~external_ip:(Addr.of_string "5.5.5.5")
    ~internal_prefix:(Addr.prefix_of_string "10.0.0.0/8") ()

let test_nat_translation_roundtrip () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  let out = ref [] in
  Mb_base.set_egress (Nat.base nat) (fun p -> out := p :: !out);
  Nat.receive nat (mk_packet ~id:1 ());
  run_all engine;
  (match !out with
  | [ p ] ->
    Alcotest.(check string) "rewritten source" "5.5.5.5" (Addr.to_string p.Packet.src_ip);
    Alcotest.(check bool) "external port allocated" true (p.Packet.src_port >= 20000);
    let reply =
      mk_packet ~id:2 ~ts:0.01 ~src:"1.1.1.5" ~dst:"5.5.5.5" ~sport:80
        ~dport:p.Packet.src_port ()
    in
    out := [];
    Nat.receive nat reply;
    run_all engine;
    (match !out with
    | [ r ] ->
      Alcotest.(check string) "restored dst" "10.0.0.1" (Addr.to_string r.Packet.dst_ip);
      Alcotest.(check int) "restored port" 1234 r.Packet.dst_port
    | _ -> Alcotest.fail "reply not translated")
  | _ -> Alcotest.fail "no outbound packet");
  Alcotest.(check int) "one mapping" 1 (Nat.mapping_count nat)

let test_nat_unknown_inbound_dropped () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  Mb_base.set_egress (Nat.base nat) (fun _ -> ());
  Nat.receive nat (mk_packet ~id:1 ~src:"1.1.1.5" ~dst:"5.5.5.5" ~sport:80 ~dport:31337 ());
  run_all engine;
  Alcotest.(check int) "dropped" 1 (Nat.packets_dropped nat)

let test_nat_introspection_event () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  let events = ref [] in
  (Nat.impl nat).Southbound.set_event_sink (admit_all ()) (fun ev -> events := ev :: !events);
  Nat.receive nat (mk_packet ~id:1 ());
  run_all engine;
  match !events with
  | [ Event.Introspect { code; info; _ } ] ->
    Alcotest.(check string) "mapping event" "nat.new_mapping" code;
    Alcotest.(check bool) "carries the external port" true (Json.mem "ext_port" info)
  | _ -> Alcotest.fail "expected one introspection event"

(* Through a real agent and controller: a subscription that admits the
   mapping delivers it with its full [info]; one to another code, or to
   a key that does not cover the flow, raises nothing at the agent. *)
let nat_subscribed ~codes ~key =
  let engine = Engine.create () in
  let ctrl = Controller.create engine () in
  let nat = make_nat engine in
  Mb_base.set_egress (Nat.base nat) (fun _ -> ());
  let agent = Mb_agent.create engine ~impl:(Nat.impl nat) () in
  Controller.connect ctrl agent;
  let seen = ref [] in
  Controller.subscribe_introspection ctrl ~mb:"nat1" ~codes ~key
    ~handler:(fun ev -> seen := ev :: !seen)
    ();
  (* The packet arrives once the Enable_events message has landed. *)
  ignore
    (Engine.schedule_after engine (Time.ms 5.0) (fun () -> Nat.receive nat (mk_packet ~id:1 ())));
  run_all engine;
  (Mb_agent.events_raised agent, List.rev !seen)

let test_nat_events_only_when_admitted () =
  (match nat_subscribed ~codes:[ "nat.new_mapping" ] ~key:Hfl.any with
  | 1, [ Event.Introspect { code; key; info } ] ->
    Alcotest.(check string) "code" "nat.new_mapping" code;
    Alcotest.(check string) "key" "nw_src=10.0.0.1/32,tp_src=1234,proto=tcp" (Hfl.to_string key);
    Alcotest.(check string) "info"
      {|{"int_ip":"10.0.0.1","int_port":1234,"ext_port":20000,"proto":"tcp"}|}
      (Json.to_string info)
  | raised, seen ->
    Alcotest.failf "expected one admitted mapping event, got %d raised and %d delivered"
      raised (List.length seen));
  List.iter
    (fun (what, codes, key) ->
      let raised, seen = nat_subscribed ~codes ~key in
      Alcotest.(check int) (what ^ ": raised") 0 raised;
      Alcotest.(check int) (what ^ ": delivered") 0 (List.length seen))
    [
      ("another code", [ "lb.new_assignment" ], Hfl.any);
      ("a key not covering the flow", [ "nat.new_mapping" ], Hfl.of_string "nw_src=10.0.0.2/32");
    ]

let test_nat_granularity () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  Mb_base.set_egress (Nat.base nat) (fun _ -> ());
  Nat.receive nat (mk_packet ~id:1 ());
  run_all engine;
  let impl = Nat.impl nat in
  (match impl.Southbound.get_support_perflow (Hfl.of_string "tp_dst=80") with
  | Error Errors.Granularity_too_fine -> ()
  | _ -> Alcotest.fail "expected granularity error");
  match impl.Southbound.get_support_perflow (Hfl.of_string "nw_src=10.0.0.0/8") with
  | Ok [ _ ] -> ()
  | _ -> Alcotest.fail "expected one mapping chunk"

let test_nat_move_preserves_mapping () =
  let engine = Engine.create () in
  let a = make_nat engine in
  let b = make_nat ~name:"nat2" engine in
  Mb_base.set_egress (Nat.base a) (fun _ -> ());
  Nat.receive a (mk_packet ~id:1 ());
  run_all engine;
  let ext_port =
    match Nat.mappings a with [ m ] -> m.Nat.m_ext_port | _ -> Alcotest.fail "no mapping"
  in
  (match (Nat.impl a).Southbound.get_support_perflow Hfl.any with
  | Ok [ chunk ] -> (
    match (Nat.impl b).Southbound.put_support_perflow chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "expected one chunk");
  match Nat.lookup_external b ~ext_port with
  | Some m -> Alcotest.(check int) "internal port preserved" 1234 m.Nat.m_int_port
  | None -> Alcotest.fail "mapping lost in move"

let test_nat_static_mapping_restore () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  let info =
    Json.Assoc
      [
        ("int_ip", Json.String "10.0.0.42");
        ("int_port", Json.Int 4242);
        ("ext_port", Json.Int 33333);
        ("proto", Json.String "tcp");
      ]
  in
  (match (Nat.impl nat).Southbound.set_config [ "static_mappings" ] [ info ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %s" (Errors.to_string e));
  match Nat.lookup_external nat ~ext_port:33333 with
  | Some m ->
    Alcotest.(check string) "restored ip" "10.0.0.42" (Addr.to_string m.Nat.m_int_ip);
    Alcotest.(check (float 1e-9)) "timer reset to default" 0.0 m.Nat.m_last_active
  | None -> Alcotest.fail "static mapping not installed"

(* Accessors copy: the per-flow records are updated in place, so a
   snapshot taken before more traffic (a failover checkpoint) must not
   follow the live state. *)
let test_snapshots_are_copies () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  Mb_base.set_egress (Nat.base nat) (fun _ -> ());
  let mon = Monitor.create engine ~name:"prads1" () in
  let send at id =
    let p = mk_packet ~id ~ts:at () in
    ignore
      (Engine.schedule_at engine (Time.seconds at) (fun () ->
           Nat.receive nat p;
           Monitor.receive mon p))
  in
  send 0.0 1;
  run_all engine;
  let mappings = Nat.mappings nat in
  let by_port = Nat.lookup_external nat ~ext_port:20000 in
  let records = Monitor.flow_records mon in
  send 1.0 2;
  send 2.0 3;
  run_all engine;
  let last_active = List.map (fun (m : Nat.mapping) -> m.m_last_active) in
  Alcotest.(check (list (float 0.0))) "mapping snapshot unchanged" [ 0.0 ] (last_active mappings);
  Alcotest.(check (list (float 0.0))) "live mapping moved on" [ 2.0 ]
    (last_active (Nat.mappings nat));
  Alcotest.(check (list (float 0.0))) "lookup_external snapshot unchanged" [ 0.0 ]
    (last_active (Option.to_list by_port));
  let counts = List.map (fun (_, (r : Monitor.flow_record)) -> (r.fr_pkts, r.fr_last)) in
  Alcotest.(check (list (pair int (float 0.0)))) "flow record snapshot unchanged" [ (1, 0.0) ]
    (counts records);
  Alcotest.(check (list (pair int (float 0.0)))) "live flow record moved on" [ (3, 2.0) ]
    (counts (Monitor.flow_records mon))

(* ------------------------------------------------------------------ *)
(* Allocation budgets of the batch path                                *)
(* ------------------------------------------------------------------ *)

(* Steady state — a second pass of 64-packet batches over flows already
   seen — must not allocate per packet beyond what a stage emits: the
   flow-table pass and the monitor nothing (at most a word of per-batch
   overhead spread over the members), the NAT only its translated packet
   copy (11 words), returned bare.  The first pass over unseen flows
   may add only the state a new flow keeps. *)
let budget_flows = 256
let budget_batch = 64

let budget_packets ~pass =
  List.init budget_flows (fun i ->
      mk_packet ~id:((pass * budget_flows) + i) ~ts:(float_of_int pass)
        ~src:(Printf.sprintf "10.0.%d.%d" (i / 200) (1 + (i mod 200)))
        ~sport:(1024 + i) ())

let budget_batches pool ~pass =
  let rec split acc cur n = function
    | [] -> List.rev (if n = 0 then acc else cur :: acc)
    | p :: rest ->
      let cur = if n = 0 then Packet_batch.alloc pool else cur in
      Packet_batch.push cur p;
      if n + 1 = budget_batch then split (cur :: acc) cur 0 rest else split acc cur (n + 1) rest
  in
  split [] (Packet_batch.create ()) 0 (budget_packets ~pass)

(* Minor words per packet spent in [work] over one pass's batches
   (built before the count starts): the second pass, after a first over
   the same flows, or with [new_flows] the first pass itself, over 256
   unseen flows.  [receive] hands each batch in uncounted: an MB's
   receive only queues the batch on its data-path clock, and [work]
   then runs the processing up to the egress. *)
let words_per_packet ?(receive = ignore) ?(new_flows = false) work =
  let pool = Packet_batch.pool () in
  if not new_flows then
    List.iter
      (fun b ->
        receive b;
        work b)
      (budget_batches pool ~pass:0);
  let words =
    List.fold_left
      (fun acc b ->
        receive b;
        let w0 = Gc.minor_words () in
        work b;
        acc +. (Gc.minor_words () -. w0))
      0.0
      (budget_batches pool ~pass:(if new_flows then 0 else 1))
  in
  words /. float_of_int budget_flows

let check_budget what budget words =
  if words > budget then
    Alcotest.failf "%s allocates %.2f minor words/packet, budget %.0f" what words budget

let test_budget_flow_table () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.install t ~priority:20
       ~match_:(Hfl.of_string "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=1024,tp_dst=80,proto=tcp")
       ~action:(Flow_table.Forward "exact"));
  ignore (Flow_table.install t ~priority:10 ~match_:(Hfl.of_string "tp_dst=9999") ~action:Flow_table.Drop);
  ignore (Flow_table.install t ~priority:1 ~match_:Hfl.any ~action:(Flow_table.Forward "mb"));
  let actions = Array.make budget_batch None in
  check_budget "Flow_table.lookup_batch" 1.0
    (words_per_packet (fun b ->
         Flow_table.lookup_batch t b actions;
         Packet_batch.release b))

let test_budget_monitor () =
  let engine = Engine.create () in
  let mon = Monitor.create engine ~name:"prads1" () in
  Mb_base.set_egress_batch (Monitor.base mon) Packet_batch.release;
  check_budget "Monitor.receive_batch" 1.0
    (words_per_packet ~receive:(Monitor.receive_batch mon) (fun _ -> run_all engine));
  Alcotest.(check int) "every packet counted" (2 * budget_flows) (Monitor.totals mon).tot_pkts

let test_budget_nat () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  Mb_base.set_egress_batch (Nat.base nat) Packet_batch.release;
  check_budget "Nat.receive_batch" 12.0
    (words_per_packet ~receive:(Nat.receive_batch nat) (fun _ -> run_all engine));
  Alcotest.(check int) "one mapping per flow" budget_flows (Nat.mapping_count nat)

(* The first pass, over 256 unseen flows: a new flow may allocate only
   the state it keeps — its record, its key and entry, its share of the
   tables' growth — and what the steady state allocates; 59.3 (NAT)
   and 50.7 (monitor) words measured.  No agent is attached, so no
   introspection event may be built: a NAT that builds its mapping
   announcement (a JSON tree and a rendered address) without asking
   the filter reads 186.3. *)
let test_budget_nat_new_flows () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  Mb_base.set_egress_batch (Nat.base nat) Packet_batch.release;
  check_budget "Nat.receive_batch over new flows" 63.0
    (words_per_packet ~new_flows:true ~receive:(Nat.receive_batch nat) (fun _ ->
         run_all engine));
  Alcotest.(check int) "one mapping per flow" budget_flows (Nat.mapping_count nat)

let test_budget_monitor_new_flows () =
  let engine = Engine.create () in
  let mon = Monitor.create engine ~name:"prads1" () in
  Mb_base.set_egress_batch (Monitor.base mon) Packet_batch.release;
  check_budget "Monitor.receive_batch over new flows" 54.0
    (words_per_packet ~new_flows:true ~receive:(Monitor.receive_batch mon) (fun _ ->
         run_all engine));
  Alcotest.(check int) "every flow recorded" budget_flows
    (Monitor.totals mon).tot_new_flows

(* The per-packet entry points at batch size 1: NAT into monitor, one
   packet per call, as a scalar trace replay drives them.  Counted over
   everything — wrapping each packet as a batch, queueing, the engine
   and both MBs' work.  Scheduling and firing an event and recording a
   latency in [Stats] cost nothing.  What remains is the NAT's
   translated copy (11 words, returned bare) and the floats each
   data-path event boxes: the busy-until clock, [Engine.now] and the
   latency, boxed once for both [Stats] and the histogram; 31.0 words
   measured. *)
let test_budget_nat_monitor_b1 () =
  let engine = Engine.create () in
  let nat = make_nat engine in
  let mon = Monitor.create engine ~name:"prads1" () in
  Mb_base.set_egress (Nat.base nat) (Monitor.receive mon);
  let pass pkts =
    List.iter (Nat.receive nat) pkts;
    run_all engine
  in
  pass (budget_packets ~pass:0);
  let second = budget_packets ~pass:1 in
  let w0 = Gc.minor_words () in
  pass second;
  let words = (Gc.minor_words () -. w0) /. float_of_int budget_flows in
  check_budget "Nat.receive -> Monitor.receive at batch size 1" 33.0 words;
  Alcotest.(check int) "every packet counted" (2 * budget_flows) (Monitor.totals mon).tot_pkts

(* A 1,000-chunk move between two dummy MBs, compressed and JSON-framed
   (the default framing), counted end to end per chunk: get, seal and
   compress, message sizing, channels, controller bookkeeping, put and
   the deferred delete.  140.7 words measured.  The budget leaves less
   than one key render's worth of slack: rendering a key with Printf
   once more per chunk (+161 words — a string-keyed controller table,
   or a charge sized by [String.length (Hfl.to_string key)]) fails it,
   and so does decrypting a copy of each chunk to unseal it (161.4
   words), or encoding the control replies to size them (158.9). *)
let test_budget_move () =
  let n = 1_000 in
  let engine = Engine.create () in
  let ctrl = Controller.create engine () in
  let src = Openmb_apps.Dummy_mb.create engine ~name:"src" () in
  let dst = Openmb_apps.Dummy_mb.create engine ~name:"dst" () in
  Openmb_apps.Dummy_mb.populate src ~n;
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl src) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Openmb_apps.Dummy_mb.impl dst) ());
  let moved = ref 0 in
  let words =
    Fun.protect
      ~finally:(fun () -> Chunk.compression_enabled := false)
      (fun () ->
        Chunk.compression_enabled := true;
        let w0 = Gc.minor_words () in
        Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(function
          | Ok r -> moved := r.Controller.chunks_moved
          | Error e -> Alcotest.failf "move failed: %s" (Errors.to_string e));
        run_all engine;
        (Gc.minor_words () -. w0) /. float_of_int n)
  in
  Alcotest.(check int) "every chunk moved" n !moved;
  Alcotest.(check int) "source emptied" 0 (Openmb_apps.Dummy_mb.chunk_count src);
  if words > 150.0 then
    Alcotest.failf "a move allocates %.2f minor words/chunk, budget 150" words

(* One monitor flow record encoded as JSON, written straight into the
   domain's scratch buffer: the text and two float literals, 14 words
   measured.  Building the [Json.t] tree and printing it read 131. *)
let test_budget_flow_record_encode () =
  let r =
    { Monitor.fr_first = 0.125; fr_last = 1.5; fr_pkts = 12; fr_bytes = 3400; fr_service = "http" }
  in
  let encode () = ignore (Sys.opaque_identity (Codec.encode Framing.Json Monitor.flow_record_codec r)) in
  encode ();
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    encode ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 16.0 then
    Alcotest.failf "a flow record encode allocates %.1f minor words, budget 16" words

(* One monitor flow record decoded from JSON text read in place: the
   record, its two floats (each parsed from a copy of its literal) and
   the service string, 43 words measured.  Parsing a [Json.t] tree
   first read 267; the binary decode of the same record reads 53. *)
let test_budget_flow_record_decode () =
  let text =
    {|{"first":0.080000000000000002,"last":0.42999999999999999,"pkts":8,"bytes":704,"service":"http"}|}
  in
  let decode () = Codec.decode Monitor.flow_record_codec text in
  Alcotest.(check string) "round-trips" text
    (Codec.encode Framing.Json Monitor.flow_record_codec (decode ()));
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (decode ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 45.0 then
    Alcotest.failf "a flow record decode allocates %.1f minor words, budget 45" words

(* Flow records encoded and decoded on two domains at once, each with
   its own scratch buffer and reading state, give what one domain
   gives.  Scratch shared by the process would have both domains
   writing one buffer and indexing one member stack mid-call. *)
let test_flow_records_two_domains () =
  let records ~seed =
    let rng = Random.State.make [| seed |] in
    Array.init 4000 (fun i ->
        { Monitor.fr_first = Random.State.float rng 10.0; fr_last = Random.State.float rng 10.0;
          fr_pkts = Random.State.int rng 1000; fr_bytes = Random.State.bits rng;
          fr_service = String.make (Random.State.int rng 12) (Char.chr (97 + (i mod 26))) })
  in
  let round_trip r =
    let text = Codec.encode Framing.Json Monitor.flow_record_codec r in
    (text, Codec.decode Monitor.flow_record_codec text)
  in
  let run records expected () =
    let bad = ref 0 in
    Array.iteri
      (fun i r ->
        match round_trip r with
        | got -> if got <> expected.(i) then incr bad
        | exception _ -> incr bad)
      records;
    !bad
  in
  let a = records ~seed:1 and b = records ~seed:2 in
  let expected_a = Array.map round_trip a and expected_b = Array.map round_trip b in
  Array.iteri (fun i r -> Alcotest.(check bool) "one domain round-trips" true (snd expected_a.(i) = r)) a;
  let da = Domain.spawn (run a expected_a) and db = Domain.spawn (run b expected_b) in
  let bad_a = Domain.join da and bad_b = Domain.join db in
  Alcotest.(check (pair int int)) "calls differing from one domain's" (0, 0) (bad_a, bad_b)

(* One long flow of 8-token data packets into an IDS, one packet per
   call, counted over everything (batch, engine, analysis).  A packet
   allocates its flow lookup, its event and one more history letter:
   the history is copied whole by each append, so the cost grows with
   the flow (89.7 words/packet over packets 1-1,000, 214.3 over
   1,001-2,000).  An IDS that rebuilds the flow's reassembly buffer on
   every packet with a body reads 8,170 and 8,341. *)
let test_budget_ids_long_flow () =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro1" () in
  Mb_base.set_egress_batch (Ids.base ids) Packet_batch.release;
  let span lo hi =
    let pkts =
      List.init (hi - lo + 1) (fun k ->
          let i = lo + k in
          mk_packet ~id:i ~ts:(float_of_int i *. 1e-4)
            ~tokens:(Array.init 8 (fun j -> (8 * i) + j))
            ())
    in
    let w0 = Gc.minor_words () in
    List.iter
      (fun p ->
        Ids.receive ids p;
        run_all engine)
      pkts;
    (Gc.minor_words () -. w0) /. float_of_int (hi - lo + 1)
  in
  check_budget "Ids.receive, packets 1-1,000 of a flow" 100.0 (span 1 1000);
  check_budget "Ids.receive, packets 1,001-2,000 of a flow" 225.0 (span 1001 2000);
  Alcotest.(check int) "one connection" 1
    ((Ids.impl ids).Southbound.stats Hfl.any).perflow_support_chunks

(* An IDS connection record (two analyzer unions, two TCP-state enums)
   decodes in 354 minor words, read in place from its text: the values
   it builds, with each case resolved when the description was built
   and each enum name compared in place.  Parsing a [Json.t] tree first
   read 1,608. *)
let test_budget_ids_conn_decode () =
  let text =
    {|{"orig":"tcp 10.0.0.1:1234>1.1.1.5:80","started":0.0,"last":0.42999999999999999,"tcp":"SF","history":"ShDdDDdF","orig_pkts":5,"orig_bytes":512,"resp_pkts":3,"resp_bytes":192,"analyzers":[{"name":"TCP","state":"SF","reassembly":"ksvpeebytfjgejzzljujejkabnxtdfkwpglllamilakkkopnuekchwclieehnafieisduztlpvbexhrsoflgdudoaeoivbdgfdcitrsbkutlwoapqkrezapshmmmbaqfxhyklsfetlmnithnuwaodxenlwijgalirlkqbvnqnzcedudrpbgbnrpbenrcowqwewydwgmrbflqzjsjywjerwihfwdmuvhvvmongiyubqwcwplzafmmppcgueeqzxqymrwuvziqwqgjoamrhxmiceubtdlycktkyjmctppbajwncdtfaqlyyzkmibqsyqoxdxzdgdmdpgwhcacotegxhzpp"},{"name":"HTTP","open":[{"method":"POST","host":"example.org","uri":"/form"}],"done":[{"method":"GET","host":"example.org","uri":"/q?a=\"x\"&b=\\y","status":200}]}],"logged":true}|}
  in
  let decode () = Codec.decode Ids.conn_codec text in
  Alcotest.(check string) "round-trips" text (Codec.encode Framing.Json Ids.conn_codec (decode ()));
  let n = 100 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (decode ()))
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  if words > 356.0 then
    Alcotest.failf "Ids.conn_codec decode allocates %.1f minor words per record, budget 356"
      words

(* ------------------------------------------------------------------ *)
(* Load balancer                                                       *)
(* ------------------------------------------------------------------ *)

let backends = [ Addr.of_string "10.9.0.1"; Addr.of_string "10.9.0.2" ]

let test_lb_round_robin_sticky () =
  let engine = Engine.create () in
  let lb = Load_balancer.create engine ~backends ~name:"lb1" () in
  let out = ref [] in
  Mb_base.set_egress (Load_balancer.base lb) (fun p -> out := p :: !out);
  Load_balancer.receive lb (mk_packet ~id:1 ~sport:1000 ());
  Load_balancer.receive lb (mk_packet ~id:2 ~sport:2000 ());
  Load_balancer.receive lb (mk_packet ~id:3 ~sport:1000 ());
  run_all engine;
  (match List.rev !out with
  | [ p1; p2; p3 ] ->
    Alcotest.(check bool) "flows spread" false (Addr.equal p1.Packet.dst_ip p2.Packet.dst_ip);
    Alcotest.(check bool) "same flow sticks" true
      (Addr.equal p1.Packet.dst_ip p3.Packet.dst_ip)
  | _ -> Alcotest.fail "expected three packets");
  Alcotest.(check int) "two assignments" 2 (Load_balancer.assignment_count lb)

let test_lb_granularity_rejects_five_tuple () =
  let engine = Engine.create () in
  let lb = Load_balancer.create engine ~backends ~name:"lb1" () in
  match
    (Load_balancer.impl lb).Southbound.get_support_perflow
      (Hfl.of_string "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32")
  with
  | Error Errors.Granularity_too_fine -> ()
  | _ -> Alcotest.fail "destination constraint must be too fine for Balance"

let test_lb_move_keeps_backend () =
  let engine = Engine.create () in
  let a = Load_balancer.create engine ~backends ~name:"lb-a" () in
  let b = Load_balancer.create engine ~backends ~name:"lb-b" () in
  Mb_base.set_egress (Load_balancer.base a) (fun _ -> ());
  Load_balancer.receive a (mk_packet ~id:1 ());
  run_all engine;
  let backend =
    match Load_balancer.assignments a with
    | [ (_, be) ] -> be
    | _ -> Alcotest.fail "no assignment"
  in
  (match (Load_balancer.impl a).Southbound.get_support_perflow Hfl.any with
  | Ok [ chunk ] -> (
    match (Load_balancer.impl b).Southbound.put_support_perflow chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "expected one chunk");
  let out = ref [] in
  Mb_base.set_egress (Load_balancer.base b) (fun p -> out := p :: !out);
  Load_balancer.receive b (mk_packet ~id:2 ~ts:0.01 ());
  run_all engine;
  match !out with
  | [ p ] ->
    Alcotest.(check bool) "in-progress transaction stays on its server" true
      (Addr.equal p.Packet.dst_ip backend)
  | _ -> Alcotest.fail "no output at B"

let test_lb_least_conn_policy () =
  let engine = Engine.create () in
  let lb =
    Load_balancer.create engine ~policy:Load_balancer.Least_conn ~backends ~name:"lb1" ()
  in
  Mb_base.set_egress (Load_balancer.base lb) (fun _ -> ());
  for i = 1 to 4 do
    Load_balancer.receive lb (mk_packet ~id:i ~sport:(1000 * i) ())
  done;
  run_all engine;
  let load = Load_balancer.backend_load lb in
  List.iter (fun (_, c) -> Alcotest.(check int) "balanced" 2 c) load

let test_lb_reconfigure_backends () =
  let engine = Engine.create () in
  let lb = Load_balancer.create engine ~backends ~name:"lb1" () in
  (match
     (Load_balancer.impl lb).Southbound.set_config [ "backends" ]
       [ Json.String "10.9.0.9" ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "set_config: %s" (Errors.to_string e));
  let out = ref [] in
  Mb_base.set_egress (Load_balancer.base lb) (fun p -> out := p :: !out);
  Load_balancer.receive lb (mk_packet ~id:1 ());
  run_all engine;
  match !out with
  | [ p ] -> Alcotest.(check string) "new backend" "10.9.0.9" (Addr.to_string p.Packet.dst_ip)
  | _ -> Alcotest.fail "no output"

(* ------------------------------------------------------------------ *)
(* Firewall                                                            *)
(* ------------------------------------------------------------------ *)

let test_firewall_rules_and_cache () =
  let engine = Engine.create () in
  let fw =
    Firewall.create engine
      ~rules:
        [
          { Firewall.rl_match = Hfl.of_string "tp_dst=22"; rl_action = Firewall.Deny };
          { Firewall.rl_match = Hfl.of_string "nw_src=10.0.0.0/8"; rl_action = Firewall.Allow };
        ]
      ~default_action:Firewall.Deny ~name:"fw1" ()
  in
  let out = ref 0 in
  Mb_base.set_egress (Firewall.base fw) (fun _ -> incr out);
  Firewall.receive fw (mk_packet ~id:1 ());
  Firewall.receive fw (mk_packet ~id:2 ~dport:22 ~sport:9 ());
  Firewall.receive fw (mk_packet ~id:3 ~src:"192.168.0.1" ~sport:10 ());
  run_all engine;
  Alcotest.(check int) "one allowed through" 1 !out;
  Alcotest.(check int) "allowed counter" 1 (Firewall.allowed fw);
  Alcotest.(check int) "denied counter" 2 (Firewall.denied fw);
  Alcotest.(check int) "verdicts cached" 3 (Firewall.cached_verdicts fw)

let test_firewall_shared_report_merge () =
  let engine = Engine.create () in
  let a = Firewall.create engine ~name:"fw-a" () in
  let b = Firewall.create engine ~name:"fw-b" () in
  Mb_base.set_egress (Firewall.base a) (fun _ -> ());
  Mb_base.set_egress (Firewall.base b) (fun _ -> ());
  Firewall.receive a (mk_packet ~id:1 ());
  Firewall.receive b (mk_packet ~id:2 ~sport:9 ());
  run_all engine;
  (match (Firewall.impl a).Southbound.get_report_shared () with
  | Ok (Some chunk) -> (
    match (Firewall.impl b).Southbound.put_report_shared chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "merge: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "no shared report");
  Alcotest.(check int) "counters added" 2 (Firewall.allowed b)

let test_firewall_verdict_move () =
  let engine = Engine.create () in
  let a = Firewall.create engine ~default_action:Firewall.Allow ~name:"fw-a" () in
  let b = Firewall.create engine ~default_action:Firewall.Deny ~name:"fw-b" () in
  Mb_base.set_egress (Firewall.base a) (fun _ -> ());
  Firewall.receive a (mk_packet ~id:1 ());
  run_all engine;
  (match (Firewall.impl a).Southbound.get_support_perflow Hfl.any with
  | Ok [ chunk ] -> (
    match (Firewall.impl b).Southbound.put_support_perflow chunk with
    | Ok () -> ()
    | Error e -> Alcotest.failf "put: %s" (Errors.to_string e))
  | _ -> Alcotest.fail "expected one verdict chunk");
  (* The moved flow keeps its Allow verdict even though B's policy
     default is Deny — the R1 correctness property. *)
  let out = ref 0 in
  Mb_base.set_egress (Firewall.base b) (fun _ -> incr out);
  Firewall.receive b (mk_packet ~id:2 ~ts:0.01 ());
  run_all engine;
  Alcotest.(check int) "moved verdict honoured" 1 !out

(* A rule list or default action that does not parse is refused whole
   with [Op_failed]: the old configuration stays and the next packet
   meets it. *)
let test_firewall_unparsable_config_refused () =
  let engine = Engine.create () in
  let fw =
    Firewall.create engine
      ~rules:[ { Firewall.rl_match = Hfl.of_string "tp_dst=22"; rl_action = Firewall.Deny } ]
      ~name:"fw1" ()
  in
  let impl = Firewall.impl fw in
  let refused what path values =
    match impl.Southbound.set_config path values with
    | Error (Errors.Op_failed _) -> ()
    | Ok () -> Alcotest.failf "%s: accepted" what
    | Error e -> Alcotest.failf "%s: %s" what (Errors.to_string e)
  in
  let rule m = Json.Assoc [ ("match", Json.String m); ("action", Json.String "allow") ] in
  refused "unparsable match" [ "rules" ] [ rule "tp_dst=80"; rule "nw_src=bogus" ];
  refused "unknown action" [ "default" ] [ Json.String "maybe" ];
  Alcotest.(check (list string)) "old rules kept" [ "tp_dst=22" ]
    (List.map (fun (r : Firewall.rule) -> Hfl.to_string r.rl_match) (Firewall.rules fw));
  Mb_base.set_egress (Firewall.base fw) (fun _ -> ());
  Firewall.receive fw (mk_packet ~id:1 ~dport:22 ());
  Firewall.receive fw (mk_packet ~id:2 ~sport:9 ());
  run_all engine;
  Alcotest.(check (pair int int)) "old rules and default applied" (1, 1)
    (Firewall.allowed fw, Firewall.denied fw)

(* ------------------------------------------------------------------ *)
(* State pinning                                                       *)
(* ------------------------------------------------------------------ *)

(* One fixed trace through all five stateful MBs: an HTTP connection
   whose URI needs JSON escapes, with one request left open; a reset; a
   lone SYN-ACK; UDP both ways; ICMP; a scanner past the IDS threshold;
   and a flow a firewall rule denies. *)
let pin_trace () =
  let fwd ?flags ?app ?tokens id ts = mk_packet ~id ~ts ?flags ?app ?tokens () in
  let rev ?flags ?app ?tokens id ts =
    mk_packet ~id ~ts ~src:"1.1.1.5" ~dst:"10.0.0.1" ~sport:80 ~dport:1234 ?flags ?app ?tokens ()
  in
  let request method_ uri = Packet.Http_request { method_; host = "example.org"; uri } in
  let other ?flags ?(proto = Packet.Tcp) ?tokens id ts ~src ~dst ~sport ~dport =
    mk_packet ~id ~ts ~src ~dst ~sport ~dport ~proto ?flags ?tokens ()
  in
  let probes =
    List.init 22 (fun i ->
        other (20 + i) (0.13 +. (0.01 *. float_of_int i)) ~flags:Packet.syn_flags ~src:"10.0.0.99"
          ~dst:(Printf.sprintf "1.1.2.%d" (i + 1))
          ~sport:(4000 + i) ~dport:(20 + i))
  in
  [
    fwd 1 0.00 ~flags:Packet.syn_flags;
    rev 2 0.01 ~flags:Packet.synack_flags;
    fwd 3 0.02 ~app:(request "GET" {|/q?a="x"&b=\y|}) ~tokens:[| 1; 2; 3 |];
    rev 4 0.03 ~app:(Packet.Http_response { status = 200 }) ~tokens:[| 4; 5 |];
    fwd 5 0.04 ~app:(request "POST" "/form") ~tokens:[| 6 |];
    fwd 6 0.05 ~tokens:[| 7; 8; 9; 10 |];
    other 7 0.06 ~flags:Packet.syn_flags ~src:"10.0.0.2" ~dst:"1.1.1.6" ~sport:2222 ~dport:443;
    other 8 0.07 ~flags:Packet.rst_flags ~src:"10.0.0.2" ~dst:"1.1.1.6" ~sport:2222 ~dport:443;
    other 9 0.08 ~flags:Packet.synack_flags ~src:"1.1.1.7" ~dst:"10.0.0.3" ~sport:8080 ~dport:3333;
    other 10 0.09 ~proto:Packet.Udp ~tokens:[| 11 |] ~src:"10.0.0.4" ~dst:"1.1.1.8" ~sport:5353
      ~dport:53;
    other 11 0.10 ~proto:Packet.Udp ~tokens:[| 12; 13 |] ~src:"1.1.1.8" ~dst:"10.0.0.4" ~sport:53
      ~dport:5353;
    other 12 0.11 ~proto:Packet.Udp ~src:"10.0.0.4" ~dst:"1.1.1.8" ~sport:5353 ~dport:53;
    other 13 0.12 ~proto:Packet.Icmp ~src:"10.0.0.5" ~dst:"1.1.1.9" ~sport:0 ~dport:0;
  ]
  @ probes
  @ [
      other 42 0.40 ~flags:Packet.syn_flags ~src:"10.0.0.6" ~dst:"1.1.1.10" ~sport:6000 ~dport:23;
      other 43 0.41 ~tokens:[| 14 |] ~src:"10.0.0.6" ~dst:"1.1.1.10" ~sport:6000 ~dport:23;
      rev 44 0.42 ~tokens:[| 15 |];
      fwd 45 0.43 ~flags:Packet.fin_flags;
    ]

(* The five MBs after the pinned trace, each fed every packet, and the
   [nat.new_mapping] infos the NAT announced. *)
let pin_fleet () =
  let engine = Engine.create () in
  let nat =
    Nat.create engine ~name:"nat1" ~external_ip:(Addr.of_string "5.5.5.5")
      ~external_ips:[ Addr.of_string "5.5.5.6" ]
      ~internal_prefix:(Addr.prefix_of_string "10.0.0.0/8") ()
  in
  let mon = Monitor.create engine ~name:"prads1" () in
  let fw =
    Firewall.create engine
      ~rules:[ { Firewall.rl_match = Hfl.of_string "tp_dst=23"; rl_action = Firewall.Deny } ]
      ~name:"fw1" ()
  in
  let ids = Ids.create engine ~name:"bro1" () in
  let lb = Load_balancer.create engine ~backends ~name:"lb1" () in
  let infos = ref [] in
  (Nat.impl nat).Southbound.set_event_sink (admit_all ()) (function
    | Event.Introspect { info; _ } -> infos := info :: !infos
    | Event.Reprocess _ -> ());
  List.iter
    (fun (p : Packet.t) ->
      ignore
        (Engine.schedule_at engine p.ts (fun () ->
             Nat.receive nat p;
             Monitor.receive mon p;
             Firewall.receive fw p;
             Ids.receive ids p;
             Load_balancer.receive lb p)))
    (pin_trace ());
  run_all engine;
  ( [
      ("nat", Nat.impl nat);
      ("monitor", Monitor.impl mon);
      ("firewall", Firewall.impl fw);
      ("ids", Ids.impl ids);
      ("lb", Load_balancer.impl lb);
    ],
    List.rev !infos )

(* Every chunk an MB exports after the pinned trace, its stats, the
   NAT's announcements and the firewall's rule config, against a
   recorded golden file: a state encoding that moves one byte or one
   counted size fails here.  The observed lines land in
   mb_state.actual next to the test binary. *)
let state_pin_lines () =
  let impls, infos = pin_fleet () in
  let mb_lines (name, (impl : Southbound.impl)) =
    let s = impl.stats Hfl.any in
    let stats =
      Printf.sprintf
        "%s stats\tsupport_chunks=%d\treport_chunks=%d\tsupport_bytes=%d\treport_bytes=%d\t\
         shared_support_bytes=%d\tshared_report_bytes=%d"
        name s.perflow_support_chunks s.perflow_report_chunks s.perflow_support_bytes
        s.perflow_report_bytes s.shared_support_bytes s.shared_report_bytes
    in
    let perflow cls = function
      | Ok chunks -> List.map (fun c -> (cls, c)) chunks
      | Error e -> Alcotest.failf "%s %s get: %s" name cls (Errors.to_string e)
    in
    let shared cls = function
      | Ok (Some c) -> [ (cls, c) ]
      | Ok None -> []
      | Error e -> Alcotest.failf "%s %s get: %s" name cls (Errors.to_string e)
    in
    let line (cls, (c : Chunk.t)) =
      match Chunk.unseal ~mb_kind:impl.kind c with
      | Ok plain ->
        Printf.sprintf "%s %s %s\tlen=%d\t%S" name cls (Hfl.to_string c.key) (String.length plain)
          plain
      | Error e -> Alcotest.failf "%s unseal: %s" name (Errors.to_string e)
    in
    let chunks =
      perflow "support" (impl.get_support_perflow Hfl.any)
      @ perflow "report" (impl.get_report_perflow Hfl.any)
      @ shared "shared-support" (impl.get_support_shared ())
      @ shared "shared-report" (impl.get_report_shared ())
    in
    stats :: List.sort String.compare (List.map line chunks)
  in
  let rules =
    match (List.assoc "firewall" impls).get_config [ "rules" ] with
    | Ok entries ->
      List.concat_map
        (fun (e : Config_tree.entry) ->
          List.map (fun v -> "firewall rules\t" ^ Json.to_string v) e.values)
        entries
    | Error e -> Alcotest.failf "firewall rules: %s" (Errors.to_string e)
  in
  List.concat_map mb_lines impls
  @ List.map (fun info -> "nat.new_mapping\t" ^ Json.to_string info) infos
  @ rules

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

(* Every state value the pinned fleet exports, its firewall rules and its
   NAT announcements: the counted JSON size of the value read back is
   its encoder's length, and the counted size of the exported text's
   JSON tree is the text's length.  (A NAT mapping reads back with its
   idle timer reset, so its text and its re-encoding differ.) *)
let test_state_json_sizes () =
  let impls, infos = pin_fleet () in
  let sized what c text =
    Alcotest.(check int) what (String.length text) (Json.wire_size (Json.of_string text));
    let v = Codec.decode c text in
    Alcotest.(check int) what (String.length (Codec.encode Framing.Json c v)) (Codec.json_size c v)
  in
  let chunks (impl : Southbound.impl) get = match get impl with Ok l -> l | Error _ -> [] in
  let check_chunks name (impl : Southbound.impl) cls c cs =
    List.iter
      (fun (ch : Chunk.t) ->
        match Chunk.unseal ~mb_kind:impl.kind ch with
        | Ok plain -> sized (Printf.sprintf "%s %s %s" name cls (Hfl.to_string ch.key)) c plain
        | Error e -> Alcotest.failf "%s unseal: %s" name (Errors.to_string e))
      cs
  in
  let perflow (i : Southbound.impl) = chunks i (fun i -> i.get_support_perflow Hfl.any) in
  let report (i : Southbound.impl) = chunks i (fun i -> i.get_report_perflow Hfl.any) in
  let shared get (i : Southbound.impl) =
    chunks i (fun i -> Result.map Option.to_list (get i))
  in
  let support_shared = shared (fun (i : Southbound.impl) -> i.get_support_shared ()) in
  let report_shared = shared (fun (i : Southbound.impl) -> i.get_report_shared ()) in
  let impl name = List.assoc name impls in
  check_chunks "nat" (impl "nat") "support" Nat.mapping_codec (perflow (impl "nat"));
  check_chunks "monitor" (impl "monitor") "report" Monitor.flow_record_codec (report (impl "monitor"));
  check_chunks "monitor" (impl "monitor") "shared-report" Monitor.totals_codec
    (report_shared (impl "monitor"));
  check_chunks "firewall" (impl "firewall") "support" Firewall.verdict_codec
    (perflow (impl "firewall"));
  check_chunks "firewall" (impl "firewall") "shared-report" Firewall.counters_codec
    (report_shared (impl "firewall"));
  check_chunks "ids" (impl "ids") "support" Ids.conn_codec (perflow (impl "ids"));
  check_chunks "ids" (impl "ids") "shared-support" Ids.scan_codec (support_shared (impl "ids"));
  check_chunks "lb" (impl "lb") "support" Load_balancer.backend_codec (perflow (impl "lb"));
  (match (impl "firewall").get_config [ "rules" ] with
  | Ok entries ->
    List.iter
      (fun (e : Config_tree.entry) ->
        List.iter (fun v -> sized "firewall rule" Firewall.rule_codec (Json.to_string v)) e.values)
      entries
  | Error e -> Alcotest.failf "firewall rules: %s" (Errors.to_string e));
  List.iter
    (fun info ->
      Alcotest.(check int) "nat.new_mapping" (String.length (Json.to_string info)) (Json.wire_size info))
    infos

(* The bytes [stats] reports, per-flow and shared, counted from
   plaintexts, are the summed sizes of the chunks a get then exports,
   with compression on (where some chunks shrink and some do not) and
   off.  Besides the pinned fleet: an RE encoder and decoder, whose
   caches are shared supporting state, and a dummy MB with shared
   supporting state and none of the reporting kind. *)
let test_stats_bytes_are_exported_bytes () =
  let check compress =
    Chunk.compression_enabled := compress;
    let impls, _ = pin_fleet () in
    let engine = Engine.create () in
    let enc = Re_encoder.create engine ~name:"enc" () in
    Mb_base.set_egress (Re_encoder.base enc) ignore;
    send_via engine enc ~id:1 ~ts:0.0 (Array.init 16 (fun i -> 100 + i));
    run_all engine;
    let dummy = Openmb_apps.Dummy_mb.create engine ~name:"dummy" () in
    Openmb_apps.Dummy_mb.populate dummy ~n:8;
    Openmb_apps.Dummy_mb.set_shared_support dummy (String.concat "," (List.init 40 string_of_int));
    let impls =
      impls
      @ [
          ("re encoder", Re_encoder.impl enc);
          ("re decoder", Re_decoder.impl (Re_decoder.create engine ~name:"dec" ()));
          ("dummy", Openmb_apps.Dummy_mb.impl dummy);
        ]
    in
    List.iter
      (fun (name, (impl : Southbound.impl)) ->
        let s = impl.stats Hfl.any in
        let fail e = Alcotest.failf "%s get: %s" name (Errors.to_string e) in
        let exported get =
          match get Hfl.any with
          | Ok chunks -> List.fold_left (fun n c -> n + Chunk.size_bytes c) 0 chunks
          | Error e -> fail e
        in
        let shared get =
          match get () with Ok (Some c) -> Chunk.size_bytes c | Ok None -> 0 | Error e -> fail e
        in
        let what = Printf.sprintf "%s, compression %b" name compress in
        Alcotest.(check int) (what ^ ": supporting bytes")
          (exported impl.get_support_perflow) s.perflow_support_bytes;
        Alcotest.(check int) (what ^ ": reporting bytes")
          (exported impl.get_report_perflow) s.perflow_report_bytes;
        Alcotest.(check int) (what ^ ": shared supporting bytes")
          (shared impl.get_support_shared) s.shared_support_bytes;
        Alcotest.(check int) (what ^ ": shared reporting bytes")
          (shared impl.get_report_shared) s.shared_report_bytes;
        impl.abort_perflow Hfl.any)
      impls
  in
  Fun.protect ~finally:(fun () -> Chunk.compression_enabled := false) (fun () ->
      check false;
      check true)

let test_state_pinning () =
  let actual = state_pin_lines () in
  let oc = open_out_bin "mb_state.actual" in
  List.iter (fun l -> output_string oc (l ^ "\n")) actual;
  close_out oc;
  let expected = read_lines "mb_state.golden" in
  Alcotest.(check int) "pinned line count" (List.length expected) (List.length actual);
  List.iter2 (fun e a -> Alcotest.(check string) "pinned state" e a) expected actual

(* ------------------------------------------------------------------ *)
(* Malformed state                                                     *)
(* ------------------------------------------------------------------ *)

let plaintext (impl : Southbound.impl) (c : Chunk.t) =
  match Chunk.unseal ~mb_kind:impl.kind c with
  | Ok plain -> plain
  | Error e -> Alcotest.failf "%s unseal: %s" impl.name (Errors.to_string e)

(* Everything an MB would export, its stats and its table size; the
   per-flow gets' marks are rolled back. *)
let exported (impl : Southbound.impl) =
  let line (c : Chunk.t) = Hfl.to_string c.key ^ " " ^ plaintext impl c in
  let perflow = function
    | Ok chunks -> List.map line chunks
    | Error e -> Alcotest.failf "%s get: %s" impl.name (Errors.to_string e)
  in
  let shared = function
    | Ok (Some c) -> [ line c ]
    | Ok None -> []
    | Error e -> Alcotest.failf "%s get: %s" impl.name (Errors.to_string e)
  in
  let s = impl.stats Hfl.any in
  let lines =
    perflow (impl.get_support_perflow Hfl.any)
    @ perflow (impl.get_report_perflow Hfl.any)
    @ shared (impl.get_support_shared ())
    @ shared (impl.get_report_shared ())
  in
  impl.abort_perflow Hfl.any;
  Printf.sprintf "entries=%d chunks=%d/%d bytes=%d/%d/%d/%d" (impl.table_entries ())
    s.perflow_support_chunks s.perflow_report_chunks s.perflow_support_bytes
    s.perflow_report_bytes s.shared_support_bytes s.shared_report_bytes
  :: List.sort String.compare lines

(* Edits of a JSON object body: [drop] a member, [set] one. *)
let edit_member name f body =
  match Json.of_string body with
  | Json.Assoc fields ->
    let edit (k, v) = if k = name then Option.map (fun v -> (k, v)) (f v) else Some (k, v) in
    Json.to_string (Json.Assoc (List.filter_map edit fields))
  | _ -> Alcotest.failf "not an object: %s" body

let drop name = edit_member name (fun _ -> None)
let set name v = edit_member name (fun _ -> Some v)

(* The JSON bodies every described value rejects, then its own. *)
let malformed_json ~valid ~missing ~wrong_type own =
  [
    ("not JSON", "not json");
    ("wrong top-level shape", "[" ^ valid ^ "]");
    ("missing field", missing);
    ("wrong field type", wrong_type);
    ("trailing bytes", valid ^ " 0");
  ]
  @ own

(* Every put each MB serves, per-flow and shared, both roles, RE's
   caches included, fed malformed bodies of its own class and key: each
   is [Bad_chunk], never an exception, and leaves what the MB exports
   unchanged; the valid body it was derived from is then accepted. *)
let test_malformed_state_rejected () =
  let impls, _ = pin_fleet () in
  let engine = Engine.create () in
  let enc, dec = re_pair engine () in
  send_via engine enc ~id:1 ~ts:0.0 [| 1; 2; 3; 4 |];
  send_via engine enc ~id:2 ~ts:0.01 [| 1; 2; 3; 9 |];
  run_all engine;
  let impls =
    impls @ [ ("re-encoder", Re_encoder.impl enc); ("re-decoder", Re_decoder.impl dec) ]
  in
  (* A valid body of a class: a chunk the MB exports itself. *)
  let exported_chunk name (get : Southbound.impl -> _) =
    let impl = List.assoc name impls in
    let c =
      match get impl with
      | Ok (c :: _) -> c
      | _ -> Alcotest.failf "%s: nothing exported" name
    in
    impl.abort_perflow Hfl.any;
    (c.Chunk.key, plaintext impl c)
  in
  let perflow ?(key = Hfl.any) name role =
    exported_chunk name (fun impl ->
        match role with
        | Taxonomy.Supporting -> impl.get_support_perflow key
        | Taxonomy.Reporting | Taxonomy.Configuring -> impl.get_report_perflow key)
  in
  let shared name role =
    exported_chunk name (fun impl ->
        Result.map Option.to_list
          (match role with
          | Taxonomy.Supporting -> impl.get_support_shared ()
          | Taxonomy.Reporting | Taxonomy.Configuring -> impl.get_report_shared ()))
  in
  let binary_bad valid own =
    [ ("truncated", String.sub valid 0 (String.length valid / 2)); ("trailing bytes", valid ^ "0") ]
    @ own
  in
  let open Taxonomy in
  let cases =
    [
      ( "nat", Supporting, Per_flow, perflow "nat" Supporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "ext_port" v)
            ~wrong_type:(set "int_port" (Json.String "1234") v)
            [ ("proto sctp", set "proto" (Json.String "sctp") v) ] );
      ( "monitor", Reporting, Per_flow, perflow "monitor" Reporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "pkts" v)
            ~wrong_type:(set "first" (Json.String "0.0") v) [] );
      ( "monitor", Reporting, Shared, shared "monitor" Reporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "new_flows" v)
            ~wrong_type:(set "tcp" (Json.Bool true) v) [] );
      ( "firewall", Supporting, Per_flow, perflow "firewall" Supporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "verdict" v)
            ~wrong_type:(set "verdict" (Json.Int 1) v)
            [ ("verdict maybe", set "verdict" (Json.String "maybe") v) ] );
      ( "firewall", Reporting, Shared, shared "firewall" Reporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "denied" v)
            ~wrong_type:(set "allowed" (Json.Float 1.5) v) [] );
      ( "ids", Supporting, Per_flow,
        perflow ~key:(Hfl.of_string "nw_src=10.0.0.1/32,tp_src=1234") "ids" Supporting,
        fun v ->
          let tcp_analyzer_only =
            match Json.member "analyzers" (Json.of_string v) with
            | Json.List l ->
              Json.List (List.filter (fun a -> Json.member "name" a <> Json.String "HTTP") l)
            | _ -> Alcotest.fail "ids: no analyzer list"
          in
          malformed_json ~valid:v ~missing:(drop "history" v)
            ~wrong_type:(set "logged" (Json.String "yes") v)
            [
              ("tcp S9", set "tcp" (Json.String "S9") v);
              ("no HTTP analyzer", set "analyzers" tcp_analyzer_only v);
              ("non-numeric port", set "orig" (Json.String "tcp 10.0.0.1:http>1.1.1.5:80") v);
            ] );
      ( "ids", Supporting, Shared, shared "ids" Supporting,
        fun v ->
          let scanner fields = set "10.0.0.99" (Json.Assoc fields) v in
          malformed_json ~valid:v
            ~missing:(scanner [ ("alerted", Json.Bool true) ])
            ~wrong_type:(scanner [ ("syns", Json.String "22"); ("alerted", Json.Bool true) ])
            [] );
      ( "lb", Supporting, Per_flow, perflow "lb" Supporting,
        fun v ->
          malformed_json ~valid:v ~missing:(drop "backend" v)
            ~wrong_type:(set "backend" (Json.Int 1) v)
            [ ("bad address", set "backend" (Json.String "10.9.0") v) ] );
      ( "re-encoder", Supporting, Shared, shared "re-encoder" Supporting,
        fun v -> binary_bad v [ ("not a bundle", "not json"); ("non-numeric count", "x\n") ] );
      ( "re-decoder", Supporting, Shared, shared "re-decoder" Supporting,
        fun v -> binary_bad v [ ("not a cache", "not json") ] );
    ]
  in
  List.iter
    (fun (name, role, partition, (key, valid), bodies) ->
      let impl = List.assoc name impls in
      let put =
        match (role, partition) with
        | Supporting, Per_flow -> impl.put_support_perflow
        | Supporting, Shared -> impl.put_support_shared
        | (Reporting | Configuring), Per_flow -> impl.put_report_perflow
        | (Reporting | Configuring), Shared -> impl.put_report_shared
      in
      let seal plain = Chunk.seal ~mb_kind:impl.kind ~role ~partition ~key ~plain in
      let before = exported impl in
      List.iter
        (fun (label, body) ->
          match put (seal body) with
          | Error (Errors.Bad_chunk _) -> ()
          | Ok () -> Alcotest.failf "%s, %s: accepted" name label
          | Error e -> Alcotest.failf "%s, %s: %s" name label (Errors.to_string e)
          | exception e -> Alcotest.failf "%s, %s: raised %s" name label (Printexc.to_string e))
        (bodies valid);
      Alcotest.(check (list string)) (name ^ ": state unchanged") before (exported impl);
      match put (seal valid) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: the valid body: %s" name (Errors.to_string e))
    cases

(* ------------------------------------------------------------------ *)
(* State descriptions                                                  *)
(* ------------------------------------------------------------------ *)

(* Each description, under both framings: a value reads back as
   [expect] says (the decoders reset what an import resets, and JSON's
   ["S1"] reads back as [Ts_est]); [binary_size] is the binary
   encoding's length; and a truncated or bit-flipped encoding raises
   nothing but [Decode_error]. *)
let prop_described name codec gen ?(expect = Fun.id) ?(expect_json = expect) () =
  let print = Codec.encode Framing.Json codec in
  let damage =
    QCheck2.Gen.(
      oneof
        [
          map (fun i -> `Truncate i) nat;
          map (fun flips -> `Flips flips) (list_size (int_range 1 3) (pair nat (int_bound 7)));
        ])
  in
  [
    QCheck2.Test.make ~count:200 ~print ~name:(name ^ " round-trips under both framings") gen
      (fun v ->
        let binary = Codec.encode Framing.Binary codec v in
        Codec.decode codec binary = expect v
        && Codec.decode codec (Codec.encode Framing.Json codec v) = expect_json v
        && Codec.binary_size codec v = String.length binary);
    QCheck2.Test.make ~count:300 ~name:(name ^ " damaged: Decode_error or a value")
      QCheck2.Gen.(triple gen bool damage)
      (fun (v, binary, dmg) ->
        let s = Codec.encode (if binary then Framing.Binary else Framing.Json) codec v in
        let damaged =
          match dmg with
          | `Truncate i -> String.sub s 0 (i mod String.length s)
          | `Flips flips ->
            let b = Bytes.of_string s in
            List.iter
              (fun (i, bit) ->
                let i = i mod Bytes.length b in
                Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
              flips;
            Bytes.to_string b
        in
        match Codec.decode codec damaged with
        | _ -> true
        | exception Binary.Decode_error _ -> true);
  ]

let gen_state_props =
  let open State_gen in
  let pool = Addr.of_string "5.5.5.5" in
  let s1_reads_as_est (c : Ids.conn) =
    { c with tcp = (if c.tcp = Ids.Ts_synack then Ids.Ts_est else c.tcp) }
  in
  List.concat
    [
      prop_described "NAT mapping" Nat.mapping_codec mapping
        ~expect:(fun m -> { m with m_last_active = m.m_created })
        ();
      prop_described "NAT announcement" (Nat.announcement_codec pool) mapping
        ~expect:(fun m -> { m with m_ext_ip = pool; m_created = 0.0; m_last_active = 0.0 })
        ();
      prop_described "monitor flow record" Monitor.flow_record_codec flow_record ();
      prop_described "monitor totals" Monitor.totals_codec totals ();
      prop_described "firewall verdict" Firewall.verdict_codec verdict ();
      prop_described "firewall counters" Firewall.counters_codec counters ();
      prop_described "firewall rule" Firewall.rule_codec rule ();
      prop_described "IDS connection" Ids.conn_codec conn ~expect_json:s1_reads_as_est ();
      prop_described "IDS scan table" Ids.scan_codec scan ();
      prop_described "LB backend" Load_balancer.backend_codec addr ();
    ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_mbox"
    [
      ( "state_table",
        [
          Alcotest.test_case "basic" `Quick test_state_table_basic;
          Alcotest.test_case "bidirectional" `Quick test_state_table_bidir;
          Alcotest.test_case "matching scan" `Quick test_state_table_matching_scan;
          Alcotest.test_case "insert clears moved" `Quick test_state_table_insert_clears_moved;
          Alcotest.test_case "indexed equivalence" `Quick
            test_state_table_indexed_equivalence;
        ]
        @ qcheck
            [
              prop_state_table_index_equivalence;
              prop_state_table_index_remove_equivalence;
              prop_state_table_packed_equivalence;
              prop_state_table_masked_equivalence;
              prop_add_missing_keys_from_packet;
            ] );
      ( "mb_base",
        [
          Alcotest.test_case "queueing latency" `Quick test_mb_base_queueing_latency;
          Alcotest.test_case "op slowdown" `Quick test_mb_base_op_slowdown;
          Alcotest.test_case "seal roundtrip" `Quick test_mb_base_seal_roundtrip;
          Alcotest.test_case "1-member batch charge" `Quick test_mb_base_singleton_charge;
          Alcotest.test_case "import rejects malformed bodies" `Quick
            test_mb_base_import_malformed;
        ] );
      ( "ids",
        [
          Alcotest.test_case "connection lifecycle" `Quick test_ids_connection_lifecycle;
          Alcotest.test_case "rst" `Quick test_ids_rst;
          Alcotest.test_case "exploit alert" `Quick test_ids_exploit_alert;
          Alcotest.test_case "scan alert once" `Quick test_ids_scan_alert_once;
          Alcotest.test_case "get/put roundtrip" `Quick test_ids_get_put_roundtrip;
          Alcotest.test_case "moved flag events" `Quick test_ids_moved_flag_raises_events;
          Alcotest.test_case "del after move no anomaly" `Quick
            test_ids_del_after_move_no_anomaly;
          Alcotest.test_case "finalize anomalies" `Quick test_ids_finalize_anomalies;
          Alcotest.test_case "granularity and stats" `Quick test_ids_granularity_and_stats;
          Alcotest.test_case "scan state clone/merge" `Quick test_ids_scan_state_clone_merge;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "counters" `Quick test_monitor_counters;
          Alcotest.test_case "asset event" `Quick test_monitor_asset_event;
          Alcotest.test_case "move report" `Quick test_monitor_move_report;
          Alcotest.test_case "shared merge adds" `Quick test_monitor_shared_merge_adds;
          Alcotest.test_case "wrong chunk class" `Quick test_monitor_rejects_wrong_chunk_class;
          Alcotest.test_case "port added later" `Quick test_monitor_port_added_later;
        ] );
      ( "re_cache",
        [
          Alcotest.test_case "append/read" `Quick test_re_cache_append_read;
          Alcotest.test_case "window eviction" `Quick test_re_cache_window_eviction;
          Alcotest.test_case "serialize roundtrip" `Quick test_re_cache_serialize_roundtrip;
          Alcotest.test_case "clone independence" `Quick test_re_cache_clone_independent;
        ]
        @ qcheck [ prop_re_cache_serialize_roundtrip ] );
      ( "re",
        [
          Alcotest.test_case "encode/decode identity" `Quick test_re_encode_decode_identity;
          Alcotest.test_case "wire shrink" `Quick test_re_encoder_shrinks_wire_bytes;
          Alcotest.test_case "implicit desync on loss" `Quick test_re_implicit_desync_on_loss;
          Alcotest.test_case "undecodable packet recorded" `Quick test_re_undecodable_recorded;
          Alcotest.test_case "explicit survives literal loss" `Quick
            test_re_explicit_survives_literal_loss;
          Alcotest.test_case "decoder clone via chunks" `Quick test_re_decoder_clone_via_chunks;
          Alcotest.test_case "cloned decoder raises events" `Quick
            test_re_decoder_cloned_raises_events;
          Alcotest.test_case "encoder NumCaches/CacheFlows" `Quick
            test_re_encoder_num_caches_clone_and_flows;
        ]
        @ qcheck [ prop_re_lossless_path_decodes ] );
      ( "timeline",
        [ Alcotest.test_case "nothing logged when off" `Quick test_nothing_logged_off_timeline ] );
      ( "nat",
        [
          Alcotest.test_case "translation roundtrip" `Quick test_nat_translation_roundtrip;
          Alcotest.test_case "unknown inbound dropped" `Quick test_nat_unknown_inbound_dropped;
          Alcotest.test_case "introspection event" `Quick test_nat_introspection_event;
          Alcotest.test_case "events built only when admitted" `Quick
            test_nat_events_only_when_admitted;
          Alcotest.test_case "granularity" `Quick test_nat_granularity;
          Alcotest.test_case "move preserves mapping" `Quick test_nat_move_preserves_mapping;
          Alcotest.test_case "static mapping restore" `Quick test_nat_static_mapping_restore;
          Alcotest.test_case "snapshots are copies" `Quick test_snapshots_are_copies;
        ] );
      ( "alloc_budget",
        [
          Alcotest.test_case "flow table lookup_batch" `Quick test_budget_flow_table;
          Alcotest.test_case "monitor receive_batch" `Quick test_budget_monitor;
          Alcotest.test_case "nat receive_batch" `Quick test_budget_nat;
          Alcotest.test_case "nat receive_batch, new flows" `Quick test_budget_nat_new_flows;
          Alcotest.test_case "monitor receive_batch, new flows" `Quick
            test_budget_monitor_new_flows;
          Alcotest.test_case "nat+monitor batch size 1" `Quick test_budget_nat_monitor_b1;
          Alcotest.test_case "move 1k chunks, compressed JSON" `Quick test_budget_move;
          Alcotest.test_case "monitor flow record encode" `Quick test_budget_flow_record_encode;
          Alcotest.test_case "monitor flow record decode" `Quick test_budget_flow_record_decode;
          Alcotest.test_case "ids receive, one long flow" `Quick test_budget_ids_long_flow;
          Alcotest.test_case "ids connection record decode" `Quick test_budget_ids_conn_decode;
        ] );
      ( "load_balancer",
        [
          Alcotest.test_case "round robin sticky" `Quick test_lb_round_robin_sticky;
          Alcotest.test_case "granularity rejects 5-tuple" `Quick
            test_lb_granularity_rejects_five_tuple;
          Alcotest.test_case "move keeps backend" `Quick test_lb_move_keeps_backend;
          Alcotest.test_case "least-conn policy" `Quick test_lb_least_conn_policy;
          Alcotest.test_case "reconfigure backends" `Quick test_lb_reconfigure_backends;
        ] );
      ( "firewall",
        [
          Alcotest.test_case "rules and cache" `Quick test_firewall_rules_and_cache;
          Alcotest.test_case "shared report merge" `Quick test_firewall_shared_report_merge;
          Alcotest.test_case "verdict move" `Quick test_firewall_verdict_move;
          Alcotest.test_case "unparsable config refused" `Quick
            test_firewall_unparsable_config_refused;
        ] );
      ( "mb_state",
        [
          Alcotest.test_case "chunk bodies pinned" `Quick test_state_pinning;
          Alcotest.test_case "state json sizes" `Quick test_state_json_sizes;
          Alcotest.test_case "stats bytes are exported bytes" `Quick
            test_stats_bytes_are_exported_bytes;
          Alcotest.test_case "flow records on two domains" `Quick test_flow_records_two_domains;
          Alcotest.test_case "malformed state rejected" `Quick test_malformed_state_rejected;
        ]
        @ qcheck gen_state_props );
    ]
