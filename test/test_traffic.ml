(* Tests for the traffic generators. *)

open Openmb_sim
open Openmb_net
open Openmb_traffic

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

let mk ~id ~ts =
  Packet.make ~id ~ts:(Time.seconds ts) ~src_ip:(Addr.of_string "10.0.0.1")
    ~dst_ip:(Addr.of_string "1.1.1.1") ~src_port:1 ~dst_port:2 ~proto:Packet.Tcp ()

let test_trace_sorting_and_replay () =
  let t = Trace.of_packets [ mk ~id:2 ~ts:2.0; mk ~id:1 ~ts:1.0; mk ~id:3 ~ts:3.0 ] in
  Alcotest.(check int) "count" 3 (Trace.packet_count t);
  Alcotest.(check (float 1e-9)) "duration" 3.0 (Time.to_seconds (Trace.duration t));
  let engine = Engine.create () in
  let seen = ref [] in
  Trace.replay engine t ~into:(fun p ->
      seen := (p.Packet.id, Time.to_seconds (Engine.now engine)) :: !seen);
  Engine.run engine;
  Alcotest.(check (list (pair int (float 1e-9)))) "in order at their timestamps"
    [ (1, 1.0); (2, 2.0); (3, 3.0) ]
    (List.rev !seen)

let test_trace_merge_filter () =
  let a = Trace.of_packets [ mk ~id:1 ~ts:1.0 ] in
  let b = Trace.of_packets [ mk ~id:2 ~ts:0.5 ] in
  let m = Trace.merge [ a; b ] in
  Alcotest.(check int) "merged" 2 (Trace.packet_count m);
  (match Trace.packets m with
  | p :: _ -> Alcotest.(check int) "earliest first" 2 p.Packet.id
  | [] -> Alcotest.fail "empty merge");
  let f = Trace.filter m ~f:(fun p -> p.Packet.id = 1) in
  Alcotest.(check int) "filtered" 1 (Trace.packet_count f)

(* The size-or-deadline rule, seen from [into]: a full batch fires at
   the timestamp of the packet that filled it, a window-expired one at
   its deadline, and the trace's last at its last member's timestamp. *)
let test_replay_batched_triggers () =
  let t =
    Trace.of_packets
      (List.map
         (fun (id, ms) -> mk ~id ~ts:(ms /. 1000.0))
         [
           (0, 0.0);
           (1, 1.0);
           (2, 2.0) (* fills the batch: [0;1;2] at 2 ms *);
           (3, 20.0);
           (4, 35.0) (* past 20 ms + 10 ms window: [3] at its 30 ms deadline *);
           (5, 36.0) (* the remainder [4;5] at its last member's 36 ms *);
         ])
  in
  let engine = Engine.create () in
  let fired = ref [] in
  Trace.replay_batched engine t ~batch:3 ~window:(Time.ms 10.0)
    ~into:(fun b ->
      let ids = ref [] in
      Packet_batch.iter b (fun p -> ids := p.Packet.id :: !ids);
      fired := (Time.to_seconds (Engine.now engine), List.rev !ids) :: !fired;
      Packet_batch.release b)
    ();
  Alcotest.(check int) "one event per batch" 3 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check (list (pair (float 1e-9) (list int))))
    "size trigger at filling ts, window trigger at deadline, last at last ts"
    [ (0.002, [ 0; 1; 2 ]); (0.030, [ 3 ]); (0.036, [ 4; 5 ]) ]
    (List.rev !fired)

(* Batches are filled when their events fire, so an [into] that
   releases each batch keeps one live, and scheduling the replay costs
   no batch.  10,000 packets 1 us apart, with a 1 ms gap after every
   1,000th: 150 full batches of 64 and 10 window-expired ones of 40. *)
let test_replay_batched_bounded () =
  let n = 10_000 in
  let t =
    Trace.of_packets
      (List.init n (fun i ->
           mk ~id:i ~ts:((float_of_int i *. 1e-6) +. (float_of_int (i / 1_000) *. 1e-3))))
  in
  let engine = Engine.create () in
  let pool = Packet_batch.pool () in
  let next = ref 0 and batches = ref 0 in
  let into b =
    Packet_batch.iter b (fun p ->
        if p.Packet.id <> !next then
          Alcotest.failf "packet %d arrived in place of %d" p.Packet.id !next;
        incr next);
    incr batches;
    Packet_batch.release b
  in
  let w0 = Gc.minor_words () in
  Trace.replay_batched engine t ~pool ~batch:64 ~window:(Time.us 500.0) ~into ();
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Engine.run engine;
  Alcotest.(check int) "every packet, in order" n !next;
  Alcotest.(check int) "batches" 160 !batches;
  if Packet_batch.pool_high_water pool > 2 then
    Alcotest.failf "%d batches live at once, limit 2" (Packet_batch.pool_high_water pool);
  if words >= 0.5 then
    Alcotest.failf "replay_batched allocates %.3f minor words/packet, limit 0.5" words

(* ------------------------------------------------------------------ *)
(* Flow generation                                                     *)
(* ------------------------------------------------------------------ *)

let test_tcp_flow_shape () =
  let ids = Trace.Id_gen.create () in
  let prng = Prng.create ~seed:1 in
  let tuple =
    {
      Five_tuple.src_ip = Addr.of_string "10.0.0.1";
      dst_ip = Addr.of_string "1.1.1.1";
      src_port = 1000;
      dst_port = 80;
      proto = Packet.Tcp;
    }
  in
  let pkts =
    Flow_gen.tcp_flow ~ids ~prng ~tuple ~start:5.0 ~duration:10.0 ~data_packets:6
      ~http:[ ("host", "/uri") ] ()
  in
  Alcotest.(check int) "syn+synack+data+fin" 9 (List.length pkts);
  (match pkts with
  | syn :: synack :: _ ->
    Alcotest.(check bool) "starts with SYN" true syn.Packet.flags.Packet.syn;
    Alcotest.(check bool) "then SYN-ACK" true
      (synack.Packet.flags.Packet.syn && synack.Packet.flags.Packet.ack);
    Alcotest.(check bool) "synack reversed" true
      (Addr.equal synack.Packet.src_ip tuple.Five_tuple.dst_ip)
  | _ -> Alcotest.fail "too few packets");
  let last = List.nth pkts 8 in
  Alcotest.(check bool) "ends with FIN" true last.Packet.flags.Packet.fin;
  Alcotest.(check (float 1e-6)) "fin at start+duration" 15.0
    (Time.to_seconds last.Packet.ts);
  (* Exactly one HTTP request and one response. *)
  let reqs =
    List.filter (fun p -> match p.Packet.app with Packet.Http_request _ -> true | _ -> false) pkts
  in
  let resps =
    List.filter
      (fun p -> match p.Packet.app with Packet.Http_response _ -> true | _ -> false)
      pkts
  in
  Alcotest.(check int) "one request" 1 (List.length reqs);
  Alcotest.(check int) "one response" 1 (List.length resps)

let test_flow_ids_unique () =
  let ids = Trace.Id_gen.create () in
  let prng = Prng.create ~seed:2 in
  let tuple =
    {
      Five_tuple.src_ip = Addr.of_string "10.0.0.1";
      dst_ip = Addr.of_string "1.1.1.1";
      src_port = 1000;
      dst_port = 80;
      proto = Packet.Tcp;
    }
  in
  let a = Flow_gen.tcp_flow ~ids ~prng ~tuple ~start:0.0 ~duration:1.0 ~data_packets:3 () in
  let b = Flow_gen.udp_flow ~ids ~prng ~tuple ~start:0.0 ~duration:1.0 ~data_packets:3 () in
  let all = List.map (fun p -> p.Packet.id) (a @ b) in
  Alcotest.(check int) "unique ids" (List.length all)
    (List.length (List.sort_uniq Int.compare all))

(* ------------------------------------------------------------------ *)
(* Cloud trace                                                         *)
(* ------------------------------------------------------------------ *)

let test_cloud_trace_substreams () =
  let p = Cloud_trace.default_params in
  let t = Cloud_trace.generate p in
  let pkts = Trace.packets t in
  Alcotest.(check bool) "non-empty" true (List.length pkts > 1000);
  let http, other = List.partition Cloud_trace.is_http pkts in
  Alcotest.(check bool) "has http substream" true (List.length http > 0);
  Alcotest.(check bool) "has other substream" true (List.length other > 0);
  (* HTTP packets stay within campus<->cloud_http prefixes. *)
  List.iter
    (fun (pkt : Packet.t) ->
      let ok =
        Addr.in_prefix pkt.dst_ip p.Cloud_trace.cloud_http
        || Addr.in_prefix pkt.src_ip p.Cloud_trace.cloud_http
      in
      if not ok then Alcotest.fail "http packet outside cloud prefix")
    http;
  (* Deterministic for a fixed seed. *)
  let t2 = Cloud_trace.generate p in
  Alcotest.(check int) "deterministic" (Trace.packet_count t) (Trace.packet_count t2)

let test_cloud_trace_flows_complete () =
  (* Every TCP flow in the trace closes (FIN or RST) before it ends, so
     correctness comparisons see completed connections. *)
  let t = Cloud_trace.generate { Cloud_trace.default_params with n_scanners = 0 } in
  let opens = Hashtbl.create 256 and closes = Hashtbl.create 256 in
  List.iter
    (fun (p : Packet.t) ->
      let key =
        Five_tuple.to_string (Five_tuple.canonical (Five_tuple.of_packet p))
      in
      if p.proto = Packet.Tcp then begin
        if p.flags.Packet.syn && not p.flags.Packet.ack then Hashtbl.replace opens key ();
        if p.flags.Packet.fin || p.flags.Packet.rst then Hashtbl.replace closes key ()
      end)
    (Trace.packets t);
  Hashtbl.iter
    (fun key () ->
      if not (Hashtbl.mem closes key) then
        Alcotest.failf "flow %s never closes" key)
    opens

(* ------------------------------------------------------------------ *)
(* University DC trace                                                 *)
(* ------------------------------------------------------------------ *)

let test_university_duration_tail () =
  let prng = Prng.create ~seed:5 in
  let n = 20000 in
  let over = ref 0 in
  for _ = 1 to n do
    if University_dc.sample_duration prng > 1500.0 then incr over
  done;
  let frac = float_of_int !over /. float_of_int n in
  (* The paper observes ~9% of flows above 1500 s. *)
  Alcotest.(check bool) "9% +- 1.5% over 1500s" true (frac > 0.075 && frac < 0.105)

let test_university_trace_generates () =
  let t =
    University_dc.generate { University_dc.default_params with n_flows = 200 }
  in
  Alcotest.(check bool) "packets exist" true (Trace.packet_count t > 1000);
  Alcotest.(check bool) "long tail present" true
    (Time.to_seconds (Trace.duration t) > 1500.0)

(* ------------------------------------------------------------------ *)
(* Redundancy trace                                                    *)
(* ------------------------------------------------------------------ *)

let test_redundancy_trace_classes_disjoint () =
  let p = Openmb_traffic.Redundancy_trace.default_params in
  let t = Redundancy_trace.generate p in
  (* Collect payload tokens per destination class; the popular pools
     must not overlap (intra-class redundancy only). *)
  let tokens_of cls =
    let tbl = Hashtbl.create 4096 in
    List.iter
      (fun (pkt : Packet.t) ->
        if Addr.in_prefix pkt.dst_ip cls then
          match pkt.body with
          | Packet.Raw payload ->
            Array.iter (fun tok -> Hashtbl.replace tbl tok ()) (Payload.tokens payload)
          | Packet.Encoded _ -> ())
      (Trace.packets t);
    tbl
  in
  let a = tokens_of p.Redundancy_trace.class_a and b = tokens_of p.Redundancy_trace.class_b in
  Hashtbl.iter
    (fun tok () ->
      if Hashtbl.mem b tok then Alcotest.failf "token %d appears in both classes" tok)
    a

let test_redundancy_trace_has_repeats () =
  let p = { Redundancy_trace.default_params with n_flows_a = 20; n_flows_b = 20 } in
  let t = Redundancy_trace.generate p in
  let counts = Hashtbl.create 4096 in
  let total = ref 0 in
  List.iter
    (fun (pkt : Packet.t) ->
      match pkt.Packet.body with
      | Packet.Raw payload ->
        Array.iter
          (fun tok ->
            incr total;
            Hashtbl.replace counts tok (1 + Option.value ~default:0 (Hashtbl.find_opt counts tok)))
          (Payload.tokens payload)
      | Packet.Encoded _ -> ())
    (Trace.packets t);
  let repeated =
    Hashtbl.fold (fun _ c acc -> if c > 1 then acc + c else acc) counts 0
  in
  let frac = float_of_int repeated /. float_of_int !total in
  (* Half the tokens come from small zipf pools: a large repeated
     fraction must exist. *)
  Alcotest.(check bool) "repeats present" true (frac > 0.3)

let test_redundancy_class_b_hfl () =
  let p = Redundancy_trace.default_params in
  let hfl = Redundancy_trace.class_b_hfl p in
  let t = Redundancy_trace.generate p in
  let matches =
    List.filter (fun pkt -> Hfl.matches_packet hfl pkt) (Trace.packets t)
  in
  Alcotest.(check bool) "selects class B only" true
    (List.for_all
       (fun (pkt : Packet.t) -> Addr.in_prefix pkt.dst_ip p.Redundancy_trace.class_b)
       matches);
  Alcotest.(check bool) "selects something" true (matches <> [])

(* ------------------------------------------------------------------ *)
(* CBR                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cbr_rate_and_flows () =
  let p = { Cbr.default_params with n_flows = 10; rate_pps = 500.0; duration = 2.0 } in
  let t = Cbr.generate p in
  (* ~500 pkt/s for ~1.85 s of data plus 20 handshake packets. *)
  let n = Trace.packet_count t in
  Alcotest.(check bool) "about rate*duration packets" true (n > 900 && n < 1000);
  (* Flow population is exactly n_flows. *)
  let flows = Hashtbl.create 32 in
  List.iter
    (fun (pkt : Packet.t) ->
      Hashtbl.replace flows
        (Five_tuple.to_string (Five_tuple.canonical (Five_tuple.of_packet pkt)))
        ())
    (Trace.packets t);
  Alcotest.(check int) "flow population" 10 (Hashtbl.length flows)

let () =
  Alcotest.run "openmb_traffic"
    [
      ( "trace",
        [
          Alcotest.test_case "sorting and replay" `Quick test_trace_sorting_and_replay;
          Alcotest.test_case "merge and filter" `Quick test_trace_merge_filter;
          Alcotest.test_case "batched replay triggers" `Quick test_replay_batched_triggers;
          Alcotest.test_case "batched replay bounded" `Quick test_replay_batched_bounded;
        ] );
      ( "flow_gen",
        [
          Alcotest.test_case "tcp flow shape" `Quick test_tcp_flow_shape;
          Alcotest.test_case "unique ids" `Quick test_flow_ids_unique;
        ] );
      ( "cloud",
        [
          Alcotest.test_case "substreams" `Quick test_cloud_trace_substreams;
          Alcotest.test_case "flows complete" `Quick test_cloud_trace_flows_complete;
        ] );
      ( "university",
        [
          Alcotest.test_case "duration tail" `Quick test_university_duration_tail;
          Alcotest.test_case "generates" `Quick test_university_trace_generates;
        ] );
      ( "redundancy",
        [
          Alcotest.test_case "classes disjoint" `Quick test_redundancy_trace_classes_disjoint;
          Alcotest.test_case "has repeats" `Quick test_redundancy_trace_has_repeats;
          Alcotest.test_case "class-b hfl" `Quick test_redundancy_class_b_hfl;
        ] );
      ("cbr", [ Alcotest.test_case "rate and flows" `Quick test_cbr_rate_and_flows ]);
    ]
