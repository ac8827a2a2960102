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
  if Engine.pending engine > 1 then
    Alcotest.failf "%d events queued by scheduling, limit 1" (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "one event per batch" 3 (Engine.executed engine);
  Alcotest.(check (list (pair (float 1e-9) (list int))))
    "size trigger at filling ts, window trigger at deadline, last at last ts"
    [ (0.002, [ 0; 1; 2 ]); (0.030, [ 3 ]); (0.036, [ 4; 5 ]) ]
    (List.rev !fired)

let test_replay_errors () =
  let t = Trace.of_packets [ mk ~id:0 ~ts:1.0; mk ~id:1 ~ts:2.0 ] in
  let engine = Engine.create () in
  Engine.call_at engine (Time.seconds 1.5) ignore ();
  Engine.run engine;
  (match Trace.replay engine t ~into:ignore with
  | () -> Alcotest.fail "replay with the clock past the first packet"
  | exception Invalid_argument _ -> ());
  match Trace.replay_batched engine t ~batch:0 ~window:Time.zero ~into:ignore () with
  | () -> Alcotest.fail "replay_batched with batch 0"
  | exception Invalid_argument _ -> ()

(* A stable sort keeps equal timestamps in input order; the in-order
   check must not skip it for input that is out of order elsewhere. *)
let test_of_packets_stable () =
  let ids t = List.map (fun p -> p.Packet.id) (Trace.packets t) in
  let t =
    Trace.of_packets
      [ mk ~id:0 ~ts:2.0; mk ~id:1 ~ts:1.0; mk ~id:2 ~ts:2.0; mk ~id:3 ~ts:1.0; mk ~id:4 ~ts:2.0 ]
  in
  Alcotest.(check (list int)) "ties keep input order" [ 1; 3; 0; 2; 4 ] (ids t);
  let t = Trace.of_packets [ mk ~id:0 ~ts:1.0; mk ~id:1 ~ts:1.0; mk ~id:2 ~ts:3.0; mk ~id:3 ~ts:2.0 ] in
  Alcotest.(check (list int)) "one late inversion" [ 0; 1; 3; 2 ] (ids t);
  let t = Trace.of_packets [ mk ~id:0 ~ts:1.0; mk ~id:1 ~ts:1.0; mk ~id:2 ~ts:3.0 ] in
  Alcotest.(check (list int)) "in order, unchanged" [ 0; 1; 2 ] (ids t)

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

(* One engine event in flight: a 100,000-packet replay, scalar or in
   batches of 64, holds at most two engine cells (it held one per packet
   or per batch when every event was scheduled up front), and
   scheduling plus firing allocate under 0.05 minor words per packet
   beyond [into].  The trace is the bounded test's shape: 1 us apart
   with a 1 ms gap after every 1,000th packet, so some batches leave at
   their deadline. *)
let test_replay_one_event_in_flight () =
  let n = 100_000 in
  let t =
    Trace.of_packets
      (List.init n (fun i ->
           mk ~id:i ~ts:((float_of_int i *. 1e-6) +. (float_of_int (i / 1_000) *. 1e-3))))
  in
  (* Runs of 10 packets 1 us apart, 1 ms between runs: every batch of
     64 closes on its deadline at 10 members. *)
  let expiring =
    Trace.of_packets
      (List.init n (fun i ->
           mk ~id:i ~ts:((float_of_int (i mod 10) *. 1e-6) +. (float_of_int (i / 10) *. 1e-3))))
  in
  let pool = Packet_batch.pool () in
  Packet_batch.release (Packet_batch.alloc ~capacity:64 pool);
  let delivered = ref 0 in
  let into_packet (_ : Packet.t) = incr delivered in
  let into_batch b =
    delivered := !delivered + Packet_batch.length b;
    Packet_batch.release b
  in
  let check ?(limit = 0.05) what replay =
    let engine = Engine.create () in
    delivered := 0;
    let w0 = Gc.minor_words () in
    replay engine;
    Engine.run engine;
    let words = (Gc.minor_words () -. w0) /. float_of_int n in
    Alcotest.(check int) (what ^ ": every packet") n !delivered;
    let hw = (Engine.pool_stats engine).Engine.high_water in
    if hw > 2 then Alcotest.failf "%s: %d engine cells queued at once, limit 2" what hw;
    if words >= limit then
      Alcotest.failf "%s: %.4f minor words/packet, limit %g" what words limit
  in
  check "replay" (fun engine -> Trace.replay engine t ~into:into_packet);
  check "replay_batched, batch 64" (fun engine ->
      Trace.replay_batched engine t ~pool ~batch:64 ~window:(Time.us 500.0) ~into:into_batch ());
  (* A deadline is summed by the engine, not boxed to be passed: 2
     words per expired batch, 0.2 per packet here, if it were. *)
  check ~limit:0.01 "replay_batched, every batch expires at 10" (fun engine ->
      Trace.replay_batched engine expiring ~pool ~batch:64 ~window:(Time.us 500.0)
        ~into:into_batch ())

(* The chained replays fire every event where scheduling them all up
   front put it.  Two replays share an engine, one scalar and one
   batched, over random sorted traces full of same-instant ties, next
   to unrelated events at exactly colliding times: scheduled before,
   between and after the replay calls, and from inside fired events.
   The oracle is the up-front scheduling itself, one [Engine.call_at]
   per packet or batch.  Every firing logs its time, what it delivered,
   [Engine.next_at] and whether [Engine.pending] is positive, which the
   chained replays keep equal by filing a successor before [into]
   runs. *)
let upfront_replay engine t ~into =
  List.iter (fun (p : Packet.t) -> Engine.call_at engine p.ts into p) (Trace.packets t)

let upfront_replay_batched engine t ~batch ~window ~into =
  let t = Array.of_list (Trace.packets t) in
  let n = Array.length t in
  let batch_stop first =
    let deadline = Time.(t.(first).Packet.ts + window) in
    let stop = ref (first + 1) in
    while !stop < n && !stop - first < batch && Time.compare t.(!stop).Packet.ts deadline <= 0 do
      incr stop
    done;
    !stop
  in
  let first = ref 0 in
  while !first < n do
    let stop = batch_stop !first in
    let at =
      if stop - !first < batch && stop < n then Time.(t.(!first).Packet.ts + window)
      else t.(stop - 1).Packet.ts
    in
    Engine.call_at engine at into (List.init (stop - !first) (fun k -> t.(!first + k).Packet.id));
    first := stop
  done

type order_prog = {
  scalar : int list;  (* the scalar trace's times, us *)
  batched : int list;  (* the batched trace's times, us *)
  batch : int;
  window_us : int;
  noise : (int * int) list;  (* (phase 0/1/2 = before/between/after, time us) *)
  spawn : int list;  (* delays, us, of the events fired events schedule *)
  until_us : int option;
}

let gen_order_prog =
  let open QCheck2.Gen in
  (* Running sums of gaps, three in seven of them 0: sorted, with ties. *)
  let times =
    map
      (fun gaps -> List.rev (snd (List.fold_left (fun (t, acc) g -> (t + g, (t + g) :: acc)) (0, []) gaps)))
      (list_size (int_range 0 40) (oneofl [ 0; 0; 0; 1; 2; 7; 40 ]))
  in
  let* scalar = times and* batched = times in
  let* batch = oneofl [ 1; 3; 64 ] and* window_us = oneofl [ 0; 1; 2; 5; 100 ] in
  let* noise = list_size (int_range 0 12) (pair (int_range 0 2) (int_range 0 120)) in
  let* spawn = list_size (int_range 0 6) (oneofl [ 0; 0; 1; 3 ]) in
  let+ until_us = option (int_range 0 150) in
  { scalar; batched; batch; window_us; noise; spawn; until_us }

let print_order_prog p =
  let ints l = String.concat ";" (List.map string_of_int l) in
  Printf.sprintf "scalar=[%s] batched=[%s] batch=%d window=%dus noise=[%s] spawn=[%s] until=%s"
    (ints p.scalar) (ints p.batched) p.batch p.window_us
    (String.concat ";" (List.map (fun (ph, t) -> Printf.sprintf "%d@%d" ph t) p.noise))
    (ints p.spawn)
    (match p.until_us with None -> "-" | Some u -> string_of_int u)

(* Runs [p] with the given replays; returns the fire log. *)
let run_order_prog p ~replay ~replay_batched =
  let engine = Engine.create () in
  let at_us k = Time.us (float_of_int k) in
  let trace base times =
    Trace.of_packets (List.mapi (fun i t -> mk ~id:(base + i) ~ts:(Time.to_seconds (at_us t))) times)
  in
  let log = ref [] in
  let record what =
    log :=
      (Printf.sprintf "%s @%.7f next %.7f pending %b" what
         (Time.to_seconds (Engine.now engine))
         (Time.to_seconds (Engine.next_at engine))
         (Engine.pending engine > 0))
      :: !log
  in
  (* Fired events take the spawn delays in fire order, so a log that
     diverges once keeps diverging. *)
  let spawn = ref p.spawn and noise_id = ref 0 in
  let rec noise at =
    let id = !noise_id in
    incr noise_id;
    Engine.call_at engine at fire_noise id
  and fire_noise id =
    record (Printf.sprintf "noise %d" id);
    maybe_spawn ()
  and maybe_spawn () =
    match !spawn with
    | d :: rest ->
      spawn := rest;
      noise Time.(Engine.now engine + at_us d)
    | [] -> ()
  in
  let noise_in phase = List.iter (fun (ph, t) -> if ph = phase then noise (at_us t)) p.noise in
  noise_in 0;
  replay engine (trace 0 p.scalar) ~into:(fun (pkt : Packet.t) ->
      record (Printf.sprintf "packet %d" pkt.id);
      maybe_spawn ());
  noise_in 1;
  replay_batched engine (trace 1000 p.batched) ~batch:p.batch ~window:(at_us p.window_us)
    ~into:(fun ids ->
      record ("batch " ^ String.concat "," (List.map string_of_int ids));
      maybe_spawn ());
  noise_in 2;
  (match p.until_us with
  | Some u ->
    Engine.run ~until:(at_us u) engine;
    record "until"
  | None -> ());
  Engine.run engine;
  List.rev !log

let prop_replay_order =
  QCheck2.Test.make ~name:"chained replays fire in the up-front schedule's order" ~count:500
    ~print:print_order_prog gen_order_prog (fun p ->
      let expected =
        run_order_prog p ~replay:upfront_replay ~replay_batched:upfront_replay_batched
      in
      let actual =
        run_order_prog p ~replay:(fun engine t ~into -> Trace.replay engine t ~into)
          ~replay_batched:(fun engine t ~batch ~window ~into ->
            Trace.replay_batched engine t ~batch ~window
              ~into:(fun b ->
                let ids = ref [] in
                Packet_batch.iter b (fun q -> ids := q.Packet.id :: !ids);
                Packet_batch.release b;
                into (List.rev !ids))
              ())
      in
      expected = actual
      || QCheck2.Test.fail_reportf "up front:\n  %s\nchained:\n  %s"
           (String.concat "\n  " expected) (String.concat "\n  " actual))

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
          Alcotest.test_case "replay errors" `Quick test_replay_errors;
          Alcotest.test_case "of_packets sorts stably" `Quick test_of_packets_stable;
          Alcotest.test_case "one engine event in flight" `Quick
            test_replay_one_event_in_flight;
          QCheck_alcotest.to_alcotest prop_replay_order;
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
