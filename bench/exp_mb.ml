(* Middlebox-level experiments: Figure 9 (get/put processing time and
   re-process event counts for PRADS and Bro) and the §8.2 per-packet
   latency comparison. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

let bench_ctrl = { Controller.default_config with quiescence = Time.ms 100.0 }

(* Populate an MB with [n] distinct flows by feeding SYN packets
   directly (instantaneous engine time per packet is fine here: the
   measurements start afterwards). *)
let syn_packet i =
  Packet.make ~flags:Packet.syn_flags ~id:i ~ts:Time.zero
    ~src_ip:(Addr.of_string (Printf.sprintf "10.%d.%d.%d" (i / 65536) (i / 256 mod 256) (1 + (i mod 250))))
    ~dst_ip:(Addr.of_string "1.1.1.10") ~src_port:(10000 + (i mod 50000)) ~dst_port:80
    ~proto:Packet.Tcp ()

type mb_kind = Prads | Bro

let kind_name = function Prads -> "Prads" | Bro -> "Bro"

(* Measure the MB-side cost of a get and of the corresponding puts in
   isolation, exactly as Figure 9 does: requests are sent straight to
   the MB agents (no controller in the measurement path), the get time
   is send-to-endOfState, and the puts are issued back-to-back so their
   time is pure import processing rather than the paced arrival of the
   get stream. *)
let get_put_times kind ~chunks =
  let engine = Engine.create () in
  let feed_and_impls =
    match kind with
    | Prads ->
      let a = Monitor.create engine ~name:"src" () in
      let b = Monitor.create engine ~name:"dst" () in
      ((fun p -> Monitor.receive a p), Monitor.impl a, Monitor.impl b)
    | Bro ->
      let a = Ids.create engine ~name:"src" () in
      let b = Ids.create engine ~name:"dst" () in
      ((fun p -> Ids.receive a p), Ids.impl a, Ids.impl b)
  in
  let feed, impl_a, impl_b = feed_and_impls in
  for i = 0 to chunks - 1 do
    feed (syn_packet i)
  done;
  Engine.run engine;
  let agent_a = Mb_agent.create engine ~impl:impl_a () in
  let agent_b = Mb_agent.create engine ~impl:impl_b () in
  (* Get: capture the streamed chunks and time until End_of_state. *)
  let chunks_out = ref [] in
  let get_start = ref Time.zero and get_end = ref Time.zero in
  Mb_agent.set_uplinks agent_a
    ~send_reply:(fun msg ->
      match msg with
      | Message.Reply { reply = Message.State_chunk c; _ } ->
        chunks_out := c :: !chunks_out
      | Message.Reply { reply = Message.End_of_state _; _ } ->
        get_end := Engine.now engine
      | Message.Reply _ | Message.Event_msg _ -> ())
    ~send_event:(fun _ -> ());
  get_start := Engine.now engine;
  Mb_agent.handle_request agent_a
    { Message.op = 0; tid = 0; req = Message.Get_support_perflow Hfl.any };
  Mb_agent.handle_request agent_a
    { Message.op = 1; tid = 0; req = Message.Get_report_perflow Hfl.any };
  Engine.run engine;
  (* Puts: issue every chunk back-to-back, each a batch of one, and
     time until the last acknowledgement. *)
  let acks = ref 0 in
  let put_end = ref Time.zero in
  let n_puts = List.length !chunks_out in
  Mb_agent.set_uplinks agent_b
    ~send_reply:(fun msg ->
      match msg with
      | Message.Reply { reply = Message.Batch_ack _; _ } ->
        incr acks;
        if !acks = n_puts then put_end := Engine.now engine
      | Message.Reply _ | Message.Event_msg _ -> ())
    ~send_event:(fun _ -> ());
  let put_start = Engine.now engine in
  List.iteri
    (fun i c ->
      Mb_agent.handle_request agent_b
        { Message.op = i; tid = 0; req = Message.Put_batch { seq = i; chunks = [ c ] } })
    !chunks_out;
  Engine.run engine;
  ( Time.to_seconds Time.(!get_end - !get_start) *. 1e3,
    Time.to_seconds Time.(!put_end - put_start) *. 1e3 )

let fig9ab () =
  Util.banner "Figure 9(a)/(b): get and put processing time per operation";
  Util.row "  %-8s %-8s %12s %12s %8s\n" "MB" "chunks" "get (ms)" "puts (ms)" "get/put";
  List.iter
    (fun kind ->
      List.iter
        (fun chunks ->
          let get_ms, put_ms = get_put_times kind ~chunks in
          Util.row "  %-8s %-8d %12.1f %12.1f %8.1f\n" (kind_name kind) chunks get_ms
            put_ms
            (if put_ms > 0.0 then get_ms /. put_ms else nan))
        [ 250; 500; 1000 ])
    [ Prads; Bro ];
  Util.paper_note
    "linear in chunks; puts ~6x cheaper than gets (no linear scan); Bro >> Prads.\n"

(* ------------------------------------------------------------------ *)
(* Figure 9(c)/(d): events generated during moveInternal               *)
(* ------------------------------------------------------------------ *)

let events_during_move kind ~chunks ~rate_pps =
  let scenario =
    Scenario.create ~ctrl_config:bench_ctrl ~with_recorder:false ()
  in
  let engine = Scenario.engine scenario in
  let attach name =
    match kind with
    | Prads ->
      let m = Monitor.create engine ~name () in
      Scenario.attach_mb scenario ~port:name ~receive:(Monitor.receive m)
        ~base:(Monitor.base m) ~impl:(Monitor.impl m)
    | Bro ->
      let m = Ids.create engine ~name () in
      Scenario.attach_mb scenario ~port:name ~receive:(Ids.receive m)
        ~base:(Ids.base m) ~impl:(Ids.impl m)
  in
  attach "src";
  attach "dst";
  Scenario.install_default_route scenario ~port:"src";
  let cbr =
    {
      Openmb_traffic.Cbr.default_params with
      n_flows = chunks;
      rate_pps;
      duration = 8.0;
    }
  in
  let trace = Openmb_traffic.Cbr.generate cbr in
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  Scenario.at scenario (Time.seconds 2.0) (fun () ->
      Migrate.migrate_perflow scenario ~src:"src" ~dst:"dst" ~key:Hfl.any
        ~config_keys:[] ~dst_port:"dst" ());
  Scenario.run scenario;
  Controller.events_forwarded (Scenario.controller scenario)

let fig9cd () =
  Util.banner "Figure 9(c)/(d): re-process events during moveInternal";
  List.iter
    (fun kind ->
      Util.section (kind_name kind);
      Util.row "  %-12s" "rate(pps)";
      List.iter (fun c -> Util.row " %10s" (Printf.sprintf "%dch" c)) [ 250; 500; 1000 ];
      Util.row "\n";
      List.iter
        (fun rate ->
          Util.row "  %-12.0f" rate;
          List.iter
            (fun chunks ->
              Util.row " %10d" (events_during_move kind ~chunks ~rate_pps:rate))
            [ 250; 500; 1000 ];
          Util.row "\n")
        [ 500.0; 1000.0; 1500.0; 2000.0; 2500.0 ])
    [ Prads; Bro ];
  Util.paper_note
    "events grow linearly with packet rate (more packets land in the\n";
  Printf.printf
    "          window between the get and the routing update taking effect).\n"

(* ------------------------------------------------------------------ *)
(* §8.2 per-packet latency during state operations                     *)
(* ------------------------------------------------------------------ *)

let latency () =
  Util.banner "Section 8.2: per-packet latency, normal vs. during get";
  (* Bro under a steady CBR load (low enough that queueing is
     negligible, so the op-slowdown penalty is visible), with a large
     state export mid-run. *)
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:bench_ctrl () in
  let a = Ids.create engine ~name:"bro-a" () in
  let b = Ids.create engine ~name:"bro-b" () in
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Ids.impl a) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Ids.impl b) ());
  let cbr =
    { Openmb_traffic.Cbr.default_params with n_flows = 1000; rate_pps = 400.0;
      duration = 30.0; opening_window = 4.0 }
  in
  let trace = Openmb_traffic.Cbr.generate cbr in
  Openmb_traffic.Trace.replay engine trace ~into:(Ids.receive a);
  ignore
    (Engine.schedule_at engine (Time.seconds 15.0) (fun () ->
         Controller.move_internal ctrl ~src:"bro-a" ~dst:"bro-b" ~key:Hfl.any
           ~on_done:(fun _ -> ())));
  Engine.run engine;
  (* Medians: the connection-opening burst at the head of the CBR trace
     briefly saturates the data path and would skew a mean. *)
  let normal = Stats.median (Mb_base.latency_stats (Ids.base a)) *. 1e3 in
  let during = Stats.median (Mb_base.latency_during_op_stats (Ids.base a)) *. 1e3 in
  Util.row "  Bro  normal operation   : %.3f ms/packet\n" normal;
  Util.row "  Bro  while serving get  : %.3f ms/packet (%+.1f%%)\n" during
    ((during -. normal) /. normal *. 100.0);
  Util.paper_note "Bro: 6.93 ms -> 7.06 ms (~2%%).\n";
  (* RE pair end-to-end latency, with a decoder cache clone mid-run. *)
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:bench_ctrl () in
  let enc = Re_encoder.create engine ~name:"enc" () in
  let dec = Re_decoder.create engine ~name:"dec" () in
  let dec2 = Re_decoder.create engine ~name:"dec2" () in
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Re_decoder.impl dec) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Re_decoder.impl dec2) ());
  let e2e_normal = Stats.create () and e2e_during = Stats.create () in
  let clone_window = ref false in
  Mb_base.set_egress (Re_encoder.base enc) (fun p -> Re_decoder.receive dec p);
  Mb_base.set_egress (Re_decoder.base dec) (fun p ->
      let lat = Time.to_seconds Time.(Engine.now engine - p.Packet.ts) in
      Stats.add (if !clone_window then e2e_during else e2e_normal) lat);
  let trace =
    Openmb_traffic.Redundancy_trace.generate
      { Openmb_traffic.Redundancy_trace.default_params with duration = 20.0 }
  in
  Openmb_traffic.Trace.replay engine trace ~into:(Re_encoder.receive enc);
  ignore
    (Engine.schedule_at engine (Time.seconds 8.0) (fun () ->
         clone_window := true;
         Controller.clone_support ctrl ~src:"dec" ~dst:"dec2" ~on_done:(fun _ ->
             clone_window := false)));
  Engine.run engine;
  Util.row "  RE   normal operation   : %.3f ms encoder->decoder\n"
    (Stats.mean e2e_normal *. 1e3);
  Util.row "  RE   while serving get  : %.3f ms encoder->decoder\n"
    (Stats.mean e2e_during *. 1e3);
  Util.paper_note "RE: 0.781 ms -> 0.790 ms.\n"
