(* The four benchmark workloads.

   Each workload turns a seed into inputs once ([prepare]), then builds a
   fresh deployment for every rep ([build]).  A rep's timed region is
   [start] (trace scheduling or the northbound call) followed by draining
   the engine; [finish] then runs the correctness checks and returns a
   fingerprint that must be identical across reps, plus the virtual-time
   results and layer counts of the rep.

   With a tracer, [build] wraps the benchmark's own callbacks — the replay
   [into], link receivers, middlebox egresses and southbound closures —
   so the traced run can attribute step time to layers. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic
open Openmb_apps

type outcome = {
  errors : string list;  (** failed correctness checks, empty when the rep is correct *)
  fingerprint : string;  (** virtual results and final state; identical across reps *)
  info : (string * float) list;  (** virtual metrics and layer counts of the rep *)
}

type rep = {
  engine : Engine.t;
  start : unit -> unit;  (** timed work done before the engine drains *)
  start_span : string;  (** name of [start]'s span in a traced rep *)
  finish : unit -> outcome;
}

type prepared = {
  ops : int;  (** work units per rep: packets delivered or chunks moved *)
  op_unit : string;
  build : Tracer.t option -> rep;
}

type t = {
  name : string;
  prepare : seed:int -> scale:int -> prepared;
      (** [scale] divides the input size (1 for the benchmark, more for
          the smoke run). *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let addr s = Addr.to_int (Addr.of_string s)

(* [flows] distinct flows, one internal source address each (counted up
   from [src_base]), with seeded ports and servers; returned in a seeded
   order. *)
let make_flows rng ~flows ~src_base ~dst_ports =
  let a =
    Array.init flows (fun i ->
        {
          Five_tuple.src_ip = Addr.of_int (src_base + i);
          dst_ip = Addr.of_int (addr "1.1.1.0" + Random.State.int rng 256);
          src_port = 1_024 + Random.State.int rng 60_000;
          dst_port = dst_ports.(Random.State.int rng (Array.length dst_ports));
          proto = Packet.Tcp;
        })
  in
  shuffle rng a;
  a

(* Open-loop trace: packet [k] belongs to flow [k mod flows] and is sent
   at [k * gap], so every flow is touched once per round and arrivals
   never wait for processing. *)
let make_trace flows ~per_flow ~gap_us =
  let n = Array.length flows in
  Trace.of_packets
    (List.init (n * per_flow) (fun k ->
         let f = flows.(k mod n) in
         Packet.make ~id:k
           ~ts:(Time.us (gap_us *. float_of_int k))
           ~src_ip:f.Five_tuple.src_ip ~dst_ip:f.dst_ip ~src_port:f.src_port
           ~dst_port:f.dst_port ~proto:f.proto ()))

let check errs cond msg = if not cond then errs := msg :: !errs

let failed_outcome e =
  { errors = [ "exception: " ^ Printexc.to_string e ]; fingerprint = ""; info = [] }

let handoff tr ~step ~callee f =
  match tr with None -> f | Some t -> Tracer.handoff t ~step ~callee f

(* The per-flow state operations, the stats query and re-processing get
   nested spans named after the southbound call.  Config, multi-flow and
   shared state operations stay in the agent's unobserved time. *)
let wrap_impl tr (impl : Southbound.impl) =
  match tr with
  | None -> impl
  | Some t ->
    let call name f = Tracer.call t ("mb." ^ name) f in
    let reprocess =
      call "reprocess" (fun (p, side_effects) -> impl.process_packet p ~side_effects)
    in
    {
      impl with
      get_support_perflow = call "get_support_perflow" impl.get_support_perflow;
      get_report_perflow = call "get_report_perflow" impl.get_report_perflow;
      put_support_perflow = call "put_support_perflow" impl.put_support_perflow;
      put_report_perflow = call "put_report_perflow" impl.put_report_perflow;
      del_support_perflow = call "del_support_perflow" impl.del_support_perflow;
      del_report_perflow = call "del_report_perflow" impl.del_report_perflow;
      stats = call "stats" impl.stats;
      process_packet = (fun p ~side_effects -> reprocess (p, side_effects));
    }

(* Mean members per batch from a count histogram (counts are stored as
   nanoseconds and summed in seconds). *)
let mean_occupancy h =
  let n = Telemetry.hist_count h in
  if n = 0 then 1.0 else Telemetry.hist_sum h *. 1e9 /. float_of_int n

let controller_info ctrl ~moves =
  let c = Controller.counters ctrl in
  let attempts = c.evt_forwarded + c.evt_dropped in
  [
    ("controller.msgs_per_move", float_of_int c.msgs_processed /. float_of_int moves);
    ("controller.op_retries", float_of_int c.op_retries);
    ("controller.evt_forwarded", float_of_int c.evt_forwarded);
    ("controller.evt_buffered_peak", float_of_int c.evt_buffered_peak);
    ( "controller.evt_useful",
      if attempts = 0 then 0.0 else float_of_int c.evt_forwarded /. float_of_int attempts );
  ]

let fingerprint info extra =
  String.concat ";"
    (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) info @ extra)

(* ------------------------------------------------------------------ *)
(* chain-*: switch -> link -> NAT -> monitor                           *)
(* ------------------------------------------------------------------ *)

let chain_cost base = { base with Southbound.per_packet = Time.us 0.5 }

(* The modelled data-path latency stays under this bound exactly when the
   MB queues do: at 1 pkt/us and 0.5 us/pkt a batch of 64 waits ~32 us. *)
let chain_vlat_bound = Time.ms 1.0

let chain ~name ~flows ~per_flow ~batch =
  let prepare ~seed ~scale =
    let rng = Random.State.make [| seed |] in
    let flows = flows / scale in
    let fl = make_flows rng ~flows ~src_base:(addr "10.0.0.1") ~dst_ports:[| 80; 443; 22; 53; 8080 |] in
    let trace = make_trace fl ~per_flow ~gap_us:1.0 in
    let packets = Trace.packet_count trace in
    let build tr =
      let tel = Telemetry.create () in
      let engine = Engine.create ~telemetry:tel () in
      let nat =
        Nat.create engine ~telemetry:tel ~name:"nat" ~cost:(chain_cost Nat.default_cost)
          ~external_ip:(Addr.of_string "5.5.5.1")
          ~external_ips:(List.init 3 (fun i -> Addr.of_int (addr "5.5.5.2" + i)))
          ~internal_prefix:(Addr.prefix_of_string "10.0.0.0/8")
          ()
      in
      let monitor =
        Monitor.create engine ~telemetry:tel ~name:"monitor"
          ~cost:(chain_cost Monitor.default_cost) ()
      in
      let delivered = ref 0 in
      let sw = Switch.create engine ~telemetry:tel ~name:"edge" () in
      let to_nat =
        Link.create engine ~name:"sw-nat"
          ~dst:(handoff tr ~step:"link.deliver" ~callee:"nat.receive" (Nat.receive nat))
          ()
      in
      Switch.attach_port sw ~port:"nat" to_nat;
      ignore
        (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
           ~action:(Flow_table.Forward "nat"));
      Mb_base.set_egress (Nat.base nat)
        (handoff tr ~step:"nat.work" ~callee:"monitor.receive" (Monitor.receive monitor));
      Mb_base.set_egress (Monitor.base monitor)
        (handoff tr ~step:"monitor.work" ~callee:"sink" (fun _ -> incr delivered));
      let pool = Packet_batch.pool ~telemetry:tel () in
      let start =
        if batch > 1 then begin
          Link.set_dst_batch to_nat
            (handoff tr ~step:"link.deliver" ~callee:"nat.receive" (Nat.receive_batch nat));
          Mb_base.set_egress_batch (Nat.base nat)
            (handoff tr ~step:"nat.work" ~callee:"monitor.receive"
               (Monitor.receive_batch monitor));
          Mb_base.set_egress_batch (Monitor.base monitor)
            (handoff tr ~step:"monitor.work" ~callee:"sink" (fun b ->
                 delivered := !delivered + Packet_batch.length b;
                 Packet_batch.release b));
          let into =
            handoff tr ~step:"trace.replay" ~callee:"switch.receive" (Switch.receive_batch sw)
          in
          fun () ->
            Trace.replay_batched engine trace ~pool ~batch ~window:(Time.us 500.0) ~into ()
        end
        else
          let into = handoff tr ~step:"trace.replay" ~callee:"switch.receive" (Switch.receive sw) in
          fun () -> Trace.replay engine trace ~into
      in
      let finish () =
        let errs = ref [] in
        check errs (!delivered = packets)
          (Printf.sprintf "sink got %d of %d packets" !delivered packets);
        check errs (Nat.mapping_count nat = flows)
          (Printf.sprintf "%d NAT mappings for %d flows" (Nat.mapping_count nat) flows);
        check errs (Monitor.tracked_flows monitor = flows)
          (Printf.sprintf "monitor tracks %d of %d flows" (Monitor.tracked_flows monitor) flows);
        let vmax = Telemetry.hist_max (Telemetry.histogram tel "mb.pkt_latency") in
        check errs (vmax <= chain_vlat_bound)
          (Printf.sprintf "MB queue unbounded: max latency %.1f us" (Time.to_us vmax));
        let occupancy = mean_occupancy (Telemetry.histogram tel "switch.batch_occupancy") in
        let lat = Mb_base.latency_stats (Nat.base nat) in
        let info =
          [
            ("engine.events_per_op", float_of_int (Engine.executed engine) /. float_of_int packets);
            ("switch.batch_fill", occupancy /. float_of_int batch);
            ( "pool.high_water",
              float_of_int
                (max (Packet_batch.pool_high_water pool)
                   (Packet_batch.pool_high_water (Switch.batch_pool sw))) );
            ("vlat_us_mean", Time.to_us (Stats.mean lat));
            ("virtual_end_ms", Time.to_ms (Engine.now engine));
          ]
        in
        let t = Monitor.totals monitor in
        {
          errors = List.rev !errs;
          fingerprint =
            fingerprint info
              [
                string_of_int !delivered;
                string_of_int (Nat.mapping_count nat);
                string_of_int t.tot_pkts;
                string_of_int t.tot_new_flows;
                string_of_int (Stats.count lat);
              ];
          info;
        }
      in
      { engine; start; start_span = "trace.schedule"; finish }
    in
    { ops = packets; op_unit = "pkt"; build }
  in
  { name; prepare }

(* ------------------------------------------------------------------ *)
(* move-1k: controller-brokered move between two dummy MBs             *)
(* ------------------------------------------------------------------ *)

let move_config = { Controller.default_config with quiescence = Time.ms 100.0 }

(* Seeded per-flow state shaped like Dummy_mb's: a small JSON header and
   hex sequence filler, ~200 bytes, so LZSS sees realistic redundancy. *)
let move_value rng i =
  let b = Buffer.create 208 in
  Printf.bprintf b "{\"flow\":%d,\"state\":\"" i;
  while Buffer.length b < 190 do
    Printf.bprintf b "seq=%04x;" (Random.State.int rng 0x10000)
  done;
  Buffer.add_string b "\"}";
  Buffer.contents b

let move_1k =
  let prepare ~seed ~scale =
    Chunk.compression_enabled := true;
    let rng = Random.State.make [| seed |] in
    let n = 1_000 / scale in
    let slots = Array.init 65_536 Fun.id in
    shuffle rng slots;
    let sealer = Dummy_mb.base (Dummy_mb.create (Engine.create ()) ~name:"sealer" ()) in
    let chunks =
      List.init n (fun i ->
          let key =
            [
              Hfl.Src_ip (Addr.prefix (Addr.of_int (addr "10.1.0.0" + slots.(i))) 32);
              Hfl.Src_port (1_024 + Random.State.int rng 60_000);
            ]
          in
          Mb_base.seal_raw sealer ~role:Taxonomy.Supporting ~partition:Taxonomy.Per_flow ~key
            (move_value rng i))
    in
    let populate d =
      let impl = Dummy_mb.impl d in
      List.iter
        (fun c ->
          match impl.put_support_perflow c with
          | Ok () -> ()
          | Error e -> failwith ("populate: " ^ Errors.to_string e))
        chunks
    in
    let expected =
      let d = Dummy_mb.create (Engine.create ()) ~name:"src" () in
      populate d;
      Dummy_mb.support_entries d
    in
    let build tr =
      let engine = Engine.create () in
      let ctrl = Controller.create engine ~config:move_config () in
      let src = Dummy_mb.create engine ~name:"src" () in
      let dst = Dummy_mb.create engine ~name:"dst" () in
      populate src;
      Controller.connect ctrl (Mb_agent.create engine ~impl:(wrap_impl tr (Dummy_mb.impl src)) ());
      Controller.connect ctrl (Mb_agent.create engine ~impl:(wrap_impl tr (Dummy_mb.impl dst)) ());
      let result = ref None in
      let start () =
        Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun r ->
            result := Some r)
      in
      let finish () =
        let errs = ref [] in
        let mr =
          match !result with
          | Some (Ok mr) -> Some mr
          | Some (Error e) ->
            errs := ("move failed: " ^ Errors.to_string e) :: !errs;
            None
          | None ->
            errs := "move never completed" :: !errs;
            None
        in
        let chunks_moved, bytes, duration =
          match mr with
          | Some mr -> (mr.Controller.chunks_moved, mr.bytes_moved, mr.duration)
          | None -> (0, 0, Time.zero)
        in
        check errs (chunks_moved = n) (Printf.sprintf "moved %d of %d chunks" chunks_moved n);
        check errs (Dummy_mb.support_entries dst = expected)
          "destination state differs from the source's before the move";
        check errs (Dummy_mb.chunk_count src = 0)
          (Printf.sprintf "source keeps %d entries after the deferred delete"
             (Dummy_mb.chunk_count src));
        let c = Controller.counters ctrl in
        check errs (c.evt_dropped = 0) (Printf.sprintf "%d events dropped" c.evt_dropped);
        check errs (c.op_retries = 0) (Printf.sprintf "%d op retries" c.op_retries);
        let info =
          [
            ("move_virtual_ms", Time.to_ms duration);
            ("engine.events_per_op", float_of_int (Engine.executed engine) /. float_of_int n);
            ("move.bytes_per_chunk", float_of_int bytes /. float_of_int (max 1 chunks_moved));
          ]
          @ controller_info ctrl ~moves:1
        in
        { errors = List.rev !errs; fingerprint = fingerprint info []; info }
      in
      { engine; start; start_span = Tracer.unobserved; finish }
    in
    { ops = n; op_unit = "chunk"; build }
  in
  { name = "move-1k"; prepare }

(* ------------------------------------------------------------------ *)
(* elastic-16k: §6.2 scale-up / scale-down under live traffic          *)
(* ------------------------------------------------------------------ *)

let prads_cost =
  {
    Monitor.default_cost with
    Southbound.per_packet = Time.us 5.0;
    scan_per_entry = Time.us 1.0;
    serialize_per_chunk = Time.us 10.0;
  }

let elastic_config = { Controller.default_config with quiescence = Time.ms 500.0 }

(* Batches of <= 64 packets at 5 us/pkt never exceed ~0.35 ms of work;
   a standing queue would grow far past this. *)
let elastic_vlat_bound = Time.ms 20.0

let elastic_16k =
  let prepare ~seed ~scale =
    Chunk.compression_enabled := false;
    let rng = Random.State.make [| seed |] in
    let flows = 16_384 / scale in
    (* Sources fill 10.0.0.0 upward, so the four rebalance blocks each
       hold a quarter of the flows. *)
    let block = flows / 4 in
    let prefix_len = 32 - int_of_float (Float.round (Float.log2 (float_of_int block))) in
    let fl = make_flows rng ~flows ~src_base:(addr "10.0.0.0") ~dst_ports:[| 80; 443; 22 |] in
    let chosen = Random.State.int rng 4 in
    let rebalance =
      [ Hfl.Src_ip (Addr.prefix (Addr.of_int (addr "10.0.0.0" + (chosen * block))) prefix_len) ]
    in
    let trace = make_trace fl ~per_flow:64 ~gap_us:100.0 in
    let packets = Trace.packet_count trace in
    let horizon = Trace.duration trace in
    let build tr =
      let sc = Scenario.create ~ctrl_config:elastic_config ~with_recorder:false () in
      let engine = Scenario.engine sc in
      let tel = Scenario.telemetry sc in
      let delivered = ref 0 in
      let attach name port =
        let m = Monitor.create engine ~telemetry:tel ~cost:prads_cost ~name () in
        let base = Monitor.base m in
        Scenario.attach_mb sc ~port
          ~receive:(handoff tr ~step:"link.deliver" ~callee:(name ^ ".receive") (Monitor.receive m))
          ~receive_batch:
            (handoff tr ~step:"link.deliver" ~callee:(name ^ ".receive") (Monitor.receive_batch m))
          ~base ~impl:(wrap_impl tr (Monitor.impl m));
        (* The harness is the sink: it counts what leaves each monitor. *)
        Mb_base.set_egress base
          (handoff tr ~step:(name ^ ".work") ~callee:"sink" (fun _ -> incr delivered));
        Mb_base.set_egress_batch base
          (handoff tr ~step:(name ^ ".work") ~callee:"sink" (fun b ->
               delivered := !delivered + Packet_batch.length b;
               Packet_batch.release b));
        m
      in
      let m1 = attach "prads1" "mb1" in
      let m2 = attach "prads2" "mb2" in
      Scenario.install_default_route sc ~port:"mb1";
      let pool = Packet_batch.pool ~telemetry:tel () in
      let into =
        handoff tr ~step:"trace.replay" ~callee:"switch.receive"
          (Switch.receive_batch (Scenario.switch sc))
      in
      let up = ref None and down = ref None in
      let start () =
        Scenario.inject_batched sc trace ~pool ~batch:64 ~window:(Time.ms 5.0) ~into ();
        Scenario.at sc (Time.seconds (Time.to_seconds horizon /. 3.0)) (fun () ->
            Scale.scale_up sc ~existing:"prads1" ~fresh:"prads2" ~rebalance ~dst_port:"mb2"
              ~on_done:(fun r -> up := Some r)
              ());
        Scenario.at sc (Time.seconds (2.0 *. Time.to_seconds horizon /. 3.0)) (fun () ->
            Scale.scale_down sc ~deprecated:"prads2" ~survivor:"prads1" ~dst_port:"mb1"
              ~on_done:(fun r -> down := Some r)
              ())
      in
      let finish () =
        let errs = ref [] in
        let ctrl = Scenario.controller sc in
        let moved, up_ms, up_bytes =
          match !up with
          | Some r -> (r.Scale.move.chunks_moved, Time.to_ms r.move.duration, r.move.bytes_moved)
          | None ->
            errs := "scale-up never completed" :: !errs;
            (0, 0.0, 0)
        in
        check errs (!down <> None) "scale-down never completed";
        check errs (moved = block) (Printf.sprintf "scale-up moved %d of %d flows" moved block);
        check errs (!delivered = packets)
          (Printf.sprintf "sink got %d of %d packets" !delivered packets);
        check errs (Monitor.tracked_flows m1 = flows)
          (Printf.sprintf "prads1 tracks %d of %d flows" (Monitor.tracked_flows m1) flows);
        let tot = (Monitor.totals m1).tot_pkts in
        check errs (tot = packets)
          (Printf.sprintf "prads1 merged tot_pkts %d, trace has %d" tot packets);
        let per_flow =
          List.fold_left (fun acc (_, r) -> acc + r.Monitor.fr_pkts) 0 (Monitor.flow_records m1)
        in
        check errs (per_flow = packets)
          (Printf.sprintf "prads1 per-flow fr_pkts sum %d, trace has %d" per_flow packets);
        let c = Controller.counters ctrl in
        check errs (c.evt_dropped = 0) (Printf.sprintf "%d events dropped" c.evt_dropped);
        let lat = Mb_base.latency_stats (Monitor.base m1) in
        let lat_op = Mb_base.latency_during_op_stats (Monitor.base m1) in
        let vmax = Float.max (Stats.max_value lat) (Stats.max_value (Mb_base.latency_stats (Monitor.base m2))) in
        check errs (vmax <= elastic_vlat_bound)
          (Printf.sprintf "MB queue unbounded: max latency %.1f us" (Time.to_us vmax));
        let pct s p = if Stats.count s = 0 then 0.0 else Time.to_us (Stats.percentile s p) in
        let info =
          [
            ("vlat_us_p50", pct lat 50.0);
            ("vlat_us_p99", pct lat 99.0);
            ("vlat_op_us_p99", pct lat_op 99.0);
            ("move_virtual_ms", up_ms);
            ("engine.events_per_op", float_of_int (Engine.executed engine) /. float_of_int packets);
            ( "switch.batch_fill",
              mean_occupancy (Telemetry.histogram tel "switch.batch_occupancy") /. 64.0 );
            ( "pool.high_water",
              float_of_int
                (max (Packet_batch.pool_high_water pool)
                   (Packet_batch.pool_high_water (Switch.batch_pool (Scenario.switch sc)))) );
            ("move.bytes_per_chunk", float_of_int up_bytes /. float_of_int (max 1 moved));
          ]
          @ controller_info ctrl ~moves:2
        in
        {
          errors = List.rev !errs;
          fingerprint =
            fingerprint info
              [
                string_of_int !delivered;
                string_of_int moved;
                string_of_int per_flow;
                string_of_int (Stats.count lat_op);
                Printf.sprintf "%h" (Time.to_ms (Engine.now engine));
              ];
          info;
        }
      in
      { engine; start; start_span = "trace.schedule"; finish }
    in
    { ops = packets; op_unit = "pkt"; build }
  in
  { name = "elastic-16k"; prepare }

(* Why each workload is here (README.md has the full table):
   - chain-b64-64k: the vector data path with a per-flow working set (NAT
     and monitor tables) larger than L2; no control plane.
   - chain-scalar-4k: the scalar per-packet path, one engine event per
     packet per hop, with cache-resident flow tables; no control plane.
   - move-1k: the control plane alone (Fig 10 set-up): controller,
     channels, agents, chunk sealing and LZSS, message sizing; no data path.
   - elastic-16k: the §6.2 scale-up and scale-down under live traffic:
     state-table writes and merges, re-process events through the
     controller under op slowdown. *)
let all =
  [
    chain ~name:"chain-b64-64k" ~flows:65_536 ~per_flow:16 ~batch:64;
    chain ~name:"chain-scalar-4k" ~flows:4_096 ~per_flow:64 ~batch:1;
    move_1k;
    elastic_16k;
  ]

let find name = List.find_opt (fun w -> w.name = name) all
