(* Integration tests: full control-application scenarios, including the
   paper's §8.2 correctness experiment (output of OpenMB-enabled MBs
   under dynamic reconfiguration equals a single unmodified MB's). *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

(* Short quiescence so tests need not simulate 5 s idle tails. *)
let fast_ctrl = { Controller.default_config with quiescence = Time.ms 200.0 }

let small_cloud =
  {
    Openmb_traffic.Cloud_trace.default_params with
    n_http_flows = 40;
    n_other_flows = 20;
    n_scanners = 1;
    duration = 30.0;
  }

let http_prefix = small_cloud.Openmb_traffic.Cloud_trace.cloud_http

(* ------------------------------------------------------------------ *)
(* §8.2 correctness: IDS live migration                                *)
(* ------------------------------------------------------------------ *)

type conn_key = string

let conn_signature (e : Ids.conn_entry) : conn_key =
  Printf.sprintf "%s start=%.3f dur=%.3f ob=%d rb=%d st=%s"
    (Five_tuple.to_string e.Ids.ce_tuple)
    e.Ids.ce_start e.Ids.ce_duration e.Ids.ce_orig_bytes e.Ids.ce_resp_bytes
    e.Ids.ce_state

let http_signature (e : Ids.http_entry) =
  Printf.sprintf "%s %s %s %s %d"
    (Five_tuple.to_string e.Ids.he_tuple)
    e.Ids.he_method e.Ids.he_host e.Ids.he_uri e.Ids.he_status

let sorted_conn_log ids =
  List.sort String.compare (List.map conn_signature (Ids.conn_log ids))

let reference_ids_run trace =
  let engine = Engine.create () in
  let ids = Ids.create engine ~name:"bro-ref" () in
  Openmb_traffic.Trace.replay engine trace ~into:(Ids.receive ids);
  Engine.run engine;
  Ids.finalize ids;
  ids

let migration_ids_run trace =
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let telemetry = Scenario.telemetry scenario in
  let a = Ids.create (Scenario.engine scenario) ~telemetry ~name:"bro-a" () in
  let b = Ids.create (Scenario.engine scenario) ~telemetry ~name:"bro-b" () in
  Scenario.attach_mb scenario ~port:"mbA" ~receive:(Ids.receive a) ~base:(Ids.base a)
    ~impl:(Ids.impl a);
  Scenario.attach_mb scenario ~port:"mbB" ~receive:(Ids.receive b) ~base:(Ids.base b)
    ~impl:(Ids.impl b);
  Scenario.install_default_route scenario ~port:"mbA";
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  let migrated = ref None in
  Scenario.at scenario (Time.seconds 10.0) (fun () ->
      Migrate.migrate_perflow scenario ~src:"bro-a" ~dst:"bro-b"
        ~key:[ Hfl.Dst_ip http_prefix ]
        ~also_route:[ [ Hfl.Src_ip http_prefix ] ]
        ~dst_port:"mbB"
        ~on_done:(fun r -> migrated := Some r)
        ());
  Scenario.run scenario;
  Ids.finalize a;
  Ids.finalize b;
  (a, b, !migrated)

let test_migration_correctness () =
  let trace = Openmb_traffic.Cloud_trace.generate small_cloud in
  let reference = reference_ids_run trace in
  let a, b, migrated = migration_ids_run trace in
  (match migrated with
  | Some { Migrate.move = Some mr; routing_done_at = Some _ } ->
    Alcotest.(check bool) "some chunks moved" true (mr.Controller.chunks_moved > 0)
  | _ -> Alcotest.fail "migration did not complete");
  (* No anomalous entries anywhere. *)
  Alcotest.(check int) "no anomalies in reference" 0 (Ids.anomalous_entries reference);
  Alcotest.(check int) "no anomalies at A" 0 (Ids.anomalous_entries a);
  Alcotest.(check int) "no anomalies at B" 0 (Ids.anomalous_entries b);
  (* conn.log equality: merged migrated logs == reference log. *)
  let ref_log = sorted_conn_log reference in
  let merged =
    List.sort String.compare
      (List.map conn_signature (Ids.conn_log a @ Ids.conn_log b))
  in
  Alcotest.(check int) "same number of conn entries" (List.length ref_log)
    (List.length merged);
  List.iter2
    (fun expected got -> Alcotest.(check string) "conn entry" expected got)
    ref_log merged;
  (* http.log equality. *)
  let ref_http =
    List.sort String.compare (List.map http_signature (Ids.http_log reference))
  in
  let merged_http =
    List.sort String.compare
      (List.map http_signature (Ids.http_log a @ Ids.http_log b))
  in
  Alcotest.(check (list string)) "http log equal" ref_http merged_http;
  (* Alert equality (kinds and sources). *)
  let alert_sig al = al.Ids.al_kind ^ ":" ^ al.Ids.al_source in
  let ref_alerts = List.sort String.compare (List.map alert_sig (Ids.alerts reference)) in
  let got_alerts =
    List.sort String.compare (List.map alert_sig (Ids.alerts a @ Ids.alerts b))
  in
  Alcotest.(check (list string)) "alerts equal" ref_alerts got_alerts

let test_migration_latency_penalty_small () =
  (* §8.2: per-packet latency rises by at most ~2% while state
     operations execute. *)
  let trace = Openmb_traffic.Cloud_trace.generate small_cloud in
  let reference = reference_ids_run trace in
  let a, b, _ = migration_ids_run trace in
  let ref_mean = Stats.mean (Mb_base.latency_stats (Ids.base reference)) in
  let mig_mean =
    let sa = Mb_base.latency_stats (Ids.base a) and sb = Mb_base.latency_stats (Ids.base b) in
    (Stats.total sa +. Stats.total sb) /. float_of_int (Stats.count sa + Stats.count sb)
  in
  Alcotest.(check bool)
    (Printf.sprintf "mean latency within 10%% (ref=%.4fms mig=%.4fms)" (ref_mean *. 1e3)
       (mig_mean *. 1e3))
    true
    (mig_mean < ref_mean *. 1.10)

(* ------------------------------------------------------------------ *)
(* Monitor scaling: no over- or under-reporting                        *)
(* ------------------------------------------------------------------ *)

let monitor_scale_run trace =
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let m1 = Monitor.create engine ~name:"prads1" () in
  let m2 = Monitor.create engine ~name:"prads2" () in
  Scenario.attach_mb scenario ~port:"mb1" ~receive:(Monitor.receive m1)
    ~base:(Monitor.base m1) ~impl:(Monitor.impl m1);
  Scenario.attach_mb scenario ~port:"mb2" ~receive:(Monitor.receive m2)
    ~base:(Monitor.base m2) ~impl:(Monitor.impl m2);
  Scenario.install_default_route scenario ~port:"mb1";
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  let up = ref None and down = ref None in
  (* Scale up at 8 s: shift the 10.0.0.0/17 half of the campus to the
     new instance.  Scale back down at 20 s. *)
  let rebalance = [ Hfl.Src_ip (Addr.prefix_of_string "10.0.0.0/17") ] in
  let reverse = [ Hfl.Dst_ip (Addr.prefix_of_string "10.0.0.0/17") ] in
  Scenario.at scenario (Time.seconds 8.0) (fun () ->
      Scale.scale_up scenario ~existing:"prads1" ~fresh:"prads2" ~rebalance
        ~also_route:[ reverse ] ~dst_port:"mb2"
        ~on_done:(fun r -> up := Some r)
        ());
  Scenario.at scenario (Time.seconds 20.0) (fun () ->
      Scale.scale_down scenario ~deprecated:"prads2" ~survivor:"prads1" ~dst_port:"mb1"
        ~on_done:(fun r -> down := Some r)
        ());
  Scenario.run scenario;
  (m1, m2, !up, !down)

let test_scaling_no_over_or_under_reporting () =
  let trace =
    Openmb_traffic.Cloud_trace.generate
      { small_cloud with n_scanners = 0; n_http_flows = 30; n_other_flows = 15 }
  in
  (* Reference totals: one unscaled instance. *)
  let engine = Engine.create () in
  let reference = Monitor.create engine ~name:"prads-ref" () in
  Openmb_traffic.Trace.replay engine trace ~into:(Monitor.receive reference);
  Engine.run engine;
  let m1, m2, up, down = monitor_scale_run trace in
  (match up with
  | Some u ->
    Alcotest.(check bool) "stats answered before the move" true
      (u.Scale.queried.Southbound.perflow_report_chunks > 0);
    Alcotest.(check int) "stats chunk count matches chunks moved"
      u.Scale.queried.Southbound.perflow_report_chunks u.Scale.move.Controller.chunks_moved
  | None -> Alcotest.fail "scale-up never completed");
  (match down with
  | Some d -> Alcotest.(check bool) "scale-down merged" true
      (d.Scale.merged.Controller.chunks_moved >= 1)
  | None -> Alcotest.fail "scale-down never completed");
  let rt = Monitor.totals reference in
  let t1 = Monitor.totals m1 in
  (* After scale-down everything has been merged into prads1 and the
     deprecated instance terminated; its counters were snapshotted into
     the merge, so the survivor alone must equal the reference — the
     "no over- or under-reporting" property. *)
  Alcotest.(check int) "packet totals conserved" rt.Monitor.tot_pkts t1.Monitor.tot_pkts;
  Alcotest.(check int) "byte totals conserved" rt.Monitor.tot_bytes t1.Monitor.tot_bytes;
  Alcotest.(check int) "tcp totals conserved" rt.Monitor.tot_tcp t1.Monitor.tot_tcp;
  (* Per-flow records: every flow tracked exactly once across the two
     instances, with reference packet counts. *)
  let record_sigs m =
    List.map
      (fun (key, r) -> Printf.sprintf "%s pkts=%d" (Hfl.to_string key) r.Monitor.fr_pkts)
      (Monitor.flow_records m)
  in
  let ref_sigs = List.sort String.compare (record_sigs reference) in
  let got_sigs = List.sort String.compare (record_sigs m1) in
  Alcotest.(check (list string)) "per-flow records conserved" ref_sigs got_sigs;
  Alcotest.(check int) "deprecated instance left no records behind" 0
    (Monitor.tracked_flows m2)

(* A scenario built with the defaults keeps no timeline: through a
   scale-up under live traffic, with both monitors on the scenario's
   telemetry, its trace stays a bounded span ring and no component logs
   a timeline instant into it. *)
let test_default_scenario_keeps_no_timeline () =
  let trace =
    Openmb_traffic.Cloud_trace.generate
      { small_cloud with n_scanners = 0; n_http_flows = 10; n_other_flows = 5; duration = 6.0 }
  in
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let telemetry = Scenario.telemetry scenario in
  let m1 = Monitor.create engine ~telemetry ~name:"prads1" () in
  let m2 = Monitor.create engine ~telemetry ~name:"prads2" () in
  Scenario.attach_mb scenario ~port:"mb1" ~receive:(Monitor.receive m1)
    ~base:(Monitor.base m1) ~impl:(Monitor.impl m1);
  Scenario.attach_mb scenario ~port:"mb2" ~receive:(Monitor.receive m2)
    ~base:(Monitor.base m2) ~impl:(Monitor.impl m2);
  Scenario.install_default_route scenario ~port:"mb1";
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  let up = ref None in
  Scenario.at scenario (Time.seconds 2.0) (fun () ->
      Scale.scale_up scenario ~existing:"prads1" ~fresh:"prads2"
        ~rebalance:[ Hfl.Src_ip (Addr.prefix_of_string "10.0.0.0/17") ]
        ~also_route:[ [ Hfl.Dst_ip (Addr.prefix_of_string "10.0.0.0/17") ] ]
        ~dst_port:"mb2"
        ~on_done:(fun r -> up := Some r)
        ());
  Scenario.run scenario;
  (match !up with
  | Some u ->
    Alcotest.(check bool) "the scale-up moved state" true
      (u.Scale.move.Controller.chunks_moved > 0)
  | None -> Alcotest.fail "scale-up never completed");
  let tr = Telemetry.trace telemetry in
  Alcotest.(check bool) "no timeline" false (Telemetry.timeline telemetry);
  Alcotest.(check bool) "the span ring stays bounded" true (Telemetry.Trace.length tr <= 4096);
  Alcotest.(check int) "no controller instant logged" (-1)
    (Telemetry.Trace.lookup_id tr "transfer-start")

(* ------------------------------------------------------------------ *)
(* RE live migration (§6.1)                                            *)
(* ------------------------------------------------------------------ *)

let re_params =
  {
    Openmb_traffic.Redundancy_trace.default_params with
    n_flows_a = 30;
    n_flows_b = 30;
    packets_per_flow = 30;
  }

let re_migration_run () =
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let enc = Re_encoder.create engine ~name:"enc" () in
  let dec_a = Re_decoder.create engine ~name:"dec-a" () in
  let dec_b = Re_decoder.create engine ~name:"dec-b" () in
  (* Topology: traffic -> encoder -> switch -> decoder A or B -> sink.
     The decoders hang off switch ports; the encoder feeds the
     switch. *)
  Scenario.attach_mb scenario ~port:"decA" ~receive:(Re_decoder.receive dec_a)
    ~base:(Re_decoder.base dec_a) ~impl:(Re_decoder.impl dec_a);
  Scenario.attach_mb scenario ~port:"decB" ~receive:(Re_decoder.receive dec_b)
    ~base:(Re_decoder.base dec_b) ~impl:(Re_decoder.impl dec_b);
  Scenario.install_default_route scenario ~port:"decA";
  (* The encoder is upstream of the switch: wire it into the MB
     controller directly and chain its egress into the switch. *)
  let enc_agent =
    Mb_agent.create engine ~telemetry:(Scenario.telemetry scenario)
      ~impl:(Re_encoder.impl enc) ()
  in
  Controller.connect (Scenario.controller scenario) enc_agent;
  Mb_base.set_egress (Re_encoder.base enc) (Switch.receive (Scenario.switch scenario));
  let trace = Openmb_traffic.Redundancy_trace.generate re_params in
  Scenario.inject scenario trace ~into:(Re_encoder.receive enc);
  let migrated = ref None in
  Scenario.at scenario (Time.seconds 12.0) (fun () ->
      Migrate.migrate_re scenario ~orig_decoder:"dec-a" ~new_decoder:"dec-b"
        ~encoder:"enc"
        ~keep_prefix:re_params.Openmb_traffic.Redundancy_trace.class_a
        ~move_prefix:re_params.Openmb_traffic.Redundancy_trace.class_b ~dst_port:"decB"
        ~on_done:(fun r -> migrated := Some r)
        ());
  Scenario.run scenario;
  (enc, dec_a, dec_b, !migrated)

let test_re_migration_all_decodable () =
  let enc, dec_a, dec_b, migrated = re_migration_run () in
  (match migrated with
  | Some { Migrate.move = Some mr; _ } ->
    Alcotest.(check bool) "cache cloned" true (mr.Controller.bytes_moved > 0)
  | _ -> Alcotest.fail "RE migration did not complete");
  Alcotest.(check bool) "encoder eliminated redundancy" true
    (Re_encoder.encoded_bytes enc > 0);
  Alcotest.(check int) "no undecodable bytes at A" 0 (Re_decoder.undecodable_bytes dec_a);
  Alcotest.(check int) "no undecodable bytes at B" 0 (Re_decoder.undecodable_bytes dec_b);
  Alcotest.(check bool) "new decoder served migrated traffic" true
    (Re_decoder.packets_decoded dec_b > 0);
  Alcotest.(check int) "encoder runs two caches" 2 (Re_encoder.num_caches enc)

(* ------------------------------------------------------------------ *)
(* NAT failure recovery (§2, R6)                                       *)
(* ------------------------------------------------------------------ *)

let test_nat_failover () =
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let internal_prefix = Addr.prefix_of_string "10.0.0.0/8" in
  let external_ip = Addr.of_string "5.5.5.5" in
  let nat1 = Nat.create engine ~name:"nat1" ~external_ip ~internal_prefix () in
  let nat2 = Nat.create engine ~name:"nat2" ~external_ip ~internal_prefix () in
  Scenario.attach_mb scenario ~port:"nat1" ~receive:(Nat.receive nat1)
    ~base:(Nat.base nat1) ~impl:(Nat.impl nat1);
  Scenario.attach_mb scenario ~port:"nat2" ~receive:(Nat.receive nat2)
    ~base:(Nat.base nat2) ~impl:(Nat.impl nat2);
  Scenario.install_default_route scenario ~port:"nat1";
  let watcher = Failover.watch scenario ~mb:"nat1" ~codes:[ "nat.new_mapping" ] () in
  (* Outbound flows establish mappings at nat1. *)
  let mk_out i ts =
    Packet.make ~id:i ~ts:(Time.seconds ts)
      ~src_ip:(Addr.of_string (Printf.sprintf "10.0.0.%d" (1 + i)))
      ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:(1000 + i) ~dst_port:80
      ~proto:Packet.Tcp ()
  in
  for i = 0 to 9 do
    Scenario.at scenario
      (Time.seconds (0.1 +. (0.05 *. float_of_int i)))
      (fun () -> Switch.receive (Scenario.switch scenario) (mk_out i (0.1 +. (0.05 *. float_of_int i))))
  done;
  let recovered = ref None in
  Scenario.at scenario (Time.seconds 2.0) (fun () ->
      Alcotest.(check int) "watcher mirrored all mappings" 10 (Failover.tracked watcher);
      Failover.fail_over watcher ~replacement:"nat2" ~dst_port:"nat2"
        ~on_done:(fun r -> recovered := Some r)
        ());
  Scenario.run scenario;
  (match !recovered with
  | Some r -> Alcotest.(check int) "all critical records restored" 10 r.Failover.restored
  | None -> Alcotest.fail "failover never completed");
  Alcotest.(check int) "replacement holds the mappings" 10 (Nat.mapping_count nat2);
  (* The replacement translates an in-progress connection's reply using
     the restored mapping. *)
  let ext_port =
    match Nat.lookup_external nat2 ~ext_port:20000 with
    | Some _ -> 20000
    | None -> Alcotest.fail "expected the first allocated port to be 20000"
  in
  let reply =
    Packet.make ~id:999 ~ts:(Engine.now engine) ~src_ip:(Addr.of_string "1.1.1.5")
      ~dst_ip:external_ip ~src_port:80 ~dst_port:ext_port ~proto:Packet.Tcp ()
  in
  let out = ref [] in
  Mb_base.set_egress (Nat.base nat2) (fun p -> out := p :: !out);
  Nat.receive nat2 reply;
  Scenario.run scenario;
  match !out with
  | [ p ] -> Alcotest.(check string) "reply translated by replacement" "10.0.0.1"
      (Addr.to_string p.Packet.dst_ip)
  | _ -> Alcotest.fail "replacement failed to translate"

(* ------------------------------------------------------------------ *)
(* NAT and load-balancer migration through the full stack              *)
(* ------------------------------------------------------------------ *)

let test_nat_migration_keeps_connections () =
  (* Move a subnet's NAT mappings to a second instance mid-run; the
     migrated connections keep their external ports, so replies routed
     to the new instance still translate. *)
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let internal = Addr.prefix_of_string "10.0.0.0/8" in
  let mk name =
    Nat.create engine ~name ~external_ip:(Addr.of_string "5.5.5.5")
      ~internal_prefix:internal ()
  in
  let a = mk "nat-a" and b = mk "nat-b" in
  Scenario.attach_mb scenario ~port:"a" ~receive:(Nat.receive a) ~base:(Nat.base a)
    ~impl:(Nat.impl a);
  Scenario.attach_mb scenario ~port:"b" ~receive:(Nat.receive b) ~base:(Nat.base b)
    ~impl:(Nat.impl b);
  Scenario.install_default_route scenario ~port:"a";
  (* Ten outbound connections; their replies come back after the
     migration. *)
  let ext_ports = ref [] in
  Mb_base.set_egress (Nat.base a) (fun p -> ext_ports := p.Packet.src_port :: !ext_ports);
  for i = 0 to 9 do
    let ts = 0.1 +. (0.05 *. float_of_int i) in
    let p =
      Packet.make ~id:i ~ts:(Time.seconds ts)
        ~src_ip:(Addr.of_string (Printf.sprintf "10.0.0.%d" (1 + i)))
        ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:(6000 + i) ~dst_port:443
        ~proto:Packet.Tcp ()
    in
    Scenario.at scenario (Time.seconds ts) (fun () ->
        Switch.receive (Scenario.switch scenario) p)
  done;
  let migrated = ref false in
  Scenario.at scenario (Time.seconds 2.0) (fun () ->
      Migrate.migrate_perflow scenario ~src:"nat-a" ~dst:"nat-b"
        ~key:[ Hfl.Src_ip (Addr.prefix_of_string "10.0.0.0/24") ]
        ~dst_port:"b"
        ~on_done:(fun _ -> migrated := true)
        ());
  Scenario.run scenario;
  Alcotest.(check bool) "migration completed" true !migrated;
  Alcotest.(check int) "all mappings at B" 10 (Nat.mapping_count b);
  Alcotest.(check int) "source drained" 0 (Nat.mapping_count a);
  (* Every original external port resolves at the new instance to the
     right internal endpoint. *)
  List.iter
    (fun ext_port ->
      match Nat.lookup_external b ~ext_port with
      | Some m ->
        Alcotest.(check bool) "internal port preserved" true (m.Nat.m_int_port >= 6000)
      | None -> Alcotest.failf "external port %d lost in migration" ext_port)
    !ext_ports

let test_lb_migration_keeps_backends () =
  (* The Balance scenario: per-flow assignments move so in-progress
     transactions stay on their server. *)
  let scenario = Scenario.create ~ctrl_config:fast_ctrl () in
  let engine = Scenario.engine scenario in
  let backends = [ Addr.of_string "10.9.0.1"; Addr.of_string "10.9.0.2" ] in
  let a = Load_balancer.create engine ~backends ~name:"lb-a" () in
  let b = Load_balancer.create engine ~backends ~name:"lb-b" () in
  Scenario.attach_mb scenario ~port:"a" ~receive:(Load_balancer.receive a)
    ~base:(Load_balancer.base a) ~impl:(Load_balancer.impl a);
  Scenario.attach_mb scenario ~port:"b" ~receive:(Load_balancer.receive b)
    ~base:(Load_balancer.base b) ~impl:(Load_balancer.impl b);
  Scenario.install_default_route scenario ~port:"a";
  let sink_backends : (int, Addr.t) Hashtbl.t = Hashtbl.create 16 in
  let record_backend (p : Packet.t) =
    match Hashtbl.find_opt sink_backends p.Packet.src_port with
    | Some prev ->
      if not (Addr.equal prev p.Packet.dst_ip) then
        Alcotest.failf "flow %d switched backend mid-stream" p.Packet.src_port
    | None -> Hashtbl.replace sink_backends p.Packet.src_port p.Packet.dst_ip
  in
  Mb_base.set_egress (Load_balancer.base a) record_backend;
  Mb_base.set_egress (Load_balancer.base b) record_backend;
  (* Eight flows sending before and after the migration. *)
  for i = 0 to 7 do
    List.iter
      (fun ts ->
        let p =
          Packet.make
            ~id:((i * 10) + int_of_float ts)
            ~ts:(Time.seconds ts)
            ~src_ip:(Addr.of_string (Printf.sprintf "10.0.0.%d" (1 + i)))
            ~dst_ip:(Addr.of_string "1.1.1.99") ~src_port:(7000 + i) ~dst_port:80
            ~proto:Packet.Tcp ()
        in
        Scenario.at scenario (Time.seconds ts) (fun () ->
            Switch.receive (Scenario.switch scenario) p))
      [ 0.2 +. (0.01 *. float_of_int i); 3.0 +. (0.01 *. float_of_int i) ]
  done;
  Scenario.at scenario (Time.seconds 1.5) (fun () ->
      Migrate.migrate_perflow scenario ~src:"lb-a" ~dst:"lb-b" ~key:Hfl.any
        ~dst_port:"b" ());
  Scenario.run scenario;
  Alcotest.(check int) "all assignments at B" 8 (Load_balancer.assignment_count b);
  Alcotest.(check int) "eight flows observed" 8 (Hashtbl.length sink_backends)

(* ------------------------------------------------------------------ *)
(* Baselines                                                           *)
(* ------------------------------------------------------------------ *)

let test_baseline_snapshot_report () =
  let r =
    Baseline_snapshot.run ~trace_params:small_cloud
      ~migrate_key:[ Hfl.Dst_ip http_prefix ]
      ~snapshot_at:10.0 ()
  in
  Alcotest.(check bool) "http + other covers full" true
    (abs (r.Baseline_snapshot.full_delta_bytes
          - (r.Baseline_snapshot.http_delta_bytes + r.Baseline_snapshot.other_delta_bytes))
     <= 1);
  Alcotest.(check bool) "OpenMB moves less than the http image delta" true
    (r.Baseline_snapshot.sdmbn_moved_bytes < r.Baseline_snapshot.http_delta_bytes);
  Alcotest.(check bool) "old instance logs anomalies" true
    (r.Baseline_snapshot.anomalies_old > 0);
  Alcotest.(check bool) "new instance logs anomalies" true
    (r.Baseline_snapshot.anomalies_new > 0)

let test_baseline_holdup () =
  let r =
    Baseline_config_routing.scale_down_holdup
      ~trace_params:
        { Openmb_traffic.University_dc.default_params with n_flows = 800 }
      ~reroute_at:60.0 ()
  in
  Alcotest.(check bool) "deprecated MB held up beyond 1500s" true
    (r.Baseline_config_routing.holdup_seconds > 1500.0);
  (* Conditioned on being active at the reroute, long flows are
     over-represented, so the surviving fraction exceeds the
     unconditional 9%. *)
  Alcotest.(check bool) "a long tail of flows outlasts 1500s" true
    (r.Baseline_config_routing.frac_over_1500 > 0.03
    && r.Baseline_config_routing.frac_over_1500 < 0.5);
  Alcotest.(check bool) "many flows stranded" true
    (r.Baseline_config_routing.stranded_flows > 100)

let test_baseline_re_migration_fails () =
  let r = Baseline_config_routing.re_migration ~routing_lag_packets:10 () in
  Alcotest.(check bool) "encoder eliminated something" true
    (r.Baseline_config_routing.encoded_bytes > 0);
  Alcotest.(check int) "routing lag hit the old decoder" 10
    r.Baseline_config_routing.old_decoder_failures;
  (* The desynchronized caches make (essentially) everything encoded
     unrecoverable. *)
  Alcotest.(check bool) "most encoded bytes undecodable" true
    (float_of_int r.Baseline_config_routing.undecodable_bytes
    > 0.9 *. float_of_int r.Baseline_config_routing.encoded_bytes)

let test_baseline_splitmerge_latency () =
  let r = Baseline_splitmerge.run ~n_chunks:1000 ~rate_pps:1000.0 in
  Alcotest.(check int) "buffered about rate x halt" 244 r.Baseline_splitmerge.buffered_packets;
  Alcotest.(check bool) "hundreds of ms of added latency" true
    (r.Baseline_splitmerge.avg_added_latency > 0.15);
  Alcotest.(check bool) "bounded" true (r.Baseline_splitmerge.avg_added_latency < 3.0)

let () =
  Alcotest.run "openmb_apps"
    [
      ( "migration",
        [
          Alcotest.test_case "IDS output equals unmodified IDS" `Slow
            test_migration_correctness;
          Alcotest.test_case "latency penalty small" `Slow
            test_migration_latency_penalty_small;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "no over/under reporting" `Slow
            test_scaling_no_over_or_under_reporting;
          Alcotest.test_case "default scenario keeps no timeline" `Quick
            test_default_scenario_keeps_no_timeline;
        ] );
      ("re", [ Alcotest.test_case "live migration all decodable" `Slow
                 test_re_migration_all_decodable ]);
      ("failover", [ Alcotest.test_case "NAT failover" `Quick test_nat_failover ]);
      ( "chain",
        [
          Alcotest.test_case "NAT migration keeps connections" `Quick
            test_nat_migration_keeps_connections;
          Alcotest.test_case "LB migration keeps backends" `Quick
            test_lb_migration_keeps_backends;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "snapshot" `Slow test_baseline_snapshot_report;
          Alcotest.test_case "config+routing holdup" `Quick test_baseline_holdup;
          Alcotest.test_case "config+routing RE" `Quick test_baseline_re_migration_fails;
          Alcotest.test_case "split/merge latency" `Quick test_baseline_splitmerge_latency;
        ] );
    ]
