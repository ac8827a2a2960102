(* Scenario-level experiments: Figure 7 (scale-up timeline), Figure 8
   (flow-duration CDF and deprecated-MB hold-up), Table 2
   (applicability matrix), Table 3 (RE migration), the §8.1.2 snapshot
   and Split/Merge studies, the §8.2 correctness checks, and the
   design-choice ablations. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

let bench_ctrl = { Controller.default_config with quiescence = Time.ms 250.0 }

(* ------------------------------------------------------------------ *)
(* Figure 7: MB actions during scale-up                                *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  Util.banner "Figure 7: MB actions during the scale-up scenario";
  let scenario = Scenario.create ~ctrl_config:bench_ctrl ~with_recorder:true () in
  let engine = Scenario.engine scenario in
  let telemetry = Scenario.telemetry scenario in
  let m1 = Monitor.create engine ~telemetry ~name:"prads1" () in
  let m2 = Monitor.create engine ~telemetry ~name:"prads2" () in
  Scenario.attach_mb scenario ~port:"mb1" ~receive:(Monitor.receive m1)
    ~base:(Monitor.base m1) ~impl:(Monitor.impl m1);
  Scenario.attach_mb scenario ~port:"mb2" ~receive:(Monitor.receive m2)
    ~base:(Monitor.base m2) ~impl:(Monitor.impl m2);
  Scenario.install_default_route scenario ~port:"mb1";
  let trace =
    Openmb_traffic.Cloud_trace.generate
      {
        Openmb_traffic.Cloud_trace.default_params with
        n_http_flows = 200;
        n_other_flows = 40;
        n_scanners = 0;
        duration = 12.0;
      }
  in
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  let move_at = 5.0 in
  Scenario.at scenario (Time.seconds move_at) (fun () ->
      Scale.scale_up scenario ~existing:"prads1" ~fresh:"prads2"
        ~rebalance:[ Hfl.Dst_ip (Addr.prefix_of_string "1.1.1.0/24") ]
        ~also_route:[ [ Hfl.Src_ip (Addr.prefix_of_string "1.1.1.0/24") ] ]
        ~dst_port:"mb2" ());
  Scenario.run scenario;
  (* Print a 3-second window around the operation as 100 ms buckets. *)
  let w0 = move_at -. 0.2 and w1 = move_at +. 2.8 in
  let bucket time = int_of_float ((time -. w0) /. 0.1) in
  let nbuckets = bucket w1 in
  (* The timeline's [kind] instants by [actor] inside the window, as
     (seconds, detail), oldest first. *)
  let tr = Telemetry.trace telemetry in
  let logged actor kind =
    let actor = Telemetry.Trace.lookup_id tr actor
    and kind = Telemetry.Trace.lookup_id tr kind in
    List.rev
      (Telemetry.Trace.fold tr ~init:[]
         ~f:(fun acc ~actor:a ~name ~op:_ ~a0:_ ~a1:_ ~t0 ~t1:_ ~detail ->
           let t = Time.to_seconds t0 in
           if a = actor && name = kind && t >= w0 && t < w1 then (t, detail) :: acc else acc))
  in
  let count actor kind =
    let a = Array.make (nbuckets + 1) 0 in
    List.iter (fun (t, _) -> a.(bucket t) <- a.(bucket t) + 1) (logged actor kind);
    a
  in
  let p1 = count "prads1" "pkt" and p2 = count "prads2" "pkt" in
  let ev_raise = count "prads1" "event-raise" and ev_proc = count "prads2" "event-proc" in
  Util.row "  %-9s %12s %12s %12s %12s\n" "t(s)" "prads1 pkts" "prads2 pkts" "ev raised"
    "ev replayed";
  for b = 0 to nbuckets - 1 do
    Util.row "  %-9.1f %12d %12d %12d %12d\n"
      (w0 +. (0.1 *. float_of_int b))
      p1.(b) p2.(b) ev_raise.(b) ev_proc.(b)
  done;
  let marks kind actor =
    List.iter
      (fun (t, detail) -> Util.row "  marker: %-10s at %.3fs (%s)\n" kind t detail)
      (logged actor kind)
  in
  marks "get-start" "prads1";
  marks "get-end" "prads1";
  Util.paper_note
    "packets shift from the original to the new instance just after the\n";
  Printf.printf
    "          final put; events are raised from get-start until shortly after\n";
  Printf.printf "          the routing update takes effect.\n"

(* ------------------------------------------------------------------ *)
(* Figure 8: flow durations and deprecated-MB hold-up                  *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  Util.banner "Figure 8: university data-center flow durations (CDF)";
  let params = { Openmb_traffic.University_dc.default_params with n_flows = 3000 } in
  let prng = Prng.create ~seed:99 in
  let durations = Stats.create () in
  for _ = 1 to 20000 do
    Stats.add durations (Openmb_traffic.University_dc.sample_duration prng)
  done;
  Util.row "  %-12s %8s\n" "duration(s)" "CDF";
  List.iter
    (fun d -> Util.row "  %-12.0f %8.3f\n" d (1.0 -. Stats.fraction_above durations d))
    [ 1.0; 10.0; 60.0; 300.0; 600.0; 900.0; 1200.0; 1500.0; 3600.0; 7200.0 ];
  Util.row "  fraction of flows > 1500 s: %.1f%%\n"
    (Stats.fraction_above durations 1500.0 *. 100.0);
  let r = Baseline_config_routing.scale_down_holdup ~trace_params:params ~reroute_at:60.0 () in
  Util.section "config+routing scale-down (state never moves)";
  Util.row "  flows stranded on deprecated MB : %d\n" r.Baseline_config_routing.stranded_flows;
  Util.row "  deprecated MB held up for       : %.0f s\n"
    r.Baseline_config_routing.holdup_seconds;
  Util.row "  stranded flows alive at +1500 s : %.1f%%\n"
    (r.Baseline_config_routing.frac_over_1500 *. 100.0);
  Util.paper_note "~9%% of flows exceed 1500 s; the deprecated MB was held >1500 s.\n"

(* ------------------------------------------------------------------ *)
(* Table 3: RE in live migration                                       *)
(* ------------------------------------------------------------------ *)

let re_params =
  {
    Openmb_traffic.Redundancy_trace.default_params with
    n_flows_a = 80;
    n_flows_b = 80;
    packets_per_flow = 60;
    duration = 40.0;
  }

let sdmbn_re_migration () =
  let scenario = Scenario.create ~ctrl_config:bench_ctrl ~with_recorder:false () in
  let engine = Scenario.engine scenario in
  let enc = Re_encoder.create engine ~name:"enc" () in
  let dec_a = Re_decoder.create engine ~name:"dec-a" () in
  let dec_b = Re_decoder.create engine ~name:"dec-b" () in
  Scenario.attach_mb scenario ~port:"decA" ~receive:(Re_decoder.receive dec_a)
    ~base:(Re_decoder.base dec_a) ~impl:(Re_decoder.impl dec_a);
  Scenario.attach_mb scenario ~port:"decB" ~receive:(Re_decoder.receive dec_b)
    ~base:(Re_decoder.base dec_b) ~impl:(Re_decoder.impl dec_b);
  Scenario.install_default_route scenario ~port:"decA";
  Controller.connect (Scenario.controller scenario)
    (Mb_agent.create engine ~impl:(Re_encoder.impl enc) ());
  Mb_base.set_egress (Re_encoder.base enc) (Switch.receive (Scenario.switch scenario));
  let trace = Openmb_traffic.Redundancy_trace.generate re_params in
  Scenario.inject scenario trace ~into:(Re_encoder.receive enc);
  Scenario.at scenario (Time.seconds 15.0) (fun () ->
      Migrate.migrate_re scenario ~orig_decoder:"dec-a" ~new_decoder:"dec-b"
        ~encoder:"enc"
        ~keep_prefix:re_params.Openmb_traffic.Redundancy_trace.class_a
        ~move_prefix:re_params.Openmb_traffic.Redundancy_trace.class_b ~dst_port:"decB"
        ());
  Scenario.run scenario;
  ( Re_encoder.encoded_bytes enc,
    Re_decoder.undecodable_bytes dec_a + Re_decoder.undecodable_bytes dec_b )

let table3 () =
  Util.banner "Table 3: RE performance in live migration";
  let sdmbn_encoded, sdmbn_undec = sdmbn_re_migration () in
  let baseline =
    Baseline_config_routing.re_migration ~trace_params:re_params ~routing_lag_packets:10
      ()
  in
  Util.row "  %-18s %16s %18s\n" "" "Encoded (MB)" "Undecodable (MB)";
  Util.row "  %-18s %16.2f %18.2f\n" "SDMBN" (Util.mb sdmbn_encoded) (Util.mb sdmbn_undec);
  Util.row "  %-18s %16.2f %18.2f\n" "Config + routing"
    (Util.mb baseline.Baseline_config_routing.encoded_bytes)
    (Util.mb baseline.Baseline_config_routing.undecodable_bytes);
  Util.paper_note
    "SDMBN 148.42 MB encoded / 0 undecodable; config+routing 97.33 / 97.33.\n";
  Printf.printf
    "          (Absolute volume tracks the synthetic trace size; the shape —\n";
  Printf.printf
    "          warm caches encode more and everything decodes under SDMBN,\n";
  Printf.printf
    "          cold desynced caches lose everything they encoded — holds.)\n"

(* ------------------------------------------------------------------ *)
(* §8.1.2: VM snapshots and Split/Merge                                *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  Util.banner "Section 8.1.2: whole-VM snapshots vs. OpenMB state move";
  (* Sized so the populations of flows still active at the snapshot
     instant land near the paper's 3173 HTTP / 716 other stranded
     flows. *)
  let trace_params =
    {
      Openmb_traffic.Cloud_trace.default_params with
      n_http_flows = 4250;
      n_other_flows = 2900;
      n_scanners = 0;
      duration = 120.0;
    }
  in
  let r =
    Baseline_snapshot.run ~trace_params
      ~migrate_key:[ Hfl.Dst_ip trace_params.Openmb_traffic.Cloud_trace.cloud_http ]
      ~snapshot_at:60.0 ()
  in
  Util.row "  image delta FULL-BASE            : %6.1f MB\n"
    (Util.mb r.Baseline_snapshot.full_delta_bytes);
  Util.row "  image delta HTTP substream       : %6.1f MB\n"
    (Util.mb r.Baseline_snapshot.http_delta_bytes);
  Util.row "  image delta OTHER substream      : %6.1f MB\n"
    (Util.mb r.Baseline_snapshot.other_delta_bytes);
  Util.row "  state OpenMB would move          : %6.1f MB\n"
    (Util.mb r.Baseline_snapshot.sdmbn_moved_bytes);
  Util.row "  bad conn.log entries (old MB)    : %d\n" r.Baseline_snapshot.anomalies_old;
  Util.row "  bad conn.log entries (new MB)    : %d\n" r.Baseline_snapshot.anomalies_new;
  Util.paper_note
    "22 MB / 19 MB / 4 MB image deltas vs. 8.1 MB moved; 3173 and 716 bad\n";
  Printf.printf "          conn.log entries from abruptly terminated foreign flows.\n"

let splitmerge () =
  Util.banner "Section 8.1.2: Split/Merge halt-and-buffer move";
  let r = Baseline_splitmerge.run ~n_chunks:1000 ~rate_pps:1000.0 in
  Util.row "  halt duration          : %.0f ms\n" (r.Baseline_splitmerge.move_duration *. 1e3);
  Util.row "  packets buffered       : %d\n" r.Baseline_splitmerge.buffered_packets;
  Util.row "  avg added latency      : %.0f ms\n"
    (r.Baseline_splitmerge.avg_added_latency *. 1e3);
  Util.row "  max added latency      : %.0f ms\n"
    (r.Baseline_splitmerge.max_added_latency *. 1e3);
  Util.paper_note "244 packets buffered; +863 ms average processing latency.\n"

(* ------------------------------------------------------------------ *)
(* §8.2 correctness: outputs equal a single unmodified MB              *)
(* ------------------------------------------------------------------ *)

let cloud_params =
  {
    Openmb_traffic.Cloud_trace.default_params with
    n_http_flows = 120;
    n_other_flows = 60;
    n_scanners = 2;
    duration = 30.0;
  }

let http_prefix = cloud_params.Openmb_traffic.Cloud_trace.cloud_http

let conn_signature (e : Ids.conn_entry) =
  Printf.sprintf "%s %.3f %.3f %d %d %s"
    (Five_tuple.to_string e.Ids.ce_tuple)
    e.Ids.ce_start e.Ids.ce_duration e.Ids.ce_orig_bytes e.Ids.ce_resp_bytes
    e.Ids.ce_state

(* Run the IDS migration scenario (with or without event forwarding and
   with a configurable quiescence) and diff the merged logs against a
   single unmodified instance.  Returns (mismatched entries,
   anomalies). *)
let ids_migration_diff ?(config = bench_ctrl) ?install_delay () =
  let trace = Openmb_traffic.Cloud_trace.generate cloud_params in
  let reference =
    let engine = Engine.create () in
    let ids = Ids.create engine ~name:"ref" () in
    Openmb_traffic.Trace.replay engine trace ~into:(Ids.receive ids);
    Engine.run engine;
    Ids.finalize ids;
    ids
  in
  let scenario =
    Scenario.create ~ctrl_config:config ?install_delay ~with_recorder:false ()
  in
  let engine = Scenario.engine scenario in
  let a = Ids.create engine ~name:"bro-a" () in
  let b = Ids.create engine ~name:"bro-b" () in
  Scenario.attach_mb scenario ~port:"mbA" ~receive:(Ids.receive a) ~base:(Ids.base a)
    ~impl:(Ids.impl a);
  Scenario.attach_mb scenario ~port:"mbB" ~receive:(Ids.receive b) ~base:(Ids.base b)
    ~impl:(Ids.impl b);
  Scenario.install_default_route scenario ~port:"mbA";
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));
  Scenario.at scenario (Time.seconds 10.0) (fun () ->
      Migrate.migrate_perflow scenario ~src:"bro-a" ~dst:"bro-b"
        ~key:[ Hfl.Dst_ip http_prefix ]
        ~also_route:[ [ Hfl.Src_ip http_prefix ] ]
        ~dst_port:"mbB" ());
  Scenario.run scenario;
  Ids.finalize a;
  Ids.finalize b;
  let sort l = List.sort String.compare l in
  let ref_log = sort (List.map conn_signature (Ids.conn_log reference)) in
  let got_log = sort (List.map conn_signature (Ids.conn_log a @ Ids.conn_log b)) in
  let module SS = Set.Make (String) in
  let diff =
    SS.cardinal
      (SS.union
         (SS.diff (SS.of_list ref_log) (SS.of_list got_log))
         (SS.diff (SS.of_list got_log) (SS.of_list ref_log)))
  in
  (diff, Ids.anomalous_entries a + Ids.anomalous_entries b, List.length ref_log)

let correctness () =
  Util.banner "Section 8.2: correctness under live migration";
  let diff, anomalies, total = ids_migration_diff () in
  Util.row "  conn.log entries compared        : %d\n" total;
  Util.row "  mismatched entries (OpenMB)      : %d\n" diff;
  Util.row "  anomalous entries (OpenMB)       : %d\n" anomalies;
  Util.paper_note "no differences in conn.log/http.log under OpenMB.\n"

(* ------------------------------------------------------------------ *)
(* Ablations of OpenMB design choices                                  *)
(* ------------------------------------------------------------------ *)

let ablation_events () =
  Util.banner "Ablation: re-process events disabled";
  let diff_on, _, total = ids_migration_diff () in
  let diff_off, _, _ =
    ids_migration_diff ~config:{ bench_ctrl with Controller.forward_events = false } ()
  in
  Util.row "  conn.log entries compared          : %d\n" total;
  Util.row "  mismatches with events (OpenMB)    : %d\n" diff_on;
  Util.row "  mismatches without event forwarding: %d\n" diff_off;
  Printf.printf
    "  Without events, packets processed at the source during the move are\n";
  Printf.printf
    "  lost to the destination's state: the moved records terminate with\n";
  Printf.printf "  stale counters and histories.\n"

let ablation_delete () =
  Util.banner "Ablation: deferred delete (quiescence) vs. immediate delete";
  (* A slow (WAN-scale) rule installation widens the window between the
     move returning and the routing update taking effect — the window
     the quiescence delay exists to cover. *)
  let install_delay = Time.ms 200.0 in
  let _, anomalies_deferred, total =
    ids_migration_diff ~config:{ bench_ctrl with Controller.quiescence = Time.ms 500.0 }
      ~install_delay ()
  in
  let diff_imm, anomalies_imm, _ =
    ids_migration_diff
      ~config:{ bench_ctrl with Controller.quiescence = Time.zero }
      ~install_delay ()
  in
  Util.row "  conn.log entries compared             : %d\n" total;
  Util.row "  anomalies with 500 ms quiescence      : %d\n" anomalies_deferred;
  Util.row "  anomalies with immediate delete       : %d\n" anomalies_imm;
  Util.row "  mismatches with immediate delete      : %d\n" diff_imm;
  Printf.printf
    "  Deleting as soon as the move returns races the routing update:\n";
  Printf.printf
    "  packets still in flight toward the source re-create freshly-keyed\n";
  Printf.printf "  state that later surfaces as anomalous log entries.\n"

(* ------------------------------------------------------------------ *)
(* Table 2: applicability matrix                                       *)
(* ------------------------------------------------------------------ *)

let table2 () =
  Util.banner "Table 2: applicability of MB control schemes";
  (* Evidence gathered from the other experiments, summarized. *)
  let diff, anomalies, _ = ids_migration_diff () in
  let sdmbn_ok = diff = 0 && anomalies = 0 in
  let snap =
    Baseline_snapshot.run
      ~trace_params:
        { cloud_params with Openmb_traffic.Cloud_trace.n_scanners = 0 }
      ~migrate_key:[ Hfl.Dst_ip http_prefix ] ~snapshot_at:10.0 ()
  in
  let holdup =
    Baseline_config_routing.scale_down_holdup
      ~trace_params:{ Openmb_traffic.University_dc.default_params with n_flows = 500 }
      ~reroute_at:60.0 ()
  in
  let sm = Baseline_splitmerge.run ~n_chunks:1000 ~rate_pps:1000.0 in
  Util.row "  %-26s %-10s %-12s %-10s\n" "" "Scale up" "Scale down" "Migration";
  Util.row "  %-26s %-10s %-12s %-10s\n" "SDMBN (OpenMB)"
    (if sdmbn_ok then "yes" else "issues")
    "yes" (if sdmbn_ok then "yes" else "issues");
  Util.row "  %-26s %-10s %-12s %-10s\n" "VM snapshot" "partial" "no" "partial";
  Util.row "    (%d + %d bad log entries; cannot merge state)\n"
    snap.Baseline_snapshot.anomalies_old snap.Baseline_snapshot.anomalies_new;
  Util.row "  %-26s %-10s %-12s %-10s\n" "Config + routing" "partial" "partial" "partial";
  Util.row "    (deprecated MB held %.0f s waiting for its flows)\n"
    holdup.Baseline_config_routing.holdup_seconds;
  Util.row "  %-26s %-10s %-12s %-10s\n" "Split/Merge" "yes" "partial" "no";
  Util.row "    (halts traffic: %d packets buffered, +%.0f ms avg latency;\n"
    sm.Baseline_splitmerge.buffered_packets
    (sm.Baseline_splitmerge.avg_added_latency *. 1e3);
  Util.row "     no shared-state merge)\n"
