(* Live migration between data centers (§6.1 / Figure 2).

   An IDS inspects all traffic between a campus and two cloud prefixes.
   Mid-run, the application VMs behind the HTTP prefix migrate to a new
   data center: the control application clones the IDS configuration to
   a new instance there, moves the HTTP flows' connection state, and
   flips routing — all without the IDS missing or double-reporting
   anything.  The example prints the per-step timeline and verifies the
   combined logs against an unmigrated reference run.

   Run with:  dune exec examples/live_migration.exe *)

open Openmb_sim
open Openmb_net
open Openmb_mbox
open Openmb_apps

let trace_params =
  {
    Openmb_traffic.Cloud_trace.default_params with
    n_http_flows = 80;
    n_other_flows = 40;
    n_scanners = 1;
    duration = 30.0;
  }

let http_prefix = trace_params.Openmb_traffic.Cloud_trace.cloud_http

let () =
  let trace = Openmb_traffic.Cloud_trace.generate trace_params in
  Printf.printf "trace: %d packets over %.0f s\n"
    (Openmb_traffic.Trace.packet_count trace)
    (Time.to_seconds (Openmb_traffic.Trace.duration trace));

  (* Reference: one unmodified IDS sees everything. *)
  let reference =
    let engine = Engine.create () in
    let ids = Ids.create engine ~name:"reference" () in
    Openmb_traffic.Trace.replay engine trace ~into:(Ids.receive ids);
    Engine.run engine;
    Ids.finalize ids;
    ids
  in

  (* The migration deployment: two IDS instances behind one switch. *)
  let scenario =
    Scenario.create
      ~ctrl_config:
        { Openmb_core.Controller.default_config with quiescence = Time.ms 500.0 }
      ()
  in
  let engine = Scenario.engine scenario in
  let telemetry = Scenario.telemetry scenario in
  let dc_a = Ids.create engine ~telemetry ~name:"ids-dcA" () in
  let dc_b = Ids.create engine ~telemetry ~name:"ids-dcB" () in
  Scenario.attach_mb scenario ~port:"dcA" ~receive:(Ids.receive dc_a) ~base:(Ids.base dc_a)
    ~impl:(Ids.impl dc_a);
  Scenario.attach_mb scenario ~port:"dcB" ~receive:(Ids.receive dc_b) ~base:(Ids.base dc_b)
    ~impl:(Ids.impl dc_b);
  Scenario.install_default_route scenario ~port:"dcA";
  Scenario.inject scenario trace ~into:(Switch.receive (Scenario.switch scenario));

  (* At t=12s: migrate the HTTP application's flows to DC B. *)
  Scenario.at scenario (Time.seconds 12.0) (fun () ->
      print_endline "t=12s  migrating HTTP flows to DC B ...";
      Migrate.migrate_perflow scenario ~src:"ids-dcA" ~dst:"ids-dcB"
        ~key:[ Hfl.Dst_ip http_prefix ]
        ~also_route:[ [ Hfl.Src_ip http_prefix ] ]
        ~dst_port:"dcB"
        ~on_done:(fun r ->
          (match r.Migrate.move with
          | Some mr ->
            Printf.printf "t=%.2fs migration done: %d chunks, %d bytes, %d events replayed\n"
              (Time.to_seconds (Engine.now engine))
              mr.Openmb_core.Controller.chunks_moved mr.Openmb_core.Controller.bytes_moved
              mr.Openmb_core.Controller.events_forwarded
          | None -> print_endline "migration returned without a move result"))
        ());
  Scenario.run scenario;
  Ids.finalize dc_a;
  Ids.finalize dc_b;

  (* Compare outputs with the reference. *)
  let signature (e : Ids.conn_entry) =
    Printf.sprintf "%s %.3f %d %d %s"
      (Five_tuple.to_string e.Ids.ce_tuple)
      e.Ids.ce_start e.Ids.ce_orig_bytes e.Ids.ce_resp_bytes e.Ids.ce_state
  in
  let sorted ids_list =
    List.sort String.compare (List.concat_map (fun i -> List.map signature (Ids.conn_log i)) ids_list)
  in
  let ref_log = sorted [ reference ] and got_log = sorted [ dc_a; dc_b ] in
  Printf.printf "reference conn.log entries : %d\n" (List.length ref_log);
  Printf.printf "migrated  conn.log entries : %d (DC A %d + DC B %d)\n"
    (List.length got_log)
    (List.length (Ids.conn_log dc_a))
    (List.length (Ids.conn_log dc_b));
  Printf.printf "logs identical             : %b\n" (ref_log = got_log);
  Printf.printf "anomalous entries          : %d\n"
    (Ids.anomalous_entries dc_a + Ids.anomalous_entries dc_b);
  Printf.printf "alerts (ref vs. migrated)  : %d vs. %d\n"
    (List.length (Ids.alerts reference))
    (List.length (Ids.alerts dc_a) + List.length (Ids.alerts dc_b))
