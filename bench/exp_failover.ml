(* §2's failure-recovery analysis, quantified.

   The paper argues three options for surviving a middlebox failure:
   a hot standby processing a copy of every packet (correct but doubles
   compute and network), periodic whole-state snapshots (cheaper but
   loses whatever was created since the last snapshot), and OpenMB's
   introspection events mirroring only the critical state (as effective
   as the standby at a tiny fraction of the cost).  This experiment
   runs all three against the same NAT workload and failure. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

let internal = "10.0.0.0/8"
let n_connections = 200
let fail_at = 13.0
let snapshot_interval = 5.0

let data_packets_per_conn = 15

(* Each connection is a SYN (which creates the mapping) followed by a
   train of data packets — the traffic a hot standby must duplicate in
   full while the other schemes only care about the mapping. *)
let conn_packets i =
  let start = 0.2 +. (0.06 *. float_of_int i) in
  let src = Addr.of_string (Printf.sprintf "10.0.%d.%d" (i / 200) (1 + (i mod 200))) in
  let mk ~id ~ts ?(flags = Packet.no_flags) ?(tokens = [||]) () =
    Packet.make ~flags
      ~body:(Packet.Raw (Payload.of_tokens tokens))
      ~id ~ts:(Time.seconds ts) ~src_ip:src ~dst_ip:(Addr.of_string "1.1.1.5")
      ~src_port:(5000 + i) ~dst_port:443 ~proto:Packet.Tcp ()
  in
  mk ~id:(i * 100) ~ts:start ~flags:Packet.syn_flags ()
  :: List.init data_packets_per_conn (fun k ->
         mk
           ~id:((i * 100) + k + 1)
           ~ts:(start +. (0.05 *. float_of_int (k + 1)))
           ~tokens:(Array.init 6 (fun t -> (i * 64) + t))
           ())

let mapping_wire_bytes = 96 (* serialized mapping record *)
let event_wire_bytes = 150 (* introspection event incl. framing *)

type outcome = {
  mappings_at_failure : int;
  restored : int;
  overhead_bytes : int;  (** Extra wire bytes spent before the failure. *)
  overhead_pkts : int;  (** Extra packets processed before the failure. *)
}

(* Hot standby: every packet is duplicated to a second instance. *)
let hot_standby () =
  let engine = Engine.create () in
  let mk name =
    Nat.create engine ~name ~external_ip:(Addr.of_string "5.5.5.5")
      ~internal_prefix:(Addr.prefix_of_string internal) ()
  in
  let primary = mk "primary" and standby = mk "standby" in
  Mb_base.set_egress (Nat.base primary) (fun _ -> ());
  Mb_base.set_egress (Nat.base standby) (fun _ -> ());
  let duplicated = ref 0 and dup_bytes = ref 0 in
  for i = 0 to n_connections - 1 do
    List.iter
      (fun (p : Packet.t) ->
        if Time.to_seconds p.Packet.ts < fail_at then
          ignore
            (Engine.schedule_at engine p.Packet.ts (fun () ->
                 Nat.receive primary p;
                 Nat.receive standby p;
                 incr duplicated;
                 dup_bytes := !dup_bytes + Packet.wire_bytes p)))
      (conn_packets i)
  done;
  Engine.run engine;
  {
    mappings_at_failure = Nat.mapping_count primary;
    restored = Nat.mapping_count standby;
    overhead_bytes = !dup_bytes;
    overhead_pkts = !duplicated;
  }

(* Periodic snapshots: the full mapping table is copied every
   [snapshot_interval]; a failure loses everything since the last
   copy. *)
let snapshots () =
  let engine = Engine.create () in
  let primary =
    Nat.create engine ~name:"primary" ~external_ip:(Addr.of_string "5.5.5.5")
      ~internal_prefix:(Addr.prefix_of_string internal) ()
  in
  Mb_base.set_egress (Nat.base primary) (fun _ -> ());
  let last_snapshot = ref [] in
  let snapshot_bytes = ref 0 in
  let rec snap at =
    if at < fail_at then
      ignore
        (Engine.schedule_at engine (Time.seconds at) (fun () ->
             last_snapshot := Nat.mappings primary;
             snapshot_bytes :=
               !snapshot_bytes + (List.length !last_snapshot * mapping_wire_bytes);
             snap (at +. snapshot_interval)))
  in
  snap snapshot_interval;
  for i = 0 to n_connections - 1 do
    List.iter
      (fun (p : Packet.t) ->
        if Time.to_seconds p.Packet.ts < fail_at then
          ignore (Engine.schedule_at engine p.Packet.ts (fun () -> Nat.receive primary p)))
      (conn_packets i)
  done;
  Engine.run engine;
  {
    mappings_at_failure = Nat.mapping_count primary;
    restored = List.length !last_snapshot;
    overhead_bytes = !snapshot_bytes;
    overhead_pkts = 0;
  }

(* OpenMB: the failover application mirrors critical state from
   introspection events and restores it into a cold replacement.
   [plan], when given, subjects the controller channels (and the
   primary) to a fault-injection plan. *)
type introspection_outcome = {
  base : outcome;
  mirrored : int;  (** Records in the watcher's mirror at failure time. *)
  recovery : Time.t;  (** Failure to reroute-complete. *)
  counters : Controller.counters;
}

let introspection_run ?plan () =
  let config =
    {
      Controller.default_config with
      quiescence = Time.ms 200.0;
      (* Tight enough that retries under a fault plan land within the
         run instead of after the default 30 s idle window. *)
      request_timeout = Time.seconds 1.0;
      retry_backoff_cap = Time.seconds 8.0;
      max_retries = 4;
    }
  in
  let scenario = Scenario.create ~ctrl_config:config ?faults:plan ~with_recorder:false () in
  let engine = Scenario.engine scenario in
  let mk name =
    Nat.create engine ~name ~external_ip:(Addr.of_string "5.5.5.5")
      ~internal_prefix:(Addr.prefix_of_string internal) ()
  in
  let primary = mk "primary" and replacement = mk "replacement" in
  Scenario.attach_mb scenario ~port:"primary" ~receive:(Nat.receive primary)
    ~base:(Nat.base primary) ~impl:(Nat.impl primary);
  Scenario.attach_mb scenario ~port:"replacement" ~receive:(Nat.receive replacement)
    ~base:(Nat.base replacement) ~impl:(Nat.impl replacement);
  Scenario.install_default_route scenario ~port:"primary";
  let watcher = Failover.watch scenario ~mb:"primary" ~codes:[ "nat.new_mapping" ] () in
  let mappings_at_failure = ref 0 in
  for i = 0 to n_connections - 1 do
    List.iter
      (fun (p : Packet.t) ->
        if Time.to_seconds p.Packet.ts < fail_at then
          Scenario.at scenario p.Packet.ts (fun () ->
              Switch.receive (Scenario.switch scenario) p))
      (conn_packets i)
  done;
  let restored = ref 0 in
  let mirrored = ref 0 in
  let rerouted_at = ref Time.zero in
  Scenario.at scenario (Time.seconds fail_at) (fun () ->
      mappings_at_failure := Nat.mapping_count primary;
      mirrored := Failover.tracked watcher;
      Failover.fail_over watcher ~replacement:"replacement" ~dst_port:"replacement"
        ~on_done:(fun r ->
          restored := r.Failover.restored;
          rerouted_at := r.Failover.rerouted_at)
        ());
  Scenario.run scenario;
  Util.maybe_dump_trace (Scenario.telemetry scenario);
  {
    base =
      {
        mappings_at_failure = !mappings_at_failure;
        restored = !restored;
        overhead_bytes = !mappings_at_failure * event_wire_bytes;
        overhead_pkts = 0;
      };
    mirrored = !mirrored;
    recovery = Time.(!rerouted_at - Time.seconds fail_at);
    counters = Controller.counters (Scenario.controller scenario);
  }

let introspection () = (introspection_run ()).base

(* ------------------------------------------------------------------ *)
(* --faults <seed>: the same recovery under a named fault plan          *)
(* ------------------------------------------------------------------ *)

(* Set by the driver (bench failover --faults <seed>). *)
let fault_seed : int option ref = ref None

(* Only the primary is crash-eligible: the replacement must stay up for
   the restore to have somewhere to land (the controller still retries
   its messages through the faulty links). *)
let fault_plan seed =
  Openmb_sim.Faults.random_plan ~seed ~mbs:[ "primary" ]
    ~horizon:(Time.seconds (fail_at +. 2.0))

let append_bench_row ~seed (o : introspection_outcome) =
  let open Openmb_wire in
  Util.append_row "failover-faults"
    [
      ("seed", Json.Int seed);
      ("recovery_ms", Json.Float (Time.to_seconds o.recovery *. 1e3));
      ("retries", Json.Int o.counters.Controller.op_retries);
      ("timeouts", Json.Int o.counters.Controller.op_timeouts);
      ("mappings", Json.Int o.base.mappings_at_failure);
      ("mirrored", Json.Int o.mirrored);
      ("restored", Json.Int o.base.restored);
    ]

let run_faults seed =
  Util.banner
    (Printf.sprintf "Failure recovery under fault plan %d (drops, dups, crashes)" seed);
  let clean = introspection_run () in
  let faulted = introspection_run ~plan:(fault_plan seed) () in
  Util.row "  %-22s %10s %10s %10s %12s %8s\n" "" "mappings" "mirrored" "restored"
    "recovery(ms)" "retries";
  let show name (o : introspection_outcome) =
    Util.row "  %-22s %10d %10d %10d %12.1f %8d\n" name o.base.mappings_at_failure
      o.mirrored o.base.restored
      (Time.to_seconds o.recovery *. 1e3)
      o.counters.Controller.op_retries
  in
  show "fault-free" clean;
  show (Printf.sprintf "fault plan %d" seed) faulted;
  Format.printf "  controller under faults: %a@." Controller.pp_counters faulted.counters;
  Printf.printf
    "  Dropped events thin the mirror (lost mappings); dropped control\n\
    \  messages stretch recovery by retry backoff, never losing the restore.\n";
  append_bench_row ~seed faulted

let run_battery () =
  Util.banner "Section 2: failure-recovery options for a NAT, quantified";
  let show name (o : outcome) =
    Util.row "  %-22s %10d %10d %8d %14d\n" name o.mappings_at_failure o.restored
      (o.mappings_at_failure - o.restored)
      o.overhead_bytes
  in
  Util.row "  %-22s %10s %10s %8s %14s\n" "" "mappings" "restored" "lost" "overhead (B)";
  show "hot standby" (hot_standby ());
  show "periodic snapshots" (snapshots ());
  show "OpenMB introspection" (introspection ());
  Printf.printf
    "  The standby loses nothing but processes every packet twice (overhead\n\
    \  shown is the duplicated wire bytes).  Snapshots lose whatever arrived\n\
    \  since the last interval.  Introspection mirroring loses nothing and\n\
    \  its overhead is one small event per state creation (R6).\n"

let run () =
  match !fault_seed with Some seed -> run_faults seed | None -> run_battery ()
