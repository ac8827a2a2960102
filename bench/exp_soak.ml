(* HA chaos soak as a tracked benchmark.

   A reduced-scale cousin of test/test_soak.ml's matrix: a replicated
   controller pair drives rounds of full-table moves between two MBs
   while every channel (including the replication log) suffers a
   bounded impairment profile and the leader is killed mid-move once.
   The run must converge to the fault-free single-controller oracle's
   exact state fingerprint; its cost and recovery counters are appended
   to BENCH_micro.json under the "soak" label so perfgate's
   --require-labels check keeps the row from silently disappearing and
   the soak-cost trajectory is tracked across PRs. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_apps

let seed = 0xB05ED
let flows = 24
let rounds = 4
let settle = Time.seconds 60.0

(* Every pathology is bounded and every timeout clears the jitter tail
   (lognormal mu=-3 puts the median delay at ~50 ms), mirroring the
   tuning lessons the full soak encodes: a failover timeout under the
   link's typical delay deposes healthy leaders forever. *)
let impairment_plan =
  let dirp ~drop ~jitter =
    {
      Faults.clean_dir with
      drop;
      duplicate = 0.02;
      reorder = 0.05;
      reorder_window = Time.ms 50.0;
      spike = 0.01;
      spike_delay = Time.ms 200.0;
      jitter = Some jitter;
      corrupt = 0.01;
    }
  in
  {
    (Faults.clean_plan ~seed) with
    Faults.link =
      {
        fwd = dirp ~drop:0.03 ~jitter:(Dist.Lognormal_spec { mu = -3.0; sigma = 0.5 });
        rev = dirp ~drop:0.02 ~jitter:(Dist.Uniform_spec { lo = 0.0; hi = 0.1 });
      };
    partitions =
      [ { Faults.part_from = Time.seconds 200.0; part_until = Time.seconds 205.0 } ];
  }

let ctrl_config =
  {
    Controller.default_config with
    quiescence = Time.seconds 5.0;
    channel_latency = Time.us 100.0;
    request_timeout = Time.seconds 2.0;
    retry_backoff_cap = Time.seconds 10.0;
    max_retries = 8;
  }

let replica_config =
  {
    Controller_replica.default_config with
    heartbeat_every = Time.ms 250.0;
    failover_timeout = Time.seconds 2.0;
    move_retry_backoff = Time.seconds 1.0;
    move_retry_cap = Time.seconds 30.0;
    max_move_attempts = 1000;
    cleanup_linger = Time.seconds 60.0;
    ctrl = ctrl_config;
  }

type outcome = {
  fingerprint : (string * string) list;
  failure : string option;
  virtual_s : float;
  failovers : int;
  moves_rerun : int;
  retransmits : int;
  faults_lost : int;
  obs : (Timeseries.t * Slo.t) option;
  recorder : Flight_recorder.t option;
}

let run_once ~chaos =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let plan = if chaos then impairment_plan else Faults.clean_plan ~seed in
  let faults = Faults.create ~telemetry:tel engine plan in
  (* The chaos run always carries the observability stack: a coarse
     scraper sized to the hours-long virtual horizon, SLOs, and a
     flight recorder armed to dump on the first breach.  The post-mortem
     bundle embeds the impairment plan verbatim so a failure is
     replayable from the JSON alone. *)
  let obs, recorder =
    if chaos then begin
      let ts, slo = Util.attach_obs ~every:(Time.seconds 5.0) tel engine in
      let fr =
        Flight_recorder.create ~telemetry:tel ~timeseries:ts ~slo
          ~fault_plan:(Faults.plan_to_string plan) ()
      in
      Flight_recorder.arm fr ~engine;
      (Some (ts, slo), Some fr)
    end
    else (None, None)
  in
  let mb_a = Dummy_mb.create engine ~name:"mb-a" () in
  let mb_b = Dummy_mb.create engine ~name:"mb-b" () in
  Dummy_mb.populate mb_a ~n:flows;
  let agent mb = Mb_agent.create engine ~impl:(Dummy_mb.impl mb) () in
  let replica = ref None in
  let submit, finish =
    if chaos then begin
      let r =
        Controller_replica.create engine ~config:replica_config ~faults ~telemetry:tel ()
      in
      Controller_replica.connect r (agent mb_a);
      Controller_replica.connect r (agent mb_b);
      replica := Some r;
      ( (fun ~src ~dst ~on_done -> Controller_replica.move r ~src ~dst ~key:Hfl.any ~on_done),
        fun () -> Controller_replica.stop r )
    end
    else begin
      let c = Controller.create engine ~config:ctrl_config ~faults ~telemetry:tel () in
      Controller.connect c (agent mb_a);
      Controller.connect c (agent mb_b);
      ( (fun ~src ~dst ~on_done -> Controller.move_internal c ~src ~dst ~key:Hfl.any ~on_done),
        fun () -> () )
    end
  in
  let failure = ref None in
  let fail fmt =
    Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt
  in
  let rounds_done = ref 0 in
  let rec round r =
    if r >= rounds || !failure <> None then finish ()
    else begin
      let src, dst = if r mod 2 = 0 then ("mb-a", "mb-b") else ("mb-b", "mb-a") in
      (* One forced leader kill mid-move: 5 ms after the submission of
         round 1, revived after the failover timeout has expired so the
         standby performs the takeover. *)
      (if chaos && r = 1 then
         match !replica with
         | Some rep ->
           ignore
             (Engine.schedule_after engine (Time.ms 5.0) (fun () ->
                  match Controller_replica.leader_name rep with
                  | None -> ()
                  | Some name ->
                    Controller_replica.kill rep ~name;
                    ignore
                      (Engine.schedule_after engine (Time.seconds 20.0) (fun () ->
                           Controller_replica.revive rep ~name))))
         | None -> ());
      submit ~src ~dst ~on_done:(fun res ->
          match res with
          | Error e ->
            fail "round %d: move %s->%s failed: %s" r src dst (Errors.to_string e);
            finish ()
          | Ok _ ->
            ignore
              (Engine.schedule_after engine settle (fun () ->
                   rounds_done := r + 1;
                   round (r + 1))))
    end
  in
  round 0;
  ignore
    (Engine.schedule_after engine
       (Time.seconds (float_of_int rounds *. 2000.0))
       (fun () ->
         if !rounds_done < rounds && !failure = None then begin
           fail "soak hung: %d/%d rounds by the watchdog deadline" !rounds_done rounds;
           finish ()
         end));
  Engine.run engine;
  {
    fingerprint =
      List.sort compare (Dummy_mb.support_entries mb_a @ Dummy_mb.support_entries mb_b);
    failure = !failure;
    virtual_s = Time.to_seconds (Engine.now engine);
    failovers = (match !replica with Some r -> Controller_replica.failovers r | None -> 0);
    moves_rerun =
      (match !replica with Some r -> Controller_replica.moves_rerun r | None -> 0);
    retransmits =
      (match !replica with Some r -> Controller_replica.log_retransmits r | None -> 0);
    faults_lost = Faults.lost faults;
    obs;
    recorder;
  }

let append_bench_row (o : outcome) ~wall_ms =
  let open Openmb_wire in
  Util.append_row "soak"
    [
      ("seed", Json.Int seed);
      ("rounds", Json.Int rounds);
      ("flows", Json.Int flows);
      ("wall_ms", Json.Float wall_ms);
      ("virtual_s", Json.Float o.virtual_s);
      ("failovers", Json.Int o.failovers);
      ("moves_rerun", Json.Int o.moves_rerun);
      ("log_retransmits", Json.Int o.retransmits);
      ("faults_lost", Json.Int o.faults_lost);
    ]

let run () =
  Util.banner "HA chaos soak: replicated controller vs. fault-free oracle";
  let oracle = run_once ~chaos:false in
  (match oracle.failure with
  | Some f -> failwith ("soak bench: oracle run failed: " ^ f)
  | None -> ());
  let t0 = Sys.time () in
  let chaos = run_once ~chaos:true in
  let wall_ms = (Sys.time () -. t0) *. 1e3 in
  (* A failing chaos run ships its black box before the exception: the
     bundle captured at the first SLO breach if one fired, otherwise a
     fresh dump of the end-of-run state. *)
  let post_mortem reason =
    match chaos.recorder with
    | None -> ()
    | Some fr ->
      let path = "soak_flight.json" in
      if Flight_recorder.dumps fr = 0 then
        ignore (Flight_recorder.dump fr ~now:(Time.seconds chaos.virtual_s) ~reason);
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Option.value ~default:"{}" (Flight_recorder.last_bundle fr)));
      Printf.printf "  [flight] wrote %s (%s)\n" path reason
  in
  (match chaos.failure with
  | Some f ->
    post_mortem ("chaos run failed: " ^ f);
    failwith ("soak bench: chaos run failed: " ^ f)
  | None -> ());
  if chaos.fingerprint <> oracle.fingerprint then begin
    post_mortem "final state diverged from the fault-free oracle";
    failwith "soak bench: final state diverged from the fault-free oracle"
  end;
  Util.maybe_dash chaos.obs;
  Util.row "  %-28s %10s %10s %12s %12s\n" "" "failovers" "reruns" "retransmits" "lost";
  Util.row "  %-28s %10d %10d %12d %12d\n"
    (Printf.sprintf "chaos (%d rounds, %d flows)" rounds flows)
    chaos.failovers chaos.moves_rerun chaos.retransmits chaos.faults_lost;
  Printf.printf
    "  fingerprint: byte-identical to the oracle (%d entries); %.0f virtual s in %.0f ms\n"
    (List.length chaos.fingerprint) chaos.virtual_s wall_ms;
  append_bench_row chaos ~wall_ms
