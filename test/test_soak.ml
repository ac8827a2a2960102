(* Long-horizon chaos soak: the replicated controller pair under
   production-grade impairment profiles, proven against a fault-free
   single-controller oracle.

   Each iteration derives an impairment plan
   (Faults.random_impairment_plan: per-direction drop / duplication /
   reorder / spikes / distribution-drawn jitter / corruption /
   token-bucket shaping / blackholes, plus partitions and MB crashes)
   and a controller kill schedule from one seed, then ping-pongs the
   full state table between two middleboxes for hours of virtual time:

     submit move -> (maybe kill the leader mid-move) -> move completes
     -> settle -> checkpoint invariants -> next round

   Checkpoint invariants, every round:
   - the source was emptied by the deferred delete (re-issued by a
     takeover if the old leader died holding it);
   - the destination holds exactly the initial table — nothing lost,
     nothing duplicated, byte-for-byte.

   After the last round the final state fingerprint must be
   byte-identical to the oracle's (same rounds, clean plan, single
   controller, no kills), and the first seed is run twice to prove the
   whole soak is deterministic.

   A failing seed prints its plan via Faults.plan_to_string; re-run it
   verbatim with SOAK_PLAN='plan{...}'.  Knobs: SOAK_ITERS (default
   10), SOAK_SEED, SOAK_ROUNDS, SOAK_FLOWS. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_apps

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (try max 1 (int_of_string s) with _ -> default)
  | None -> default

let soak_iters = env_int "SOAK_ITERS" 10
let base_seed = env_int "SOAK_SEED" 0xA05ED
let soak_rounds = env_int "SOAK_ROUNDS" 12
let soak_flows = env_int "SOAK_FLOWS" 48

(* Virtual-time shape: rounds are chained (next submission only after
   the previous move completed and settled), so pathologies stretch the
   run instead of overlapping rounds.  [settle] must exceed the longest
   clamped pathology window plus the delete's retry backoff cap, or a
   checkpoint could observe a deferred delete still stuck behind a
   partition. *)
let settle = Time.seconds 600.0
let est_horizon = Time.seconds (float_of_int soak_rounds *. 800.0)

(* Op-layer patience: every op (gets, puts, deletes, aborts) is
   retried and must survive the longest clamped outage (120 s) on
   retries alone; an op that runs out of them fails its move, which
   rolls back to the replica layer.  The base timeout must clear the
   clamped jitter tail (pareto draws reach 20 s) with room to spare: a
   2 s timeout turns every get into a coin flip against the jitter
   distribution and a move into dozens of backoff-capped re-runs. *)
let soak_ctrl_config =
  {
    Controller.default_config with
    quiescence = Time.seconds 5.0;
    channel_latency = Time.us 100.0;
    request_timeout = Time.seconds 45.0;
    retry_backoff_cap = Time.seconds 90.0;
    max_retries = 16;
  }

let soak_replica_config =
  {
    Controller_replica.default_config with
    heartbeat_every = Time.ms 250.0;
    (* Must exceed the worst-case clamped log-link jitter (a constant
       5 s shifts every heartbeat past a smaller threshold, and the
       detector then deposes a perfectly healthy leader every cycle,
       forever).  8 s clears the 5 s constant/uniform clamp with margin
       while heavy-tailed draws still need ~30 consecutive >8 s delays
       to fake a silence — vanishingly unlikely. *)
    failover_timeout = Time.seconds 8.0;
    move_retry_backoff = Time.seconds 1.0;
    move_retry_cap = Time.seconds 60.0;
    (* Effectively unbounded: every injected pathology is bounded, so a
       retried move eventually lands; a client-visible failure would
       diverge from the oracle and fail the fingerprint check anyway. *)
    max_move_attempts = 10_000;
    cleanup_linger = Time.seconds 300.0;
    ctrl = soak_ctrl_config;
  }

(* Clamp the generator's horizon-scaled pathology windows so every
   outage is strictly shorter than [settle] (see above).  Start times
   still span the whole run; only durations are bounded.  Purely
   structural, so the clamped plan round-trips and re-runs verbatim. *)
let bound_for_soak (plan : Faults.plan) =
  let clamp_t cap t = if Time.compare t cap > 0 then cap else t in
  let window = Time.seconds 120.0 in
  let clamp_jitter = function
    | None -> None
    | Some spec ->
      Some
        (match spec with
        | Dist.Constant v -> Dist.Constant (Float.min v 5.0)
        | Dist.Uniform_spec { lo; hi } ->
          Dist.Uniform_spec { lo = Float.min lo 5.0; hi = Float.min hi 5.0 }
        | Dist.Exponential_spec { mean } ->
          Dist.Exponential_spec { mean = Float.min mean 1.0 }
        | Dist.Normal_spec { mean; stddev } ->
          Dist.Normal_spec { mean = Float.min mean 2.0; stddev = Float.min stddev 1.0 }
        | Dist.Lognormal_spec { mu; sigma } ->
          Dist.Lognormal_spec { mu = Float.min mu 0.0; sigma = Float.min sigma 0.5 }
        | Dist.Pareto_spec { shape; lo; hi } ->
          let lo = Float.min lo 1.0 in
          Dist.Pareto_spec { shape; lo; hi = Float.min hi 20.0 })
  in
  let clamp_dir (d : Faults.dir_profile) =
    {
      d with
      Faults.reorder_window = clamp_t (Time.seconds 5.0) d.Faults.reorder_window;
      spike_delay = clamp_t (Time.seconds 10.0) d.Faults.spike_delay;
      jitter = clamp_jitter d.Faults.jitter;
      rate =
        Option.map
          (fun (r : Faults.rate_limit) ->
            { r with Faults.max_queue = clamp_t (Time.seconds 10.0) r.Faults.max_queue })
          d.Faults.rate;
      blackholes =
        List.map
          (fun (b : Faults.blackhole) ->
            {
              b with
              Faults.bh_until = clamp_t Time.(b.Faults.bh_from + window) b.Faults.bh_until;
            })
          d.Faults.blackholes;
    }
  in
  {
    plan with
    Faults.link =
      {
        Faults.fwd = clamp_dir plan.Faults.link.Faults.fwd;
        rev = clamp_dir plan.Faults.link.Faults.rev;
      };
    partitions =
      List.map
        (fun (p : Faults.partition) ->
          {
            p with
            Faults.part_until =
              clamp_t Time.(p.Faults.part_from + window) p.Faults.part_until;
          })
        plan.Faults.partitions;
    crashes =
      List.map
        (fun (mb, (c : Faults.crash)) ->
          ( mb,
            {
              c with
              Faults.restart_after =
                Some
                  (match c.Faults.restart_after with
                  | Some r -> clamp_t window r
                  | None -> window);
            } ))
        plan.Faults.crashes;
  }

(* ------------------------------------------------------------------ *)
(* Controller kill schedule                                            *)
(* ------------------------------------------------------------------ *)

type kill = {
  k_delta : Time.t;  (* after the round's submission *)
  k_revive : Time.t;  (* after the kill *)
  k_target : [ `Leader | `Standby ];
}

(* Drawn entirely up front from the plan seed, so the schedule is a
   pure function of the printed plan and a SOAK_PLAN re-run reproduces
   it exactly.  At least one round always kills the leader almost
   immediately after submission — the mid-move takeover the soak
   exists to prove. *)
let kill_schedule ~seed ~rounds =
  let g = Prng.create ~seed:(seed lxor 0x4B115) in
  let kills =
    Array.init rounds (fun _ ->
        if Prng.chance g 0.35 then
          Some
            {
              k_delta = Time.seconds (0.01 +. Prng.float g 1.5);
              k_revive = Time.seconds (3.0 +. Prng.float g 12.0);
              k_target = (if Prng.chance g 0.8 then `Leader else `Standby);
            }
        else None)
  in
  let first_leader_kill =
    Array.to_list kills
    |> List.mapi (fun i k -> (i, k))
    |> List.find_opt (fun (_, k) ->
           match k with Some { k_target = `Leader; _ } -> true | _ -> false)
  in
  (* The forced kill also pins its revive past the failure detector's
     window, so at least one round per seed exercises the
     standby-initiated takeover (a revive that beats the detector makes
     the old leader cold-start-promote itself instead, which is a
     different — also covered — path). *)
  (match first_leader_kill with
  | Some (i, Some k) ->
    kills.(i) <- Some { k with k_delta = Time.ms 5.0; k_revive = Time.seconds 20.0 }
  | Some (_, None) | None ->
    kills.(rounds / 2) <-
      Some { k_delta = Time.ms 5.0; k_revive = Time.seconds 20.0; k_target = `Leader });
  kills

(* ------------------------------------------------------------------ *)
(* One soak run (chaos or oracle)                                      *)
(* ------------------------------------------------------------------ *)

type soak_stats = {
  s_fingerprint : (string * string * string) list;
      (* (mb, key, value) for every resident entry, sorted *)
  s_failure : string option;  (* first violated invariant, if any *)
  s_failovers : int;
  s_moves_rerun : int;
  s_deletes_reissued : int;
  s_kills_fired : int;
}

let fingerprint mbs =
  List.concat_map
    (fun (name, mb) ->
      List.map (fun (k, v) -> (name, "s:" ^ k, v)) (Dummy_mb.support_entries mb)
      @ List.map (fun (k, v) -> (name, "r:" ^ k, v)) (Dummy_mb.report_entries mb))
    mbs
  |> List.sort compare

let soak_debug = Sys.getenv_opt "SOAK_DEBUG" <> None

(* The chaos side always carries the observability stack: a coarse
   scraper over the registry, an SLO on the replication-log lag, and a
   flight recorder armed to capture a post-mortem bundle on the first
   breach.  A failing run writes the bundle to soak_flight.json — the
   black box riding along with the printed plan.  [strict_slo] adds a
   deliberately unmeetable objective (any fault-layer drop breaches) so
   the bundle path itself is testable on a healthy seed. *)
let run_soak ?(strict_slo = false) ~plan ~use_replica ~kills () =
  let tel = Telemetry.create ~timeline:soak_debug () in
  let engine = Engine.create ~telemetry:tel () in
  let faults = Faults.create ~telemetry:tel engine plan in
  let mb_a = Dummy_mb.create engine ~name:"mb-a" () in
  let mb_b = Dummy_mb.create engine ~name:"mb-b" () in
  Dummy_mb.populate mb_a ~n:soak_flows;
  let initial = Dummy_mb.support_entries mb_a in
  let agent mb = Mb_agent.create engine ~impl:(Dummy_mb.impl mb) () in
  let replica = ref None in
  let submit_move, finish =
    if use_replica then begin
      let r =
        Controller_replica.create engine ~config:soak_replica_config ~faults ~telemetry:tel ()
      in
      Controller_replica.connect r (agent mb_a);
      Controller_replica.connect r (agent mb_b);
      replica := Some r;
      ( (fun ~src ~dst ~on_done -> Controller_replica.move r ~src ~dst ~key:Hfl.any ~on_done),
        fun () -> Controller_replica.stop r )
    end
    else begin
      let c =
        Controller.create engine ~config:soak_ctrl_config ~faults ~telemetry:tel ()
      in
      Controller.connect c (agent mb_a);
      Controller.connect c (agent mb_b);
      ( (fun ~src ~dst ~on_done ->
          Controller.move_internal c ~src ~dst ~key:Hfl.any ~on_done),
        fun () -> () )
    end
  in
  let failure = ref None in
  let kills_fired = ref 0 in
  let rounds_done = ref 0 in
  let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
  let mb_named = function "mb-a" -> mb_a | _ -> mb_b in
  let checkpoint r ~src ~dst =
    let src_e = Dummy_mb.support_entries (mb_named src)
    and dst_e = Dummy_mb.support_entries (mb_named dst) in
    if src_e <> [] then
      fail "round %d: source %s not emptied by deferred delete (%d entries left)" r src
        (List.length src_e);
    if dst_e <> initial then
      fail "round %d: destination %s diverged (%d entries, expected %d, equal=%b)" r dst
        (List.length dst_e) (List.length initial)
        (List.length dst_e = List.length initial)
  in
  let schedule_kill (k : kill) =
    match !replica with
    | None -> ()
    | Some r ->
      ignore
        (Engine.schedule_after engine k.k_delta (fun () ->
             let victim =
               match k.k_target with
               | `Leader -> Controller_replica.leader_name r
               | `Standby -> (
                 match
                   ( Controller_replica.role r ~name:"ctrl-a",
                     Controller_replica.role r ~name:"ctrl-b" )
                 with
                 | `Standby, _ -> Some "ctrl-a"
                 | _, `Standby -> Some "ctrl-b"
                 | _ -> None)
             in
             match victim with
             | None -> ()
             | Some name ->
               incr kills_fired;
               Controller_replica.kill r ~name;
               ignore
                 (Engine.schedule_after engine k.k_revive (fun () ->
                      Controller_replica.revive r ~name))))
  in
  let rec round r =
    if r >= soak_rounds || !failure <> None then finish ()
    else begin
      let src, dst = if r mod 2 = 0 then ("mb-a", "mb-b") else ("mb-b", "mb-a") in
      (match kills.(r) with Some k -> schedule_kill k | None -> ());
      submit_move ~src ~dst ~on_done:(fun res ->
          match res with
          | Error e ->
            fail "round %d: move %s->%s failed: %s" r src dst (Errors.to_string e);
            finish ()
          | Ok _ ->
            ignore
              (Engine.schedule_after engine settle (fun () ->
                   checkpoint r ~src ~dst;
                   rounds_done := r + 1;
                   round (r + 1))))
    end
  in
  let recorder_fr =
    if use_replica then begin
      let ts = Timeseries.create ~cap:512 engine in
      List.iter
        (fun n ->
          Timeseries.add ts ~name:n (Timeseries.Counter (Telemetry.counter tel n)))
        [ "controller.msgs"; "controller.op_retries"; "faults.dropped";
          "replica.failovers" ];
      Timeseries.add ts ~name:"replica.log_lag" ~mode:Timeseries.Max
        (Timeseries.Gauge (Telemetry.gauge tel "replica.log_lag"));
      let slo = Slo.create ts in
      (* Sustained unacked-op backlog far beyond the table size means
         replication stopped draining — bounded outages recover well
         inside the 60-sample (5-minute) window. *)
      Slo.add slo
        (Slo.objective ~budget:0.5
           ~windows:[ (60, 1.0) ]
           ~name:"log-lag-bounded" ~series:"replica.log_lag" Slo.Le
           (float_of_int (soak_flows * 4)));
      if strict_slo then
        Slo.add slo
          (Slo.objective ~signal:Slo.Delta ~budget:1e-9
             ~windows:[ (1, 1.0) ]
             ~name:"no-drops-ever" ~series:"faults.dropped" Slo.Le 0.0);
      Slo.attach slo;
      let fr =
        Flight_recorder.create ~telemetry:tel ~timeseries:ts ~slo
          ~fault_plan:(Faults.plan_to_string plan) ()
      in
      Flight_recorder.arm fr ~engine;
      Timeseries.start ts ~every:(Time.seconds 5.0);
      Some fr
    end
    else None
  in
  round 0;
  (* Liveness watchdog: a move that never completes (or a failover that
     never converges) would otherwise keep the heartbeat timers alive
     and hang Engine.run forever.  The far-future event itself is free
     — the timer wheel jumps straight to it once everything drains. *)
  ignore
    (Engine.schedule_after engine
       (Time.seconds (float_of_int soak_rounds *. 2000.0))
       (fun () ->
         if !rounds_done < soak_rounds && !failure = None then begin
           fail "soak hung: only %d/%d rounds completed by the watchdog deadline"
             !rounds_done soak_rounds;
           finish ()
         end));
  Engine.run engine;
  (match !replica with
  | Some r ->
    if !failure = None && !kills_fired > 0 && Controller_replica.failovers r = 0 then
      fail "%d controller kills fired but no takeover happened" !kills_fired
  | None -> ());
  (* SOAK_DEBUG=1: dump replica state and the event-timeline tail of a
     failing run — the first stop of the triage recipe in EXPERIMENTS.md. *)
  if soak_debug && !failure <> None then begin
    Printf.eprintf "--- SOAK_DEBUG: %s\n" (Option.value ~default:"?" !failure);
    (match !replica with
    | Some r ->
      Printf.eprintf
        "    epoch=%d leader=%s roles=a:%s/b:%s pending=%d failovers=%d \
         retries=%d reruns=%d resubmitted=%d redeletes=%d snapshots=%d \
         retrans=%d\n"
        (Controller_replica.epoch r)
        (Option.value ~default:"none" (Controller_replica.leader_name r))
        (match Controller_replica.role r ~name:"ctrl-a" with
        | `Leader -> "L" | `Standby -> "S" | `Down -> "D")
        (match Controller_replica.role r ~name:"ctrl-b" with
        | `Leader -> "L" | `Standby -> "S" | `Down -> "D")
        (Controller_replica.pending_moves r)
        (Controller_replica.failovers r)
        (Controller_replica.moves_retried r)
        (Controller_replica.moves_rerun r)
        (Controller_replica.moves_resubmitted r)
        (Controller_replica.deletes_reissued r)
        (Controller_replica.snapshots r)
        (Controller_replica.log_retransmits r)
    | None -> ());
    (* The timeline's last 120 instants; the op spans around them are
       left out. *)
    let tr = Telemetry.trace tel in
    let instants =
      Telemetry.Trace.fold tr ~init:[]
        ~f:(fun acc ~actor ~name ~op:_ ~a0:_ ~a1:_ ~t0 ~t1 ~detail ->
          if t1 = t0 then (t0, actor, name, detail) :: acc else acc)
    in
    List.iter
      (fun (t, actor, name, detail) ->
        Printf.eprintf "    [%8.3fs] %-16s %-12s %s\n" (Time.to_seconds t)
          (Telemetry.Trace.string_of_id tr actor) (Telemetry.Trace.string_of_id tr name) detail)
      (List.rev (List.filteri (fun i _ -> i < 120) instants))
  end;
  (* A failing chaos run ships its black box: the bundle captured at
     the first SLO breach if one fired, otherwise a fresh dump of the
     end-of-run state. *)
  (match (recorder_fr, !failure) with
  | Some fr, Some msg ->
    if Flight_recorder.dumps fr = 0 then
      ignore (Flight_recorder.dump fr ~now:(Engine.now engine) ~reason:msg);
    Out_channel.with_open_text "soak_flight.json" (fun oc ->
        Out_channel.output_string oc
          (Option.value ~default:"{}" (Flight_recorder.last_bundle fr)));
    Printf.eprintf "soak: flight-recorder bundle written to soak_flight.json\n"
  | _ -> ());
  ( {
      s_fingerprint = fingerprint [ ("mb-a", mb_a); ("mb-b", mb_b) ];
      s_failure = !failure;
      s_failovers =
        (match !replica with Some r -> Controller_replica.failovers r | None -> 0);
      s_moves_rerun =
        (match !replica with Some r -> Controller_replica.moves_rerun r | None -> 0);
      s_deletes_reissued =
        (match !replica with Some r -> Controller_replica.deletes_reissued r | None -> 0);
      s_kills_fired = !kills_fired;
    },
    recorder_fr )

(* ------------------------------------------------------------------ *)
(* The soak proper                                                     *)
(* ------------------------------------------------------------------ *)

let no_kills = Array.make soak_rounds None

let triage_hint plan =
  Printf.sprintf
    "re-run verbatim: SOAK_PLAN='%s' SOAK_ROUNDS=%d SOAK_FLOWS=%d dune exec \
     test/test_soak.exe"
    (Faults.plan_to_string plan) soak_rounds soak_flows

let soak_one_plan plan =
  let kills = kill_schedule ~seed:plan.Faults.seed ~rounds:soak_rounds in
  (* Fault-free single-controller oracle of the same scenario. *)
  let oracle, _ =
    run_soak ~plan:(Faults.clean_plan ~seed:plan.Faults.seed) ~use_replica:false
      ~kills:no_kills ()
  in
  (match oracle.s_failure with
  | Some msg -> Alcotest.failf "seed %d: oracle run failed: %s" plan.Faults.seed msg
  | None -> ());
  let chaos, _ = run_soak ~plan ~use_replica:true ~kills () in
  (match chaos.s_failure with
  | Some msg ->
    Alcotest.failf "seed %d: %s\n  plan: %s\n  %s" plan.Faults.seed msg
      (Faults.plan_to_string plan) (triage_hint plan)
  | None -> ());
  if chaos.s_fingerprint <> oracle.s_fingerprint then
    Alcotest.failf
      "seed %d: final state fingerprint diverged from oracle (%d vs %d entries)\n\
      \  plan: %s\n\
      \  %s"
      plan.Faults.seed
      (List.length chaos.s_fingerprint)
      (List.length oracle.s_fingerprint)
      (Faults.plan_to_string plan) (triage_hint plan);
  chaos

let test_soak_matrix () =
  match Sys.getenv_opt "SOAK_PLAN" with
  | Some s ->
    let plan = Faults.plan_of_string s in
    let outcome = soak_one_plan plan in
    Printf.printf "SOAK_PLAN seed=%d: ok (failovers=%d reruns=%d redeletes=%d kills=%d)\n"
      plan.Faults.seed outcome.s_failovers outcome.s_moves_rerun
      outcome.s_deletes_reissued outcome.s_kills_fired
  | None ->
    let failovers = ref 0 and reruns = ref 0 and redeletes = ref 0 in
    for i = 0 to soak_iters - 1 do
      let seed = base_seed + i in
      let plan =
        bound_for_soak
          (Faults.random_impairment_plan ~seed ~mbs:[ "mb-a"; "mb-b" ]
             ~horizon:est_horizon)
      in
      let outcome = soak_one_plan plan in
      failovers := !failovers + outcome.s_failovers;
      reruns := !reruns + outcome.s_moves_rerun;
      redeletes := !redeletes + outcome.s_deletes_reissued
    done;
    (* The matrix must actually have exercised failover machinery: the
       forced mid-move leader kill guarantees at least one takeover per
       seed. *)
    Alcotest.(check bool)
      (Printf.sprintf "soak exercised takeovers (%d across %d seeds)" !failovers
         soak_iters)
      true
      (!failovers >= soak_iters);
    Printf.printf "soak: %d seeds, %d failovers, %d move re-runs, %d deletes re-issued\n"
      soak_iters !failovers !reruns !redeletes

(* The soak is deterministic: one full iteration repeated bit-identically
   (fingerprint and every replica-level counter). *)
let test_soak_determinism () =
  let plan =
    bound_for_soak
      (Faults.random_impairment_plan ~seed:base_seed ~mbs:[ "mb-a"; "mb-b" ]
         ~horizon:est_horizon)
  in
  let kills = kill_schedule ~seed:plan.Faults.seed ~rounds:soak_rounds in
  let first, _ = run_soak ~plan ~use_replica:true ~kills () in
  let second, _ = run_soak ~plan ~use_replica:true ~kills () in
  Alcotest.(check bool) "same plan, same soak outcome" true (first = second)

(* Forced SLO breach: [strict_slo] adds a deliberately unmeetable
   objective (any fault-layer drop in a scrape interval breaches), so a
   healthy chaos seed trips it almost immediately and the armed flight
   recorder must ship a post-mortem bundle carrying the breached series
   window, the span-ring tail, and the replayable plan string verbatim
   — the triage contract for real failures. *)
let test_flight_recorder_on_breach () =
  let plan =
    bound_for_soak
      (Faults.random_impairment_plan ~seed:base_seed ~mbs:[ "mb-a"; "mb-b" ]
         ~horizon:est_horizon)
  in
  let kills = kill_schedule ~seed:plan.Faults.seed ~rounds:soak_rounds in
  let stats, fr = run_soak ~strict_slo:true ~plan ~use_replica:true ~kills () in
  (match stats.s_failure with
  | Some msg -> Alcotest.failf "strict-SLO run unexpectedly failed: %s" msg
  | None -> ());
  let fr = match fr with Some fr -> fr | None -> Alcotest.fail "no flight recorder" in
  Alcotest.(check int) "first breach captured exactly one bundle" 1
    (Flight_recorder.dumps fr);
  let bundle =
    match Flight_recorder.last_bundle fr with
    | Some b -> b
    | None -> Alcotest.fail "no bundle captured"
  in
  let open Openmb_wire in
  let fields =
    match Json.of_string bundle with
    | Json.Assoc fields -> fields
    | _ -> Alcotest.fail "bundle is not a JSON object"
    | exception Json.Parse_error _ -> Alcotest.fail "bundle failed to parse"
  in
  (match List.assoc_opt "fault_plan" fields with
  | Some (Json.String s) ->
    Alcotest.(check string) "replayable plan embedded verbatim"
      (Faults.plan_to_string plan) s
  | _ -> Alcotest.fail "bundle carries no fault_plan string");
  (match List.assoc_opt "span_tail" fields with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "bundle carries no span tail");
  (match List.assoc_opt "breaches" fields with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "bundle carries no breach log");
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "breached series window present" true
    (contains ~sub:"\"faults.dropped\"" bundle);
  Alcotest.(check bool) "breaching objective named" true
    (contains ~sub:"no-drops-ever" bundle)

(* The plan a failing seed would print reproduces its run: parse of
   print is structurally identical, so the SOAK_PLAN path re-runs the
   exact same decisions. *)
let test_plan_roundtrip_soak () =
  for i = 0 to 4 do
    let plan =
      bound_for_soak
        (Faults.random_impairment_plan ~seed:(base_seed + i) ~mbs:[ "mb-a"; "mb-b" ]
           ~horizon:est_horizon)
    in
    let reparsed = Faults.plan_of_string (Faults.plan_to_string plan) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: soak plan round-trips exactly" (base_seed + i))
      true (reparsed = plan)
  done

let () =
  Alcotest.run "soak"
    [
      ( "soak",
        [
          Alcotest.test_case "plan round-trip" `Quick test_plan_roundtrip_soak;
          Alcotest.test_case "flight recorder on breach" `Quick
            test_flight_recorder_on_breach;
          Alcotest.test_case "determinism" `Quick test_soak_determinism;
          Alcotest.test_case "chaos soak matrix" `Slow test_soak_matrix;
        ] );
    ]
