(* Chaos harness: randomized fault plans against the state-transfer
   protocol, checked against a fault-free oracle run of the same seed.

   Each iteration derives a scenario (table size, event rate) and a
   fault plan (drop/duplicate/reorder/spike/partition/crash) from one
   seed, runs it to completion, and checks the transactional
   invariants:

   - a completed move delivered every chunk exactly once: the
     destination's table equals the source's initial table;
   - an aborted move lost nothing: the source's table is intact;
   - no packet was ever replayed against missing per-flow state;
   - the whole thing is deterministic: the same seed yields the same
     verdict, counters and final tables.

   The oracle (the same scenario under a fault-free plan) must complete
   with zero drops, retries, timeouts and aborts.

   Iteration count comes from CHAOS_ITERS (default 100, CI-fast); the
   base seed from CHAOS_SEED. *)

open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

let chaos_iters =
  match Sys.getenv_opt "CHAOS_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 100)
  | None -> 100

let base_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (try int_of_string s with _ -> 0x5EED)
  | None -> 0x5EED

(* Tight timeouts so a crashed MB is detected within the run instead of
   after the default 30 s. *)
let chaos_config =
  {
    Controller.default_config with
    quiescence = Time.ms 40.0;
    channel_latency = Time.us 100.0;
    request_timeout = Time.ms 50.0;
    retry_backoff_cap = Time.ms 400.0;
    max_retries = 3;
  }

(* Faults stay active well past the transfer's natural end so late
   stages (deletes, event forwarding) are exercised too. *)
let horizon = Time.ms 30.0
let event_stop = Time.ms 8.0

(* Scenario shape is seed-derived, like the plan, so "oracle of the
   same seed" pins both the faults and the traffic. *)
let scenario_params seed =
  let g = Prng.create ~seed:(seed lxor 0x51CA9A3B) in
  let chunks = 20 + Prng.int g 41 in
  let rate_pps = 500.0 +. Prng.float g 3000.0 in
  (chunks, rate_pps)

(* Invariant: a replay (process_packet without side effects) must find
   the per-flow state it applies to already present. *)
let wrap_replay_check mb violations (impl : Southbound.impl) =
  {
    impl with
    Southbound.process_packet =
      (fun p ~side_effects ->
        if (not side_effects) && not (Dummy_mb.has_state_for mb p) then incr violations;
        impl.Southbound.process_packet p ~side_effects);
  }

type outcome = {
  verdict : (int, string) result;  (* chunks moved, or the error *)
  src_entries : (string * string) list;
  dst_entries : (string * string) list;
  violations : int;
  counters : Controller.counters;
  f_dropped : int;
  f_duplicated : int;
  f_delayed : int;
  f_crashes : int;
  f_restarts : int;
}

let run_plan plan ~chunks ~rate_pps =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let faults = Faults.create ~telemetry:tel engine plan in
  let ctrl = Controller.create engine ~config:chaos_config ~faults () in
  let src = Dummy_mb.create engine ~name:"src" () in
  let dst = Dummy_mb.create engine ~name:"dst" () in
  Dummy_mb.populate src ~n:chunks;
  let violations = ref 0 in
  let connect mb =
    Controller.connect ctrl
      (Mb_agent.create engine ~impl:(wrap_replay_check mb violations (Dummy_mb.impl mb)) ())
  in
  connect src;
  connect dst;
  let verdict = ref None in
  Dummy_mb.start_events src ~rate_pps;
  ignore (Engine.schedule_at engine event_stop (fun () -> Dummy_mb.stop_events src));
  Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      verdict := Some res);
  Engine.run engine;
  let verdict =
    match !verdict with
    | None -> Alcotest.failf "seed %d: move never returned a verdict" plan.Faults.seed
    | Some (Ok mr) -> Ok mr.Controller.chunks_moved
    | Some (Error e) -> Error (Errors.to_string e)
  in
  (* The registry mirrors the injector's own accounting exactly: every
     realized fault bumped the corresponding counter, nothing else did. *)
  let tel_count name = Telemetry.counter_value (Telemetry.counter tel name) in
  Alcotest.(check int)
    (Printf.sprintf "seed %d: telemetry drops == realized drops" plan.Faults.seed)
    (Faults.dropped faults) (tel_count "faults.dropped");
  Alcotest.(check int)
    (Printf.sprintf "seed %d: telemetry dups == realized dups" plan.Faults.seed)
    (Faults.duplicated faults)
    (tel_count "faults.duplicated");
  Alcotest.(check int)
    (Printf.sprintf "seed %d: telemetry delays == realized delays" plan.Faults.seed)
    (Faults.delayed faults) (tel_count "faults.delayed");
  Alcotest.(check int)
    (Printf.sprintf "seed %d: telemetry crashes == realized crashes" plan.Faults.seed)
    (Faults.crashes_fired faults)
    (tel_count "faults.crashes");
  List.iter
    (fun (what, injector, counter) ->
      Alcotest.(check int)
        (Printf.sprintf "seed %d: telemetry %s == realized %s" plan.Faults.seed what
           what)
        (injector faults) (tel_count counter))
    [
      ("corruptions", Faults.corrupted, "faults.corrupted");
      ("throttles", Faults.throttled, "faults.throttled");
      ("shaper tail-drops", Faults.shaper_dropped, "faults.shaper_dropped");
      ("blackhole losses", Faults.blackholed, "faults.blackholed");
      ("restarts", Faults.restarts_fired, "faults.restarts");
    ];
  (* Every loss is attributed to exactly one cause. *)
  Alcotest.(check int)
    (Printf.sprintf "seed %d: lost == dropped + blackholed + shaper + corrupted"
       plan.Faults.seed)
    (Faults.dropped faults + Faults.blackholed faults + Faults.shaper_dropped faults
   + Faults.corrupted faults)
    (Faults.lost faults);
  {
    verdict;
    src_entries = Dummy_mb.support_entries src;
    dst_entries = Dummy_mb.support_entries dst;
    violations = !violations;
    counters = Controller.counters ctrl;
    f_dropped = Faults.dropped faults;
    f_duplicated = Faults.duplicated faults;
    f_delayed = Faults.delayed faults;
    f_crashes = Faults.crashes_fired faults;
    f_restarts = Faults.restarts_fired faults;
  }

let check_entries what expected got =
  Alcotest.(check (list (pair string string))) what expected got

let check_invariants ~seed ~initial outcome =
  (match outcome.verdict with
  | Ok n ->
    Alcotest.(check int)
      (Printf.sprintf "seed %d: completed move counted every chunk" seed)
      (List.length initial) n;
    check_entries
      (Printf.sprintf "seed %d: completed move installed exactly the source state" seed)
      initial outcome.dst_entries
  | Error _ ->
    check_entries
      (Printf.sprintf "seed %d: aborted move left the source intact" seed)
      initial outcome.src_entries);
  Alcotest.(check int)
    (Printf.sprintf "seed %d: no replay against missing state" seed)
    0 outcome.violations

let run_one_seed ?(impairment = false) seed =
  let chunks, rate_pps = scenario_params seed in
  let initial =
    (* The keys/values populate installs, computed without running. *)
    let e = Engine.create () in
    let mb = Dummy_mb.create e ~name:"src" () in
    Dummy_mb.populate mb ~n:chunks;
    Dummy_mb.support_entries mb
  in
  (* Fault-free oracle: same scenario, empty plan.  Everything must go
     perfectly — in particular the events_dropped counter stays 0. *)
  let oracle = run_plan (Faults.clean_plan ~seed) ~chunks ~rate_pps in
  (match oracle.verdict with
  | Ok n -> Alcotest.(check int) "oracle moved all chunks" chunks n
  | Error e -> Alcotest.failf "seed %d: oracle move failed: %s" seed e);
  check_entries "oracle: dst equals initial src" initial oracle.dst_entries;
  check_entries "oracle: src emptied by deferred delete" [] oracle.src_entries;
  Alcotest.(check int) "oracle: no events dropped" 0 oracle.counters.Controller.evt_dropped;
  Alcotest.(check int) "oracle: no retries" 0 oracle.counters.Controller.op_retries;
  Alcotest.(check int) "oracle: no timeouts" 0 oracle.counters.Controller.op_timeouts;
  Alcotest.(check int) "oracle: no aborts" 0
    oracle.counters.Controller.aborted_transfers;
  Alcotest.(check int) "oracle: no replay violations" 0 oracle.violations;
  (* Faulted run, twice: invariants hold and the run is reproducible. *)
  let plan =
    if impairment then
      Faults.random_impairment_plan ~seed ~mbs:[ "src"; "dst" ] ~horizon
    else Faults.random_plan ~seed ~mbs:[ "src"; "dst" ] ~horizon
  in
  let first = run_plan plan ~chunks ~rate_pps in
  check_invariants ~seed ~initial first;
  let second = run_plan plan ~chunks ~rate_pps in
  Alcotest.(check bool)
    (Printf.sprintf "seed %d: same plan, same outcome" seed)
    true (first = second);
  first

let test_chaos_plans () =
  let aborted = ref 0 and completed = ref 0 in
  for i = 0 to chaos_iters - 1 do
    let outcome = run_one_seed (base_seed + i) in
    match outcome.verdict with Ok _ -> incr completed | Error _ -> incr aborted
  done;
  (* The plan generator is aggressive enough that both outcomes show up
     across a default run; with very few iterations this is vacuous. *)
  if chaos_iters >= 50 then begin
    Alcotest.(check bool) "some plans completed" true (!completed > 0);
    Alcotest.(check bool) "some plans aborted" true (!aborted > 0)
  end

(* Same scenario under the production-grade generator: jitter drawn
   from distributions, token-bucket shapers, corruption and blackhole
   windows all active, and every new-kind registry counter reconciled
   against the injector by [run_plan]. *)
let test_impairment_plans () =
  let iters = max 1 (chaos_iters / 2) in
  let exercised = ref 0 in
  for i = 0 to iters - 1 do
    let outcome = run_one_seed ~impairment:true (base_seed + 0x11000 + i) in
    ignore outcome.verdict;
    if
      outcome.f_dropped + outcome.f_duplicated + outcome.f_delayed + outcome.f_crashes
      > 0
    then incr exercised
  done;
  Alcotest.(check bool) "impairment plans realized some faults" true (!exercised > 0)

(* ------------------------------------------------------------------ *)
(* Deterministic mid-move crash: abort, zero source loss, recovery     *)
(* ------------------------------------------------------------------ *)

type crash_rig = {
  engine : Engine.t;
  ctrl : Controller.t;
  src : Dummy_mb.t;
  dst : Dummy_mb.t;
  dst_agent : Mb_agent.t;
}

let make_crash_rig ~chunks =
  let engine = Engine.create () in
  let ctrl = Controller.create engine ~config:chaos_config () in
  let src = Dummy_mb.create engine ~name:"src" () in
  let dst = Dummy_mb.create engine ~name:"dst" () in
  Dummy_mb.populate src ~n:chunks;
  let src_agent = Mb_agent.create engine ~impl:(Dummy_mb.impl src) () in
  let dst_agent = Mb_agent.create engine ~impl:(Dummy_mb.impl dst) () in
  Controller.connect ctrl src_agent;
  Controller.connect ctrl dst_agent;
  { engine; ctrl; src; dst; dst_agent }

let test_mid_move_crash_aborts () =
  let chunks = 200 in
  let r = make_crash_rig ~chunks in
  let initial = Dummy_mb.support_entries r.src in
  let verdict = ref None in
  (* 200 chunks keep the controller busy for tens of ms; 5 ms is
     mid-stream, after some puts have been acknowledged. *)
  ignore (Engine.schedule_at r.engine (Time.ms 5.0) (fun () -> Mb_agent.crash r.dst_agent));
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      verdict := Some res);
  Engine.run r.engine;
  (match !verdict with
  | Some (Error (Errors.Move_aborted _)) -> ()
  | Some (Error e) -> Alcotest.failf "expected Move_aborted, got %s" (Errors.to_string e)
  | Some (Ok _) -> Alcotest.fail "move against a crashed destination completed"
  | None -> Alcotest.fail "move never returned");
  Alcotest.(check bool) "controller retried before giving up" true
    (Controller.op_retries r.ctrl > 0);
  Alcotest.(check bool) "timeout was recorded" true (Controller.op_timeouts r.ctrl > 0);
  Alcotest.(check int) "abort counted" 1 (Controller.transfers_aborted r.ctrl);
  (* Zero source-state loss: every entry still present and intact. *)
  check_entries "source intact after abort" initial (Dummy_mb.support_entries r.src);
  (* Recovery: restart the destination and retry the move — the abort
     must have cleared the moved marks, so every chunk exports again. *)
  Mb_agent.restart r.dst_agent;
  let verdict2 = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      verdict2 := Some res);
  Engine.run r.engine;
  (match !verdict2 with
  | Some (Ok mr) ->
    Alcotest.(check int) "second move exports every chunk" chunks
      mr.Controller.chunks_moved
  | Some (Error e) -> Alcotest.failf "second move failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "second move never returned");
  check_entries "destination has the full state" initial (Dummy_mb.support_entries r.dst);
  check_entries "source emptied after successful move" []
    (Dummy_mb.support_entries r.src)

(* ------------------------------------------------------------------ *)
(* Regression: late re-process must not resurrect deleted state        *)
(* ------------------------------------------------------------------ *)

let test_reprocess_after_delete_no_resurrect () =
  let chunks = 5 in
  let r = make_crash_rig ~chunks in
  let verdict = ref None in
  Controller.move_internal r.ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any ~on_done:(fun res ->
      verdict := Some res);
  Engine.run r.engine;
  (match !verdict with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "move failed");
  Alcotest.(check int) "deferred delete emptied the source" 0
    (Dummy_mb.chunk_count r.src);
  (* A straggler re-process replay for a deleted flow arrives at the
     source after delSupportPerflow ran.  Replaying it must not
     re-create the flow entry. *)
  let key = Dummy_mb.key_for 0 in
  let packet =
    Packet.make ~id:424242 ~ts:(Engine.now r.engine)
      ~src_ip:(Addr.of_string "10.0.0.1") ~dst_ip:(Addr.of_string "1.1.1.1")
      ~src_port:10000 ~dst_port:80 ~proto:Packet.Tcp ()
  in
  let src_agent =
    (* Deliver straight to the agent, as a retried forward would. *)
    Mb_agent.create r.engine ~impl:(Dummy_mb.impl r.src) ()
  in
  Mb_agent.set_uplinks src_agent ~send_reply:(fun _ -> ()) ~send_event:(fun _ -> ());
  Mb_agent.handle_request src_agent
    { Message.op = 999; tid = 0; req = Message.Reprocess_packet { key; packet } };
  Engine.run r.engine;
  Alcotest.(check int) "replay did not resurrect the entry" 0
    (Dummy_mb.chunk_count r.src);
  Alcotest.(check bool) "no per-flow state for the replayed packet" false
    (Dummy_mb.has_state_for r.src packet)

(* ------------------------------------------------------------------ *)
(* Failover under crash: primary dies mid-snapshot                     *)
(* ------------------------------------------------------------------ *)

let test_failover_primary_crash_mid_snapshot () =
  let fast = { Controller.default_config with quiescence = Time.ms 200.0 } in
  let scenario = Scenario.create ~ctrl_config:fast () in
  let engine = Scenario.engine scenario in
  let internal_prefix = Addr.prefix_of_string "10.0.0.0/8" in
  let external_ip = Addr.of_string "5.5.5.5" in
  let nat1 = Nat.create engine ~name:"nat1" ~external_ip ~internal_prefix () in
  let nat2 = Nat.create engine ~name:"nat2" ~external_ip ~internal_prefix () in
  let nat1_agent =
    Scenario.attach_mb_agent scenario ~port:"nat1" ~receive:(Nat.receive nat1)
      ~base:(Nat.base nat1) ~impl:(Nat.impl nat1)
  in
  Scenario.attach_mb scenario ~port:"nat2" ~receive:(Nat.receive nat2)
    ~base:(Nat.base nat2) ~impl:(Nat.impl nat2);
  Scenario.install_default_route scenario ~port:"nat1";
  let watcher = Failover.watch scenario ~mb:"nat1" ~codes:[ "nat.new_mapping" ] () in
  let mk_out i ts =
    Packet.make ~id:i ~ts:(Time.seconds ts)
      ~src_ip:(Addr.of_string (Printf.sprintf "10.0.0.%d" (1 + i)))
      ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:(1000 + i) ~dst_port:80
      ~proto:Packet.Tcp ()
  in
  for i = 0 to 9 do
    let ts = 0.1 +. (0.05 *. float_of_int i) in
    Scenario.at scenario (Time.seconds ts) (fun () ->
        Switch.receive (Scenario.switch scenario) (mk_out i ts))
  done;
  (* The primary crashes while mappings are still being established:
     introspection events raised after this instant are lost with it. *)
  Scenario.at scenario (Time.seconds 0.3) (fun () -> Mb_agent.crash nat1_agent);
  let tracked_at_failover = ref 0 in
  let recovered = ref None in
  Scenario.at scenario (Time.seconds 1.0) (fun () ->
      tracked_at_failover := Failover.tracked watcher;
      Failover.fail_over watcher ~replacement:"nat2" ~dst_port:"nat2"
        ~on_done:(fun r -> recovered := Some r)
        ());
  Scenario.run scenario;
  (match !recovered with
  | Some r ->
    Alcotest.(check bool) "some mappings were mirrored before the crash" true
      (!tracked_at_failover > 0);
    Alcotest.(check bool) "crash lost the later mappings" true
      (!tracked_at_failover < 10);
    Alcotest.(check int) "everything mirrored was restored" !tracked_at_failover
      r.Failover.restored
  | None -> Alcotest.fail "failover never completed");
  Alcotest.(check int) "replacement holds every mirrored mapping" !tracked_at_failover
    (Nat.mapping_count nat2)

(* ------------------------------------------------------------------ *)
(* Codec properties: seq-numbered messages across both framings        *)
(* ------------------------------------------------------------------ *)

let gen_chunk =
  QCheck2.Gen.(
    let* idx = int_range 0 400 in
    let* plain = string_size (int_range 0 300) in
    let* supporting = bool in
    let role = if supporting then Taxonomy.Supporting else Taxonomy.Reporting in
    return
      (Chunk.seal ~mb_kind:"chaos" ~role ~partition:Taxonomy.Per_flow
         ~key:(Dummy_mb.key_for idx) ~plain))

let gen_seq_request =
  QCheck2.Gen.(
    let* seq = int_range 0 0xFFFFFF in
    oneof
      [
        (let* chunk = gen_chunk in
         return (Message.Put_support_perflow { seq; chunk }));
        (let* chunk = gen_chunk in
         return (Message.Put_report_perflow { seq; chunk }));
        (let* chunks = list_size (int_range 0 6) gen_chunk in
         return (Message.Put_batch { seq; chunks }));
        (let* idx = int_range 0 400 in
         return (Message.Abort_perflow (Dummy_mb.key_for idx)));
      ])

let gen_seq_reply =
  QCheck2.Gen.(
    let* seq = int_range 0 0xFFFFFF in
    let* count = int_range 0 32 in
    let gen_err =
      oneof
        [
          map (fun s -> Errors.Timeout s) (string_size (int_range 0 20));
          map (fun s -> Errors.Move_aborted s) (string_size (int_range 0 20));
          map (fun s -> Errors.Bad_chunk s) (string_size (int_range 0 20));
          return Errors.Granularity_too_fine;
        ]
    in
    let* errors = list_size (int_range 0 3) (pair (int_range 0 31) gen_err) in
    oneof
      [
        return (Message.Batch_ack { seq; count; errors });
        (match errors with
        | (_, e) :: _ -> return (Message.Op_error e)
        | [] -> return (Message.Op_error (Errors.Timeout "t")));
      ])

(* Both codecs round-trip, and a channel carrying a mix of framings
   still decodes every message — the decoder dispatches per message on
   the binary tag. *)
let prop_seq_request_roundtrip =
  QCheck2.Test.make ~name:"seq-numbered requests round-trip on mixed framing"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 8) (triple gen_seq_request bool (int_range 0 0xFFFFF)))
    (fun reqs ->
      List.for_all
        (fun (req, binary, tid) ->
          let msg = { Message.op = 5; tid; req } in
          let framing =
            if binary then Openmb_wire.Framing.Binary else Openmb_wire.Framing.Json
          in
          Message.request_of_wire (Message.request_to_wire ~framing msg) = msg)
        reqs)

let prop_seq_reply_roundtrip =
  QCheck2.Test.make ~name:"batchAck/Move_aborted replies round-trip on mixed framing"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 8) (pair gen_seq_reply bool))
    (fun replies ->
      List.for_all
        (fun (reply, binary) ->
          let msg = Message.Reply { op = 9; reply } in
          let framing =
            if binary then Openmb_wire.Framing.Binary else Openmb_wire.Framing.Json
          in
          Message.from_mb_of_wire (Message.from_mb_to_wire ~framing msg) = msg)
        replies)

(* One generator per message direction that reaches every constructor
   and every packet shape, for the malformed-frame property below. *)

let gen_hfl =
  QCheck2.Gen.(
    let prefix = map2 (fun a len -> Addr.prefix (Addr.of_int a) len) (int_bound 0xFFFF_FFFF) (int_bound 32) in
    list_size (int_range 0 4)
      (oneof
         [
           map (fun p -> Hfl.Src_ip p) prefix;
           map (fun p -> Hfl.Dst_ip p) prefix;
           map (fun v -> Hfl.Src_port v) (int_bound 0xFFFF);
           map (fun v -> Hfl.Dst_port v) (int_bound 0xFFFF);
           map (fun v -> Hfl.Proto v) (oneofl Packet.[ Tcp; Udp; Icmp ]);
         ]))

let gen_text = QCheck2.Gen.string_size (QCheck2.Gen.int_range 0 12)

let gen_json =
  QCheck2.Gen.(
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun i -> Json.Int i) int;
                 map (fun f -> Json.Float f) (float_range (-1e9) 1e9);
                 map (fun s -> Json.String s) gen_text;
               ]
           in
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map (fun l -> Json.List l) (list_size (int_bound 3) (self (n - 1)));
                 map (fun l -> Json.Assoc l) (list_size (int_bound 3) (pair gen_text (self (n - 1))));
               ]))

let gen_payload =
  QCheck2.Gen.map2
    (fun tokens trailing -> Payload.of_tokens_trailing (Array.of_list tokens) ~trailing)
    QCheck2.Gen.(list_size (int_bound 4) int)
    (QCheck2.Gen.int_bound 63)

let gen_packet =
  QCheck2.Gen.(
    let app =
      oneof
        [
          return Packet.Plain;
          map3 (fun method_ host uri -> Packet.Http_request { method_; host; uri }) gen_text gen_text gen_text;
          map (fun status -> Packet.Http_response { status }) (int_bound 999);
        ]
    in
    let segment =
      oneof
        [
          map (fun p -> Packet.Literal p) gen_payload;
          map2 (fun offset len -> Packet.Shim { offset; len }) nat nat;
        ]
    in
    let body =
      oneof
        [
          map (fun p -> Packet.Raw p) gen_payload;
          map4
            (fun cache_id append_base segments orig ->
              Packet.Encoded { cache_id; append_base; segments; orig })
            int int (list_size (int_bound 3) segment) gen_payload;
        ]
    in
    let* id = nat and* ts = float_bound_inclusive 100.0 in
    let* src_ip = int_bound 0xFFFF_FFFF and* dst_ip = int_bound 0xFFFF_FFFF in
    let* src_port = int_bound 0xFFFF and* dst_port = int_bound 0xFFFF in
    let* proto = oneofl Packet.[ Tcp; Udp; Icmp ] in
    let* syn = bool and* ack = bool and* fin = bool and* rst = bool in
    let* app = app and* body = body in
    return
      {
        Packet.id;
        ts;
        src_ip = Addr.of_int src_ip;
        dst_ip = Addr.of_int dst_ip;
        src_port;
        dst_port;
        proto;
        flags = { Packet.syn; ack; fin; rst };
        app;
        body;
      })

let gen_request =
  QCheck2.Gen.(
    let path = list_size (int_bound 3) (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)) in
    let seq = int_bound 0xFFFFFF in
    oneof
      [
        map (fun p -> Message.Get_config p) path;
        map2 (fun p vs -> Message.Set_config (p, vs)) path (list_size (int_bound 3) gen_json);
        map (fun p -> Message.Del_config p) path;
        map (fun h -> Message.Get_support_perflow h) gen_hfl;
        map2 (fun seq chunk -> Message.Put_support_perflow { seq; chunk }) seq gen_chunk;
        map (fun h -> Message.Del_support_perflow h) gen_hfl;
        return Message.Get_support_shared;
        map2 (fun seq chunk -> Message.Put_support_shared { seq; chunk }) seq gen_chunk;
        map (fun h -> Message.Get_report_perflow h) gen_hfl;
        map2 (fun seq chunk -> Message.Put_report_perflow { seq; chunk }) seq gen_chunk;
        map (fun h -> Message.Del_report_perflow h) gen_hfl;
        return Message.Get_report_shared;
        map2 (fun seq chunk -> Message.Put_report_shared { seq; chunk }) seq gen_chunk;
        map (fun h -> Message.Get_stats h) gen_hfl;
        map2 (fun codes key -> Message.Enable_events { codes; key }) (list_size (int_bound 3) gen_text) gen_hfl;
        map (fun codes -> Message.Disable_events { codes }) (list_size (int_bound 3) gen_text);
        map2 (fun key packet -> Message.Reprocess_packet { key; packet }) gen_hfl gen_packet;
        map2 (fun seq chunks -> Message.Put_batch { seq; chunks }) seq (list_size (int_bound 3) gen_chunk);
        map (fun h -> Message.Abort_perflow h) gen_hfl;
      ])

let gen_to_mb =
  QCheck2.Gen.map3
    (fun op tid req -> { Message.op; tid; req })
    QCheck2.Gen.nat
    QCheck2.Gen.(oneof [ return 0; nat ])
    gen_request

let gen_from_mb =
  QCheck2.Gen.(
    let error =
      oneof
        [
          return Errors.Granularity_too_fine;
          map (fun s -> Errors.Unknown_mb s) gen_text;
          map (fun s -> Errors.Unknown_config_key s) gen_text;
          map (fun s -> Errors.Illegal_operation s) gen_text;
          map (fun s -> Errors.Bad_chunk s) gen_text;
          map (fun s -> Errors.Op_failed s) gen_text;
          map (fun s -> Errors.Timeout s) gen_text;
          map (fun s -> Errors.Move_aborted s) gen_text;
        ]
    in
    let entry =
      map2 (fun path values -> { Config_tree.path; values })
        (list_size (int_range 1 3) (string_size ~gen:(char_range 'a' 'z') (int_range 1 5)))
        (list_size (int_bound 3) gen_json)
    in
    let stats =
      map (fun l ->
          match l with
          | [ a; b; c; d; e; f ] ->
            {
              Southbound.perflow_support_chunks = a;
              perflow_report_chunks = b;
              perflow_support_bytes = c;
              perflow_report_bytes = d;
              shared_support_bytes = e;
              shared_report_bytes = f;
            }
          | _ -> assert false)
        (list_repeat 6 nat)
    in
    let reply =
      oneof
        [
          map (fun c -> Message.State_chunk c) gen_chunk;
          map (fun count -> Message.End_of_state { count }) nat;
          return Message.Ack;
          map (fun es -> Message.Config_values es) (list_size (int_bound 3) entry);
          map (fun s -> Message.Stats_reply s) stats;
          map (fun e -> Message.Op_error e) error;
          map3
            (fun seq count errors -> Message.Batch_ack { seq; count; errors })
            nat nat
            (list_size (int_bound 3) (pair nat error));
        ]
    in
    oneof
      [
        map2 (fun op reply -> Message.Reply { op; reply }) nat reply;
        map2 (fun key packet -> Message.Event_msg (Event.Reprocess { key; packet })) gen_hfl gen_packet;
        map3
          (fun code key info -> Message.Event_msg (Event.Introspect { code; key; info }))
          gen_text gen_hfl gen_json;
      ])

(* The generators reach every constructor, and each request's name is
   the one its JSON frame carries. *)
let test_generators_reach_every_constructor () =
  let rand = Random.State.make [| 0x5EED |] in
  let requests = Hashtbl.create 19 and from_mb = Hashtbl.create 9 in
  for _ = 1 to 2000 do
    let m = QCheck2.Gen.generate1 ~rand gen_to_mb in
    let name = Message.request_name m.req in
    Alcotest.(check string) "request_name is the JSON type" name
      (Json.get_string (Json.member "type" (Json.of_string (Message.request_to_wire m))));
    Hashtbl.replace requests name ();
    let first_word s = List.hd (String.split_on_char ' ' s) in
    Hashtbl.replace from_mb
      (match QCheck2.Gen.generate1 ~rand gen_from_mb with
      | Message.Reply { reply; _ } -> first_word (Message.describe_reply reply)
      | Message.Event_msg ev -> first_word (Event.describe ev))
      ()
  done;
  Alcotest.(check int) "all 19 requests" 19 (Hashtbl.length requests);
  Alcotest.(check int) "all 7 replies and 2 events" 9 (Hashtbl.length from_mb)

(* A frame damaged in transit — truncated, bit-flipped, or replaced by
   random bytes — either raises Decode_error or decodes to a message
   whose re-encoding is a fixed point.  Bytes are compared, not values:
   a flipped f64 can decode to NaN. *)
let gen_damage =
  QCheck2.Gen.(
    let flip = map2 (fun i bit -> `Flip (i, bit)) nat (int_bound 7) in
    oneof
      [
        map (fun i -> `Truncate i) nat;
        map (fun flips -> `Flips flips) (list_size (int_range 1 3) flip);
        map2 (fun lead rest -> `Random (lead ^ rest)) (oneofl [ "B"; "{"; "" ]) (string_size (int_bound 40));
      ])

let damage frame = function
  | `Truncate i -> String.sub frame 0 (i mod (String.length frame + 1))
  | `Flips flips ->
    let b = Bytes.of_string frame in
    List.iter
      (fun (`Flip (i, bit)) ->
        let i = i mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
    Bytes.to_string b
  | `Random s -> s

let rejected_or_fixed_point decode encode input =
  match decode input with
  | exception Openmb_wire.Binary.Decode_error _ -> true
  | v ->
    let framing =
      if String.length input > 0 && input.[0] = 'B' then Openmb_wire.Framing.Binary
      else Openmb_wire.Framing.Json
    in
    let once = encode ~framing v in
    String.equal once (encode ~framing (decode once))

let prop_damaged_frames name gen decode encode =
  QCheck2.Test.make ~name ~count:1000
    QCheck2.Gen.(triple gen bool gen_damage)
    (fun (msg, binary, dmg) ->
      let framing = if binary then Openmb_wire.Framing.Binary else Openmb_wire.Framing.Json in
      rejected_or_fixed_point decode encode (damage (encode ~framing msg) dmg))

let prop_damaged_requests =
  prop_damaged_frames "damaged request frames: Decode_error or a fixed point" gen_to_mb
    Message.request_of_wire (fun ~framing m -> Message.request_to_wire ~framing m)

let prop_damaged_from_mb =
  prop_damaged_frames "damaged reply/event frames: Decode_error or a fixed point" gen_from_mb
    Message.from_mb_of_wire (fun ~framing m -> Message.from_mb_to_wire ~framing m)

(* ------------------------------------------------------------------ *)
(* Link faults against batch members                                   *)
(* ------------------------------------------------------------------ *)

(* Per-link faults must act on batch members individually: a dropped
   member is compacted out in place, a delayed member splits off to a
   delivery of its own (so later batches can overtake it), a duplicate's
   extra copy travels alone — and on-time survivors still arrive in
   batch order.  Checked by conservation against the injector's own
   accounting, by a fault-free oracle over the same batched traffic,
   and by same-seed reproducibility. *)

let batch_faults_pkts = 400
let batch_faults_size = 16

let run_batch_faults plan =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let faults = Faults.create ~telemetry:tel engine plan in
  let got = ref [] in
  let link =
    Link.create engine
      ~faults:(Faults.link faults ~name:"batch-wire" ())
      ~name:"batch-wire"
      ~dst:(fun p -> got := p.Packet.id :: !got)
      ()
  in
  let gen = Prng.create ~seed:(plan.Faults.seed lxor 0xBF17) in
  let trace =
    Openmb_traffic.Trace.of_packets
      (List.init batch_faults_pkts (fun i ->
           Packet.make ~id:i
             ~ts:(Time.us (float_of_int (100 + (i * 20) + Prng.int gen 10)))
             ~src_ip:(Addr.of_int (0x0a_00_00_01 + Prng.int gen 16))
             ~dst_ip:(Addr.of_string "1.1.1.5")
             ~src_port:(1_024 + Prng.int gen 100)
             ~dst_port:443 ~proto:Packet.Tcp ()))
  in
  Openmb_traffic.Trace.replay_batched engine trace ~batch:batch_faults_size
    ~window:(Time.ms 1.0) ~into:(Link.send_batch link) ();
  Engine.run engine;
  (List.rev !got, Faults.dropped faults, Faults.duplicated faults, Faults.delayed faults)

let test_batch_link_faults () =
  let dropped_total = ref 0 and dup_total = ref 0 and delayed_total = ref 0 in
  let iters = max 1 (chaos_iters / 4) in
  for i = 0 to iters - 1 do
    let seed = base_seed + (7 * i) in
    (* Fault-free oracle: every member of every batch arrives, in order. *)
    let oracle, o_drop, o_dup, _ = run_batch_faults (Faults.clean_plan ~seed) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: oracle delivers every member in order" seed)
      (List.init batch_faults_pkts Fun.id)
      oracle;
    Alcotest.(check int) "oracle: nothing dropped" 0 o_drop;
    Alcotest.(check int) "oracle: nothing duplicated" 0 o_dup;
    (* Faulted run: conservation against the injector's counters. *)
    let plan = Faults.random_plan ~seed ~mbs:[] ~horizon:(Time.ms 20.0) in
    let got, dropped, duplicated, delayed = run_batch_faults plan in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: received = emitted - dropped + duplicated" seed)
      (batch_faults_pkts - dropped + duplicated)
      (List.length got);
    let mult = Hashtbl.create 64 in
    List.iter
      (fun id ->
        if id < 0 || id >= batch_faults_pkts then
          Alcotest.failf "seed %d: received id %d was never emitted" seed id;
        Hashtbl.replace mult id (1 + Option.value ~default:0 (Hashtbl.find_opt mult id)))
      got;
    Hashtbl.iter
      (fun id n ->
        if n > 2 then Alcotest.failf "seed %d: id %d delivered %d times (max 2)" seed id n)
      mult;
    (* Same plan, same traffic: bit-identical delivery sequence. *)
    let again, _, _, _ = run_batch_faults plan in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: same plan reproduces the delivery sequence" seed)
      got again;
    dropped_total := !dropped_total + dropped;
    dup_total := !dup_total + duplicated;
    delayed_total := !delayed_total + delayed
  done;
  (* The plan generator is aggressive enough that each fault kind lands
     on some batch member across a default run. *)
  if iters >= 12 then begin
    Alcotest.(check bool) "some members dropped" true (!dropped_total > 0);
    Alcotest.(check bool) "some members duplicated" true (!dup_total > 0);
    Alcotest.(check bool) "some members delayed out of their batch" true (!delayed_total > 0)
  end

(* A packet sent alone is a 1-member batch.  Under the same fault plan
   it must be delivered exactly as a per-message channel send of the
   packet is: the same drops and duplicates at the same times, in the
   same order. *)
let deliveries_per_packet plan ~batch =
  let engine = Engine.create () in
  let faults = Faults.create engine plan in
  let l = Faults.link faults ~name:"wire" () in
  let got = ref [] in
  let record (p : Packet.t) = got := (Int64.bits_of_float (Engine.now engine), p.id) :: !got in
  let send =
    if batch then Link.send (Link.create engine ~faults:l ~name:"wire" ~dst:record ())
    else
      let ch =
        Channel.create engine ~faults:l ~latency:(Time.us 50.0) ~bytes_per_sec:(1e9 /. 8.0)
          ~deliver:record ()
      in
      fun p -> Channel.send ch ~bytes:(Packet.wire_bytes p) p
  in
  for i = 0 to batch_faults_pkts - 1 do
    let p =
      Packet.make ~id:i ~ts:(Time.us (float_of_int (100 + (i * 7))))
        ~src_ip:(Addr.of_string "10.0.0.1") ~dst_ip:(Addr.of_string "1.1.1.5")
        ~src_port:(1_024 + (i mod 9)) ~dst_port:443 ~proto:Packet.Tcp ()
    in
    Engine.call_at engine p.ts send p
  done;
  Engine.run engine;
  List.rev !got

let test_singleton_link_faults () =
  for i = 0 to max 1 (chaos_iters / 4) - 1 do
    let seed = base_seed + (11 * i) in
    let plan = Faults.random_plan ~seed ~mbs:[] ~horizon:(Time.ms 20.0) in
    Alcotest.(check (list (pair int64 int)))
      (Printf.sprintf "seed %d: 1-member batches follow the per-message schedule" seed)
      (deliveries_per_packet plan ~batch:false)
      (deliveries_per_packet plan ~batch:true)
  done

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random fault plans vs oracle" chaos_iters)
            `Slow test_chaos_plans;
          Alcotest.test_case
            (Printf.sprintf "%d batched-link fault plans vs oracle" (max 1 (chaos_iters / 4)))
            `Slow test_batch_link_faults;
          Alcotest.test_case
            (Printf.sprintf "%d impairment plans vs oracle" (max 1 (chaos_iters / 2)))
            `Slow test_impairment_plans;
          Alcotest.test_case
            (Printf.sprintf "%d 1-member link fault plans vs channel" (max 1 (chaos_iters / 4)))
            `Slow test_singleton_link_faults;
        ] );
      ( "crash",
        [
          Alcotest.test_case "mid-move crash aborts, source intact" `Quick
            test_mid_move_crash_aborts;
          Alcotest.test_case "failover when primary crashes mid-snapshot" `Quick
            test_failover_primary_crash_mid_snapshot;
        ] );
      ( "regression",
        [
          Alcotest.test_case "re-process after delete does not resurrect" `Quick
            test_reprocess_after_delete_no_resurrect;
        ] );
      ( "codec",
        Alcotest.test_case "generators reach every constructor" `Quick
          test_generators_reach_every_constructor
        :: qcheck
             [
               prop_seq_request_roundtrip;
               prop_seq_reply_roundtrip;
               prop_damaged_requests;
               prop_damaged_from_mb;
             ] );
    ]
