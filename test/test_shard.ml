(* Sharded simulator core: determinism and cross-shard plumbing.

   The heart of this suite is the domain-count-invariance property: a
   seeded scenario — cross-shard hop traffic mutating per-shard state
   tables, plus a faulted controller move between MBs on different
   shards — is run once on a single domain (the oracle) and again on
   2, 4 and 8 domains, and every observable outcome (state-table
   contents, per-shard execution counts, controller and fault
   counters, merged telemetry) must be byte-identical.  The logical
   shard count stays fixed at 8 throughout, so only the domain
   scheduling varies.

   Iteration count for the property comes from CHAOS_ITERS (default 5;
   `dune build @shardcheck` runs it at 20). *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_apps

let prop_count =
  match Sys.getenv_opt "CHAOS_ITERS" with
  | Some s -> (try max 1 (int_of_string s) with _ -> 5)
  | None -> 5

let shards = 8
let epoch = Time.ms 1.0
let initial_hops = 8 (* seed events per shard *)
let hop_ttl = 6 (* cross-shard hops per seed event *)
let move_chunks = 120

(* Tight enough that a faulted move resolves (completes or aborts)
   within the scenario instead of waiting out 30 s timeouts. *)
let shard_config =
  {
    Controller.default_config with
    Controller.request_timeout = Time.seconds 2.0;
    retry_backoff_cap = Time.seconds 8.0;
    max_retries = 3;
    quiescence = Time.seconds 0.5;
  }

let tuple_of j =
  {
    Five_tuple.src_ip = Addr.of_int (0x0a_00_00_01 + (j / 100));
    dst_ip = Addr.of_string "1.1.1.5";
    src_port = 1_024 + (j mod 16_384);
    dst_port = 443;
    proto = Packet.Tcp;
  }

(* One full scenario at a given domain count, rendered to strings so
   divergences are both comparable and printable.  Every random draw
   comes either from scenario setup (before the run, domain-count
   independent) or from the PRNG stream of the shard executing the
   drawing event.

   [fp_app] is the application-state fingerprint: state tables, hop
   counters, move outcome, controller/fault counters, merged telemetry.
   [fp_sched] adds the scheduler observables (per-shard executed event
   counts, epoch count) that a scraper legitimately perturbs — its
   ticks are real events.  [fp_full] is their concatenation.  With
   [~scrape:true] every shard carries a Timeseries scraper over its own
   registry; [fp_ts] renders all shard scrapes and [fp_ticks] counts
   their samples. *)
type scenario_fp = {
  fp_app : string;
  fp_sched : string;
  fp_full : string;
  fp_ts : string;
  fp_ticks : int;
}

let run_scenario ?(scrape = false) ~domains ~seed () =
  let se = Sharded_engine.create ~domains ~epoch ~seed ~shards () in
  let router = Shard_router.create se in
  let sh = Array.init shards (Sharded_engine.shard se) in
  let tbls =
    Array.init shards (fun _ ->
        State_table.create ~granularity:Hfl.full_granularity ())
  in
  let hop_ctr =
    Array.map (fun s -> Telemetry.counter (Shard.telemetry s) "hop.executed") sh
  in
  (* Hop payloads carry the shard they execute on, so the handler can
     find its own table and PRNG without any shared mutable state. *)
  let rec hop (s, ttl) =
    let h = sh.(s) in
    let prng = Shard.prng h in
    Telemetry.incr hop_ctr.(s);
    let j = Prng.int prng 500 in
    let v = Prng.int prng 1_000_000 in
    State_table.insert tbls.(s)
      ~key:(Hfl.key_of_tuple Hfl.full_granularity (tuple_of j))
      v;
    if ttl > 0 then begin
      let dst = Prng.int prng shards in
      let delay = Time.us (float_of_int (1 + Prng.int prng 3_000)) in
      Shard.post h ~dst
        ~at:Time.(Engine.now (Shard.engine h) + delay)
        hop (dst, ttl - 1)
    end
  in
  let setup = Prng.create ~seed:(seed lxor 0x5eed11) in
  for s = 0 to shards - 1 do
    for _ = 1 to initial_hops do
      let at = Time.us (float_of_int (Prng.int setup 5_000)) in
      ignore (Engine.schedule_at (Shard.engine sh.(s)) at (fun () -> hop (s, hop_ttl)))
    done
  done;
  (* Faulted cross-shard move: controller and source on shard 0, the
     destination on shard 1 behind a remote connect.  Each side draws
     faults from an instance on its own shard. *)
  let horizon = Time.seconds 60.0 in
  let ctl_faults =
    Faults.create
      ~telemetry:(Shard.telemetry sh.(0))
      (Shard.engine sh.(0))
      (Faults.random_plan ~seed:(seed + 1) ~mbs:[ "move-src" ] ~horizon)
  in
  let agent_faults =
    Faults.create
      ~telemetry:(Shard.telemetry sh.(1))
      (Shard.engine sh.(1))
      (Faults.random_plan ~seed:(seed + 2) ~mbs:[ "move-dst" ] ~horizon)
  in
  let ctrl =
    Controller.create (Shard.engine sh.(0)) ~config:shard_config ~faults:ctl_faults
      ~telemetry:(Shard.telemetry sh.(0))
      ()
  in
  let src = Dummy_mb.create (Shard.engine sh.(0)) ~name:"move-src" () in
  let dst = Dummy_mb.create (Shard.engine sh.(1)) ~name:"move-dst" () in
  Dummy_mb.populate src ~n:move_chunks;
  Controller.connect ctrl
    (Mb_agent.create (Shard.engine sh.(0))
       ~telemetry:(Shard.telemetry sh.(0))
       ~impl:(Dummy_mb.impl src) ());
  Controller.connect ctrl
    ~remote:
      {
        Controller.to_agent = Shard_router.route router ~src:0 ~dst:1;
        to_controller = Shard_router.route router ~src:1 ~dst:0;
        agent_faults = Some agent_faults;
      }
    (Mb_agent.create (Shard.engine sh.(1))
       ~telemetry:(Shard.telemetry sh.(1))
       ~impl:(Dummy_mb.impl dst) ());
  let move_result = ref "pending" in
  ignore
    (Engine.schedule_at (Shard.engine sh.(0)) (Time.ms 3.0) (fun () ->
         Controller.move_internal ctrl ~src:"move-src" ~dst:"move-dst" ~key:Hfl.any
           ~on_done:(fun res ->
             move_result :=
               match res with
               | Ok mr ->
                 Printf.sprintf "ok chunks=%d bytes=%d events=%d" mr.Controller.chunks_moved
                   mr.Controller.bytes_moved mr.Controller.events_forwarded
               | Error e -> "error " ^ Errors.to_string e)));
  (* Optional per-shard scrapers, each on its shard's private engine
     and registry.  Ticks are virtual-time events: they auto-stop when
     the shard drains, so they never extend the run. *)
  let scrapers =
    if not scrape then [||]
    else
      Array.map
        (fun h ->
          let ts = Timeseries.create ~cap:128 (Shard.engine h) in
          List.iter
            (fun n ->
              Timeseries.add ts ~name:n
                (Timeseries.Counter (Telemetry.counter (Shard.telemetry h) n)))
            [ "hop.executed"; "channel.msgs"; "faults.dropped" ];
          Timeseries.start ts ~every:(Time.us 500.0);
          ts)
        sh
  in
  Sharded_engine.run se;
  (* Render every observable. *)
  let buf = Buffer.create 4_096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for s = 0 to shards - 1 do
    let dump =
      State_table.fold tbls.(s) ~init:[] ~f:(fun acc e ->
          (Hfl.to_string e.State_table.key, e.State_table.value) :: acc)
      |> List.sort compare
    in
    p "shard %d: hops=%d table=[" s (Telemetry.counter_value hop_ctr.(s));
    List.iter (fun (id, v) -> p " %s=%d" id v) dump;
    p " ]\n"
  done;
  p "exchanged=%d\n" (Sharded_engine.exchanged se);
  p "move: %s\n" !move_result;
  p "src chunks=%d [" (Dummy_mb.chunk_count src);
  List.iter (fun (k, v) -> p " %s=%s" k v) (List.sort compare (Dummy_mb.support_entries src));
  p " ]\n";
  p "dst chunks=%d [" (Dummy_mb.chunk_count dst);
  List.iter (fun (k, v) -> p " %s=%s" k v) (List.sort compare (Dummy_mb.support_entries dst));
  p " ]\n";
  p "controller: %s\n" (Format.asprintf "%a" Controller.pp_counters (Controller.counters ctrl));
  List.iter
    (fun (tag, f) ->
      p "faults %s: drop=%d dup=%d delay=%d crash=%d restart=%d\n" tag (Faults.dropped f)
        (Faults.duplicated f) (Faults.delayed f) (Faults.crashes_fired f)
        (Faults.restarts_fired f))
    [ ("ctl", ctl_faults); ("agent", agent_faults) ];
  let snap = Sharded_engine.merged_snapshot se in
  List.iter
    (fun name ->
      match Telemetry.snap_counter snap name with
      | Some v -> p "tel %s=%d\n" name v
      | None -> p "tel %s=-\n" name)
    [
      "hop.executed"; "channel.msgs"; "channel.bytes"; "faults.dropped";
      "faults.duplicated"; "faults.delayed"; "faults.crashes"; "faults.restarts";
      "controller.msgs_processed";
    ];
  let fp_app = Buffer.contents buf in
  let sched = Buffer.create 256 in
  let ps fmt = Printf.ksprintf (Buffer.add_string sched) fmt in
  for s = 0 to shards - 1 do
    ps "shard %d executed=%d\n" s (Engine.executed (Shard.engine sh.(s)))
  done;
  ps "epochs=%d\n" (Sharded_engine.epochs se);
  let fp_sched = Buffer.contents sched in
  let fp_ts =
    String.concat "\n"
      (Array.to_list
         (Array.mapi
            (fun s ts ->
              Printf.sprintf "shard %d ticks=%d %s" s (Timeseries.ticks ts)
                (Timeseries.to_json (Timeseries.snapshot ts)))
            scrapers))
  in
  let fp_ticks = Array.fold_left (fun acc ts -> acc + Timeseries.ticks ts) 0 scrapers in
  { fp_app; fp_sched; fp_full = fp_app ^ fp_sched; fp_ts; fp_ticks }

(* ------------------------------------------------------------------ *)
(* Batch-size invariance across the sharded pipeline                   *)
(* ------------------------------------------------------------------ *)

(* Batching must be an optimization, not a semantic change: the same
   trace, pushed through switch → NAT (shard 0) → monitor (shard 3) →
   firewall (shard 5) → sink in batches of 1, 16, 64 or 256 packets,
   must leave bit-identical middlebox state, telemetry counters and drop
   decisions — and whether the run is scheduled on 1, 2, 4 or 8 domains
   (batches cross the epoch-barrier mailboxes as single records).  Size
   1 enters through the per-packet entry points ([Switch.receive],
   [Nat.receive], ...), which wrap each packet as a 1-member batch.  The
   fingerprint deliberately excludes time-of-dispatch observables
   (latency stats, channel message counts, engine event counts):
   batching legitimately amortizes those.  Everything derived from
   packet content, packet timestamps and processing order must match
   exactly. *)
let run_pipeline ~domains ~batch ~seed =
  let se = Sharded_engine.create ~domains ~epoch ~seed ~shards () in
  let sh = Array.init shards (Sharded_engine.shard se) in
  let s0 = sh.(0) and s3 = sh.(3) and s5 = sh.(5) in
  (* -- the chain ---------------------------------------------------- *)
  let sw = Switch.create (Shard.engine s0) ~telemetry:(Shard.telemetry s0) ~name:"s1" () in
  let nat =
    Nat.create (Shard.engine s0)
      ~telemetry:(Shard.telemetry s0)
      ~external_ip:(Addr.of_string "5.5.5.5")
      ~internal_prefix:(Addr.prefix_of_string "10.0.0.0/8")
      ~name:"nat" ()
  in
  let mon = Monitor.create (Shard.engine s3) ~telemetry:(Shard.telemetry s3) ~name:"mon" () in
  let fw =
    Firewall.create (Shard.engine s5)
      ~telemetry:(Shard.telemetry s5)
      ~rules:[ { Firewall.rl_match = Hfl.of_string "tp_dst=22"; rl_action = Firewall.Deny } ]
      ~default_action:Firewall.Allow ~name:"fw" ()
  in
  let sink = ref [] in
  let sink_recv (p : Packet.t) = sink := p.Packet.id :: !sink in
  (* Switch port "mb" leads to the NAT; tp_dst=9999 traffic is dropped
     at the switch so batches split between fast path and drop. *)
  let to_nat = Link.create (Shard.engine s0) ~name:"s1-mb" ~dst:(Nat.receive nat) () in
  Switch.attach_port sw ~port:"mb" to_nat;
  ignore
    (Flow_table.install (Switch.table sw) ~priority:10 ~match_:(Hfl.of_string "tp_dst=9999")
       ~action:Flow_table.Drop);
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "mb"));
  (* Cross-shard hops: each MB's egress posts into the next shard's
     mailbox — packets one per post, batches as one record (detached
     first: pools are single-domain). *)
  if batch = 1 then begin
    let hop src ~dst recv (p : Packet.t) =
      Shard.post src ~dst ~at:(Engine.now (Shard.engine src)) recv p
    in
    Mb_base.set_egress (Nat.base nat) (hop s0 ~dst:3 (Monitor.receive mon));
    Mb_base.set_egress (Monitor.base mon) (hop s3 ~dst:5 (Firewall.receive fw));
    Mb_base.set_egress (Firewall.base fw) sink_recv
  end
  else begin
    let hop src ~dst recv b =
      Packet_batch.detach b;
      Shard.post src ~dst ~at:(Engine.now (Shard.engine src)) recv b
    in
    Link.set_dst_batch to_nat (Nat.receive_batch nat);
    Mb_base.set_egress_batch (Nat.base nat) (hop s0 ~dst:3 (Monitor.receive_batch mon));
    Mb_base.set_egress_batch (Monitor.base mon) (hop s3 ~dst:5 (Firewall.receive_batch fw));
    Mb_base.set_egress_batch (Firewall.base fw) (fun b -> Packet_batch.drain b sink_recv)
  end;
  (* -- the trace, cut into batches of [batch] in arrival order ------- *)
  let gen = Prng.create ~seed:(seed lxor 0xba7c4) in
  let dports = [| 80; 443; 22; 9999; 53 |] in
  let pkts =
    List.init 160 (fun i ->
        Packet.make ~id:i
          ~ts:(Time.us (1_000.0 +. (float_of_int i *. 50.0)))
          ~src_ip:(Addr.of_int (0x0a_00_00_01 + Prng.int gen 8))
          ~dst_ip:(Addr.of_string "1.1.1.5")
          ~src_port:(1_024 + Prng.int gen 48)
          ~dst_port:dports.(Prng.int gen (Array.length dports))
          ~proto:(if Prng.int gen 4 = 0 then Packet.Udp else Packet.Tcp)
          ())
  in
  let pool = Packet_batch.pool ~telemetry:(Shard.telemetry s0) () in
  let engine = Shard.engine s0 in
  if batch = 1 then
    List.iter (fun (p : Packet.t) -> Engine.call2_at engine p.ts Switch.receive sw p) pkts
  else
    Openmb_traffic.Trace.replay_batched engine (Openmb_traffic.Trace.of_packets pkts) ~pool ~batch
      ~window:(Time.seconds 1.0) ~into:(Switch.receive_batch sw) ();
  Sharded_engine.run se;
  (* -- the fingerprint ---------------------------------------------- *)
  let buf = Buffer.create 4_096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "sink: %s\n" (String.concat "," (List.rev_map string_of_int !sink));
  p "switch: rx=%d drop=%d\n" (Switch.packets_received sw) (Switch.packets_dropped sw);
  List.iter
    (fun (r : Flow_table.rule) -> p "rule prio=%d pkts=%d bytes=%d\n" r.priority r.packets r.bytes)
    (Flow_table.rules (Switch.table sw));
  p "nat: mappings=%d dropped=%d\n" (Nat.mapping_count nat) (Nat.packets_dropped nat);
  List.iter
    (fun (m : Nat.mapping) ->
      p "map %s:%d -> %s:%d %s created=%.6f last=%.6f\n" (Addr.to_string m.m_int_ip)
        m.m_int_port (Addr.to_string m.m_ext_ip) m.m_ext_port
        (Packet.proto_to_string m.m_proto) m.m_created m.m_last_active)
    (List.sort compare (Nat.mappings nat));
  let tot = Monitor.totals mon in
  p "monitor: pkts=%d bytes=%d tcp=%d udp=%d icmp=%d new=%d flows=%d\n" tot.Monitor.tot_pkts
    tot.tot_bytes tot.tot_tcp tot.tot_udp tot.tot_icmp tot.tot_new_flows
    (Monitor.tracked_flows mon);
  List.iter
    (fun (key, (r : Monitor.flow_record)) ->
      p "flow %s first=%.6f last=%.6f pkts=%d bytes=%d svc=%s\n" key r.fr_first r.fr_last
        r.fr_pkts r.fr_bytes r.fr_service)
    (List.sort compare
       (List.map (fun (k, r) -> (Hfl.to_string k, r)) (Monitor.flow_records mon)));
  p "firewall: allowed=%d denied=%d cached=%d\n" (Firewall.allowed fw) (Firewall.denied fw)
    (Firewall.cached_verdicts fw);
  let snap = Sharded_engine.merged_snapshot se in
  List.iter
    (fun name ->
      match Telemetry.snap_counter snap name with
      | Some v -> p "tel %s=%d\n" name v
      | None -> p "tel %s=-\n" name)
    [ "mb.pkts"; "switch.received"; "switch.dropped" ];
  Buffer.contents buf

let prop_batch_size_invariance =
  QCheck2.Test.make ~name:"batch path is batch-size invariant across domain counts"
    ~count:prop_count
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let oracle = run_pipeline ~domains:1 ~batch:1 ~seed in
      List.for_all
        (fun (batch, d) ->
          let o = run_pipeline ~domains:d ~batch ~seed in
          String.equal o oracle
          || QCheck2.Test.fail_reportf
               "seed %d: batch %d at domains=%d diverged from the batch-1 oracle\n\
                --- batch 1, domains=1 ---\n\
                %s\n\
                --- batch %d, domains=%d ---\n\
                %s"
               seed batch d oracle batch d o)
        (List.concat_map
           (fun batch -> List.map (fun d -> (batch, d)) [ 1; 2; 4; 8 ])
           [ 1; 16; 64; 256 ]
        |> List.tl))

(* ------------------------------------------------------------------ *)
(* The determinism property                                            *)
(* ------------------------------------------------------------------ *)

let prop_domain_invariance =
  QCheck2.Test.make ~name:"sharded outcome is domain-count invariant" ~count:prop_count
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let oracle = run_scenario ~domains:1 ~seed () in
      List.for_all
        (fun d ->
          let o = run_scenario ~domains:d ~seed () in
          String.equal o.fp_full oracle.fp_full
          || QCheck2.Test.fail_reportf
               "seed %d: domains=%d diverged from 1-domain oracle\n--- oracle ---\n%s\n--- domains=%d ---\n%s"
               seed d oracle.fp_full d o.fp_full)
        [ 2; 4; 8 ])

(* Observability neutrality: attaching per-shard scrapers must leave
   the application state fingerprint bit-identical to the scrape-free
   oracle — sampling only reads — and the scraped series themselves
   must be identical at every domain count (the scrape schedule is
   virtual-time, so what a tick observes cannot depend on domain
   scheduling). *)
let prop_scrape_neutral =
  QCheck2.Test.make ~name:"scraping is state-neutral and domain-count invariant"
    ~count:prop_count
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let oracle = run_scenario ~domains:1 ~seed () in
      let obs1 = run_scenario ~scrape:true ~domains:1 ~seed () in
      if not (String.equal obs1.fp_app oracle.fp_app) then
        QCheck2.Test.fail_reportf
          "seed %d: scraping perturbed application state\n--- off ---\n%s\n--- on ---\n%s"
          seed oracle.fp_app obs1.fp_app;
      if obs1.fp_ticks = 0 then
        QCheck2.Test.fail_reportf "seed %d: scraper never sampled" seed;
      List.for_all
        (fun d ->
          let o = run_scenario ~scrape:true ~domains:d ~seed () in
          if not (String.equal o.fp_app oracle.fp_app) then
            QCheck2.Test.fail_reportf
              "seed %d: domains=%d scrape run perturbed application state" seed d;
          String.equal o.fp_ts obs1.fp_ts
          || QCheck2.Test.fail_reportf
               "seed %d: domains=%d scraped series diverged\n--- domains=1 ---\n%s\n--- domains=%d ---\n%s"
               seed d obs1.fp_ts d o.fp_ts)
        [ 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* Directed smokes                                                     *)
(* ------------------------------------------------------------------ *)

(* A seed that once broke scrape neutrality: the coordinator used to
   double an idle-skip stride only while no event ran, so scraper ticks
   kept the stride at one epoch while the scrape-free run stretched it,
   and a cross-shard post made during a long stride was clamped to a
   later horizon.  The controller then saw a different message count. *)
let test_scrape_neutral_seed_132272 () =
  let seed = 132272 in
  let oracle = run_scenario ~domains:1 ~seed () in
  let scraped = run_scenario ~scrape:true ~domains:1 ~seed () in
  Alcotest.(check bool) "scraper sampled" true (scraped.fp_ticks > 0);
  Alcotest.(check string) "application state unchanged by scraping" oracle.fp_app scraped.fp_app


(* A ring of posts around 4 shards on 4 real domains: every hop is
   cross-shard, so this exercises outboxes, barrier merge and horizon
   clamping with genuine parallelism. *)
let test_ring_4_domains () =
  let n = 4 in
  let se = Sharded_engine.create ~domains:n ~epoch ~seed:1 ~shards:n () in
  let sh = Array.init n (Sharded_engine.shard se) in
  let hits = Array.make n 0 in
  let rounds = 100 in
  let rec ring (s, k) =
    hits.(s) <- hits.(s) + 1;
    if k > 0 then begin
      let dst = (s + 1) mod n in
      Shard.post sh.(s) ~dst
        ~at:(Engine.now (Shard.engine sh.(s)))
        ring
        (dst, k - 1)
    end
  in
  ignore (Engine.schedule_at (Shard.engine sh.(0)) (Time.us 1.0) (fun () -> ring (0, rounds)));
  Sharded_engine.run se;
  Alcotest.(check int) "total hops" (rounds + 1) (Array.fold_left ( + ) 0 hits);
  Alcotest.(check int) "all hops crossed shards" rounds (Sharded_engine.exchanged se);
  Alcotest.(check int) "domains ran" n (Sharded_engine.domains se)

(* A clean (fault-free) move whose destination lives on another shard:
   the full controller pipeline over the epoch mailboxes must deliver
   every chunk and delete the source copy after quiescence. *)
let test_remote_move () =
  let se = Sharded_engine.create ~domains:2 ~epoch ~seed:3 ~shards:2 () in
  let router = Shard_router.create se in
  let s0 = Sharded_engine.shard se 0 and s1 = Sharded_engine.shard se 1 in
  let ctrl =
    Controller.create (Shard.engine s0) ~config:shard_config
      ~telemetry:(Shard.telemetry s0) ()
  in
  let src = Dummy_mb.create (Shard.engine s0) ~name:"move-src" () in
  let dst = Dummy_mb.create (Shard.engine s1) ~name:"move-dst" () in
  Dummy_mb.populate src ~n:move_chunks;
  let expected = List.sort compare (Dummy_mb.support_entries src) in
  Controller.connect ctrl
    (Mb_agent.create (Shard.engine s0) ~telemetry:(Shard.telemetry s0)
       ~impl:(Dummy_mb.impl src) ());
  Controller.connect ctrl
    ~remote:
      {
        Controller.to_agent = Shard_router.route router ~src:0 ~dst:1;
        to_controller = Shard_router.route router ~src:1 ~dst:0;
        agent_faults = None;
      }
    (Mb_agent.create (Shard.engine s1) ~telemetry:(Shard.telemetry s1)
       ~impl:(Dummy_mb.impl dst) ());
  let result = ref None in
  ignore
    (Engine.schedule_at (Shard.engine s0) (Time.ms 1.0) (fun () ->
         Controller.move_internal ctrl ~src:"move-src" ~dst:"move-dst" ~key:Hfl.any
           ~on_done:(fun res -> result := Some res)));
  Sharded_engine.run se;
  (match !result with
  | Some (Ok mr) ->
    Alcotest.(check int) "chunks moved" move_chunks mr.Controller.chunks_moved
  | Some (Error e) -> Alcotest.failf "move failed: %s" (Errors.to_string e)
  | None -> Alcotest.fail "move never completed");
  Alcotest.(check (list (pair string string)))
    "destination holds the moved state" expected
    (List.sort compare (Dummy_mb.support_entries dst));
  Alcotest.(check int) "source copy deleted" 0 (Dummy_mb.chunk_count src);
  Alcotest.(check bool) "mailboxes carried traffic" true (Sharded_engine.exchanged se > 0)

(* The canonical hash must ignore direction, and the router must agree
   with it. *)
let test_canonical_hash () =
  for j = 0 to 999 do
    let t = tuple_of j in
    let k = Five_tuple.pack t and r = Five_tuple.pack (Five_tuple.reverse t) in
    Alcotest.(check int)
      (Printf.sprintf "flow %d: canonical hash direction-insensitive" j)
      (Five_tuple.packed_canonical_hash k)
      (Five_tuple.packed_canonical_hash r)
  done

let () =
  Alcotest.run "shard"
    [
      ( "sharded-engine",
        [
          Alcotest.test_case "4-domain ring" `Quick test_ring_4_domains;
          Alcotest.test_case "remote move" `Quick test_remote_move;
          Alcotest.test_case "canonical hash" `Quick test_canonical_hash;
          Alcotest.test_case "scrape neutral at seed 132272" `Quick
            test_scrape_neutral_seed_132272;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_domain_invariance;
              prop_batch_size_invariance;
              prop_scrape_neutral;
            ] );
    ]
