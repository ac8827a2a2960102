(* Million-flow macro benchmark of the simulator core.

   Drives [flows] concurrent TCP flows (default one million) through a
   switch -> NAT -> monitor chain while a 10k-chunk moveInternal runs
   between a dummy pair, then reports raw event throughput and heap
   footprint.  This is the workload the timer wheel and pooled event
   cells exist for: tens of millions of near-future events with only a
   handful of live allocations per packet.

   Flows arrive incrementally — a self-rescheduling generator
   materializes them in batches just before their start times — so the
   pending-event set stays proportional to the arrival rate, not to
   the total flow count.  The NAT is given a carrier-grade external
   address pool: one address caps out at ~45k concurrent mappings.

   bench scale [--flows N] appends its numbers to BENCH_micro.json
   under the "scale" label.

   bench scale --domains D [--flows N] instead runs the sharded-core
   variant: the flow space is hash-partitioned across 8 logical shards
   (each its own switch -> NAT -> monitor chain on a private engine),
   run on D OCaml domains with epoch-barrier exchange.  The logical
   shard count is fixed so results are bit-identical across D — the
   row lands under the "scale-dD" label, and the run prints a state
   fingerprint that must not vary with D.  About 1 flow in 64 is
   emitted from a neighbouring shard, and the concurrent move runs
   from a shard-0 MB to a shard-1 MB through a remote-connected
   controller, so the cross-shard mailboxes see real traffic. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic
open Openmb_apps

(* Set by the driver (bench scale --flows N / --domains D
   / --min-events-per-sec R). *)
let flows = ref 1_000_000
let domains = ref 0 (* 0 = legacy single-engine path *)
let min_events_per_sec = ref 0.0

let internal_prefix = "10.0.0.0/8"
let batch_size = 1_000
let inter_arrival = Time.us 50.0 (* one flow every 50us of sim time *)
let flow_duration = 0.01 (* seconds: packets spread over 10ms *)
let move_chunks = 10_000

(* Logical shards of the sharded variant — fixed, never derived from
   the domain count, so every --domains value runs the identical
   partition and the results can be diffed bit-for-bit. *)
let logical_shards = 8
let epoch = Time.ms 2.0

(* The dp must outrun the offered load (~100k pps at the default
   arrival spacing) or the backlog grows without bound: give both MBs a
   1us/packet cost model instead of their PRADS/NAT-calibrated ones. *)
let fast_cost base = { base with Southbound.per_packet = Time.us 1.0 }

(* Flow [i]'s distinct internal (ip, port): 16k ports per address,
   consecutive addresses from 10.0.0.0/8. *)
let tuple_of_flow i =
  let ip = Addr.of_int (Addr.to_int (Addr.of_string "10.0.0.1") + (i / 16_384)) in
  {
    Five_tuple.src_ip = ip;
    dst_ip = Addr.of_string "1.1.1.5";
    src_port = 1_024 + (i mod 16_384);
    dst_port = 443;
    proto = Packet.Tcp;
  }

(* NAT external pool sized for [n] concurrent mappings, based at
   [base] (per-shard bases keep the pools disjoint). *)
let nat_pool base n =
  let per_ip = 45_001 in
  let needed = ((n + per_ip - 1) / per_ip) + 1 in
  List.init needed (fun i -> Addr.of_int (Addr.to_int base + i + 1))

let append_row = Util.append_row

let gate_events_per_sec events_per_sec =
  if !min_events_per_sec > 0.0 && events_per_sec < !min_events_per_sec then
    failwith
      (Printf.sprintf "scale: %.0f events/sec below the --min-events-per-sec %.0f gate"
         events_per_sec !min_events_per_sec)

(* ------------------------------------------------------------------ *)
(* Legacy single-engine run ("scale" label)                            *)
(* ------------------------------------------------------------------ *)

let run_single () =
  let n = !flows in
  Util.banner
    (Printf.sprintf "scale: %d concurrent flows + %dk-chunk move on one engine"
       n (move_chunks / 1000));
  let tel = Telemetry.create ~span_capacity:65_536 () in
  let engine = Engine.create ~telemetry:tel () in
  let nat =
    Nat.create engine ~telemetry:tel ~name:"nat" ~cost:(fast_cost Nat.default_cost)
      ~external_ip:(Addr.of_string "5.5.5.0")
      ~external_ips:(nat_pool (Addr.of_string "5.5.5.0") n)
      ~internal_prefix:(Addr.prefix_of_string internal_prefix)
      ()
  in
  let monitor =
    Monitor.create engine ~telemetry:tel ~name:"monitor"
      ~cost:(fast_cost Monitor.default_cost) ()
  in
  let egress = ref 0 in
  Mb_base.set_egress (Nat.base nat) (fun p -> Monitor.receive monitor p);
  Mb_base.set_egress (Monitor.base monitor) (fun _ -> incr egress);
  let sw = Switch.create engine ~telemetry:tel ~name:"edge" () in
  Switch.attach_port sw ~port:"nat"
    (Link.create engine ~name:"sw-nat" ~dst:(Nat.receive nat) ());
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:[]
       ~action:(Flow_table.Forward "nat"));
  (* Incremental arrivals: each generator event materializes one batch
     of flows and schedules the next batch at its first start time.
     Only originator-direction packets are injected — the reverse path
     would need a translated return trace, and the forward path is
     what exercises mapping creation. *)
  let ids = Trace.Id_gen.create () in
  let prng = Prng.create ~seed:7 in
  let internal = Addr.prefix_of_string internal_prefix in
  let start_of i = Time.to_seconds inter_arrival *. float_of_int i in
  let emit_flow i =
    List.iter
      (fun (p : Packet.t) ->
        if Addr.in_prefix p.src_ip internal then
          Engine.call2_at engine p.ts Switch.receive sw p)
      (Flow_gen.tcp_flow ~ids ~prng ~tuple:(tuple_of_flow i) ~start:(start_of i)
         ~duration:flow_duration ~data_packets:1 ~content:Flow_gen.empty_content ())
  in
  let rec emit_batch b () =
    let lo = b * batch_size and hi = min n ((b + 1) * batch_size) in
    for i = lo to hi - 1 do
      emit_flow i
    done;
    if hi < n then
      ignore
        (Engine.schedule_at engine (Time.seconds (start_of hi)) (emit_batch (b + 1)))
  in
  emit_batch 0 ();
  (* Concurrent control-plane work: a 10k-chunk moveInternal between a
     dummy pair sharing the engine, kicked off mid-run. *)
  let ctrl = Controller.create engine ~telemetry:tel () in
  let src = Dummy_mb.create engine ~name:"move-src" () in
  let dst = Dummy_mb.create engine ~name:"move-dst" () in
  Dummy_mb.populate src ~n:move_chunks;
  Controller.connect ctrl
    (Mb_agent.create engine ~telemetry:tel ~impl:(Dummy_mb.impl src) ());
  Controller.connect ctrl
    (Mb_agent.create engine ~telemetry:tel ~impl:(Dummy_mb.impl dst) ());
  let move_ms = ref nan in
  ignore
    (Engine.schedule_at engine
       (Time.seconds (start_of (n / 2)))
       (fun () ->
         Controller.move_internal ctrl ~src:"move-src" ~dst:"move-dst"
           ~key:Hfl.any ~on_done:(fun res ->
             match res with
             | Ok mr -> move_ms := Util.ms mr.Controller.duration
             | Error e -> failwith (Errors.to_string e))));
  (* Opt-in observability (--dash): scraper + SLOs + per-MB series.
     Inside the timed region by design — the dashboard run is a demo,
     not the gated number ([bench obs] measures the overhead). *)
  let obs =
    if !Util.dash then begin
      let ts, slo = Util.attach_obs ~every:(Time.ms 10.0) tel engine in
      Mb_base.register_series (Nat.base nat) ts;
      Mb_base.register_series (Monitor.base monitor) ts;
      Timeseries.add ts ~name:"nat.mappings"
        (Timeseries.Poll (fun () -> float_of_int (Nat.mapping_count nat)));
      Some (ts, slo)
    end
    else None
  in
  let t0 = Monotonic_clock.now () in
  Engine.run engine;
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  let executed = Engine.executed engine in
  let events_per_sec = float_of_int executed /. wall in
  let gc = Gc.stat () in
  let stats = Engine.pool_stats engine in
  Util.row "  %-28s %12d\n" "flows" n;
  Util.row "  %-28s %12d\n" "events executed" executed;
  Util.row "  %-28s %12.1f\n" "wall seconds" wall;
  Util.row "  %-28s %12.0f\n" "events/sec" events_per_sec;
  Util.row "  %-28s %12d\n" "NAT mappings" (Nat.mapping_count nat);
  Util.row "  %-28s %12d\n" "monitor flows" (Monitor.tracked_flows monitor);
  Util.row "  %-28s %12d\n" "egress packets" !egress;
  Util.row "  %-28s %12.1f\n" "move duration (ms)" !move_ms;
  Util.row "  %-28s %12d\n" "event pool high water" stats.Engine.high_water;
  Util.row "  %-28s %12d\n" "peak heap words" gc.Gc.top_heap_words;
  Util.row "  %-28s %12d\n" "live words at end" gc.Gc.live_words;
  Util.maybe_dump_trace tel;
  Util.maybe_dash obs;
  if Nat.mapping_count nat <> n then
    failwith
      (Printf.sprintf "scale: expected %d NAT mappings, got %d" n
         (Nat.mapping_count nat));
  if Float.is_nan !move_ms then failwith "scale: concurrent move did not complete";
  gate_events_per_sec events_per_sec;
  (* Append the row so perf history rides along with the micro numbers. *)
  let open Openmb_wire in
  append_row "scale"
    [
      ("flows", Json.Int n);
      ("events_executed", Json.Int executed);
      ("wall_seconds", Json.Float wall);
      ("events_per_sec", Json.Float events_per_sec);
      ("move_ms", Json.Float !move_ms);
      ("pool_high_water", Json.Int stats.Engine.high_water);
      ("peak_heap_words", Json.Int gc.Gc.top_heap_words);
      ("live_words_end", Json.Int gc.Gc.live_words);
    ]

(* ------------------------------------------------------------------ *)
(* Sharded run ("scale-dD" labels)                                     *)
(* ------------------------------------------------------------------ *)

let run_sharded () =
  let n = !flows and nd = !domains in
  let s_count = logical_shards in
  Util.banner
    (Printf.sprintf
       "scale: %d flows across %d logical shards on %d domain(s) + cross-shard move"
       n s_count nd);
  let se =
    Sharded_engine.create ~domains:nd ~epoch ~seed:7 ~span_capacity:4_096
      ~shards:s_count ()
  in
  let router = Shard_router.create se in
  (* Partition the flow space once, up front: [owners] is the owning
     shard per flow (canonical five-tuple hash), [gens] the shard that
     emits it — the owner, except every 64th flow enters one shard over
     so the epoch mailboxes carry steady packet traffic. *)
  let owners = Bytes.create n in
  let gen_counts = Array.make s_count 0 in
  for i = 0 to n - 1 do
    let o = Shard_router.place router (Five_tuple.pack (tuple_of_flow i)) in
    Bytes.unsafe_set owners i (Char.unsafe_chr o);
    let g = if i mod 64 = 0 then (o + 1) mod s_count else o in
    gen_counts.(g) <- gen_counts.(g) + 1
  done;
  let owner_counts = Shard_router.placements router in
  let gen_flows = Array.init s_count (fun g -> Array.make gen_counts.(g) 0) in
  let gen_fill = Array.make s_count 0 in
  for i = 0 to n - 1 do
    let o = Char.code (Bytes.unsafe_get owners i) in
    let g = if i mod 64 = 0 then (o + 1) mod s_count else o in
    gen_flows.(g).(gen_fill.(g)) <- i;
    gen_fill.(g) <- gen_fill.(g) + 1
  done;
  (* One switch -> NAT -> monitor chain per shard, living entirely on
     that shard's engine and telemetry. *)
  let shard_of = Array.init s_count (fun i -> Sharded_engine.shard se i) in
  let egress = Array.make s_count 0 in
  let internal = Addr.prefix_of_string internal_prefix in
  let nats, monitors, switches =
    let mk s =
      let sh = shard_of.(s) in
      let eng = Shard.engine sh and tel = Shard.telemetry sh in
      let pool_base = Addr.of_int (Addr.to_int (Addr.of_string "5.0.0.0") + (s lsl 16)) in
      let nat =
        Nat.create eng ~telemetry:tel
          ~name:(Printf.sprintf "nat%d" s)
          ~cost:(fast_cost Nat.default_cost) ~external_ip:pool_base
          ~external_ips:(nat_pool pool_base owner_counts.(s))
          ~internal_prefix:internal ()
      in
      let monitor =
        Monitor.create eng ~telemetry:tel
          ~name:(Printf.sprintf "monitor%d" s)
          ~cost:(fast_cost Monitor.default_cost) ()
      in
      Mb_base.set_egress (Nat.base nat) (fun p -> Monitor.receive monitor p);
      Mb_base.set_egress (Monitor.base monitor) (fun _ ->
          egress.(s) <- egress.(s) + 1);
      let sw = Switch.create eng ~telemetry:tel ~name:(Printf.sprintf "edge%d" s) () in
      Switch.attach_port sw ~port:"nat"
        (Link.create eng ~name:(Printf.sprintf "sw-nat%d" s) ~dst:(Nat.receive nat) ());
      ignore
        (Flow_table.install (Switch.table sw) ~priority:1 ~match_:[]
           ~action:(Flow_table.Forward "nat"));
      (nat, monitor, sw)
    in
    let all = Array.init s_count mk in
    ( Array.map (fun (a, _, _) -> a) all,
      Array.map (fun (_, b, _) -> b) all,
      Array.map (fun (_, _, c) -> c) all )
  in
  (* Reused ingress closures, one per destination shard, so the
     per-packet post stays allocation-free on the same-shard fast
     path. *)
  let recvs = Array.init s_count (fun s -> fun p -> Switch.receive switches.(s) p) in
  let start_of i = Time.to_seconds inter_arrival *. float_of_int i in
  (* Per-shard incremental generators: each shard materializes its own
     slice of the arrival sequence in batches, using its private PRNG
     stream and id generator, and posts every packet toward the owning
     shard's switch (a local short-circuit for 63 in 64 flows). *)
  let start_generator g =
    let mine = gen_flows.(g) in
    if Array.length mine > 0 then begin
      let sh = shard_of.(g) in
      let eng = Shard.engine sh and prng = Shard.prng sh in
      let ids = Trace.Id_gen.create () in
      let emit_flow i =
        let o = Char.code (Bytes.unsafe_get owners i) in
        List.iter
          (fun (p : Packet.t) ->
            if Addr.in_prefix p.src_ip internal then
              Shard.post sh ~dst:o ~at:p.ts recvs.(o) p)
          (Flow_gen.tcp_flow ~ids ~prng ~tuple:(tuple_of_flow i) ~start:(start_of i)
             ~duration:flow_duration ~data_packets:1 ~content:Flow_gen.empty_content ())
      in
      let rec emit_batch pos () =
        let hi = min (Array.length mine) (pos + batch_size) in
        for k = pos to hi - 1 do
          emit_flow mine.(k)
        done;
        if hi < Array.length mine then
          ignore
            (Engine.schedule_at eng
               (Time.seconds (start_of mine.(hi)))
               (emit_batch hi))
      in
      emit_batch 0 ()
    end
  in
  for g = 0 to s_count - 1 do
    start_generator g
  done;
  (* Concurrent control-plane work, now genuinely cross-shard: the
     controller and source MB live on shard 0, the destination MB on
     shard 1, connected through the epoch mailboxes. *)
  let s0 = shard_of.(0) and s1 = shard_of.(1) in
  let ctrl =
    Controller.create (Shard.engine s0) ~telemetry:(Shard.telemetry s0) ()
  in
  let src = Dummy_mb.create (Shard.engine s0) ~name:"move-src" () in
  let dst = Dummy_mb.create (Shard.engine s1) ~name:"move-dst" () in
  Dummy_mb.populate src ~n:move_chunks;
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
  let move_ms = ref nan in
  ignore
    (Engine.schedule_at (Shard.engine s0)
       (Time.seconds (start_of (n / 2)))
       (fun () ->
         Controller.move_internal ctrl ~src:"move-src" ~dst:"move-dst" ~key:Hfl.any
           ~on_done:(fun res ->
             match res with
             | Ok mr -> move_ms := Util.ms mr.Controller.duration
             | Error e -> failwith (Errors.to_string e))));
  (* Opt-in observability (--dash): one scraper per shard, each on its
     own engine and registry.  The scrape ticks are virtual-time events
     and therefore deterministic — the state fingerprint still must not
     vary with --domains, dashboard or not. *)
  let obs =
    if !Util.dash then
      Some
        (Array.init s_count (fun s ->
             let sh = shard_of.(s) in
             let ts, slo =
               Util.attach_obs ~every:(Time.ms 10.0) (Shard.telemetry sh)
                 (Shard.engine sh)
             in
             Mb_base.register_series (Nat.base nats.(s)) ts;
             Mb_base.register_series (Monitor.base monitors.(s)) ts;
             (ts, slo)))
    else None
  in
  let t0 = Monotonic_clock.now () in
  Sharded_engine.run se;
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  let executed = Sharded_engine.executed se in
  let events_per_sec = float_of_int executed /. wall in
  let gc = Gc.stat () in
  let per_shard_executed =
    Array.init s_count (fun s -> Engine.executed (Shard.engine shard_of.(s)))
  in
  let per_shard_pool_hw =
    Array.init s_count (fun s ->
        (Engine.pool_stats (Shard.engine shard_of.(s))).Engine.high_water)
  in
  let skew = Shard_router.skew router in
  let mappings = Array.map Nat.mapping_count nats in
  let total_mappings = Array.fold_left ( + ) 0 mappings in
  (* Domain-count-independent fingerprint: every per-shard end state
     plus the merged registry's delivery counters.  Identical seeds and
     shard counts must print identical fingerprints for every
     --domains value — the quick bit-identity check without rerunning
     the determinism property. *)
  let fingerprint =
    let snap = Sharded_engine.merged_snapshot se in
    Hashtbl.hash
      ( Array.to_list mappings,
        Array.to_list (Array.map Monitor.tracked_flows monitors),
        Array.to_list egress,
        Array.to_list per_shard_executed,
        Controller.counters ctrl,
        Telemetry.snap_counter snap "channel.msgs",
        Telemetry.snap_counter snap "channel.bytes" )
    land 0xFFFFFF
  in
  Util.row "  %-28s %12d\n" "flows" n;
  Util.row "  %-28s %12d\n" "logical shards" s_count;
  Util.row "  %-28s %12d\n" "domains" (Sharded_engine.domains se);
  Util.row "  %-28s %12d\n" "events executed" executed;
  Util.row "  %-28s %12.1f\n" "wall seconds" wall;
  Util.row "  %-28s %12.0f\n" "events/sec" events_per_sec;
  Util.row "  %-28s %12d\n" "epoch barriers" (Sharded_engine.epochs se);
  Util.row "  %-28s %12d\n" "cross-shard messages" (Sharded_engine.exchanged se);
  Util.row "  %-28s %12.3f\n" "shard skew (max/mean)" skew;
  Util.row "  %-28s %12d\n" "NAT mappings (sum)" total_mappings;
  Util.row "  %-28s %12.1f\n" "move duration (ms)" !move_ms;
  Util.row "  %-28s %12d\n" "peak heap words" gc.Gc.top_heap_words;
  Util.row "  %-28s %12s\n" "state fingerprint" (Printf.sprintf "%06x" fingerprint);
  for s = 0 to s_count - 1 do
    Util.row "  shard %d: %9d flows %10d events %9.0f ev/s  pool hw %8d\n" s
      owner_counts.(s) per_shard_executed.(s)
      (float_of_int per_shard_executed.(s) /. wall)
      per_shard_pool_hw.(s)
  done;
  (match obs with
  | None -> ()
  | Some arr ->
    (* Shard 0 carries the controller; its dashboard is the interesting
       one.  The merged snapshot is the fleet view — print its size as
       a cheap existence proof and to keep it exercised. *)
    Util.maybe_dash (Some arr.(0));
    let merged =
      Timeseries.merge_all
        (Array.to_list (Array.map (fun (ts, _) -> Timeseries.snapshot ts) arr))
    in
    Util.row "  %-28s %12d\n" "merged obs json bytes"
      (String.length (Timeseries.to_json merged)));
  if total_mappings <> n then
    failwith
      (Printf.sprintf "scale: expected %d NAT mappings across shards, got %d" n
         total_mappings);
  Array.iteri
    (fun s m ->
      if m <> owner_counts.(s) then
        failwith
          (Printf.sprintf "scale: shard %d owns %d flows but holds %d mappings" s
             owner_counts.(s) m))
    mappings;
  if Float.is_nan !move_ms then failwith "scale: concurrent move did not complete";
  gate_events_per_sec events_per_sec;
  let open Openmb_wire in
  append_row
    (Printf.sprintf "scale-d%d" nd)
    [
      ("flows", Json.Int n);
      ("shards", Json.Int s_count);
      ("domains", Json.Int (Sharded_engine.domains se));
      ("events_executed", Json.Int executed);
      ("wall_seconds", Json.Float wall);
      ("events_per_sec", Json.Float events_per_sec);
      ( "per_shard_events",
        Json.List (Array.to_list (Array.map (fun e -> Json.Int e) per_shard_executed))
      );
      ( "per_shard_events_per_sec",
        Json.List
          (Array.to_list
             (Array.map
                (fun e -> Json.Float (float_of_int e /. wall))
                per_shard_executed)) );
      ( "per_shard_pool_high_water",
        Json.List (Array.to_list (Array.map (fun p -> Json.Int p) per_shard_pool_hw))
      );
      ("shard_skew", Json.Float skew);
      ("epoch_barriers", Json.Int (Sharded_engine.epochs se));
      ("cross_shard_messages", Json.Int (Sharded_engine.exchanged se));
      ("move_ms", Json.Float !move_ms);
      ("fingerprint", Json.Int fingerprint);
      ("peak_heap_words", Json.Int gc.Gc.top_heap_words);
      ("live_words_end", Json.Int gc.Gc.live_words);
    ]

let run () = if !domains > 0 then run_sharded () else run_single ()
