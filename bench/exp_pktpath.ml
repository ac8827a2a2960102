(* Vectorized packet-path macro benchmark.

   Pushes the same trace through the switch -> NAT -> monitor chain at
   several batching factors and reports end-to-end packets per second of
   wall time, so the BENCH_micro.json history tracks what the
   batching factor buys on the one packet path.

   There is one packet path; the factor only sets how many packets
   travel together.  --batch 1 replays the trace one packet per event
   through the per-packet entry points (Trace.replay into
   Switch.receive, Nat.receive, Monitor.receive), each of which wraps
   its packet as a 1-member batch, so every hop costs one engine event
   per packet.  --batch N (N > 1) groups the trace through a
   size-or-deadline window, so the whole chain costs one engine event
   per batch per hop.

   bench pktpath [--batch N]... sweeps the requested factors (default
   1, 16, 64, 256), appending one "pktpath-bN" row per factor, and fails
   when one of those four factors misses its absolute floors: a packet
   rate (wall time on a loaded single-core machine swings by tens of
   percent, so the floor only catches a collapse), a
   minor-words-per-packet ceiling (allocation is deterministic, so that
   gate is tight), a ceiling on the engine cells queued at once and,
   when batched, a ceiling on the batches live at once.  The factors
   are not gated against each other: batch 1 is the same path, so a
   ratio would penalize making it faster. *)

open Openmb_sim
open Openmb_net
open Openmb_core
open Openmb_mbox
open Openmb_traffic

(* Set from the command line (bench pktpath --batch N [--batch N...]). *)
let batches : int list ref = ref []

let default_batches = [ 1; 16; 64; 256 ]
let packets = 200_000
let flow_count = 4_096
let inter_arrival = Time.us 1.0
let window = Time.us 500.0
let internal_prefix = "10.0.0.0/8"

(* The gates of the recorded factors: minimum packets/sec, maximum
   minor words/packet (measured 40.8, 14.4, 13.1 and 12.8: the NAT's
   translated copy is returned bare, a new flow allocates only its
   state, and no introspection event is built without an agent; of the
   floats a batch-1 packet boxes, its latency is boxed once per MB and
   recorded in [Stats] without allocating) and, on the batched
   factors, maximum batch-pool high water (measured 7, 4 and 4:
   the replay fills each batch when its event fires, so only batches in
   flight are live).  Other factors are reported ungated. *)
let floors =
  [
    (1, (100_000.0, 42.0, None));
    (16, (300_000.0, 16.0, Some 16));
    (64, (300_000.0, 15.0, Some 16));
    (256, (300_000.0, 14.0, Some 16));
  ]

(* The engine-cell ceiling of the recorded factors.  The replay holds
   one event in flight, so the cells queued at once are the hops'
   events in flight (measured 64, 8, 5 and 4 at 1, 16, 64 and 256); a
   replay that scheduled every packet or batch up front held one cell
   each (200,000, 12,500, 3,125 and 782). *)
let max_engine_cells = 256

let fast_cost base = { base with Southbound.per_packet = Time.us 1.0 }

let tuple_of_flow i =
  {
    Five_tuple.src_ip = Addr.of_int (Addr.to_int (Addr.of_string "10.0.0.1") + (i / 16_384));
    dst_ip = Addr.of_string "1.1.1.5";
    src_port = 1_024 + (i mod 16_384);
    dst_port = 443;
    proto = Packet.Tcp;
  }

(* The same trace for every factor: [packets] data packets round-robined
   over [flow_count] flows at a fixed arrival spacing.  Materialized
   once, outside the measured region. *)
let make_trace () =
  Trace.of_packets
    (List.init packets (fun i ->
         let tup = tuple_of_flow (i mod flow_count) in
         Packet.make ~id:i
           ~ts:(Time.seconds (Time.to_seconds inter_arrival *. float_of_int i))
           ~src_ip:tup.Five_tuple.src_ip ~dst_ip:tup.dst_ip ~src_port:tup.src_port
           ~dst_port:tup.dst_port ~proto:tup.proto ()))

type result = {
  r_batch : int;
  r_pps : float;
  r_wall : float;
  r_events : int;
  r_occupancy : float;  (* mean members per switch batch *)
  r_pool_hw : int;  (* peak outstanding batches across the run's pools *)
  r_engine_hw : int;  (* peak engine cells queued at once *)
  r_minor_words : float;
}

let run_one trace ~batch =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let nat =
    Nat.create engine ~telemetry:tel ~name:"nat" ~cost:(fast_cost Nat.default_cost)
      ~external_ip:(Addr.of_string "5.5.5.0")
      ~external_ips:(List.init 2 (fun i -> Addr.of_int (Addr.to_int (Addr.of_string "5.5.5.0") + i + 1)))
      ~internal_prefix:(Addr.prefix_of_string internal_prefix)
      ()
  in
  let monitor =
    Monitor.create engine ~telemetry:tel ~name:"monitor"
      ~cost:(fast_cost Monitor.default_cost) ()
  in
  let egress = ref 0 in
  Mb_base.set_egress (Nat.base nat) (Monitor.receive monitor);
  Mb_base.set_egress (Monitor.base monitor) (fun _ -> incr egress);
  let sw = Switch.create engine ~telemetry:tel ~name:"edge" () in
  let to_nat = Link.create engine ~name:"sw-nat" ~dst:(Nat.receive nat) () in
  Switch.attach_port sw ~port:"nat" to_nat;
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "nat"));
  let pool = Packet_batch.pool ~telemetry:tel () in
  if batch > 1 then begin
    Link.set_dst_batch to_nat (Nat.receive_batch nat);
    Mb_base.set_egress_batch (Nat.base nat) (Monitor.receive_batch monitor);
    Mb_base.set_egress_batch (Monitor.base monitor) (fun b ->
        egress := !egress + Packet_batch.length b;
        Packet_batch.release b)
  end;
  (* Opt-in observability (--dash): the 0.2 s virtual horizon suits the
     scraper's default 1 ms cadence.  A dashboard run is a demo, not a
     gated number. *)
  let obs =
    if !Util.dash then begin
      let ts, slo = Util.attach_obs tel engine in
      Mb_base.register_series (Nat.base nat) ts;
      Mb_base.register_series (Monitor.base monitor) ts;
      Some (ts, slo)
    end
    else None
  in
  (* Setup (trace scheduling) happens inside the measured region for
     both modes — it is the injection half of the data path. *)
  let t0 = Monotonic_clock.now () in
  let mw0 = Gc.minor_words () in
  if batch > 1 then
    Trace.replay_batched engine trace ~pool ~batch ~window
      ~into:(Switch.receive_batch sw) ()
  else Trace.replay engine trace ~into:(Switch.receive sw);
  Engine.run engine;
  let mw1 = Gc.minor_words () in
  let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
  if !egress <> packets then
    failwith
      (Printf.sprintf "pktpath: batch %d delivered %d of %d packets" batch !egress
         packets);
  if Nat.mapping_count nat <> flow_count then
    failwith
      (Printf.sprintf "pktpath: batch %d created %d of %d NAT mappings" batch
         (Nat.mapping_count nat) flow_count);
  let h_occ = Telemetry.histogram tel "switch.batch_occupancy" in
  (* observe_count stores a count k as k ns, and hist_sum reports
     seconds — scale back to raw counts. *)
  let occupancy =
    if Telemetry.hist_count h_occ = 0 then 1.0
    else Telemetry.hist_sum h_occ *. 1e9 /. float_of_int (Telemetry.hist_count h_occ)
  in
  let pool_hw =
    max (Packet_batch.pool_high_water pool)
      (Packet_batch.pool_high_water (Switch.batch_pool sw))
  in
  Util.maybe_dash obs;
  {
    r_batch = batch;
    r_pps = float_of_int packets /. wall;
    r_wall = wall;
    r_events = Engine.executed engine;
    r_occupancy = occupancy;
    r_pool_hw = pool_hw;
    r_engine_hw = (Engine.pool_stats engine).Engine.high_water;
    r_minor_words = mw1 -. mw0;
  }

let run () =
  let factors = match !batches with [] -> default_batches | l -> List.rev l in
  Util.banner
    (Printf.sprintf "pktpath: %d packets / %d flows through switch+NAT+monitor" packets
       flow_count);
  let trace = make_trace () in
  let results = List.map (fun batch -> run_one trace ~batch) factors in
  let base =
    List.find_opt (fun r -> r.r_batch = 1) results |> Option.map (fun r -> r.r_pps)
  in
  Util.row "  %-8s %14s %10s %12s %10s %9s %9s %8s %14s\n" "batch" "packets/sec" "speedup"
    "events" "occupancy" "pool hw" "cells hw" "wall s" "minor words/pkt";
  List.iter
    (fun r ->
      let speedup =
        match base with Some b when b > 0.0 -> r.r_pps /. b | _ -> Float.nan
      in
      Util.row "  %-8d %14.0f %9.2fx %12d %10.1f %9d %9d %8.2f %14.1f\n" r.r_batch r.r_pps
        speedup r.r_events r.r_occupancy r.r_pool_hw r.r_engine_hw r.r_wall
        (r.r_minor_words /. float_of_int packets))
    results;
  let open Openmb_wire in
  List.iter
    (fun r ->
      Util.append_row
        (Printf.sprintf "pktpath-b%d" r.r_batch)
        [
          ("packets", Json.Int packets);
          ("flows", Json.Int flow_count);
          ("batch", Json.Int r.r_batch);
          ("packets_per_sec", Json.Float r.r_pps);
          ("wall_seconds", Json.Float r.r_wall);
          ("events_executed", Json.Int r.r_events);
          ("batch_occupancy_mean", Json.Float r.r_occupancy);
          ("batch_pool_high_water", Json.Int r.r_pool_hw);
          ("engine_cell_high_water", Json.Int r.r_engine_hw);
          ("minor_words_per_packet", Json.Float (r.r_minor_words /. float_of_int packets));
        ])
    results;
  let failed =
    List.filter
      (fun r ->
        match List.assoc_opt r.r_batch floors with
        | None -> false
        | Some (min_pps, max_words, max_pool_hw) ->
          let words = r.r_minor_words /. float_of_int packets in
          let pool_ok = match max_pool_hw with None -> true | Some hw -> r.r_pool_hw <= hw in
          let ok =
            r.r_pps >= min_pps && words <= max_words && pool_ok
            && r.r_engine_hw <= max_engine_cells
          in
          Util.row
            "  [gate] batch %-4d %10.0f pkts/s (floor %.0f)  %6.1f words/pkt (ceiling %.0f)  pool hw %d%s  cells hw %d (ceiling %d)  %s\n"
            r.r_batch r.r_pps min_pps words max_words r.r_pool_hw
            (match max_pool_hw with None -> "" | Some hw -> Printf.sprintf " (ceiling %d)" hw)
            r.r_engine_hw max_engine_cells
            (if ok then "ok" else "FAIL");
          not ok)
      results
  in
  if failed <> [] then
    failwith
      (Printf.sprintf "pktpath: batch %s below its floors"
         (String.concat ", " (List.map (fun r -> string_of_int r.r_batch) failed)))
