(* Bechamel micro-benchmarks of the hot primitives: flow-table lookup,
   state-table find/insert, JSON codec, chunk sealing, LZSS compression
   and RE encoding — plus one tracked macro, a full 1k-flow move with
   compression on.

   The harness is hermetic: every benchmark builds its fixtures inside
   its own thunk and the heap is compacted between benchmarks, so one
   benchmark's long-lived fixtures (e.g. a 10k-entry state table) can't
   inflate another's GC costs.  The PR-1 "regressions" of
   hfl.matches_packet and re.encode were exactly that kind of
   cross-benchmark interference.

   With [json_label] set (main.exe micro --json [--label NAME]) the
   results are also merged into BENCH_micro.json under that label, so
   the perf trajectory of the packet path is tracked across PRs.
   [compare_files] backs the --compare subcommand: it diffs two result
   files and fails on >20%% regressions. *)

open Bechamel
open Openmb_net

(* Set by the driver: when [Some label], results are written to
   BENCH_micro.json under that label. *)
let json_label : string option ref = ref None

let mk_packet i =
  Packet.make ~id:i ~ts:Openmb_sim.Time.zero
    ~src_ip:(Addr.of_int (0x0A000000 lor (i land 0xFFFF)))
    ~dst_ip:(Addr.of_string "1.1.1.5") ~src_port:(1024 + (i land 0x3FFF)) ~dst_port:80
    ~proto:Packet.Tcp ()

let mk_tuple i =
  {
    Five_tuple.src_ip = Addr.of_int (0x0A000000 lor (i land 0xFFFFFF));
    dst_ip = Addr.of_string "1.1.1.10";
    src_port = 1024 + (i land 0x3FFF);
    dst_port = 80;
    proto = Packet.Tcp;
  }

(* ------------------------------------------------------------------ *)
(* Micro benchmarks.  Each is a thunk so its fixtures are allocated    *)
(* only while it is the one being measured.                            *)
(* ------------------------------------------------------------------ *)

let flow_table_lookup () =
  let table = Flow_table.create () in
  for i = 0 to 99 do
    ignore
      (Flow_table.install table ~priority:i
         ~match_:[ Hfl.Src_ip (Addr.prefix (Addr.of_int (0x0A000000 lor (i lsl 8))) 24) ]
         ~action:(Flow_table.Forward (string_of_int i)))
  done;
  let p = mk_packet 7 in
  Test.make ~name:"flow_table.lookup (100 rules)"
    (Staged.stage (fun () -> ignore (Flow_table.lookup table p)))

let flow_table_lookup_exact () =
  (* Full five-tuple rules: the exact-match case switch tables are
     dominated by in practice. *)
  let table = Flow_table.create () in
  for i = 0 to 99 do
    let tup = mk_tuple i in
    ignore
      (Flow_table.install table ~priority:5
         ~match_:(Hfl.key_of_tuple Hfl.full_granularity tup)
         ~action:(Flow_table.Forward (string_of_int i)))
  done;
  let p = mk_packet 7 in
  Test.make ~name:"flow_table.lookup (100 exact rules)"
    (Staged.stage (fun () -> ignore (Flow_table.lookup table p)))

let big_state_table () =
  let t = Openmb_mbox.State_table.create ~granularity:Hfl.full_granularity () in
  for i = 0 to 9_999 do
    ignore (Openmb_mbox.State_table.find_or_create t (mk_tuple i) ~default:(fun () -> i))
  done;
  (t, mk_tuple 1234)

let state_table_find () =
  let t, tup = big_state_table () in
  Test.make ~name:"state_table.find (full, 10k entries)"
    (Staged.stage (fun () -> ignore (Openmb_mbox.State_table.find t tup)))

let state_table_find_or_create () =
  let t, tup = big_state_table () in
  Test.make ~name:"state_table.find_or_create (hit)"
    (Staged.stage (fun () ->
         ignore (Openmb_mbox.State_table.find_or_create t tup ~default:(fun () -> 0))))

let state_table_insert () =
  let t = Openmb_mbox.State_table.create ~granularity:Hfl.full_granularity () in
  let keys =
    Array.init 256 (fun i -> Hfl.key_of_tuple Hfl.full_granularity (mk_tuple i))
  in
  let i = ref 0 in
  Test.make ~name:"state_table.insert (full)"
    (Staged.stage (fun () ->
         let k = keys.(!i land 255) in
         incr i;
         Openmb_mbox.State_table.insert t ~key:k !i))

let json_codec () =
  let text =
    Openmb_wire.Json.to_string
      (Openmb_wire.Json.Assoc
         [
           ("op", Openmb_wire.Json.Int 42);
           ("type", Openmb_wire.Json.String "putSupportPerflow");
           ( "chunk",
             Openmb_wire.Json.Assoc
               [
                 ("key", Openmb_wire.Json.String "nw_src=10.0.0.1/32,tp_src=1234");
                 ("cipher", Openmb_wire.Json.String (String.make 200 'x'));
               ] );
         ])
  in
  Test.make ~name:"json.parse (protocol message)"
    (Staged.stage (fun () -> ignore (Openmb_wire.Json.of_string text)))

let put_chunk_msg () =
  let chunk =
    Openmb_core.Chunk.seal ~mb_kind:"bro" ~role:Openmb_core.Taxonomy.Supporting
      ~partition:Openmb_core.Taxonomy.Per_flow
      ~key:(Hfl.key_of_tuple Hfl.full_granularity (mk_tuple 17))
      ~plain:(String.make 200 's')
  in
  {
    Openmb_core.Message.op = 42;
    tid = 0;
    req = Openmb_core.Message.Put_support_perflow { seq = 42; chunk };
  }

let message_encode_json () =
  let msg = put_chunk_msg () in
  Test.make ~name:"message.encode (put chunk, json)"
    (Staged.stage (fun () ->
         ignore (Openmb_core.Message.request_to_wire ~framing:Openmb_wire.Framing.Json msg)))

let message_encode_binary () =
  let msg = put_chunk_msg () in
  Test.make ~name:"message.encode (put chunk, binary)"
    (Staged.stage (fun () ->
         ignore
           (Openmb_core.Message.request_to_wire ~framing:Openmb_wire.Framing.Binary msg)))

let chunk_seal () =
  let plain = String.make 202 's' in
  Test.make ~name:"chunk.seal (202B)"
    (Staged.stage (fun () ->
         ignore
           (Openmb_core.Chunk.seal ~mb_kind:"bro" ~role:Openmb_core.Taxonomy.Supporting
              ~partition:Openmb_core.Taxonomy.Per_flow ~key:Hfl.any ~plain)))

let lzss () =
  let payload =
    String.concat "" (List.init 20 (fun i -> Printf.sprintf "{\"f\":%d,\"s\":\"state\"}" i))
  in
  Test.make ~name:"compress.lzss (400B json)"
    (Staged.stage (fun () -> ignore (Openmb_wire.Compress.compress payload)))

let re_encode () =
  let engine = Openmb_sim.Engine.create () in
  let enc = Openmb_mbox.Re_encoder.create engine ~name:"enc" () in
  Openmb_mbox.Mb_base.set_egress (Openmb_mbox.Re_encoder.base enc) (fun _ -> ());
  let counter = ref 0 in
  Test.make ~name:"re.encode (16-token packet)"
    (Staged.stage (fun () ->
         incr counter;
         let p =
           Packet.make ~id:!counter ~ts:(Openmb_sim.Engine.now engine)
             ~body:(Packet.Raw (Payload.of_tokens (Array.init 16 (fun k -> (!counter land 0xFF) + k))))
             ~src_ip:(Addr.of_string "10.0.0.1") ~dst_ip:(Addr.of_string "1.1.1.5")
             ~src_port:1024 ~dst_port:80 ~proto:Packet.Tcp ()
         in
         (* Drive the real encode path through the engine. *)
         Openmb_mbox.Re_encoder.receive enc p;
         Openmb_sim.Engine.run engine))

let hfl_match () =
  let hfl = Hfl.of_string "nw_src=10.0.0.0/8,tp_dst=80,proto=tcp" in
  let p = mk_packet 3 in
  Test.make ~name:"hfl.matches_packet"
    (Staged.stage (fun () -> ignore (Hfl.matches_packet hfl p)))

(* The scheduler hot path at scale: a standing population of 100k
   parked timeouts (a large connection table's worth of pending idle
   timers) while dense near-future events — packet arrivals — are
   scheduled and drained.  Each op schedules 100 events spread over
   200us and runs the engine 1ms forward. *)
let engine_dense_timers () =
  let open Openmb_sim in
  let engine = Engine.create () in
  let fired = ref 0 in
  let tick () = incr fired in
  for _ = 1 to 100_000 do
    ignore (Engine.schedule_at engine (Time.seconds 3600.0) tick)
  done;
  Test.make ~name:"engine.run (100 dense timers, 100k parked)"
    (Staged.stage (fun () ->
         let now = Engine.now engine in
         for i = 1 to 100 do
           ignore (Engine.schedule_at engine Time.(now + Time.us (float_of_int (2 * i))) tick)
         done;
         Engine.run ~until:Time.(now + Time.ms 1.0) engine))

(* A burst of messages through a channel: serialization bookkeeping,
   one delivery event per message, and the drain.  The canonical
   per-packet event the pooled representation targets — 64 in flight,
   because under load the queue always holds a window of undelivered
   packets (a single-message ping-pong would only measure the
   empty-queue edge case). *)
let channel_in_flight = 64

let channel_delivery () =
  let open Openmb_sim in
  let engine = Engine.create () in
  let delivered = ref 0 in
  let ch =
    Channel.create engine ~latency:(Time.us 10.0) ~bytes_per_sec:1e9
      ~deliver:(fun (_ : int) -> incr delivered)
      ()
  in
  Test.make ~name:"channel.send+deliver (64 in flight)"
    (Staged.stage (fun () ->
         for i = 1 to channel_in_flight do
           Channel.send ch ~bytes:(64 * i) 42
         done;
         Engine.run engine))

(* Telemetry-enabled twins of the two tracked scheduler rows: same
   workload with a live metric registry attached, so the overhead of
   the counter increments on the hot path is itself a tracked number
   (the perfgate holds the pair within a few percent). *)
let engine_dense_timers_telemetry () =
  let open Openmb_sim in
  let engine = Engine.create ~telemetry:(Telemetry.create ()) () in
  let fired = ref 0 in
  let tick () = incr fired in
  for _ = 1 to 100_000 do
    ignore (Engine.schedule_at engine (Time.seconds 3600.0) tick)
  done;
  Test.make ~name:"engine.run (100 dense timers, telemetry on)"
    (Staged.stage (fun () ->
         let now = Engine.now engine in
         for i = 1 to 100 do
           ignore (Engine.schedule_at engine Time.(now + Time.us (float_of_int (2 * i))) tick)
         done;
         Engine.run ~until:Time.(now + Time.ms 1.0) engine))

let channel_delivery_telemetry () =
  let open Openmb_sim in
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  let delivered = ref 0 in
  let ch =
    Channel.create engine ~telemetry:tel ~latency:(Time.us 10.0) ~bytes_per_sec:1e9
      ~deliver:(fun (_ : int) -> incr delivered)
      ()
  in
  Test.make ~name:"channel.send+deliver (64 in flight, telemetry on)"
    (Staged.stage (fun () ->
         for i = 1 to channel_in_flight do
           Channel.send ch ~bytes:(64 * i) 42
         done;
         Engine.run engine))

(* ------------------------------------------------------------------ *)
(* Measurement plumbing                                                *)
(* ------------------------------------------------------------------ *)

type result = {
  bench_name : string;
  ns_per_op : float;
  minor_words_per_op : float;
  major_words_per_op : float;
  promoted_words_per_op : float;
  minor_collections_per_op : float;
  major_collections_per_op : float;
}

(* Toolkit.Instance.minor_allocated reads [(Gc.quick_stat ()).minor_words],
   which on OCaml 5 only advances at minor-collection boundaries — sample
   batches that fit in the young generation report zero.  [Gc.minor_words]
   includes the young-pointer delta and is exact. *)
module Minor_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

(* The remaining GC counters only move at collection boundaries, so a
   single sample is quantized — but over OLS's growing run counts the
   per-op slope converges, which is exactly what we record. *)
module Major_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = (Gc.quick_stat ()).Gc.major_words
  let label () = "major-words"
  let unit () = "mjw"
end

module Promoted_words = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = (Gc.quick_stat ()).Gc.promoted_words
  let label () = "promoted-words"
  let unit () = "prw"
end

module Minor_collections = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = float_of_int (Gc.quick_stat ()).Gc.minor_collections
  let label () = "minor-collections"
  let unit () = "mnc"
end

module Major_collections = struct
  type witness = unit

  let make () = ()
  let load () = ()
  let unload () = ()
  let get () = float_of_int (Gc.quick_stat ()).Gc.major_collections
  let label () = "major-collections"
  let unit () = "mjc"
end

let minor_words_instance =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

let major_words_instance =
  Measure.instance (module Major_words) (Measure.register (module Major_words))

let promoted_words_instance =
  Measure.instance (module Promoted_words) (Measure.register (module Promoted_words))

let minor_collections_instance =
  Measure.instance (module Minor_collections) (Measure.register (module Minor_collections))

let major_collections_instance =
  Measure.instance (module Major_collections) (Measure.register (module Major_collections))

(* Run one benchmark in isolation: compact away everything previous
   benchmarks left behind, build this benchmark's fixtures, measure,
   and let the fixtures die with the returned closure.

   Per-sample GC stabilization and compaction are off: with a multi-MB
   fixture (a 10k-entry state table, 100k parked timers) each costs
   milliseconds per sample, which caps the sampler at small run counts
   and bleeds into the OLS slope — the state-table rows read ~10x their
   true per-op cost (and a spurious ~4 minor words/op) with stabilize
   on.  Heap hygiene across benchmarks is already handled by the
   explicit compact above. *)
let measure_one build =
  Gc.compact ();
  let cfg =
    Benchmark.cfg ~stabilize:false ~compaction:false ~limit:2000
      ~quota:(Time.second 0.5) ()
  in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let clock = Toolkit.Instance.monotonic_clock in
  let instances =
    [
      clock;
      minor_words_instance;
      major_words_instance;
      promoted_words_instance;
      minor_collections_instance;
      major_collections_instance;
    ]
  in
  List.map
    (fun elt ->
      let raw = Benchmark.run cfg instances elt in
      let estimate instance =
        match Analyze.OLS.estimates (Analyze.one ols instance raw) with
        | Some [ v ] -> v
        | Some _ | None -> nan
      in
      {
        bench_name = Test.Elt.name elt;
        ns_per_op = estimate clock;
        minor_words_per_op = estimate minor_words_instance;
        major_words_per_op = estimate major_words_instance;
        promoted_words_per_op = estimate promoted_words_instance;
        minor_collections_per_op = estimate minor_collections_instance;
        major_collections_per_op = estimate major_collections_instance;
      })
    (Test.elements (build ()))

let measure builds = List.concat_map measure_one builds

(* ------------------------------------------------------------------ *)
(* Macro: a full controller-brokered move, compression on              *)
(* ------------------------------------------------------------------ *)

(* One complete 1k-flow move between fresh dummy MBs with transfer
   compression enabled — the end-to-end path the PR-2 pipeline work
   (chunk batching, windowed puts, zero-alloc compress/seal) targets.
   Too heavy for Bechamel's per-iteration sampling, so it is timed
   directly: wall-clock and allocation over enough repetitions to fill
   the quota. *)
let one_macro_move () =
  let open Openmb_sim in
  let open Openmb_core in
  let open Openmb_apps in
  let engine = Engine.create () in
  let config = { Controller.default_config with quiescence = Time.ms 100.0 } in
  let ctrl = Controller.create engine ~config () in
  let src = Dummy_mb.create engine ~name:"src" () in
  let dst = Dummy_mb.create engine ~name:"dst" () in
  Dummy_mb.populate src ~n:1000;
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Dummy_mb.impl src) ());
  Controller.connect ctrl (Mb_agent.create engine ~impl:(Dummy_mb.impl dst) ());
  let ok = ref false in
  Controller.move_internal ctrl ~src:"src" ~dst:"dst" ~key:Hfl.any
    ~on_done:(fun res ->
      match res with
      | Ok mr ->
        assert (mr.Controller.chunks_moved = 1000);
        ok := true
      | Error e -> failwith (Errors.to_string e));
  Engine.run engine;
  assert !ok

let macro_move_1k () =
  Gc.compact ();
  let saved = !Openmb_core.Chunk.compression_enabled in
  Openmb_core.Chunk.compression_enabled := true;
  Fun.protect
    ~finally:(fun () -> Openmb_core.Chunk.compression_enabled := saved)
    (fun () ->
      one_macro_move ();
      (* warm-up *)
      let quota_ns = 1_000_000_000L in
      let t0 = ref 0L in
      let runs = ref 0 in
      let (), gc =
        Util.gc_delta (fun () ->
            t0 := Monotonic_clock.now ();
            while
              !runs < 3 || Int64.sub (Monotonic_clock.now ()) !t0 < quota_ns
            do
              one_macro_move ();
              incr runs
            done)
      in
      let elapsed = Int64.to_float (Int64.sub (Monotonic_clock.now ()) !t0) in
      let n = float_of_int !runs in
      {
        bench_name = "move (1k flows, compression on)";
        ns_per_op = elapsed /. n;
        minor_words_per_op = gc.Util.minor_words /. n;
        major_words_per_op = gc.Util.major_words /. n;
        promoted_words_per_op = gc.Util.promoted_words /. n;
        minor_collections_per_op = float_of_int gc.Util.minor_collections /. n;
        major_collections_per_op = float_of_int gc.Util.major_collections /. n;
      })

let bench_file = "BENCH_micro.json"

let result_row r =
  let open Openmb_wire in
  Json.Assoc
    [
      ("ns_per_op", Json.Float r.ns_per_op);
      ("minor_words_per_op", Json.Float r.minor_words_per_op);
      ("major_words_per_op", Json.Float r.major_words_per_op);
      ("promoted_words_per_op", Json.Float r.promoted_words_per_op);
      ("minor_collections_per_op", Json.Float r.minor_collections_per_op);
      ("major_collections_per_op", Json.Float r.major_collections_per_op);
    ]

(* Merge this run's results into BENCH_micro.json under [label],
   keeping any other labels (e.g. the pre-change numbers) intact. *)
let write_json results label =
  let open Openmb_wire in
  let existing =
    if Sys.file_exists bench_file then
      match Json.of_string (In_channel.with_open_text bench_file In_channel.input_all) with
      | Json.Assoc fields -> fields
      | _ | (exception Json.Parse_error _) -> []
    else []
  in
  let entry = Json.Assoc (List.map (fun r -> (r.bench_name, result_row r)) results) in
  let fields = List.remove_assoc label existing @ [ (label, entry) ] in
  Out_channel.with_open_text bench_file (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty (Json.Assoc fields));
      Out_channel.output_char oc '\n');
  Printf.printf "  [json] wrote %s (label %S)\n" bench_file label

(* Set by the driver (micro --rebaseline L1[,L2...]): after the suite
   runs, re-record the named committed labels in place instead of
   appending a new label. *)
let rebaseline_labels : string list ref = ref []

(* Host-drift helper: when the machine changes, every committed ns/op
   baseline is stale at once and a fresh run can't be compared against
   any of them.  [rebaseline results labels] overwrites, inside each
   named label of BENCH_micro.json, only the rows that label already
   tracks with this run's measurements.  Rows the fresh run didn't
   produce are kept verbatim (and counted, so a label fed by a
   different experiment is visibly not refreshed); rows the label never
   tracked are never added; a label absent from the file is a hard
   error — a typo'd label must fail loudly, not silently record
   nothing. *)
let rebaseline results labels =
  let open Openmb_wire in
  let fields =
    match Json.of_string (In_channel.with_open_text bench_file In_channel.input_all) with
    | Json.Assoc fields -> fields
    | _ -> failwith (bench_file ^ ": not a labelled result file")
    | exception Sys_error msg -> failwith msg
    | exception Json.Parse_error _ -> failwith (bench_file ^ ": unparseable result file")
  in
  let missing = List.filter (fun l -> not (List.mem_assoc l fields)) labels in
  if missing <> [] then begin
    List.iter
      (fun l -> Printf.eprintf "rebaseline: %s: missing label %S\n" bench_file l)
      missing;
    exit 1
  end;
  let fresh name = List.find_opt (fun r -> String.equal r.bench_name name) results in
  let fields =
    List.map
      (fun (label, entry) ->
        match (List.mem label labels, entry) with
        | false, _ -> (label, entry)
        | true, Json.Assoc rows ->
          let hit = ref 0 in
          let rows =
            List.map
              (fun (name, old) ->
                match fresh name with
                | Some r ->
                  incr hit;
                  (name, result_row r)
                | None -> (name, old))
              rows
          in
          Printf.printf "  [rebaseline] %S: overwrote %d row(s), kept %d\n" label !hit
            (List.length rows - !hit);
          (label, Json.Assoc rows)
        | true, other ->
          Printf.printf "  [rebaseline] %S: not a row table, kept verbatim\n" label;
          (label, other))
      fields
  in
  Out_channel.with_open_text bench_file (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty (Json.Assoc fields));
      Out_channel.output_char oc '\n');
  Printf.printf "  [json] rebaselined %s (labels %s)\n" bench_file
    (String.concat ", " labels)

(* ------------------------------------------------------------------ *)
(* Result comparison (--compare)                                       *)
(* ------------------------------------------------------------------ *)

(* A result file is either a flat {bench: {ns_per_op}} object or a
   BENCH_micro.json-style {label: {bench: {ns_per_op}}}; for the latter
   the LAST label wins (write_json appends the freshest label last). *)
(* [path] may carry a label selector — "BENCH_micro.json#before" reads
   that label from a labelled file, so one committed file can hold the
   whole before/after pair and still be diffed:

     micro --compare BENCH_micro.json#before BENCH_micro.json#after *)
let load_results path =
  let open Openmb_wire in
  let file, label =
    match String.index_opt path '#' with
    | Some i ->
      ( String.sub path 0 i,
        Some (String.sub path (i + 1) (String.length path - i - 1)) )
    | None -> (path, None)
  in
  let json = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  let looks_flat = function
    | Json.Assoc ((_, Json.Assoc fields) :: _) -> List.mem_assoc "ns_per_op" fields
    | _ -> false
  in
  let table =
    match (label, json) with
    | Some l, Json.Assoc labels -> (
      match List.assoc_opt l labels with
      | Some t -> t
      | None -> failwith (path ^ ": no label " ^ l))
    | Some _, _ -> failwith (path ^ ": not a labelled result file")
    | None, Json.Assoc _ when looks_flat json -> json
    | None, Json.Assoc ((_ :: _) as labels) ->
      snd (List.nth labels (List.length labels - 1))
    | None, _ -> failwith (path ^ ": not a benchmark result file")
  in
  match table with
  | Json.Assoc benches ->
    List.filter_map
      (fun (name, fields) ->
        match Json.member "ns_per_op" fields with
        | Json.Float ns -> Some (name, ns)
        | Json.Int ns -> Some (name, float_of_int ns)
        | _ | (exception _) -> None)
      benches
  | _ -> failwith (path ^ ": not a benchmark result file")

(* Default 20%; micro --threshold PCT overrides for tighter gates. *)
let regression_threshold = ref 0.20

(* Diff two result files; returns the number of failures — regressions
   beyond the threshold plus rows that vanished from the after file (a
   gone row means the gate silently stopped measuring something, which
   must fail as loudly as a slowdown). *)
let compare_results before_path after_path =
  let regression_threshold = !regression_threshold in
  let before = load_results before_path and after = load_results after_path in
  Util.banner
    (Printf.sprintf "Benchmark comparison: %s -> %s" before_path after_path);
  Util.row "  %-36s %12s %12s %9s\n" "benchmark" "before(ns)" "after(ns)" "delta";
  let regressions = ref 0 and gone = ref 0 in
  List.iter
    (fun (name, b) ->
      match List.assoc_opt name after with
      | None ->
        incr gone;
        Util.row "  %-36s %12.1f %12s %9s\n" name b "-" "GONE"
      | Some a ->
        let delta = (a -. b) /. b in
        let flag =
          if delta > regression_threshold then begin
            incr regressions;
            "  REGRESSION"
          end
          else ""
        in
        Util.row "  %-36s %12.1f %12.1f %+8.1f%%%s\n" name b a (delta *. 100.0) flag)
    before;
  List.iter
    (fun (name, a) ->
      if not (List.mem_assoc name before) then
        Util.row "  %-36s %12s %12.1f %9s\n" name "-" a "new")
    after;
  if !regressions > 0 then
    Printf.printf "  %d benchmark(s) regressed by more than %.0f%%\n" !regressions
      (regression_threshold *. 100.0)
  else Printf.printf "  no regression beyond %.0f%%\n" (regression_threshold *. 100.0);
  if !gone > 0 then
    Printf.printf
      "  FAIL: %d benchmark(s) present before are missing after — the gate is no \
       longer measuring them\n"
      !gone;
  !regressions + !gone

(* Gate helper: fail loudly when a labelled result file lacks any of
   the rows a gate intends to compare against, instead of the gate
   silently passing because the comparison never ran.  Returns the
   number of missing labels. *)
let require_labels path labels =
  let open Openmb_wire in
  let fields =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Json.Assoc fields -> fields
    | _ -> failwith (path ^ ": not a labelled result file")
    | exception Json.Parse_error _ -> failwith (path ^ ": unparseable result file")
  in
  let missing = List.filter (fun l -> not (List.mem_assoc l fields)) labels in
  List.iter
    (fun l -> Printf.eprintf "require-labels: %s: missing label %S\n" path l)
    missing;
  if missing = [] then
    Printf.printf "  require-labels: %s has all of [%s]\n" path (String.concat ", " labels);
  List.length missing

(* Footnote-6 ablation: real wall-clock cost of the linear-scan get
   versus the source-indexed lookup, at growing table sizes. *)
let scan_vs_index () =
  Util.banner "Ablation: linear-scan get vs. source-indexed lookup (footnote 6)";
  Util.row "  %-10s %16s %16s %10s\n" "entries" "linear (ns)" "indexed (ns)" "speedup";
  List.iter
    (fun n ->
      let populate indexed =
        let t =
          Openmb_mbox.State_table.create ~indexed ~granularity:Hfl.full_granularity ()
        in
        for i = 0 to n - 1 do
          let tup =
            {
              Five_tuple.src_ip = Addr.of_int (0x0A000000 lor i);
              dst_ip = Addr.of_string "1.1.1.10";
              src_port = 1024 + (i land 0x3FFF);
              dst_port = 80;
              proto = Packet.Tcp;
            }
          in
          ignore (Openmb_mbox.State_table.find_or_create t tup ~default:(fun () -> i))
        done;
        t
      in
      let linear = populate false and indexed = populate true in
      let q = Hfl.of_string "nw_src=10.0.1.4/32" in
      let time_one label t =
        ignore label;
        let test =
          Test.make ~name:"scan"
            (Staged.stage (fun () -> ignore (Openmb_mbox.State_table.matching t q)))
        in
        let cfg =
          Benchmark.cfg ~stabilize:false ~compaction:false ~limit:1000
            ~quota:(Time.second 0.25) ()
        in
        let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
        let instance = Toolkit.Instance.monotonic_clock in
        match Test.elements test with
        | [ elt ] -> (
          match Analyze.OLS.estimates (Analyze.one ols instance (Benchmark.run cfg [ instance ] elt)) with
          | Some [ ns ] -> ns
          | Some _ | None -> nan)
        | _ -> nan
      in
      let tl = time_one "linear" linear and ti = time_one "indexed" indexed in
      Util.row "  %-10d %16.0f %16.0f %9.0fx\n" n tl ti (tl /. ti))
    [ 1000; 5000; 20000 ];
  Printf.printf
    "  The prototype's gets scan the whole table (the paper attributes the\n\
     6x get/put gap to this); a switch-style index makes the exact-source\n\
     get cost independent of table size.\n"

let tests () =
  [
    flow_table_lookup;
    flow_table_lookup_exact;
    state_table_find;
    state_table_find_or_create;
    state_table_insert;
    json_codec;
    message_encode_json;
    message_encode_binary;
    chunk_seal;
    lzss;
    re_encode;
    hfl_match;
    engine_dense_timers;
    channel_delivery;
    engine_dense_timers_telemetry;
    channel_delivery_telemetry;
  ]

(* ------------------------------------------------------------------ *)
(* micro-telemetry: the overhead gate                                  *)
(* ------------------------------------------------------------------ *)

(* Set by the driver (micro-telemetry --gate PCT): fail the invocation
   when any tracked pair's telemetry-on row is more than PCT slower
   than its telemetry-off twin. *)
let telemetry_gate : float option ref = ref None

let telemetry_pairs =
  [
    ( "engine.run (100 dense timers, 100k parked)",
      "engine.run (100 dense timers, telemetry on)" );
    ( "channel.send+deliver (64 in flight)",
      "channel.send+deliver (64 in flight, telemetry on)" );
  ]

(* Measure the two tracked rows with and without a live registry in
   one process (same machine state for both sides of each pair), print
   the overhead, and optionally gate on it.  Each row is the min of
   three interleaved rounds: single Bechamel estimates on a shared
   machine jitter by tens of percent, far above the few-percent signal
   this gate watches, and the per-side minimum discards the scheduling
   noise both sides suffer independently.  With --json the four rows
   are merged into BENCH_micro.json under the label (use
   --label micro-telemetry to keep the pair as its own entry). *)
let telemetry_rounds = 3

let run_telemetry () =
  Util.banner "Telemetry overhead: tracked scheduler rows, registry off vs. on";
  let best = Hashtbl.create 8 in
  for _ = 1 to telemetry_rounds do
    List.iter
      (fun r ->
        match Hashtbl.find_opt best r.bench_name with
        | Some prev when prev.ns_per_op <= r.ns_per_op -> ()
        | _ -> Hashtbl.replace best r.bench_name r)
      (measure
         [
           engine_dense_timers;
           engine_dense_timers_telemetry;
           channel_delivery;
           channel_delivery_telemetry;
         ])
  done;
  let find name = Hashtbl.find best name in
  let results =
    List.concat_map (fun (off, on) -> [ find off; find on ]) telemetry_pairs
  in
  Util.row "  %-46s %12s %12s %9s\n" "benchmark" "off(ns)" "on(ns)" "delta";
  let worst = ref neg_infinity in
  List.iter
    (fun (off_name, on_name) ->
      let off = find off_name and on = find on_name in
      let delta = (on.ns_per_op -. off.ns_per_op) /. off.ns_per_op in
      if delta > !worst then worst := delta;
      Util.row "  %-46s %12.1f %12.1f %+8.1f%%\n" off_name off.ns_per_op
        on.ns_per_op (delta *. 100.0))
    telemetry_pairs;
  (match !json_label with None -> () | Some label -> write_json results label);
  match !telemetry_gate with
  | None -> ()
  | Some limit ->
    if !worst *. 100.0 > limit then begin
      Printf.printf "  telemetry overhead %.1f%% exceeds the %.1f%% gate\n"
        (!worst *. 100.0) limit;
      exit 1
    end
    else
      Printf.printf "  telemetry overhead within the %.1f%% gate (worst %+.1f%%)\n"
        limit (!worst *. 100.0)

(* Set by the driver (micro --rounds N): run the whole suite N times
   and keep each benchmark's fastest round.  A single Bechamel estimate
   on a busy single-core machine jitters by tens of percent run to run
   — far above the 20% regression threshold — so the perfgate compares
   min-of-N against a min-of-N baseline: the per-row minimum
   approximates the noise floor the same way the telemetry gate's
   interleaved rounds do. *)
let micro_rounds = ref 1

let run () =
  Util.banner "Micro-benchmarks (Bechamel, wall-clock; hermetic fixtures)";
  let round () = measure (tests ()) @ [ macro_move_1k () ] in
  let best = ref (round ()) in
  for r = 2 to !micro_rounds do
    Printf.printf "  [rounds] best-of round %d/%d\n%!" r !micro_rounds;
    best :=
      List.map2
        (fun b fresh -> if fresh.ns_per_op < b.ns_per_op then fresh else b)
        !best (round ())
  done;
  let results = !best in
  Util.row "  %-42s %12s %10s %10s %8s\n" "benchmark" "ns/op" "minor w" "promoted" "mnc/op";
  List.iter
    (fun r ->
      Util.row "  %-42s %12.1f %10.1f %10.2f %8.4f\n" r.bench_name r.ns_per_op
        r.minor_words_per_op r.promoted_words_per_op r.minor_collections_per_op)
    results;
  match !rebaseline_labels with
  | _ :: _ as labels -> rebaseline results labels
  | [] -> (
    match !json_label with None -> () | Some label -> write_json results label)
