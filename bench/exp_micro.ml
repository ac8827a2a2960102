(* Micro-benchmarks of the hot primitives: flow-table lookup,
   state-table find/insert, JSON codec, chunk sealing, LZSS compression
   and RE encoding — plus one tracked macro, a full 1k-flow move with
   compression on.  Every row is timed by [Util.measure].

   The harness is hermetic: every benchmark builds its fixtures inside
   its own thunk and the heap is compacted between benchmarks, so one
   benchmark's long-lived fixtures (e.g. a 10k-entry state table) can't
   inflate another's GC costs.  The PR-1 "regressions" of
   hfl.matches_packet and re.encode were exactly that kind of
   cross-benchmark interference.

   With [json_label] set (main.exe micro --json [--label NAME]) the
   results are also merged into BENCH_micro.json under that label, so
   the perf trajectory of the packet path is tracked across PRs.
   [compare_results] backs the --compare subcommand: it diffs two result
   files and fails on >20%% ns/op regressions and on allocation growth. *)

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
(* only while it is the one being measured; it returns the row name    *)
(* and a batch function running n operations.                          *)
(* ------------------------------------------------------------------ *)

let loop op n =
  for _ = 1 to n do
    op ()
  done

let flow_table_lookup () =
  let table = Flow_table.create () in
  for i = 0 to 99 do
    ignore
      (Flow_table.install table ~priority:i
         ~match_:[ Hfl.Src_ip (Addr.prefix (Addr.of_int (0x0A000000 lor (i lsl 8))) 24) ]
         ~action:(Flow_table.Forward (string_of_int i)))
  done;
  let p = mk_packet 7 in
  ("flow_table.lookup (100 rules)", loop (fun () -> ignore (Flow_table.lookup table p)))

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
  ( "flow_table.lookup (100 exact rules)",
    loop (fun () -> ignore (Flow_table.lookup table p)) )

let big_state_table () =
  let t = Openmb_mbox.State_table.create ~granularity:Hfl.full_granularity () in
  for i = 0 to 9_999 do
    ignore (Openmb_mbox.State_table.find_or_create t (mk_tuple i) ~default:(fun () -> i))
  done;
  (t, mk_tuple 1234)

let state_table_find () =
  let t, tup = big_state_table () in
  ( "state_table.find (full, 10k entries)",
    loop (fun () -> ignore (Openmb_mbox.State_table.find t tup)) )

let state_table_find_or_create () =
  let t, tup = big_state_table () in
  ( "state_table.find_or_create (hit)",
    loop (fun () ->
        ignore (Openmb_mbox.State_table.find_or_create t tup ~default:(fun () -> 0))) )

let state_table_insert () =
  let t = Openmb_mbox.State_table.create ~granularity:Hfl.full_granularity () in
  let keys =
    Array.init 256 (fun i -> Hfl.key_of_tuple Hfl.full_granularity (mk_tuple i))
  in
  let i = ref 0 in
  ( "state_table.insert (full)",
    loop (fun () ->
        let k = keys.(!i land 255) in
        incr i;
        Openmb_mbox.State_table.insert t ~key:k !i) )

let put_batch_msg () =
  let chunk =
    Openmb_core.Chunk.seal ~mb_kind:"bro" ~role:Openmb_core.Taxonomy.Supporting
      ~partition:Openmb_core.Taxonomy.Per_flow
      ~key:(Hfl.key_of_tuple Hfl.full_granularity (mk_tuple 17))
      ~plain:(String.make 200 's')
  in
  {
    Openmb_core.Message.op = 42;
    tid = 0;
    req = Openmb_core.Message.Put_batch { seq = 42; chunks = [ chunk ] };
  }

(* The text of a one-chunk putBatch, the request a move's put sends. *)
let json_codec () =
  let text = Openmb_core.Message.request_to_wire (put_batch_msg ()) in
  ( "json.parse (protocol message)",
    loop (fun () -> ignore (Openmb_wire.Json.of_string text)) )

let message_encode_json () =
  let msg = put_batch_msg () in
  ( "message.encode (putBatch of 1, json)",
    loop (fun () ->
        ignore (Openmb_core.Message.request_to_wire ~framing:Openmb_wire.Framing.Json msg)) )

let message_encode_binary () =
  let msg = put_batch_msg () in
  ( "message.encode (putBatch of 1, binary)",
    loop (fun () ->
        ignore (Openmb_core.Message.request_to_wire ~framing:Openmb_wire.Framing.Binary msg))
  )

let chunk_seal () =
  let plain = String.make 202 's' in
  ( "chunk.seal (202B)",
    loop (fun () ->
        ignore
          (Openmb_core.Chunk.seal ~mb_kind:"bro" ~role:Openmb_core.Taxonomy.Supporting
             ~partition:Openmb_core.Taxonomy.Per_flow ~key:Hfl.any ~plain)) )

let lzss () =
  let payload =
    String.concat "" (List.init 20 (fun i -> Printf.sprintf "{\"f\":%d,\"s\":\"state\"}" i))
  in
  ( "compress.lzss (400B json)",
    loop (fun () -> ignore (Openmb_wire.Compress.compress payload)) )

(* The 1,000 per-flow chunk values a 1k-flow dummy move carries (about
   197 bytes each, the shape the benchmark's move-1k seeds), cycled
   through one per op: the LZSS rows below time the compressor and
   decoder on the state a move compresses, not on one string. *)
let move_chunks () =
  let engine = Openmb_sim.Engine.create () in
  let src = Openmb_apps.Dummy_mb.create engine ~name:"src" () in
  Openmb_apps.Dummy_mb.populate src ~n:1000;
  Array.of_list (List.map snd (Openmb_apps.Dummy_mb.support_entries src))

let cycling values op =
  let i = ref 0 in
  loop (fun () ->
      op values.(!i);
      i := if !i = Array.length values - 1 then 0 else !i + 1)

let lzss_move_chunk () =
  ( "compress.lzss (move chunk)",
    cycling (move_chunks ()) (fun v -> ignore (Openmb_wire.Compress.compress v)) )

let lzss_decompress_move_chunk () =
  ( "compress.decompress (move chunk)",
    cycling
      (Array.map Openmb_wire.Compress.compress (move_chunks ()))
      (fun c -> ignore (Openmb_wire.Compress.decompress c)) )

(* Sealed as a compressed move seals them: the unseal decrypts and
   decompresses. *)
let chunk_unseal_compressed () =
  let saved = !Openmb_core.Chunk.compression_enabled in
  Openmb_core.Chunk.compression_enabled := true;
  let chunks =
    Array.map
      (fun plain ->
        Openmb_core.Chunk.seal ~mb_kind:"dummy" ~role:Openmb_core.Taxonomy.Supporting
          ~partition:Openmb_core.Taxonomy.Per_flow ~key:Hfl.any ~plain)
      (move_chunks ())
  in
  Openmb_core.Chunk.compression_enabled := saved;
  ( "chunk.unseal (compressed)",
    cycling chunks (fun c -> ignore (Openmb_core.Chunk.unseal ~mb_kind:"dummy" c)) )

let re_encode () =
  let engine = Openmb_sim.Engine.create () in
  let enc = Openmb_mbox.Re_encoder.create engine ~name:"enc" () in
  Openmb_mbox.Mb_base.set_egress (Openmb_mbox.Re_encoder.base enc) (fun _ -> ());
  let counter = ref 0 in
  ( "re.encode (16-token packet)",
    loop (fun () ->
        incr counter;
        let p =
          Packet.make ~id:!counter ~ts:(Openmb_sim.Engine.now engine)
            ~body:(Packet.Raw (Payload.of_tokens (Array.init 16 (fun k -> (!counter land 0xFF) + k))))
            ~src_ip:(Addr.of_string "10.0.0.1") ~dst_ip:(Addr.of_string "1.1.1.5")
            ~src_port:1024 ~dst_port:80 ~proto:Packet.Tcp ()
        in
        (* Drive the real encode path through the engine. *)
        Openmb_mbox.Re_encoder.receive enc p;
        Openmb_sim.Engine.run engine) )

let hfl_match () =
  let hfl = Hfl.of_string "nw_src=10.0.0.0/8,tp_dst=80,proto=tcp" in
  let p = mk_packet 3 in
  ("hfl.matches_packet", loop (fun () -> ignore (Hfl.matches_packet hfl p)))

(* The scheduler hot path at scale: a standing population of 100k
   parked timeouts (a large connection table's worth of pending idle
   timers) while dense near-future events — packet arrivals — are
   scheduled and drained.  Each op schedules 100 events spread over
   200us and runs the engine 1ms forward.

   With [~telemetry:true] this and [channel_delivery] are the
   telemetry-enabled twins of the two tracked scheduler rows: same
   workload with a live metric registry attached, so the overhead of
   the counter increments on the hot path is itself a tracked number
   (the perfgate holds the pair within a few percent). *)
let engine_dense_timers ~telemetry () =
  let open Openmb_sim in
  let engine =
    Engine.create ?telemetry:(if telemetry then Some (Telemetry.create ()) else None) ()
  in
  let fired = ref 0 in
  let tick () = incr fired in
  for _ = 1 to 100_000 do
    ignore (Engine.schedule_at engine (Time.seconds 3600.0) tick)
  done;
  ( (if telemetry then "engine.run (100 dense timers, telemetry on)"
     else "engine.run (100 dense timers, 100k parked)"),
    loop (fun () ->
        let now = Engine.now engine in
        for i = 1 to 100 do
          ignore (Engine.schedule_at engine Time.(now + Time.us (float_of_int (2 * i))) tick)
        done;
        Engine.run ~until:Time.(now + Time.ms 1.0) engine) )

(* A burst of messages through a channel: serialization bookkeeping,
   one delivery event per message, and the drain.  The canonical
   per-packet event the pooled representation targets — 64 in flight,
   because under load the queue always holds a window of undelivered
   packets (a single-message ping-pong would only measure the
   empty-queue edge case). *)
let channel_in_flight = 64

let channel_delivery ~telemetry () =
  let open Openmb_sim in
  let tel = if telemetry then Some (Telemetry.create ()) else None in
  let engine = Engine.create ?telemetry:tel () in
  let delivered = ref 0 in
  let ch =
    Channel.create engine ?telemetry:tel ~latency:(Time.us 10.0) ~bytes_per_sec:1e9
      ~deliver:(fun (_ : int) -> incr delivered)
      ()
  in
  ( (if telemetry then "channel.send+deliver (64 in flight, telemetry on)"
     else "channel.send+deliver (64 in flight)"),
    loop (fun () ->
        for i = 1 to channel_in_flight do
          Channel.send ch ~bytes:(64 * i) 42
        done;
        Engine.run engine) )

(* ------------------------------------------------------------------ *)
(* Macro: a full controller-brokered move, compression on              *)
(* ------------------------------------------------------------------ *)

(* One complete 1k-flow move between fresh dummy MBs with transfer
   compression enabled — the end-to-end path the PR-2 pipeline work
   (chunk batching, windowed puts, zero-alloc compress/seal) targets. *)
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

(* The flag is flipped inside the batch, without a [Fun.protect] whose
   closures would add a dozen words to every batch; a failed move ends
   the run anyway. *)
let macro_move_1k () =
  ( "move (1k flows, compression on)",
    fun n ->
      let saved = !Openmb_core.Chunk.compression_enabled in
      Openmb_core.Chunk.compression_enabled := true;
      loop one_macro_move n;
      Openmb_core.Chunk.compression_enabled := saved )

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* Time the rows [builds] return, built together from a compacted heap
   so no earlier row's fixtures inflate their GC costs. *)
let measure builds =
  Gc.compact ();
  let rows = List.map (fun build -> build ()) builds in
  List.combine (List.map fst rows) (Util.measure (List.map snd rows))

let result_row (t : Util.timing) =
  let open Openmb_wire in
  Json.Assoc
    [
      ("ns_per_op", Json.Float t.ns_min);
      ("ns_median", Json.Float t.ns_median);
      ("ns_mad", Json.Float t.ns_mad);
      ("rounds", Json.Int t.rounds);
      ("minor_words_per_op", Json.Float t.minor_words);
      ("major_words_per_op", Json.Float t.major_words);
      ("promoted_words_per_op", Json.Float t.promoted_words);
      ("minor_collections_per_op", Json.Float t.minor_collections);
      ("major_collections_per_op", Json.Float t.major_collections);
    ]

(* Merge this run's results into BENCH_micro.json under [label],
   keeping any other labels (e.g. the pre-change numbers) intact. *)
let write_json results label =
  Util.append_label label
    (Openmb_wire.Json.Assoc (List.map (fun (name, t) -> (name, result_row t)) results))

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
  let fields = Util.read_labels Util.bench_file in
  let missing = List.filter (fun l -> not (List.mem_assoc l fields)) labels in
  if missing <> [] then begin
    List.iter
      (fun l -> Printf.eprintf "rebaseline: %s: missing label %S\n" Util.bench_file l)
      missing;
    exit 1
  end;
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
                match List.assoc_opt name results with
                | Some t ->
                  incr hit;
                  (name, result_row t)
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
  Util.write_labels fields;
  Printf.printf "  [json] rebaselined %s (labels %s)\n" Util.bench_file
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

     micro --compare BENCH_micro.json#before BENCH_micro.json#after

   Each row is (name, (ns/op, minor words/op if recorded)). *)
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
  let number key fields =
    match Json.member key fields with
    | Json.Float x -> Some x
    | Json.Int x -> Some (float_of_int x)
    | _ | (exception _) -> None
  in
  match table with
  | Json.Assoc benches ->
    List.filter_map
      (fun (name, fields) ->
        Option.map
          (fun ns -> (name, (ns, number "minor_words_per_op" fields)))
          (number "ns_per_op" fields))
      benches
  | _ -> failwith (path ^ ": not a benchmark result file")

(* Default 20%; micro --threshold PCT overrides for tighter gates. *)
let regression_threshold = ref 0.20

(* Allocation is counted exactly, so its gate is tight: a row fails when
   it allocates more than 1% and at least one word per op above its
   baseline. *)
let alloc_regressed ~before ~after = after > before *. 1.01 && after -. before >= 1.0

(* A row whose allocation fell as far the other way is stale: it could
   grow back to its baseline and still pass, so it is named for
   re-recording, without failing the comparison. *)
let alloc_stale ~before ~after = after < before *. 0.99 && before -. after >= 1.0

(* Diff two result files; returns the number of failures — ns/op
   regressions beyond the threshold, allocation regressions, and rows
   that vanished from the after file (a gone row means the gate silently
   stopped measuring something, which must fail as loudly as a
   slowdown).  Stale rows are marked and counted, not failed. *)
let compare_results before_path after_path =
  let regression_threshold = !regression_threshold in
  let before = load_results before_path and after = load_results after_path in
  Util.banner
    (Printf.sprintf "Benchmark comparison: %s -> %s" before_path after_path);
  Util.row "  %-36s %12s %12s %9s %10s %10s\n" "benchmark" "before(ns)" "after(ns)" "delta"
    "before(w)" "after(w)";
  let words = function Some w -> Printf.sprintf "%.1f" w | None -> "-" in
  let regressions = ref 0 and allocs = ref 0 and stale = ref 0 and gone = ref 0 in
  List.iter
    (fun (name, (b, bw)) ->
      match List.assoc_opt name after with
      | None ->
        incr gone;
        Util.row "  %-36s %12.1f %12s %9s %10s %10s  GONE\n" name b "-" "-" (words bw) "-"
      | Some (a, aw) ->
        let delta = (a -. b) /. b in
        let slow = delta > regression_threshold in
        let alloc, stale_row =
          match (bw, aw) with
          | Some before, Some after ->
            (alloc_regressed ~before ~after, alloc_stale ~before ~after)
          | _ -> (false, false)
        in
        if slow then incr regressions;
        if alloc then incr allocs;
        if stale_row then incr stale;
        Util.row "  %-36s %12.1f %12.1f %+8.1f%% %10s %10s%s%s%s\n" name b a (delta *. 100.0)
          (words bw) (words aw)
          (if slow then "  REGRESSION" else "")
          (if alloc then "  ALLOC" else "")
          (if stale_row then "  STALE" else ""))
    before;
  List.iter
    (fun (name, (a, aw)) ->
      if not (List.mem_assoc name before) then
        Util.row "  %-36s %12s %12.1f %9s %10s %10s  new\n" name "-" a "-" "-" (words aw))
    after;
  if !regressions > 0 then
    Printf.printf "  %d benchmark(s) regressed by more than %.0f%%\n" !regressions
      (regression_threshold *. 100.0)
  else Printf.printf "  no regression beyond %.0f%%\n" (regression_threshold *. 100.0);
  if !allocs > 0 then
    Printf.printf
      "  FAIL: %d benchmark(s) allocate more than 1%% and 1 minor word/op above baseline\n"
      !allocs;
  if !stale > 0 then
    Printf.printf
      "  %d benchmark(s) STALE: allocating more than 1%% and 1 minor word/op below \
       baseline, re-record them\n"
      !stale;
  if !gone > 0 then
    Printf.printf
      "  FAIL: %d benchmark(s) present before are missing after — the gate is no \
       longer measuring them\n"
      !gone;
  !regressions + !allocs + !gone

(* Gate helper: fail loudly when a labelled result file lacks any of
   the rows a gate intends to compare against, instead of the gate
   silently passing because the comparison never ran.  Returns the
   number of missing labels. *)
let require_labels path labels =
  let fields = Util.read_labels path in
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
      let q = Hfl.of_string "nw_src=10.0.1.4/32" in
      let scan t = loop (fun () -> ignore (Openmb_mbox.State_table.matching t q)) in
      match Util.measure [ scan (populate false); scan (populate true) ] with
      | [ linear; indexed ] ->
        let tl = linear.Util.ns_min and ti = indexed.Util.ns_min in
        Util.row "  %-10d %16.0f %16.0f %9.0fx\n" n tl ti (tl /. ti)
      | _ -> assert false)
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
    lzss_move_chunk;
    lzss_decompress_move_chunk;
    chunk_unseal_compressed;
    re_encode;
    hfl_match;
    engine_dense_timers ~telemetry:false;
    channel_delivery ~telemetry:false;
    engine_dense_timers ~telemetry:true;
    channel_delivery ~telemetry:true;
    macro_move_1k;
  ]

(* ------------------------------------------------------------------ *)
(* micro-telemetry: the overhead gate                                  *)
(* ------------------------------------------------------------------ *)

(* Set by the driver (micro-telemetry --gate PCT): fail the invocation
   when any tracked pair's telemetry-on row is more than PCT slower
   than its telemetry-off twin. *)
let telemetry_gate : float option ref = ref None

(* Measure the two tracked rows with and without a live registry in
   one process, print the overhead, and optionally gate on it.  Each
   off/on pair is built together and timed in interleaved rounds, so
   both sides share every round's machine state; the per-side minimum
   discards the scheduling noise both sides suffer independently.  With
   --json the four rows are merged into BENCH_micro.json under the label
   (use --label micro-telemetry to keep the pair as its own entry). *)
let run_telemetry () =
  Util.banner "Telemetry overhead: tracked scheduler rows, registry off vs. on";
  let pairs =
    List.map
      (fun bench -> measure [ bench ~telemetry:false; bench ~telemetry:true ])
      [ engine_dense_timers; channel_delivery ]
  in
  Util.row "  %-46s %12s %12s %9s\n" "benchmark" "off(ns)" "on(ns)" "delta";
  let worst = ref neg_infinity in
  List.iter
    (function
      | [ (off_name, (off : Util.timing)); (_, on) ] ->
        let delta = (on.ns_min -. off.ns_min) /. off.ns_min in
        if delta > !worst then worst := delta;
        Util.row "  %-46s %12.1f %12.1f %+8.1f%%\n" off_name off.ns_min on.ns_min
          (delta *. 100.0)
      | _ -> assert false)
    pairs;
  (match !json_label with None -> () | Some label -> write_json (List.concat pairs) label);
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

let run () =
  Util.banner "Micro-benchmarks (calibrated loop, wall-clock; hermetic fixtures)";
  let results = List.concat_map (fun build -> measure [ build ]) (tests ()) in
  Util.row "  %-42s %12s %10s %8s %10s %10s %8s\n" "benchmark" "ns/op" "median" "MAD"
    "minor w" "promoted" "mnc/op";
  List.iter
    (fun (name, (t : Util.timing)) ->
      Util.row "  %-42s %12.1f %10.1f %8.1f %10.1f %10.2f %8.4f\n" name t.ns_min t.ns_median
        t.ns_mad t.minor_words t.promoted_words t.minor_collections)
    results;
  match !rebaseline_labels with
  | _ :: _ as labels -> rebaseline results labels
  | [] -> (
    match !json_label with None -> () | Some label -> write_json results label)
