(* Wall-clock benchmark of the OpenMB simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--out SET.json] [--spans FILE.json]
     main.exe trace --workload W [--seed N] [--out F] [--spans F]
     main.exe compare A.json B.json [--bench BENCHMARK.json]
     main.exe smoke [--bench BENCHMARK.json]

   One process runs one workload.  It builds the inputs from the seed
   (set-up, timed in several rounds), runs one warm-up rep, then fresh
   reps until [--seconds] have passed.  Every rep is checked; the last
   line of stdout is a JSON object with the
   end-to-end metrics ([--trace 0]) or the per-layer metrics from a
   traced run ([--trace 1]).  The exit code is 1 when any check failed. *)

open Openmb_sim
module Json = Openmb_wire.Json

(* Set-up rounds: at least [setup_min_rounds], then more until
   [setup_budget_s] have passed or [setup_max_rounds] have run.  One
   round on the large workloads takes ~0.4 s and varies by ~10% from
   round to round, so [setup_s] is a median over several. *)
let setup_min_rounds = 5
let setup_max_rounds = 25
let setup_budget_s = 3.0

let min_reps = 3

(* Per-layer spans reported by a traced run, in pipeline order.  A span a
   workload never enters reads 0.  The smoke run checks this list and
   [layer_counts] against BENCHMARK.json's per_layer. *)
let layer_spans =
  [
    "trace.schedule";
    "trace.replay";
    "switch.receive";
    "link.deliver";
    "nat.receive";
    "nat.work";
    "monitor.receive";
    "monitor.work";
    "prads1.receive";
    "prads1.work";
    "prads2.receive";
    "prads2.work";
    "sink";
    "mb.get_support_perflow";
    "mb.put_support_perflow";
    "mb.del_support_perflow";
    "mb.get_report_perflow";
    "mb.put_report_perflow";
    "mb.del_report_perflow";
    "mb.stats";
    "mb.reprocess";
    Tracer.unobserved;
  ]

(* Layer counts taken from the workloads' own [info], with their units. *)
let layer_counts =
  [
    ("engine.events_per_op", "events/op");
    ("switch.batch_fill", "ratio");
    ("pool.high_water", "count");
    ("controller.msgs_per_move", "msgs/move");
    ("controller.op_retries", "count");
    ("controller.evt_forwarded", "count");
    ("controller.evt_buffered_peak", "count");
    ("controller.evt_useful", "ratio");
    ("move.bytes_per_chunk", "B/chunk");
  ]

(* ------------------------------------------------------------------ *)
(* Reps                                                                *)
(* ------------------------------------------------------------------ *)

type sample = {
  wall_ns : int;
  words : float;
  outcome : Workloads.outcome;
}

(* Each rep starts from a collected heap, so no rep pays for the garbage
   of the one before it. *)
let rep (p : Workloads.prepared) tracer =
  Gc.full_major ();
  match p.build tracer with
  | exception e -> { wall_ns = 0; words = 0.0; outcome = Workloads.failed_outcome e }
  | r -> (
    let span = Option.map (fun t -> Tracer.id t r.start_span) tracer in
    let w0 = Gc.minor_words () in
    let t0 = Tracer.now_ns () in
    match
      match (tracer, span) with
      | Some t, Some id ->
        Tracer.top t id r.start;
        while Tracer.step t r.engine do
          ()
        done
      | _ ->
        r.start ();
        Engine.run r.engine
    with
    | exception e -> { wall_ns = 0; words = 0.0; outcome = Workloads.failed_outcome e }
    | () ->
      let t1 = Tracer.now_ns () in
      let w1 = Gc.minor_words () in
      let outcome = try r.finish () with e -> Workloads.failed_outcome e in
      { wall_ns = t1 - t0; words = w1 -. w0; outcome })

type run = {
  workload : Workloads.t;
  prepared : Workloads.prepared;
  setup : float list;  (* seconds per set-up round *)
  peak_heap_words : int;  (* top of the major heap after the warm-up rep *)
  plain : sample list;  (* measured untraced reps, in order *)
  traced : sample list;
  tracer : Tracer.t option;
  attempted : int;
  failed : int;
}

let is_ok s = s.outcome.errors = []

(* Set-up, warm-up, then reps until the deadline (at least [min_reps]),
   alternating untraced and traced reps when tracing.  Every rep counts
   as attempted; a rep fails on any check or when its fingerprint differs
   from the warm-up's. *)
let execute (w : Workloads.t) ~seed ~seconds ~reps ~scale ~trace ~capacity =
  let prepared = ref None and setup = ref [] in
  let setup_end = Tracer.now_ns () + int_of_float (setup_budget_s *. 1e9) in
  let rounds = ref 0 in
  while
    !rounds < setup_min_rounds
    || (!rounds < setup_max_rounds && Tracer.now_ns () < setup_end)
  do
    prepared := None;
    Gc.full_major ();
    let t0 = Tracer.now_ns () in
    let p = w.prepare ~seed ~scale in
    ignore (p.build None : Workloads.rep);
    setup := (float_of_int (Tracer.now_ns () - t0) /. 1e9) :: !setup;
    prepared := Some p;
    incr rounds
  done;
  let p = Option.get !prepared in
  let tracer = if trace then Some (Tracer.create ~capacity) else None in
  let attempted = ref 0 and failed = ref 0 in
  let fingerprint = ref None and words = ref None in
  (* [same r v what] checks [v] against the first value seen in [r]. *)
  let same r v what errors =
    match !r with
    | None ->
      r := Some v;
      errors
    | Some v0 when v0 = v -> errors
    | Some v0 -> Printf.sprintf "%s drifted: %s, first rep %s" what v v0 :: errors
  in
  (* Untraced reps must also allocate exactly alike; the warm-up is
     exempt (first-use initialisation), and so are traced reps. *)
  let report ?(alloc = false) s =
    incr attempted;
    let errors =
      if not (is_ok s) then s.outcome.errors
      else
        same fingerprint s.outcome.fingerprint "fingerprint" []
        |> if alloc then same words (Printf.sprintf "%.0f" s.words) "minor words" else Fun.id
    in
    if errors <> [] then begin
      incr failed;
      List.iter (Printf.eprintf "%s: rep %d: %s\n%!" w.name !attempted) errors
    end;
    { s with outcome = { s.outcome with errors } }
  in
  ignore (report (rep p None));
  (* Read here rather than at exit: the top of the heap creeps up with
     every rep (without a leak), so a later reading would depend on how
     many reps the host's speed allowed. *)
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  let deadline = Tracer.now_ns () + int_of_float (seconds *. 1e9) in
  let plain = ref [] and traced = ref [] in
  let count () = List.length !plain in
  let continue () =
    match reps with
    | Some n -> count () < n
    | None -> count () < min_reps || Tracer.now_ns () < deadline
  in
  while continue () do
    plain := report ~alloc:true (rep p None) :: !plain;
    if trace then traced := report (rep p tracer) :: !traced
  done;
  {
    workload = w;
    prepared = p;
    setup = List.rev !setup;
    peak_heap_words;
    plain = List.rev !plain;
    traced = List.rev !traced;
    tracer;
    attempted = !attempted;
    failed = !failed;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ms ns = float_of_int ns /. 1e6
let ok_samples l = List.filter is_ok l

let end_to_end r =
  let ok = ok_samples r.plain in
  let ops = float_of_int r.prepared.ops in
  let heap = float_of_int (r.peak_heap_words * (Sys.word_size / 8)) /. 1e6 in
  [
    Results.of_samples "ops_per_s" "ops/s"
      (List.map (fun s -> ops /. (float_of_int s.wall_ns /. 1e9)) ok);
    Results.of_samples "minor_words_per_op" "words/op" (List.map (fun s -> s.words /. ops) ok);
    Results.of_samples "peak_heap_mb" "MB" [ heap ];
    Results.of_samples "setup_s" "s" r.setup;
  ]

(* Printed and recorded, not in BENCHMARK.json: wall-time percentiles of
   the rep (one move on move-1k) and the rep's virtual-time results.
   [compare] gates the virtual-time results and move-1k's p90; the tail
   percentiles rest on ~20 reps on every other workload and swing by
   more than any usable bound from run to run. *)
let info r =
  let walls = List.map (fun s -> ms s.wall_ns) (ok_samples r.plain) in
  let wall p = (Printf.sprintf "wall_ms_p%g" p, (Results.of_samples ~p "" "" walls).value) in
  let virtual_ =
    match ok_samples r.plain with
    | s :: _ ->
      List.filter
        (fun (k, _) -> not (List.mem_assoc k layer_counts))
        s.outcome.info
    | [] -> []
  in
  [ wall 50.0; wall 90.0; wall 99.0 ] @ virtual_

let per_layer r =
  let tr = Option.get r.tracer in
  let traced = ok_samples r.traced in
  let nt = List.length traced in
  let per_op x = if nt = 0 then 0.0 else x /. float_of_int (nt * r.prepared.ops) in
  let total_ns = List.fold_left (fun acc s -> acc + s.wall_ns) 0 traced in
  let med l = (Results.of_samples "" "" l).value in
  let overhead =
    100.0
    *. (med (List.map (fun s -> float_of_int s.wall_ns) traced)
        /. med (List.map (fun s -> float_of_int s.wall_ns) (ok_samples r.plain))
       -. 1.0)
  in
  let counts =
    match traced with
    | s :: _ ->
      List.map
        (fun (k, u) ->
          (k, u, Option.value ~default:0.0 (List.assoc_opt k s.outcome.info)))
        layer_counts
    | [] -> List.map (fun (k, u) -> (k, u, 0.0)) layer_counts
  in
  List.concat_map
    (fun n ->
      [
        (n ^ ".self_ns", "ns/op", per_op (float_of_int (Tracer.self_ns tr n)));
        (n ^ ".minor_words", "words/op", per_op (Tracer.self_words tr n));
      ])
    layer_spans
  @ counts
  @ [
      ("trace.total_ns", "ns/op", per_op (float_of_int total_ns));
      ("trace.residual_ns", "ns/op", per_op (float_of_int (total_ns - Tracer.top_ns tr)));
      ("trace.overhead_pct", "%", overhead);
    ]

(* Σ self times over every span name equals the summed top-level span
   durations; with the residual that makes up the traced total. *)
let check_trace_sums r =
  let tr = Option.get r.tracer in
  let sum = List.fold_left (fun acc n -> acc + Tracer.self_ns tr n) 0 (Tracer.names tr) in
  if sum <> Tracer.top_ns tr then
    failwith (Printf.sprintf "span self times sum to %d ns, top-level spans to %d" sum (Tracer.top_ns tr))

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_header r ~seed =
  Printf.printf "workload %s  seed %d  reps %d (+1 warm-up, %d traced)  %d %s/rep  attempted %d  failed %d\n"
    r.workload.name seed (List.length r.plain) (List.length r.traced) r.prepared.ops
    r.prepared.op_unit r.attempted r.failed

let print_e2e metrics info =
  Printf.printf "  %-20s %16s %-9s %6s %14s %14s\n" "metric" "value" "unit" "n" "p25" "p75";
  List.iter
    (fun (m : Results.metric) ->
      Printf.printf "  %-20s %16.6g %-9s %6d %14.6g %14.6g\n" m.name m.value m.unit_ m.n m.p25
        m.p75)
    metrics;
  List.iter (fun (k, v) -> Printf.printf "  info %-28s %14.6g\n" k v) info

let print_layers r layers =
  let tr = Option.get r.tracer in
  let value k = List.assoc k (List.map (fun (k, _, v) -> (k, v)) layers) in
  let total = value "trace.total_ns" in
  Printf.printf "  %-24s %12s %12s %10s %7s\n" "span" "self ns/op" "words/op" "calls" "share";
  List.iter
    (fun n ->
      let self = value (n ^ ".self_ns") in
      if Tracer.calls tr n > 0 then
        Printf.printf "  %-24s %12.2f %12.2f %10d %6.1f%%\n" n self
          (value (n ^ ".minor_words"))
          (Tracer.calls tr n)
          (if total = 0.0 then 0.0 else 100.0 *. self /. total))
    layer_spans;
  List.iter
    (fun (k, u, v) ->
      if not (String.ends_with ~suffix:".self_ns" k || String.ends_with ~suffix:".minor_words" k)
      then Printf.printf "  %-30s %14.6g %s\n" k v u)
    layers

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Assoc
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Assoc
             (List.map
                (fun (k, u, v) -> (k, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String u) ]))
                metrics) );
       ])

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable reps : int option;
  mutable scale : int;
  mutable out : string option;
  mutable spans : string option;
}

(* Runs one workload and prints its result; returns whether every rep
   passed its checks, and the metrics of the result line. *)
let run_one o =
  let w =
    match Workloads.find o.workload with
    | Some w -> w
    | None ->
      failwith
        (Printf.sprintf "unknown workload %S (known: %s)" o.workload
           (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)))
  in
  let r =
    execute w ~seed:o.seed ~seconds:o.seconds ~reps:o.reps ~scale:o.scale ~trace:o.trace
      ~capacity:(if o.spans = None then 0 else 500)
  in
  print_header r ~seed:o.seed;
  let correct = r.failed = 0 in
  let entry, line_metrics =
    if o.trace then begin
      check_trace_sums r;
      let layers = per_layer r in
      print_layers r layers;
      Option.iter (Tracer.write_chrome (Option.get r.tracer)) o.spans;
      ( [
          ( "per_layer",
            Json.Assoc
              (List.map
                 (fun (k, u, v) -> (k, Json.Assoc [ ("value", Json.Float v); ("unit", Json.String u) ]))
                 layers) );
        ],
        layers )
    end
    else begin
      let metrics = end_to_end r and info = info r in
      print_e2e metrics info;
      ( [
          ("metrics", Json.Assoc (List.map (fun (m : Results.metric) -> (m.name, Results.metric_json m)) metrics));
          ("info", Json.Assoc (List.map (fun (k, v) -> (k, Json.Float v)) info));
        ],
        List.map (fun (m : Results.metric) -> (m.name, m.unit_, m.value)) metrics )
    end
  in
  Option.iter
    (fun path ->
      Results.append_run path ~workload:w.name
        (Json.Assoc
           ([
              ("seed", Json.Int o.seed);
              ("seconds", Json.Float o.seconds);
              ("reps", Json.Int (List.length r.plain));
              ("traced_reps", Json.Int (List.length r.traced));
              ("ops_per_rep", Json.Int r.prepared.ops);
              ("op_unit", Json.String r.prepared.op_unit);
              ("attempted", Json.Int r.attempted);
              ("failed", Json.Int r.failed);
            ]
           @ entry)))
    o.out;
  print_endline (result_line ~correct ~attempted:r.attempted ~failed:r.failed line_metrics);
  (correct, line_metrics)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--out SET.json] \
     [--spans FILE.json]\n\
    \       main.exe trace --workload W [--seed N] [--out F] [--spans F]\n\
    \       main.exe compare A.json B.json [--bench BENCHMARK.json]\n\
    \       main.exe smoke [--bench BENCHMARK.json]";
  exit 2

let parse_opts o args =
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> o.workload <- v; go rest
    | "--seed" :: v :: rest -> o.seed <- int_arg v; go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- (match float_of_string_opt v with Some f -> f | None -> usage ());
      go rest
    | "--trace" :: v :: rest -> o.trace <- int_arg v <> 0; go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--spans" :: v :: rest -> o.spans <- Some v; go rest
    | a :: _ ->
      prerr_endline ("unknown argument: " ^ a);
      usage ()
  in
  go args;
  if o.workload = "" then usage ()

let default_opts () =
  { workload = ""; seed = 1; seconds = 20.0; trace = false; reps = None; scale = 1; out = None; spans = None }

(* The (name, unit) pairs a BENCHMARK.json section declares. *)
let declared bench section =
  List.map
    (fun m -> (Json.get_string (Json.member "name" m), Json.get_string (Json.member "unit" m)))
    (Json.get_list (Json.member section bench))

(* Every workload at 1/64 size with one rep, and a traced run: keeps the
   harness from rotting, and checks that a run reports exactly the
   metrics BENCHMARK.json declares, in its order and with its units. *)
let smoke ~bench =
  let bench = Results.read bench in
  let matches section (correct, metrics) =
    let same = List.map (fun (k, u, _) -> (k, u)) metrics = declared bench section in
    if not same then prerr_endline ("benchmark: the reported metrics differ from BENCHMARK.json's " ^ section);
    correct && same
  in
  let smoke_opts w = { (default_opts ()) with workload = w; reps = Some 1; scale = 64 } in
  List.for_all
    (fun (w : Workloads.t) -> matches "end_to_end" (run_one (smoke_opts w.name)))
    Workloads.all
  && matches "per_layer"
       (run_one { (smoke_opts "elastic-16k") with trace = true; spans = Some "benchmark-smoke-spans.json" })

let main () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: a :: b :: rest ->
    let bench = match rest with [ "--bench" ; f ] -> f | [] -> "BENCHMARK.json" | _ -> usage () in
    Results.compare ~bench:(Results.read bench) (Results.read a) (Results.read b) = 0
  | [ "smoke"; "--bench"; bench ] -> smoke ~bench
  | [ "smoke" ] -> smoke ~bench:"BENCHMARK.json"
  | "trace" :: args ->
    let o = { (default_opts ()) with trace = true; reps = Some 3 } in
    parse_opts o args;
    fst (run_one o)
  | args ->
    let o = default_opts () in
    parse_opts o args;
    fst (run_one o)

let () =
  match main () with
  | true -> exit 0
  | false -> exit 1
  | exception Failure msg ->
    prerr_endline ("benchmark: " ^ msg);
    exit 1
