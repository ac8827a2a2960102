(* Shared helpers for the benchmark harness. *)

let banner title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

let section title = Printf.printf "\n--- %s ---\n" title

let row fmt = Printf.printf fmt

let paper_note fmt =
  Printf.printf "  [paper] ";
  Printf.printf fmt

(* Run a function over a fresh engine-driven setup and hand back the
   result once the simulation drains. *)
let ms t = Openmb_sim.Time.to_ms t

(* Set by the driver (--trace-out FILE): experiments that own a
   telemetry instance dump its span ring as Chrome trace_event JSON
   here after their macro completes.  When several runs share one
   invocation the last dump wins. *)
let trace_out : string option ref = ref None

let maybe_dump_trace tel =
  match !trace_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Openmb_sim.Telemetry.export_chrome tel oc);
    Printf.printf "  [trace] wrote %s\n" path

let mb bytes = float_of_int bytes /. 1e6

(* Set by the driver (--dash): macros that attach an observability
   scraper render the terminal dashboard after their run. *)
let dash : bool ref = ref false

(* Standard observability attachment for the macros (bench obs and the
   --dash flag on scale/soak/pktpath): a Timeseries scraper over the
   registry signals every macro shares, plus default SLOs.  Signals a
   given workload never drives render as flat zero rows.  [every] must
   scale with the macro's virtual horizon — milliseconds for
   packet-path runs, seconds for the hours-long soak. *)
let attach_obs ?(every = Openmb_sim.Time.ms 1.0) ?(cap = 512) tel engine =
  let open Openmb_sim in
  let ts = Timeseries.create ~cap engine in
  let c n = Timeseries.add ts ~name:n (Timeseries.Counter (Telemetry.counter tel n)) in
  List.iter c
    [
      "engine.events";
      "mb.pkts";
      "controller.msgs";
      "controller.evt_dropped";
      "controller.op_retries";
      "faults.dropped";
      "replica.failovers";
    ];
  Timeseries.add ts ~name:"replica.log_lag" ~mode:Timeseries.Max
    (Timeseries.Gauge (Telemetry.gauge tel "replica.log_lag"));
  let q hist quant label =
    Timeseries.add ts ~name:label
      (Timeseries.Quantile (Telemetry.histogram tel hist, quant))
  in
  q "mb.pkt_latency" 0.99 "mb.pkt_latency_p99";
  q "controller.op_latency" 0.99 "controller.op_latency_p99";
  q "controller.serialization_window" 0.99 "controller.serialization_window_p99";
  let slo = Slo.create ts in
  Slo.add slo
    (Slo.objective ~name:"pkt-p99-under-2ms" ~series:"mb.pkt_latency_p99" Slo.Le 0.002);
  Slo.add slo
    (Slo.objective ~signal:Slo.Delta ~budget:1e-6 ~name:"evt-drops-zero"
       ~series:"controller.evt_dropped" Slo.Le 0.0);
  Slo.attach slo;
  Timeseries.start ts ~every;
  (ts, slo)

let maybe_dash obs =
  if !dash then
    match obs with
    | None -> ()
    | Some (_, slo) ->
      section "dashboard";
      Openmb_sim.Slo.pp_dash Format.std_formatter slo;
      Format.pp_print_flush Format.std_formatter ()

let bench_file = "BENCH_micro.json"

(* The labels of a BENCH_micro.json-style file.  A file that exists but
   is not a JSON object (a merge-conflict marker, a truncated write)
   stops the run with the file untouched: treating it as empty would let
   the next writer replace every other label with its own. *)
let read_labels path =
  let open Openmb_wire in
  match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
  | Json.Assoc fields -> fields
  | _ | (exception Json.Parse_error _) ->
    Printf.eprintf "%s: not a JSON object of labelled rows; left unchanged\n" path;
    exit 1

let write_labels fields =
  let open Openmb_wire in
  Out_channel.with_open_text bench_file (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty (Json.Assoc fields));
      Out_channel.output_char oc '\n')

(* Append one labelled entry to BENCH_micro.json (in the current
   directory), replacing any previous entry under the same label. *)
let append_label label entry =
  let existing = if Sys.file_exists bench_file then read_labels bench_file else [] in
  write_labels (List.remove_assoc label existing @ [ (label, entry) ]);
  Printf.printf "  [json] wrote %s (label %S)\n" bench_file label

(* The commit checked out, when [git rev-parse HEAD] answers. *)
let git_head () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> None
  | ic -> (
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some commit -> Some commit
    | _ -> None)

(* Where a row was measured, so that rows from different hosts,
   compilers or commits are not read as like for like.  [nproc] is the
   processors the OCaml runtime sees. *)
let provenance () =
  let open Openmb_wire in
  [
    ("host", Json.String (Unix.gethostname ()));
    ("ocaml", Json.String Sys.ocaml_version);
    ("nproc", Json.Int (Domain.recommended_domain_count ()));
  ]
  @ match git_head () with Some c -> [ ("commit", Json.String c) ] | None -> []

(* Append one whole-label row of [fields], with its provenance. *)
let append_row label fields =
  append_label label (Openmb_wire.Json.Assoc (fields @ provenance ()))

(* ------------------------------------------------------------------ *)
(* The timer                                                           *)
(* ------------------------------------------------------------------ *)

(* Timed batches per row; --rounds N sets it. *)
let rounds = ref 3

(* A calibrated batch runs at least this long: long enough that clock
   reads vanish against it, short enough that the minimum of a few
   rounds finds a batch no other process interrupted. *)
let target_ns = 25e6

(* Per op.  [minor_words] is exact: [Gc.minor_words] counts the young
   pointer.  The other counters come from [Gc.quick_stat], which on
   OCaml 5 only advances at collection boundaries, so they are means over
   all rounds. *)
type timing = {
  ns_min : float;  (** ns/op of the fastest round: the gated figure *)
  ns_median : float;
  ns_mad : float;  (** median absolute deviation of ns/op over rounds *)
  rounds : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
}

let elapsed_ns f n =
  let t0 = Monotonic_clock.now () in
  f n;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* Warm up with one op, then double the batch until it fills the target. *)
let calibrate f =
  f 1;
  let rec grow n = if elapsed_ns f n >= target_ns then n else grow (2 * n) in
  grow 1

let median xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.0

(* Calibrate each batch function, then time [!rounds] rounds; within a
   round the batches run in list order, so twins timed together (off/on,
   flat/Hashtbl) share the machine state of every round.  The minor-words
   window holds only the batch: nothing in it allocates but the ops. *)
let time_rounds fs =
  let r = !rounds in
  let fs = Array.of_list fs in
  let n = Array.map calibrate fs in
  let ns = Array.map (fun _ -> Array.make r 0.0) fs in
  let minor = Array.make (Array.length fs) 0.0 in
  let stats = Array.map (fun _ -> []) fs in
  for round = 0 to r - 1 do
    Array.iteri
      (fun i f ->
        let s0 = Gc.quick_stat () in
        let t0 = Monotonic_clock.now () in
        let mw0 = Gc.minor_words () in
        f n.(i);
        let mw1 = Gc.minor_words () in
        let t1 = Monotonic_clock.now () in
        let s1 = Gc.quick_stat () in
        ns.(i).(round) <- Int64.to_float (Int64.sub t1 t0) /. float_of_int n.(i);
        minor.(i) <- minor.(i) +. (mw1 -. mw0);
        stats.(i) <- (s0, s1) :: stats.(i))
      fs
  done;
  List.init (Array.length fs) (fun i ->
      let ops = float_of_int (r * n.(i)) in
      let per_op field =
        List.fold_left (fun acc (s0, s1) -> acc +. (field s1 -. field s0)) 0.0 stats.(i)
        /. ops
      in
      let med = median ns.(i) in
      {
        ns_min = Array.fold_left Float.min infinity ns.(i);
        ns_median = med;
        ns_mad = median (Array.map (fun x -> Float.abs (x -. med)) ns.(i));
        rounds = r;
        minor_words = minor.(i) /. ops;
        promoted_words = per_op (fun s -> s.Gc.promoted_words);
        major_words = per_op (fun s -> s.Gc.major_words);
        minor_collections = per_op (fun s -> float_of_int s.Gc.minor_collections);
        major_collections = per_op (fun s -> float_of_int s.Gc.major_collections);
      })

(* The counter must read a 2-word [ref] as exactly 2 words/op.  It guards
   two known misreadings: [Gc.quick_stat] deltas, which on OCaml 5 skip
   the young generation between collections (a million 5-word
   allocations read 4.98 words each), and a window that allocates
   around the batch. *)
let self_check =
  lazy
    (let refs n =
       for i = 1 to n do
         ignore (Sys.opaque_identity (ref i))
       done
     in
     match time_rounds [ refs ] with
    | [ t ] when t.minor_words = 2.0 -> ()
    | [ t ] ->
      failwith
        (Printf.sprintf "timer self-check: a 2-word ref read %.12g minor words/op"
           t.minor_words)
    | _ -> assert false)

(* Time each batch function [f n], which runs [n] operations.  Callers
   compact the heap before building a row's fixture. *)
let measure fs =
  Lazy.force self_check;
  time_rounds fs
