(* OpenMB benchmark harness.

   Regenerates every table and figure of the paper's evaluation (§8)
   plus the design-choice ablations.  With no arguments it runs the
   whole battery; pass experiment names to run a subset:

     dune exec bench/main.exe             # everything
     dune exec bench/main.exe table3 fig8 # a subset
     dune exec bench/main.exe -- --list   # available experiments

   The micro experiment additionally honours --json [--label NAME],
   which merges its results into BENCH_micro.json under that label
   (default "current") so the perf trajectory is tracked across PRs:

     dune exec bench/main.exe -- micro --json --label after

   micro --compare BEFORE.json AFTER.json skips the benchmarks and
   instead diffs two result files (flat results or BENCH_micro.json
   labelled files — the last label wins), exiting non-zero when any
   benchmark regressed by more than 20% in ns/op or allocates more than
   1% and at least 1 minor word/op above its baseline:

     dune exec bench/main.exe -- micro --compare before.json after.json

   micro --rebaseline LABEL[,LABEL...] re-records committed baselines
   in place after a host change: the suite runs once (honouring
   --rounds) and, inside each named label of BENCH_micro.json, only the
   rows that label already tracks are overwritten — a label absent from
   the file fails the run:

     dune exec bench/main.exe -- micro --rounds 3 --rebaseline after

   failover --faults SEED swaps the failover battery for a single
   recovery run under the named deterministic fault plan (message drops
   and duplication, latency spikes, a possible primary crash),
   reporting recovery time and controller retries and appending the row
   to BENCH_micro.json under the "failover-faults" label:

     dune exec bench/main.exe -- failover --faults 42

   --pair-summary PARENT.json CHANGE.json BENCHMARK.json summarizes the
   two result sets of a bench/pairs.sh run instead: per workload and
   end-to-end metric, each side's quartiles over the pairs, the change
   of the medians and how many pairs the change won:

     dune exec bench/main.exe -- --pair-summary parent.json change.json BENCHMARK.json *)

let experiments : (string * string * (unit -> unit)) list =
  [
    ("fig7", "MB actions during scale-up (timeline)", Exp_scenarios.fig7);
    ("fig8", "flow-duration CDF and deprecated-MB hold-up", Exp_scenarios.fig8);
    ("table2", "applicability matrix of MB control schemes", Exp_scenarios.table2);
    ("table3", "RE in live migration: encoded vs. undecodable", Exp_scenarios.table3);
    ("fig9ab", "get/put processing time vs. state chunks", Exp_mb.fig9ab);
    ("fig9cd", "re-process events vs. packet rate", Exp_mb.fig9cd);
    ("fig10a", "controller move time, with/without events", Exp_controller.fig10a);
    ("fig10b", "controller move time vs. simultaneous moves", Exp_controller.fig10b);
    ("snapshot", "VM-snapshot baseline sizes and log damage", Exp_scenarios.snapshot);
    ("splitmerge", "Split/Merge halt-and-buffer latency", Exp_scenarios.splitmerge);
    ("correctness", "migrated-MB output equals unmodified MB", Exp_scenarios.correctness);
    ("latency", "per-packet latency, normal vs. during get", Exp_mb.latency);
    ("compression", "state-transfer compression (section 8.3)", Exp_controller.compression);
    ( "ablation-events",
      "what breaks without re-process events",
      Exp_scenarios.ablation_events );
    ( "ablation-delete",
      "immediate vs. quiescence-deferred delete",
      Exp_scenarios.ablation_delete );
    ( "ablation-broker",
      "controller-brokered vs. direct transfer",
      Exp_controller.ablation_broker );
    ( "ablation-scan",
      "linear-scan get vs. indexed lookup (footnote 6)",
      Exp_micro.scan_vs_index );
    ("failover", "failure-recovery options quantified (section 2)", Exp_failover.run);
    ("micro", "micro-benchmarks of hot primitives", Exp_micro.run);
    ( "scale",
      "million-flow switch+NAT+monitor chain with concurrent move",
      Exp_scale.run );
    ( "move",
      "instrumented move: spans, linked op ids, latency histograms",
      Exp_telemetry.move );
    ( "telemetry",
      "registry snapshot + serialization-window quantiles of a move",
      Exp_telemetry.report );
    ( "micro-telemetry",
      "overhead of a live registry on the tracked scheduler rows",
      Exp_micro.run_telemetry );
    ( "pktpath",
      "packet path through switch+NAT+monitor at batch sizes 1-256",
      Exp_pktpath.run );
    ( "statetable",
      "flat open-addressing flow-state core vs. Hashtbl, 10k and 1M entries",
      Exp_statetable.run );
    ( "soak",
      "HA chaos soak: replicated controller vs. fault-free oracle",
      Exp_soak.run );
    ( "obs",
      "time-series scrape overhead on the chain workload (3% gate target)",
      Exp_obs.run );
  ]

let list_experiments () =
  print_endline "Available experiments:";
  List.iter (fun (name, descr, _) -> Printf.printf "  %-16s %s\n" name descr) experiments

let run_one name =
  match List.find_opt (fun (n, _, _) -> String.equal n name) experiments with
  | Some (_, _, f) -> f ()
  | None ->
    Printf.eprintf "unknown experiment %S\n" name;
    list_experiments ();
    exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: [] ->
    List.iter
      (fun (name, _, f) ->
        (* The million-flow macro takes minutes: explicit opt-in only. *)
        if not (String.equal name "scale") then begin
          Printf.printf "\n>>> %s\n%!" name;
          f ();
          Printf.printf "%!"
        end)
      experiments
  | _ :: args ->
    (* Strip flags before dispatching on experiment names. *)
    let rec strip = function
      | [] -> []
      | "--json" :: rest ->
        if !Exp_micro.json_label = None then Exp_micro.json_label := Some "current";
        strip rest
      | "--label" :: label :: rest ->
        Exp_micro.json_label := Some label;
        strip rest
      | "--compare" :: before :: after :: _ ->
        (* A comparison replaces the run entirely: diff the two result
           files and exit, failing the invocation on regressions. *)
        exit (if Exp_micro.compare_results before after > 0 then 1 else 0)
      | "--compare" :: _ ->
        Printf.eprintf "usage: micro --compare BEFORE.json AFTER.json\n";
        exit 2
      | "--faults" :: seed :: rest when int_of_string_opt seed <> None ->
        Exp_failover.fault_seed := int_of_string_opt seed;
        strip rest
      | "--faults" :: _ ->
        Printf.eprintf "usage: failover --faults SEED\n";
        exit 2
      | "--flows" :: count :: rest when int_of_string_opt count <> None ->
        (match int_of_string_opt count with
        | Some c when c > 0 ->
          Exp_scale.flows := c;
          Exp_telemetry.flows := c;
          Exp_obs.flows := c
        | _ ->
          Printf.eprintf "usage: scale|move --flows N (N > 0)\n";
          exit 2);
        strip rest
      | "--flows" :: _ ->
        Printf.eprintf "usage: scale|move --flows N\n";
        exit 2
      | "--domains" :: count :: rest when int_of_string_opt count <> None ->
        (match int_of_string_opt count with
        | Some d when d > 0 -> Exp_scale.domains := d
        | _ ->
          Printf.eprintf "usage: scale --domains D (D > 0)\n";
          exit 2);
        strip rest
      | "--domains" :: _ ->
        Printf.eprintf "usage: scale --domains D\n";
        exit 2
      | "--batch" :: size :: rest when int_of_string_opt size <> None ->
        (match int_of_string_opt size with
        | Some b when b > 0 -> Exp_pktpath.batches := b :: !Exp_pktpath.batches
        | _ ->
          Printf.eprintf "usage: pktpath --batch N (N > 0, repeatable)\n";
          exit 2);
        strip rest
      | "--batch" :: _ ->
        Printf.eprintf "usage: pktpath --batch N\n";
        exit 2
      | "--min-speedup" :: factor :: rest when float_of_string_opt factor <> None ->
        (match float_of_string_opt factor with
        | Some s when s > 0.0 ->
          Exp_statetable.min_speedup := Some s
        | _ ->
          Printf.eprintf "usage: statetable --min-speedup S (S > 0)\n";
          exit 2);
        strip rest
      | "--min-speedup" :: _ ->
        Printf.eprintf "usage: statetable --min-speedup S\n";
        exit 2
      | "--min-events-per-sec" :: rate :: rest when float_of_string_opt rate <> None ->
        (match float_of_string_opt rate with
        | Some r when r > 0.0 -> Exp_scale.min_events_per_sec := r
        | _ ->
          Printf.eprintf "usage: scale --min-events-per-sec RATE (RATE > 0)\n";
          exit 2);
        strip rest
      | "--min-events-per-sec" :: _ ->
        Printf.eprintf "usage: scale --min-events-per-sec RATE\n";
        exit 2
      | "--pair-summary" :: parent :: change :: bench :: _ ->
        exit (Pair_summary.run parent change bench)
      | "--pair-summary" :: _ ->
        Printf.eprintf "usage: --pair-summary PARENT.json CHANGE.json BENCHMARK.json\n";
        exit 2
      | "--require-labels" :: file :: labels :: _ ->
        (* A label check replaces the run: verify the result file holds
           every comma-separated label, exiting non-zero otherwise so
           gates fail loudly instead of comparing against nothing. *)
        exit
          (if
             Exp_micro.require_labels file (String.split_on_char ',' labels) > 0
           then 1
           else 0)
      | "--require-labels" :: _ ->
        Printf.eprintf "usage: micro --require-labels FILE LABEL[,LABEL...]\n";
        exit 2
      | "--trace-out" :: file :: rest when String.length file > 0 ->
        Util.trace_out := Some file;
        strip rest
      | "--trace-out" :: _ ->
        Printf.eprintf "usage: move|telemetry|failover|scale --trace-out FILE.json\n";
        exit 2
      | "--rebaseline" :: labels :: rest when String.length labels > 0 ->
        Exp_micro.rebaseline_labels := String.split_on_char ',' labels;
        strip rest
      | "--rebaseline" :: _ ->
        Printf.eprintf "usage: micro --rebaseline LABEL[,LABEL...]\n";
        exit 2
      | "--dash" :: rest ->
        Util.dash := true;
        strip rest
      | "--rounds" :: n :: rest when int_of_string_opt n <> None ->
        (match int_of_string_opt n with
        | Some r when r > 0 -> Util.rounds := r
        | _ ->
          Printf.eprintf "usage: micro --rounds N (N > 0)\n";
          exit 2);
        strip rest
      | "--rounds" :: _ ->
        Printf.eprintf "usage: micro --rounds N\n";
        exit 2
      | "--threshold" :: pct :: rest when float_of_string_opt pct <> None ->
        (match float_of_string_opt pct with
        | Some p when p > 0.0 -> Exp_micro.regression_threshold := p /. 100.0
        | _ ->
          Printf.eprintf "usage: micro --threshold PCT (PCT > 0)\n";
          exit 2);
        strip rest
      | "--threshold" :: _ ->
        Printf.eprintf "usage: micro --threshold PCT\n";
        exit 2
      | "--gate" :: pct :: rest when float_of_string_opt pct <> None ->
        (* The budget applies to whichever gated experiment runs. *)
        Exp_micro.telemetry_gate := float_of_string_opt pct;
        Exp_obs.gate := float_of_string_opt pct;
        strip rest
      | "--gate" :: _ ->
        Printf.eprintf "usage: micro-telemetry|obs --gate PCT\n";
        exit 2
      | arg :: rest -> arg :: strip rest
    in
    List.iter
      (fun arg ->
        match arg with
        | "--list" | "-l" -> list_experiments ()
        | name ->
          run_one name;
          Printf.printf "%!")
      (strip args)
  | [] -> assert false
