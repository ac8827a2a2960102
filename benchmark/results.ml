(* Result files and their comparison.

   A result file holds one set of runs: provenance shared by the set and,
   per workload, a list of runs, each metric of a run with its value,
   unit, sample count and quartiles over the run's reps.  [compare]
   applies the bounds of BENCHMARK.json to two such files, using the
   spread between runs. *)

module Json = Openmb_wire.Json

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** samples behind [value] *)
  p25 : float;
  p50 : float;
  p75 : float;
}

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    sorted.(lo) +. ((rank -. float_of_int lo) *. (sorted.(hi) -. sorted.(lo)))

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* A metric read at percentile [p] of its samples. *)
let of_samples ?(p = 50.0) name unit_ samples =
  let s = sorted samples in
  {
    name;
    unit_;
    value = percentile s p;
    n = Array.length s;
    p25 = percentile s 25.0;
    p50 = percentile s 50.0;
    p75 = percentile s 75.0;
  }

let metric_json m =
  Json.Assoc
    [
      ("value", Json.Float m.value);
      ("unit", Json.String m.unit_);
      ("n", Json.Int m.n);
      ("p25", Json.Float m.p25);
      ("p50", Json.Float m.p50);
      ("p75", Json.Float m.p75);
    ]

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let commit () =
  match
    Unix.open_process_args_full "git" [| "git"; "rev-parse"; "HEAD" |] (Unix.environment ())
  with
  | exception Unix.Unix_error _ -> "unknown"
  | (out, inp, err) as p ->
    let line = try input_line out with End_of_file -> "" in
    close_out inp;
    (try while true do ignore (input_line err) done with End_of_file -> ());
    (match Unix.close_process_full p with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown")

let provenance () =
  Json.Assoc
    [
      ("host", Json.String (Unix.gethostname ()));
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("commit", Json.String (commit ()));
      ("ocaml", Json.String Sys.ocaml_version);
    ]

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let write path j =
  let oc = open_out_bin path in
  output_string oc (Json.to_string_pretty j);
  output_char oc '\n';
  close_out oc

let fields = function Json.Assoc l -> l | _ -> []

(* Append one run of [workload] to the set file [path].  A set holds runs
   of one commit on one host; mixing is refused. *)
let append_run path ~workload run =
  let prov = provenance () in
  let workloads =
    if not (Sys.file_exists path) then []
    else begin
      let j = read path in
      if Json.member "provenance" j <> prov then
        failwith (path ^ ": holds runs from another host or commit; write a new set file");
      fields (Json.member "workloads" j)
    end
  in
  let workloads =
    match List.assoc_opt workload workloads with
    | Some runs ->
      List.map
        (fun (k, v) -> if k = workload then (k, Json.List (Json.get_list runs @ [ run ])) else (k, v))
        workloads
    | None -> workloads @ [ (workload, Json.List [ run ]) ]
  in
  write path (Json.Assoc [ ("provenance", prov); ("workloads", Json.Assoc workloads) ])

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)
(* ------------------------------------------------------------------ *)

(* Median and quartiles of a metric's per-run values, as Python's
   [statistics.median] and [statistics.quantiles(values, n=4)] (the
   exclusive method) give them.  The quartiles need two values. *)
let median values =
  let a = sorted values in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartile values i =
  let a = sorted values in
  let n = Array.length a in
  let m = n + 1 in
  let j = max 1 (min (n - 1) (i * m / 4)) in
  let delta = float_of_int ((i * m) - (j * 4)) in
  ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0

type side = {
  values : float list;  (* one per run *)
  med : float;
  spread : float option;  (* interquartile range / median; None below two runs *)
}

let side values =
  let med = median values in
  let spread =
    match values with
    | [] | [ _ ] -> None
    | _ ->
      let iqr = quartile values 3 -. quartile values 1 in
      Some (if iqr = 0.0 then 0.0 else iqr /. Float.abs med)
  in
  { values; med; spread }

type bound = { b_name : string; better_lower : bool; bound : float }

let bounds bench =
  List.map
    (fun m ->
      {
        b_name = Json.get_string (Json.member "name" m);
        better_lower = Json.get_string (Json.member "better" m) = "lower";
        bound = Json.get_float (Json.member "bound" m);
      })
    (Json.get_list (Json.member "end_to_end" bench))

(* Virtual-time results of the model, kept in each run's "info".  Every
   rep of a run reads the same value (a rep that differs fails its
   checks), so on the same seeds a difference between two sets is a
   change of the model, not noise: it is gated at this bound in either
   direction.  They are not in BENCHMARK.json, which gates only metrics
   that every workload reports and that are never constant. *)
let model_bound = 0.005

let model_metrics =
  [ "move_virtual_ms"; "vlat_us_p50"; "vlat_us_p99"; "vlat_op_us_p99"; "vlat_us_mean"; "virtual_end_ms" ]

(* Wall-time info metrics gated like [ops_per_s], with its bound.  A
   move-1k run has ~1,000 reps, so its p90 rests on ~100 samples beyond
   it; the other workloads' ~20 reps are too few for a tail. *)
let wall_gates = [ ("move-1k", "wall_ms_p90") ]

let change va vb = if va = 0.0 then 0.0 else (vb -. va) /. Float.abs va

(* The verdict on sides [a] (parent) and [b] (change).  A metric whose
   runs all read the same is "within".  Otherwise, when either side's
   spread between runs is unknown or wider than the bound, the change
   cannot be told from noise ("unresolved") unless both sides have two
   or more runs and every run of [b] reads better than every run of [a].
   Else the change of medians decides. *)
let verdict ~better_lower ~bound a b =
  let worse = if better_lower then change a.med b.med else -.change a.med b.med in
  let better vb va = if better_lower then vb < va else vb > va in
  let by_change () =
    if worse > bound then `Regressed else if worse < -.bound then `Improved else `Within
  in
  let wide = function None -> true | Some s -> s > bound in
  if List.for_all (fun v -> v = List.hd a.values) (a.values @ b.values) then `Within
  else if wide a.spread || wide b.spread then
    if a.spread <> None && b.spread <> None
       && List.for_all (fun vb -> List.for_all (better vb) a.values) b.values
    then by_change ()
    else `Unresolved
  else by_change ()

let pct = function None -> "-" | Some s -> Printf.sprintf "%.2f%%" (100.0 *. s)

let row w name a b ~bound verdict =
  Printf.printf "%-16s %-20s %14.6g %14.6g %+8.2f%% %8s %8s %7.2f%% %3d/%-3d %s\n" w name a.med b.med
    (100.0 *. change a.med b.med) (pct a.spread) (pct b.spread) (100.0 *. bound)
    (List.length a.values) (List.length b.values) verdict

(* Prints one row per workload and metric and returns the number of
   REGRESSED and CHANGED rows.  Each side's value is the median over its
   runs; its spread is the interquartile range of the per-run values as
   a share of that median.  Model metrics are gated only when both sets
   ran the same seeds. *)
let compare ~bench a b =
  let host j = Json.member "host" (Json.member "provenance" j) in
  if host a <> host b then
    failwith
      (Printf.sprintf "refusing to compare runs from different hosts (%s vs %s)"
         (Json.to_string (host a)) (Json.to_string (host b)));
  let bounds = bounds bench in
  let wall_bound = (List.find (fun bd -> bd.b_name = "ops_per_s") bounds).bound in
  let regressions = ref 0 in
  let runs set w =
    match List.assoc_opt w (fields (Json.member "workloads" set)) with
    | Some (Json.List l) -> List.filter (fun r -> Json.mem "metrics" r) l
    | _ -> []
  in
  let values runs section k =
    List.filter_map
      (fun r ->
        match Json.member k (Json.member section r) with
        | Json.Null -> None
        | Json.Assoc _ as m -> Some (Json.get_float (Json.member "value" m))
        | v -> Some (Json.get_float v))
      runs
  in
  let seeds runs = List.sort Stdlib.compare (List.map (fun r -> Json.get_int (Json.member "seed" r)) runs) in
  let gated w name ~better_lower ~bound va vb =
    if va = [] || vb = [] then Printf.printf "%-16s %-20s (missing)\n" w name
    else begin
      let a = side va and b = side vb in
      let v =
        match verdict ~better_lower ~bound a b with
        | `Regressed ->
          incr regressions;
          "REGRESSED"
        | `Improved -> "improved"
        | `Within -> "within"
        | `Unresolved -> "unresolved"
      in
      row w name a b ~bound v
    end
  in
  Printf.printf "%-16s %-20s %14s %14s %9s %8s %8s %8s %7s %s\n" "workload" "metric" "A median"
    "B median" "change" "spread A" "spread B" "bound" "runs" "verdict";
  List.iter
    (fun (w, _) ->
      let ra = runs a w and rb = runs b w in
      if rb = [] then Printf.printf "%-16s (absent from B)\n" w
      else if ra <> [] then begin
        List.iter
          (fun bd ->
            gated w bd.b_name ~better_lower:bd.better_lower ~bound:bd.bound
              (values ra "metrics" bd.b_name) (values rb "metrics" bd.b_name))
          bounds;
        List.iter
          (fun (gw, k) ->
            if gw = w then
              gated w k ~better_lower:true ~bound:wall_bound (values ra "info" k) (values rb "info" k))
          wall_gates;
        let same_seeds = seeds ra = seeds rb in
        List.iter
          (fun k ->
            match (values ra "info" k, values rb "info" k) with
            | [], _ | _, [] -> ()
            | va, vb ->
              let a = side va and b = side vb in
              let v =
                if not same_seeds then "skipped (seeds differ)"
                else if Float.abs (change a.med b.med) > model_bound then begin
                  incr regressions;
                  "CHANGED"
                end
                else "within"
              in
              row w k a b ~bound:model_bound v)
          model_metrics
      end)
    (fields (Json.member "workloads" a));
  !regressions
