(* Pair summary: the figures a change's record quotes from a run of
   bench/pairs.sh.

     main.exe --pair-summary PARENT.json CHANGE.json BENCHMARK.json

   PARENT.json and CHANGE.json are the two result sets pairs.sh writes,
   one run per pair appended in pair order, so the i-th run of a
   workload on each side is pair i.  For each workload and each
   end-to-end metric of BENCHMARK.json it prints each side's quartiles
   over the pairs, the change of the medians in percent, and in how many
   pairs the change read better than the parent (a tie is no win). *)

module Json = Openmb_wire.Json

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Quartiles [i] = 1, 2, 3 by the exclusive method, as Python's
   [statistics.quantiles(values, n=4)] gives them (and as [compare]
   reports spreads); a single value is its own quartiles. *)
let quartile values i =
  let a = sorted values in
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / 4)) in
    let delta = float_of_int ((i * m) - (j * 4)) in
    ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fields = function Json.Assoc l -> l | _ -> []

let read path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

let runs set w =
  match List.assoc_opt w (fields (Json.member "workloads" set)) with
  | Some (Json.List l) -> List.filter (fun r -> Json.mem "metrics" r) l
  | _ -> []

let value run metric =
  match Json.member metric (Json.member "metrics" run) with
  | Json.Assoc _ as m -> Some (Json.get_float (Json.member "value" m))
  | _ -> None

(* The pairs both sides have, in order: the shorter side bounds them. *)
let rec pairs a b =
  match (a, b) with
  | x :: a, y :: b -> (x, y) :: pairs a b
  | [], _ | _, [] -> []

let print ~bench a b =
  let metrics =
    List.map
      (fun m ->
        (Json.get_string (Json.member "name" m), Json.get_string (Json.member "better" m) = "lower"))
      (Json.get_list (Json.member "end_to_end" bench))
  in
  let q3 v = Printf.sprintf "%.6g/%.6g/%.6g" (quartile v 1) (median v) (quartile v 3) in
  Printf.printf "%-16s %-20s %-36s %-36s %9s %6s\n" "workload" "metric" "parent p25/p50/p75"
    "change p25/p50/p75" "change" "wins";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (metric, lower) ->
          let both =
            List.filter_map
              (fun (ra, rb) ->
                match (value ra metric, value rb metric) with
                | Some va, Some vb -> Some (va, vb)
                | _ -> None)
              (pairs (runs a w) (runs b w))
          in
          if both <> [] then begin
            let va = List.map fst both and vb = List.map snd both in
            let ma = median va in
            let change = if ma = 0.0 then 0.0 else 100.0 *. (median vb -. ma) /. Float.abs ma in
            let wins = List.length (List.filter (fun (x, y) -> if lower then y < x else y > x) both) in
            Printf.printf "%-16s %-20s %-36s %-36s %+8.2f%% %3d/%-3d\n" w metric (q3 va) (q3 vb) change
              wins (List.length both)
          end)
        metrics)
    (fields (Json.member "workloads" a))

let run parent change bench =
  match (read parent, read change, read bench) with
  | a, b, bench ->
    print ~bench a b;
    0
  | exception (Sys_error msg | Json.Parse_error msg) ->
    Printf.eprintf "pair-summary: %s\n" msg;
    2
