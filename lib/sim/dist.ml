let exponential g ~mean =
  let u = 1.0 -. Prng.float g 1.0 in
  -.mean *. log u

let uniform g ~lo ~hi = lo +. Prng.float g (hi -. lo)

let pareto g ~shape ~scale =
  let u = 1.0 -. Prng.float g 1.0 in
  scale /. (u ** (1.0 /. shape))

let bounded_pareto g ~shape ~lo ~hi =
  (* Inverse CDF of the Pareto truncated to [lo, hi]. *)
  let u = Prng.float g 1.0 in
  let la = lo ** shape and ha = hi ** shape in
  let x = -.((u *. ha) -. (u *. la) -. ha) /. (ha *. la) in
  x ** (-1.0 /. shape)

let normal g ~mean ~stddev =
  let u1 = 1.0 -. Prng.float g 1.0 in
  let u2 = Prng.float g 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

let lognormal g ~mu ~sigma = exp (normal g ~mean:mu ~stddev:sigma)

(* Zipf sampling by inversion over a cached cumulative table.  The
   cache is keyed on (n, s); generators in this codebase use a handful
   of distinct configurations, so the table is built once each. *)
let zipf_cache : (int * float, float array) Hashtbl.t = Hashtbl.create 7

let zipf_table n s =
  match Hashtbl.find_opt zipf_cache (n, s) with
  | Some t -> t
  | None ->
    let t = Array.make n 0.0 in
    let acc = ref 0.0 in
    for k = 1 to n do
      acc := !acc +. (1.0 /. (float_of_int k ** s));
      t.(k - 1) <- !acc
    done;
    (* Normalize to a proper CDF. *)
    let total = t.(n - 1) in
    for k = 0 to n - 1 do
      t.(k) <- t.(k) /. total
    done;
    Hashtbl.replace zipf_cache (n, s) t;
    t

let zipf g ~n ~s =
  assert (n > 0);
  let t = zipf_table n s in
  let u = Prng.float g 1.0 in
  (* Binary search for the first index whose CDF value exceeds u. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1) + 1

let empirical g ~points =
  let n = Array.length points in
  assert (n > 0);
  let u = Prng.float g 1.0 in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      let _, p = points.(mid) in
      if p < u then search (mid + 1) hi else search lo mid
  in
  let i = search 0 (n - 1) in
  if i = 0 then
    let v, p = points.(0) in
    if p <= 0.0 then v else v *. (u /. p)
  else
    let v0, p0 = points.(i - 1) and v1, p1 = points.(i) in
    if p1 <= p0 then v1 else v0 +. ((v1 -. v0) *. ((u -. p0) /. (p1 -. p0)))

(* ------------------------------------------------------------------ *)
(* First-class distribution specs                                      *)
(* ------------------------------------------------------------------ *)

type spec =
  | Constant of float
  | Uniform_spec of { lo : float; hi : float }
  | Exponential_spec of { mean : float }
  | Normal_spec of { mean : float; stddev : float }
  | Lognormal_spec of { mu : float; sigma : float }
  | Pareto_spec of { shape : float; lo : float; hi : float }

let sample g = function
  | Constant v -> v
  | Uniform_spec { lo; hi } -> uniform g ~lo ~hi
  | Exponential_spec { mean } -> exponential g ~mean
  | Normal_spec { mean; stddev } -> normal g ~mean ~stddev
  | Lognormal_spec { mu; sigma } -> lognormal g ~mu ~sigma
  | Pareto_spec { shape; lo; hi } -> bounded_pareto g ~shape ~lo ~hi

let support = function
  | Constant v -> (v, v)
  | Uniform_spec { lo; hi } -> (lo, hi)
  | Exponential_spec _ -> (0.0, infinity)
  | Normal_spec _ -> (neg_infinity, infinity)
  | Lognormal_spec _ -> (0.0, infinity)
  | Pareto_spec { lo; hi; _ } -> (lo, hi)

(* Specs print with hex-float literals ("%h") so that parsing the
   printed form reconstructs bit-identical parameters — a requirement
   of the fault-plan reproducer path, where a failing seed's printed
   plan must re-run verbatim. *)
let spec_to_string = function
  | Constant v -> Printf.sprintf "const(%h)" v
  | Uniform_spec { lo; hi } -> Printf.sprintf "uniform(%h,%h)" lo hi
  | Exponential_spec { mean } -> Printf.sprintf "exp(%h)" mean
  | Normal_spec { mean; stddev } -> Printf.sprintf "normal(%h,%h)" mean stddev
  | Lognormal_spec { mu; sigma } -> Printf.sprintf "lognormal(%h,%h)" mu sigma
  | Pareto_spec { shape; lo; hi } -> Printf.sprintf "pareto(%h,%h,%h)" shape lo hi

let spec_of_string s =
  let fail () = failwith (Printf.sprintf "Dist.spec_of_string: cannot parse %S" s) in
  match (String.index_opt s '(', String.rindex_opt s ')') with
  | Some op, Some cl when cl = String.length s - 1 && op < cl ->
    let name = String.sub s 0 op in
    let args =
      String.split_on_char ',' (String.sub s (op + 1) (cl - op - 1))
      |> List.map (fun a ->
             match float_of_string_opt (String.trim a) with
             | Some f -> f
             | None -> fail ())
    in
    (match (name, args) with
    | "const", [ v ] -> Constant v
    | "uniform", [ lo; hi ] -> Uniform_spec { lo; hi }
    | "exp", [ mean ] -> Exponential_spec { mean }
    | "normal", [ mean; stddev ] -> Normal_spec { mean; stddev }
    | "lognormal", [ mu; sigma ] -> Lognormal_spec { mu; sigma }
    | "pareto", [ shape; lo; hi ] -> Pareto_spec { shape; lo; hi }
    | _ -> fail ())
  | _ -> fail ()

let weighted_index g ~weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  assert (total > 0.0);
  let u = Prng.float g total in
  let n = Array.length weights in
  let rec go i acc =
    if i >= n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
  in
  go 0 0.0
