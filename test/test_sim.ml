(* Unit and property tests for the simulation substrate. *)

open Openmb_sim

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Heap                                                                *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (drain [])

let test_heap_fifo_ties () =
  (* Equal keys pop in insertion order. *)
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  List.iter (Heap.push h) [ (1, "a"); (1, "b"); (0, "z"); (1, "c") ];
  let labels = ref [] in
  let rec drain () =
    match Heap.pop h with
    | None -> ()
    | Some (_, l) ->
      labels := l :: !labels;
      drain ()
  in
  drain ();
  Alcotest.(check (list string)) "fifo ties" [ "z"; "a"; "b"; "c" ] (List.rev !labels)

let test_heap_empty () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "pop empty" None (Heap.pop h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h)

let test_heap_clear () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.push h) [ 3; 1; 2 ];
  Heap.clear h;
  Alcotest.(check int) "size after clear" 0 (Heap.size h);
  Heap.push h 7;
  Alcotest.(check (option int)) "usable after clear" (Some 7) (Heap.pop h)

let prop_heap_sorts =
  QCheck2.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck2.Gen.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

(* ------------------------------------------------------------------ *)
(* PRNG and distributions                                              *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:99 and b = Prng.create ~seed:99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create ~seed:99 in
  let c = Prng.split a in
  (* Splitting then drawing from the parent must not change the
     child's stream. *)
  let expected = List.init 10 (fun _ -> Prng.bits64 (Prng.split (Prng.create ~seed:99))) in
  ignore expected;
  let child_first = Prng.bits64 c in
  let a2 = Prng.create ~seed:99 in
  let c2 = Prng.split a2 in
  ignore (Prng.bits64 a2);
  Alcotest.(check int64) "child unaffected by parent draws" child_first (Prng.bits64 c2)

let test_prng_bounds () =
  let g = Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Prng.int_in g (-5) 5 in
    Alcotest.(check bool) "int_in range" true (v >= -5 && v <= 5)
  done

let test_prng_float_mean () =
  let g = Prng.create ~seed:5 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.float g 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.02)

(* [xor_stream] applies the generator's own stream, eight bytes per
   [bits64] little-endian, including a cut final block, and allocates
   nothing. *)
let test_prng_xor_stream () =
  List.iter
    (fun (seed, n) ->
      let plain = Bytes.init n (fun i -> Char.chr ((i * 37) land 0xFF)) in
      let g = Prng.create ~seed in
      let expected = Bytes.copy plain in
      let block = ref 0L in
      for i = 0 to n - 1 do
        if i land 7 = 0 then block := Prng.bits64 g;
        let k = Int64.to_int (Int64.logand !block 0xFFL) in
        block := Int64.shift_right_logical !block 8;
        Bytes.set expected i (Char.chr (Char.code (Bytes.get expected i) lxor k))
      done;
      let actual = Bytes.copy plain in
      let w0 = Gc.minor_words () in
      Prng.xor_stream ~seed actual;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check string) (Printf.sprintf "seed %d, %d bytes" seed n)
        (Bytes.to_string expected) (Bytes.to_string actual);
      Alcotest.(check (float 0.0)) "allocation-free" 0.0 words)
    [ (0, 0); (1, 1); (7, 7); (-3, 8); (42, 9); (max_int, 64); (min_int, 1027) ]

let test_dist_exponential_mean () =
  let g = Prng.create ~seed:8 in
  let n = 20000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Dist.exponential g ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 3" true (Float.abs (mean -. 3.0) < 0.15)

let test_dist_zipf_rank1_most_popular () =
  let g = Prng.create ~seed:21 in
  let counts = Array.make 11 0 in
  for _ = 1 to 10000 do
    let r = Dist.zipf g ~n:10 ~s:1.2 in
    counts.(r) <- counts.(r) + 1
  done;
  Alcotest.(check bool) "rank 1 beats rank 10" true (counts.(1) > counts.(10) * 3);
  Alcotest.(check int) "rank 0 unused" 0 counts.(0)

let test_dist_empirical_endpoints () =
  let g = Prng.create ~seed:2 in
  let points = [| (1.0, 0.5); (10.0, 1.0) |] in
  for _ = 1 to 1000 do
    let v = Dist.empirical g ~points in
    Alcotest.(check bool) "within hull" true (v >= 0.0 && v <= 10.0)
  done

let test_dist_bounded_pareto_bounds () =
  let g = Prng.create ~seed:77 in
  for _ = 1 to 1000 do
    let v = Dist.bounded_pareto g ~shape:1.2 ~lo:2.0 ~hi:50.0 in
    Alcotest.(check bool) "in [lo,hi]" true (v >= 2.0 -. 1e-9 && v <= 50.0 +. 1e-9)
  done

let test_dist_weighted_index () =
  let g = Prng.create ~seed:6 in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Dist.weighted_index g ~weights:[| 0.0; 1.0; 9.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "zero weight never drawn" 0 counts.(0);
  Alcotest.(check bool) "9:1 ratio" true (counts.(2) > counts.(1) * 5)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  check_float "mean" 2.5 (Stats.mean s);
  check_float "total" 10.0 (Stats.total s);
  check_float "min" 1.0 (Stats.min_value s);
  check_float "max" 4.0 (Stats.max_value s);
  check_float "median" 2.5 (Stats.median s)

let test_stats_percentile_interpolation () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 0.0; 10.0 ];
  check_float "p25" 2.5 (Stats.percentile s 25.0);
  check_float "p100" 10.0 (Stats.percentile s 100.0);
  check_float "p0" 0.0 (Stats.percentile s 0.0)

let test_stats_fraction_above () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check_float "fraction above 90" 0.10 (Stats.fraction_above s 90.0);
  check_float "fraction above 0" 1.0 (Stats.fraction_above s 0.0)

let test_stats_cdf_monotone () =
  let s = Stats.create () in
  let g = Prng.create ~seed:4 in
  for _ = 1 to 500 do
    Stats.add s (Prng.float g 100.0)
  done;
  let cdf = Stats.cdf s ~points:20 in
  Alcotest.(check int) "points" 20 (List.length cdf);
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone cdf);
  let _, last = List.nth cdf 19 in
  check_float "ends at 1" 1.0 last

let test_stats_histogram_total () =
  let s = Stats.create () in
  for i = 0 to 99 do
    Stats.add s (float_of_int i)
  done;
  let h = Stats.histogram s ~bins:10 in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples binned" 100 total

let prop_stats_mean_bounded =
  QCheck2.Test.make ~name:"mean within [min,max]" ~count:200
    QCheck2.Gen.(list_size (int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      let m = Stats.mean s in
      m >= Stats.min_value s -. 1e-6 && m <= Stats.max_value s +. 1e-6)

(* The whole-sample implementation [Stats] replaced, kept as the
   reference the multiset is held to: every observation in a growable
   array, sorted when a query needs it. *)
module Stats_ref = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sum : float;
    mutable sum_sq : float;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; len = 0; sum = 0.0; sum_sq = 0.0; sorted = true }

  let reserve t n =
    if t.len + n > Array.length t.data then begin
      let cap = ref (2 * Array.length t.data) in
      while t.len + n > !cap do
        cap := 2 * !cap
      done;
      let d = Array.make !cap 0.0 in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end

  let add t x =
    reserve t 1;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sum <- t.sum +. x;
    t.sum_sq <- t.sum_sq +. (x *. x);
    t.sorted <- false

  let add_n t x ~n =
    if n > 0 then begin
      reserve t n;
      Array.fill t.data t.len n x;
      t.len <- t.len + n;
      let fn = float_of_int n in
      t.sum <- t.sum +. (x *. fn);
      t.sum_sq <- t.sum_sq +. (x *. x *. fn);
      t.sorted <- false
    end

  let count t = t.len
  let total t = t.sum
  let mean t = if t.len = 0 then nan else t.sum /. float_of_int t.len

  let variance t =
    if t.len = 0 then nan
    else
      let m = mean t in
      Float.max 0.0 ((t.sum_sq /. float_of_int t.len) -. (m *. m))

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.data 0 t.len in
      Array.sort Float.compare sub;
      Array.blit sub 0 t.data 0 t.len;
      t.sorted <- true
    end

  let min_value t =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      t.data.(0)
    end

  let max_value t =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      t.data.(t.len - 1)
    end

  let percentile t p =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      let p = Float.max 0.0 (Float.min 100.0 p) in
      let rank = p /. 100.0 *. float_of_int (t.len - 1) in
      let lo = int_of_float (Float.floor rank) in
      let hi = int_of_float (Float.ceil rank) in
      if lo = hi then t.data.(lo)
      else
        let frac = rank -. float_of_int lo in
        t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end

  let upper_bound t x =
    let rec search a b =
      if a >= b then a
      else
        let mid = (a + b) / 2 in
        if t.data.(mid) <= x then search (mid + 1) b else search a mid
    in
    search 0 t.len

  let cdf t ~points =
    if t.len = 0 || points <= 0 then []
    else begin
      ensure_sorted t;
      let lo = t.data.(0) and hi = t.data.(t.len - 1) in
      let step = if points = 1 then 0.0 else (hi -. lo) /. float_of_int (points - 1) in
      List.init points (fun i ->
          let x = lo +. (float_of_int i *. step) in
          (x, float_of_int (upper_bound t x) /. float_of_int t.len))
    end

  let fraction_above t x =
    if t.len = 0 then nan
    else begin
      ensure_sorted t;
      float_of_int (t.len - upper_bound t x) /. float_of_int t.len
    end

  let histogram t ~bins =
    if t.len = 0 || bins <= 0 then []
    else begin
      ensure_sorted t;
      let lo = t.data.(0) and hi = t.data.(t.len - 1) in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
      let counts = Array.make bins 0 in
      for i = 0 to t.len - 1 do
        let b = int_of_float ((t.data.(i) -. lo) /. width) in
        let b = if b >= bins then bins - 1 else b in
        counts.(b) <- counts.(b) + 1
      done;
      List.init bins (fun b ->
          (lo +. (float_of_int b *. width), lo +. (float_of_int (b + 1) *. width), counts.(b)))
    end
end

type stats_op = Add of float | Add_n of float * int | Query

let print_stats_ops ops =
  String.concat "; "
    (List.map
       (function
         | Add x -> Printf.sprintf "add %h" x
         | Add_n (x, n) -> Printf.sprintf "add_n %h ~n:%d" x n
         | Query -> "query")
       ops)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every query of [s] and [r], bit for bit; [fraction_above] is asked
   about [probes] and [cdf]'s own points. *)
let stats_agree s r ~probes =
  let fail what = QCheck2.Test.fail_reportf "%s differs after %d observations" what (Stats_ref.count r) in
  let float what a b = if not (same_bits a b) then fail what in
  if Stats.count s <> Stats_ref.count r then fail "count";
  float "total" (Stats.total s) (Stats_ref.total r);
  float "mean" (Stats.mean s) (Stats_ref.mean r);
  float "variance" (Stats.variance s) (Stats_ref.variance r);
  float "min" (Stats.min_value s) (Stats_ref.min_value r);
  float "max" (Stats.max_value s) (Stats_ref.max_value r);
  List.iter
    (fun p -> float (Printf.sprintf "percentile %g" p) (Stats.percentile s p) (Stats_ref.percentile r p))
    [ -5.0; 0.0; 0.01; 12.5; 25.0; 33.3; 50.0; 66.7; 99.0; 99.9; 100.0; 150.0 ];
  List.iter
    (fun points ->
      let a = Stats.cdf s ~points and b = Stats_ref.cdf r ~points in
      if List.length a <> List.length b then fail "cdf length";
      List.iter2
        (fun (x, f) (x', f') ->
          float "cdf x" x x';
          float "cdf fraction" f f')
        a b)
    [ 0; 1; 2; 7; 20 ];
  List.iter
    (fun x ->
      float (Printf.sprintf "fraction_above %h" x) (Stats.fraction_above s x)
        (Stats_ref.fraction_above r x))
    (probes @ List.map fst (Stats_ref.cdf r ~points:20));
  List.iter
    (fun bins ->
      let a = Stats.histogram s ~bins and b = Stats_ref.histogram r ~bins in
      if List.length a <> List.length b then fail "histogram length";
      List.iter2
        (fun (lo, hi, c) (lo', hi', c') ->
          float "histogram lo" lo lo';
          float "histogram hi" hi hi';
          if c <> c' then fail "histogram count")
        a b)
    [ 0; 1; 3; 16 ];
  true

(* The probes are the last few values recorded, each exactly and just
   above, and three far outside. *)
let run_stats_ops ops =
  let s = Stats.create () and r = Stats_ref.create () in
  let recent = ref [] in
  let probes () =
    -1e9 :: 0.0 :: 1e9
    :: List.concat_map (fun x -> [ x; x +. 0.25 ]) (List.filteri (fun i _ -> i < 6) !recent)
  in
  List.iter
    (function
      | Add x ->
        recent := x :: !recent;
        Stats.add s x;
        Stats_ref.add r x
      | Add_n (x, n) ->
        recent := x :: !recent;
        Stats.add_n s x ~n;
        Stats_ref.add_n r x ~n
      | Query -> ignore (stats_agree s r ~probes:(probes ()) : bool))
    ops;
  stats_agree s r ~probes:(probes ())

let gen_stats_op value =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun x -> Add x) value);
        (4, map2 (fun x n -> Add_n (x, n)) value (int_range (-1) 40));
        (1, return Query);
      ])

(* At most 8 distinct values, as a middlebox's latency samples are. *)
let prop_stats_multiset_ties =
  QCheck2.Test.make ~name:"multiset answers as the whole-sample array, heavy ties" ~count:200
    ~print:print_stats_ops
    QCheck2.Gen.(
      list_size (int_range 1 8) (float_range (-1000.) 1000.) >>= fun pool ->
      list_size (int_range 0 200) (gen_stats_op (oneofl pool)))
    run_stats_ops

(* Every value new, in scrambled order: the table grows and the sorted
   view is rebuilt from scratch at each query. *)
let prop_stats_multiset_distinct =
  QCheck2.Test.make ~name:"multiset answers as the whole-sample array, all distinct" ~count:200
    ~print:print_stats_ops
    QCheck2.Gen.(
      list_size (int_range 0 200) (pair (float_range 0.0 0.5) (gen_stats_op (return 0.0)))
      >|= List.mapi (fun i (frac, op) ->
              let x = float_of_int ((i * 7919) mod 10007 - 5000) +. frac in
              match op with Add _ -> Add x | Add_n (_, n) -> Add_n (x, n) | Query -> Query))
    run_stats_ops

(* Recording a value already present allocates nothing, one observation
   or a batch's worth; the values are held boxed, as a caller's are. *)
let test_stats_add_present_allocates_nothing () =
  let s = Stats.create () in
  let values = List.init 11 (fun i -> 1e-6 *. float_of_int (i + 1)) in
  let add_batch x = Stats.add_n s x ~n:64 and add_one x = Stats.add s x in
  List.iter add_batch values;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    List.iter add_batch values;
    List.iter add_one values
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 words;
  Alcotest.(check int) "count" (11 * ((10_001 * 64) + 10_000)) (Stats.count s)

(* Memory follows the distinct values, not the observations: a million
   batches of 11 latencies stay under 1,024 words, sorted view
   included. *)
let test_stats_memory_bounded () =
  let s = Stats.create () in
  let values = Array.init 11 (fun i -> 1e-6 *. float_of_int (i + 1)) in
  for k = 0 to 1_048_575 do
    Stats.add_n s values.(k mod 11) ~n:64
  done;
  ignore (Stats.percentile s 99.0 : float);
  let words = Obj.reachable_words (Obj.repr s) in
  if words >= 1_024 then Alcotest.failf "%d reachable words, limit 1024" words;
  Alcotest.(check int) "count" (1_048_576 * 64) (Stats.count s)

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let order = ref [] in
  let log tag () = order := tag :: !order in
  ignore (Engine.schedule_at e (Time.seconds 2.0) (log "b"));
  ignore (Engine.schedule_at e (Time.seconds 1.0) (log "a"));
  ignore (Engine.schedule_at e (Time.seconds 3.0) (log "c"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !order);
  check_float "clock at last event" 3.0 (Time.to_seconds (Engine.now e))

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule_at e (Time.seconds 1.0) (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_at e (Time.seconds 1.0) (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check bool) "is_cancelled" true (Engine.is_cancelled h)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick n () =
    incr count;
    if n > 0 then ignore (Engine.schedule_after e (Time.seconds 1.0) (tick (n - 1)))
  in
  ignore (Engine.schedule_after e Time.zero (tick 9));
  Engine.run e;
  Alcotest.(check int) "chain of 10" 10 !count;
  check_float "clock" 9.0 (Time.to_seconds (Engine.now e))

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule_at e (Time.seconds (float_of_int i)) (fun () -> incr count))
  done;
  Engine.run ~until:(Time.seconds 5.5) e;
  Alcotest.(check int) "five fired" 5 !count;
  check_float "clock advanced to until" 5.5 (Time.to_seconds (Engine.now e));
  Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule_at e (Time.seconds 5.0) (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past scheduling fails"
    (Invalid_argument "Engine.schedule_at: time is in the past") (fun () ->
      ignore (Engine.schedule_at e (Time.seconds 1.0) (fun () -> ())))

let prop_engine_time_order =
  (* Whatever the scheduling order, callbacks execute in non-decreasing
     virtual time. *)
  QCheck2.Test.make ~name:"events execute in time order" ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) (float_range 0.0 100.0))
    (fun times ->
      let e = Engine.create () in
      let seen = ref [] in
      List.iter
        (fun t ->
          ignore
            (Engine.schedule_at e (Time.seconds t) (fun () ->
                 seen := Time.to_seconds (Engine.now e) :: !seen)))
        times;
      Engine.run e;
      let order = List.rev !seen in
      List.sort Float.compare order = order
      && List.length order = List.length times)

(* ------------------------------------------------------------------ *)
(* Timer wheel vs. reference scheduler                                 *)
(* ------------------------------------------------------------------ *)

(* The seed engine, verbatim: a binary heap of closures whose FIFO
   tie-break comes from Heap's insertion sequence.  This is the
   semantic oracle the timer-wheel engine must match event for
   event. *)
module Ref_engine = struct
  type handle = { mutable cancelled : bool }
  type event = { at : float; action : unit -> unit; h : handle }
  type t = { mutable clock : float; queue : event Heap.t }

  let create () =
    { clock = 0.0; queue = Heap.create ~cmp:(fun a b -> Float.compare a.at b.at) }

  let now t = t.clock

  let schedule_at t when_ f =
    if when_ < t.clock then invalid_arg "Ref_engine.schedule_at: past";
    let h = { cancelled = false } in
    Heap.push t.queue { at = when_; action = f; h };
    h

  let cancel h = h.cancelled <- true

  let rec step t =
    match Heap.pop t.queue with
    | None -> false
    | Some ev ->
      if ev.h.cancelled then step t
      else begin
        t.clock <- ev.at;
        ev.action ();
        true
      end

  let run ?until t =
    let keep_going () =
      match until with
      | None -> not (Heap.is_empty t.queue)
      | Some limit ->
        (* One deliberate deviation from the seed: decide the [until]
           boundary on the next *live* event.  The seed peeked at the
           raw head, so a cancelled event with [at <= limit] would
           admit one live event beyond the limit; the wheel engine
           sweeps tombstones, which makes that overshoot unobservable
           and was never meaningful behavior. *)
        let rec live () =
          match Heap.peek t.queue with
          | None -> false
          | Some ev ->
            if ev.h.cancelled then begin
              ignore (Heap.pop t.queue);
              live ()
            end
            else ev.at <= limit
        in
        live ()
    in
    while keep_going () do
      ignore (step t)
    done;
    match until with Some l when t.clock < l -> t.clock <- l | _ -> ()
end

(* A random scheduling program: top-level events at absolute times,
   each possibly spawning same-or-later children and cancelling an
   earlier event when it fires, interpreted over an abstract scheduler
   so the wheel engine and the reference produce comparable traces.  A
   spec with a non-empty [chain] is a reserved block instead: members
   at [at_s] and then at each cumulative gap, all taking their order
   when the spec is scheduled.  The wheel reserves the block's sequence
   numbers and files each member when its predecessor fires; the
   reference schedules every member there and then. *)
type ev_spec = { at_s : float; kids : float list; cancel_tgt : int option; chain : float list }
type program = { events : ev_spec list; untils : float list }

type ('t, 'h) sched = {
  s_create : unit -> 't;
  s_now : 't -> float;
  s_schedule : 't -> float -> (unit -> unit) -> 'h;
  s_cancel : 'h -> unit;
  s_block : 't -> float array -> (int -> unit) -> unit; (* f i: member i fires *)
  s_run : 't -> float option -> unit;
  s_pending : ('t -> int) option;
      (* None: use the interpreter's count; Some: queued events, which
         leave out the block members not filed yet *)
}

type trace = {
  tr_log : (int * float) list; (* (event id, fire time), in fire order *)
  tr_marks : (float * int * int) list; (* (clock, fired so far, live) per segment *)
}

let exec_program sched prog =
  let t = sched.s_create () in
  let log = ref [] in
  let fired = ref 0 in
  let cancelled_pending = ref 0 in
  let handles : (int, 'h) Hashtbl.t = Hashtbl.create 64 in
  let gone : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  (* Block members whose predecessor has not fired: live, but not yet
     queued in a chained scheduler. *)
  let unfiled = ref 0 in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let rec schedule spec =
    match spec.chain with
    | [] ->
      let id = fresh_id () in
      let h = sched.s_schedule t spec.at_s (fun () -> fire spec id) in
      Hashtbl.replace handles id h
    | gaps ->
      let ats = Array.make (List.length gaps + 1) spec.at_s in
      List.iteri (fun i g -> ats.(i + 1) <- ats.(i) +. g) gaps;
      let ids = Array.map (fun _ -> fresh_id ()) ats in
      let n = Array.length ats in
      unfiled := !unfiled + n - 1;
      sched.s_block t ats (fun i ->
          if i + 1 < n then decr unfiled;
          fire spec ids.(i))
  and fire spec id =
    incr fired;
    Hashtbl.replace gone id ();
    log := (id, sched.s_now t) :: !log;
    (match spec.cancel_tgt with
    | Some k when !next_id > 0 -> (
      (* Block members are not cancellable. *)
      let tgt = k mod !next_id in
      match Hashtbl.find_opt handles tgt with
      | Some h ->
        sched.s_cancel h;
        if not (Hashtbl.mem gone tgt) then begin
          incr cancelled_pending;
          Hashtbl.replace gone tgt ()
        end
      | None -> ())
    | _ -> ());
    List.iter
      (fun d ->
        schedule { at_s = sched.s_now t +. d; kids = []; cancel_tgt = None; chain = [] })
      spec.kids
  in
  List.iter schedule prog.events;
  let marks = ref [] in
  let mark () =
    let live =
      match sched.s_pending with
      | Some pending -> pending t + !unfiled
      | None -> !next_id - !fired - !cancelled_pending
    in
    marks := (sched.s_now t, !fired, live) :: !marks
  in
  List.iter
    (fun u ->
      sched.s_run t (Some u);
      mark ())
    (List.sort Float.compare prog.untils);
  sched.s_run t None;
  mark ();
  { tr_log = List.rev !log; tr_marks = List.rev !marks }

let ref_sched =
  {
    s_create = Ref_engine.create;
    s_now = Ref_engine.now;
    s_schedule = (fun t at f -> Ref_engine.schedule_at t at f);
    s_cancel = Ref_engine.cancel;
    s_block =
      (fun t ats f ->
        Array.iteri (fun i at -> ignore (Ref_engine.schedule_at t at (fun () -> f i))) ats);
    s_run = (fun t until -> match until with
      | None -> Ref_engine.run t
      | Some u -> Ref_engine.run ~until:u t);
    s_pending = None;
  }

let wheel_sched ~slot_us =
  {
    s_create = (fun () -> Engine.create ~slot_us ());
    s_now = (fun t -> Time.to_seconds (Engine.now t));
    s_schedule = (fun t at f -> Engine.schedule_at t (Time.seconds at) f);
    s_cancel = Engine.cancel;
    s_block =
      (fun t ats f ->
        let n = Array.length ats in
        let base = Engine.reserve t n in
        let rec file i =
          Engine.call_at_reserved t (Time.seconds ats.(i)) ~plus:Time.zero ~seq:(base + i) fire i
        and fire i =
          if i + 1 < n then file (i + 1);
          f i
        in
        file 0);
    s_run = (fun t until -> match until with
      | None -> Engine.run t
      | Some u -> Engine.run ~until:(Time.seconds u) t);
    (* Checked against the interpreter's own live count: validates that
       [pending] excludes tombstones. *)
    s_pending = Some Engine.pending;
  }

let gen_program =
  let open QCheck2.Gen in
  let gen_time =
    frequency
      [
        (* Dense microseconds: slot collisions and same-instant ties. *)
        (6, map (fun n -> float_of_int n *. 1e-6) (int_range 0 300));
        (* Milliseconds: level-1/2 placement and block crossings. *)
        (3, map (fun n -> float_of_int n *. 0.37e-3) (int_range 0 100));
        (* Seconds: level-3 placement at 1us slots. *)
        (2, map (fun n -> float_of_int n) (int_range 0 5));
        (* Beyond the 1us-slot wheel span: the overflow heap. *)
        (1, map (fun n -> 4000.0 +. (float_of_int n *. 250.0)) (int_range 0 8));
      ]
  in
  let gen_kid = map (fun n -> float_of_int n *. 1e-6) (int_range 0 50) in
  let gen_gap =
    frequency
      [
        (3, return 0.0);
        (3, map (fun n -> float_of_int n *. 1e-6) (int_range 1 50));
        (1, map (fun n -> float_of_int n *. 0.37e-3) (int_range 1 10));
      ]
  in
  let gen_spec =
    map4
      (fun at_s kids cancel_tgt chain -> { at_s; kids; cancel_tgt; chain })
      gen_time
      (list_size (int_range 0 3) gen_kid)
      (option (int_range 0 1000))
      (frequency [ (4, return []); (1, list_size (int_range 1 6) gen_gap) ])
  in
  map2
    (fun events untils -> { events; untils })
    (list_size (int_range 0 40) gen_spec)
    (list_size (int_range 0 4) gen_time)

let print_program p =
  let spec s =
    Printf.sprintf "{at=%g; kids=[%s]; cancel=%s; chain=[%s]}" s.at_s
      (String.concat ";" (List.map (Printf.sprintf "%g") s.kids))
      (match s.cancel_tgt with None -> "-" | Some k -> string_of_int k)
      (String.concat ";" (List.map (Printf.sprintf "%g") s.chain))
  in
  Printf.sprintf "events=[%s] untils=[%s]"
    (String.concat "; " (List.map spec p.events))
    (String.concat ";" (List.map (Printf.sprintf "%g") p.untils))

let equiv_prop ~slot_us prog =
  let expected = exec_program ref_sched prog in
  let actual = exec_program (wheel_sched ~slot_us) prog in
  if expected = actual then true
  else
    QCheck2.Test.fail_reportf
      "diverged (slot_us=%g)\nref:   %d fired, marks %s\nwheel: %d fired, marks %s\nfirst diff: %s"
      slot_us
      (List.length expected.tr_log)
      (String.concat " "
         (List.map (fun (c, f, l) -> Printf.sprintf "(%g,%d,%d)" c f l) expected.tr_marks))
      (List.length actual.tr_log)
      (String.concat " "
         (List.map (fun (c, f, l) -> Printf.sprintf "(%g,%d,%d)" c f l) actual.tr_marks))
      (match
         List.find_opt
           (fun ((a, _), (b, _)) -> a <> b)
           (List.combine
              (expected.tr_log @ List.init (max 0 (List.length actual.tr_log - List.length expected.tr_log)) (fun _ -> (-1, 0.0)))
              (actual.tr_log @ List.init (max 0 (List.length expected.tr_log - List.length actual.tr_log)) (fun _ -> (-1, 0.0))))
       with
      | Some ((a, ta), (b, tb)) -> Printf.sprintf "ref id %d@%g vs wheel id %d@%g" a ta b tb
      | None -> "same ids, different times/marks")

let prop_wheel_equiv =
  QCheck2.Test.make ~name:"timer wheel == seed heap scheduling (1us slots)"
    ~count:500 ~print:print_program gen_program (equiv_prop ~slot_us:1.0)

let prop_wheel_equiv_coarse =
  (* 1ms slots: many distinct timestamps share a slot, exercising the
     sorted drain. *)
  QCheck2.Test.make ~name:"timer wheel == seed heap scheduling (1ms slots)"
    ~count:300 ~print:print_program gen_program (equiv_prop ~slot_us:1000.0)

let prop_wheel_equiv_fine =
  (* 10ns slots: a ~43s wheel span, so the seconds/heap branches cross
     blocks and overflow constantly. *)
  QCheck2.Test.make ~name:"timer wheel == seed heap scheduling (0.01us slots)"
    ~count:300 ~print:print_program gen_program (equiv_prop ~slot_us:0.01)

let prop_pool_invariants =
  QCheck2.Test.make ~name:"event pool: capacity = free + queued, drains empty"
    ~count:300 ~print:print_program gen_program (fun prog ->
      let e = Engine.create () in
      let check_stats () =
        let s = Engine.pool_stats e in
        s.Engine.capacity = s.Engine.free + s.Engine.queued
        && s.Engine.high_water <= s.Engine.capacity
        && s.Engine.queued >= Engine.pending e
      in
      let ok = ref true in
      let handles = ref [] in
      List.iter
        (fun spec ->
          let h = Engine.schedule_at e (Time.seconds spec.at_s) (fun () -> ()) in
          handles := (h, spec.cancel_tgt) :: !handles;
          ok := !ok && check_stats ())
        prog.events;
      List.iter
        (fun (h, tgt) -> if tgt <> None then Engine.cancel h)
        !handles;
      ok := !ok && check_stats ();
      Engine.run e;
      let s = Engine.pool_stats e in
      !ok && check_stats () && s.Engine.queued = 0 && s.Engine.free = s.Engine.capacity
      && Engine.pending e = 0)

let test_pool_reuse () =
  (* Cells recycle through the free list: scheduling the same load
     repeatedly must not grow the pool past its first high-water mark.
     (A cell live in two schedules at once would trip the wheel's
     alloc/release state checks as Invalid_argument.) *)
  let e = Engine.create () in
  let sink () = () in
  let round () =
    for i = 1 to 1000 do
      let at = Time.(Engine.now e + Time.us (float_of_int i)) in
      if i mod 2 = 0 then ignore (Engine.schedule_at e at sink)
      else Engine.call_at e at (fun (_ : int) -> ()) i
    done;
    Engine.run e
  in
  round ();
  let cap_after_first = (Engine.pool_stats e).Engine.capacity in
  for _ = 1 to 10 do
    round ()
  done;
  let s = Engine.pool_stats e in
  Alcotest.(check int) "pool did not grow on reuse" cap_after_first s.Engine.capacity;
  Alcotest.(check int) "all cells back on the free list" s.Engine.capacity s.Engine.free;
  Alcotest.(check bool) "high water bounded by one round" true (s.Engine.high_water <= 1024)

(* Steady-state scheduling and dispatch allocate nothing.  One seeded
   stream of [alloc_events] call_at/call2_at events spread over 10 s of
   virtual time, every fourth one on the previous one's instant (a tick
   shared by several cells, sorted in the drain).  Passes start at 0,
   10 s and 30 s.  At 1 us slots a cell is filed at level 3 when its
   tick differs from the wheel's position in bit 24 or above, and the
   measured passes straddle 2^24 and 2^25 us (16.8 s and 33.6 s), so
   their events are filed at all four levels and cascade down.  The
   warm-up pass grows the cell pool to its high-water mark;
   its times, read as delays, feed a last pass through
   call_after/call2_after.  Times are read from records, where they
   are already boxed, so the counts are the engine's own. *)
type alloc_ev = { ev_at : Time.t; ev_id : int }

let alloc_events = 100_000

let alloc_program ~base =
  let g = Prng.create ~seed:20_261_017 in
  let ats = Array.make alloc_events 0.0 in
  for i = 0 to alloc_events - 1 do
    ats.(i) <- (if i mod 4 = 3 then ats.(i - 1) else base +. Prng.float g 10.0)
  done;
  Array.mapi (fun i at -> { ev_at = Time.seconds at; ev_id = i }) ats

let test_engine_steady_alloc () =
  let e = Engine.create () in
  let sum = ref 0 in
  let f1 i = sum := !sum + i and f2 i j = sum := !sum + i + j in
  let schedule call call2 prog =
    Array.iter
      (fun ev ->
        if ev.ev_id land 1 = 0 then call e ev.ev_at f1 ev.ev_id
        else call2 e ev.ev_at f2 ev.ev_id 0)
      prog
  in
  let words_per_event what limit run =
    let fired = Engine.executed e in
    let w0 = Gc.minor_words () in
    run ();
    let words = (Gc.minor_words () -. w0) /. float_of_int alloc_events in
    if words > limit then
      Alcotest.failf "%s allocates %.3f minor words/event, limit %.2f" what words limit;
    fired
  in
  let warm = alloc_program ~base:0.0
  and first = alloc_program ~base:10.0
  and second = alloc_program ~base:30.0 in
  let slices =
    Array.init 1_000 (fun k -> Some (Time.seconds (30.0 +. (0.01 *. float_of_int (k + 1)))))
  in
  schedule Engine.call_at Engine.call2_at warm;
  Engine.run e;
  ignore
    (words_per_event "call_at/call2_at" 0.05 (fun () ->
         schedule Engine.call_at Engine.call2_at first));
  let before = words_per_event "run" 0.05 (fun () -> Engine.run e) in
  Alcotest.(check int) "run fired every event" alloc_events (Engine.executed e - before);
  schedule Engine.call_at Engine.call2_at second;
  let before =
    words_per_event "run ~until in 1,000 slices" 0.1 (fun () ->
        Array.iter (fun until -> Engine.run ?until e) slices)
  in
  Alcotest.(check int) "slices fired every event" alloc_events (Engine.executed e - before);
  ignore
    (words_per_event "call_after/call2_after" 0.05 (fun () ->
         schedule Engine.call_after Engine.call2_after warm));
  Engine.run e;
  Alcotest.(check int) "queue drained" 0 (Engine.pending e)

let test_engine_call_fifo_with_closures () =
  (* call_at/call2_at share the same (time, seq) order as schedule_at:
     same-instant events of any kind fire in scheduling order. *)
  let e = Engine.create () in
  let order = ref [] in
  let push tag = order := tag :: !order in
  ignore (Engine.schedule_at e (Time.seconds 1.0) (fun () -> push 1));
  Engine.call_at e (Time.seconds 1.0) push 2;
  Engine.call2_at e (Time.seconds 1.0) (fun a b -> push (a + b)) 1 2;
  ignore (Engine.schedule_at e (Time.seconds 1.0) (fun () -> push 4));
  Engine.call_after e Time.zero push 0;
  Engine.run e;
  Alcotest.(check (list int)) "mixed-kind fifo" [ 0; 1; 2; 3; 4 ] (List.rev !order)

let test_engine_far_future_overflow () =
  (* Events beyond the wheel span (~71 min at 1us slots) take the heap
     path yet stay in global order. *)
  let e = Engine.create () in
  let order = ref [] in
  Engine.call_at e (Time.seconds 10_000.0) (fun x -> order := x :: !order) 3;
  Engine.call_at e (Time.seconds 1e-6) (fun x -> order := x :: !order) 1;
  Engine.call_at e (Time.seconds 5_000.0) (fun x -> order := x :: !order) 2;
  Engine.run e;
  Alcotest.(check (list int)) "heap overflow ordered" [ 1; 2; 3 ] (List.rev !order);
  check_float "clock" 10_000.0 (Time.to_seconds (Engine.now e));
  (* After the far-future drain the wheel re-syncs: near events still work. *)
  Engine.call_after e (Time.us 5.0) (fun x -> order := x :: !order) 4;
  Engine.run e;
  Alcotest.(check int) "post-overflow event fired" 4 (List.hd !order)

let test_engine_pending_excludes_cancelled () =
  let e = Engine.create () in
  let hs =
    List.init 10 (fun i ->
        Engine.schedule_at e (Time.seconds (float_of_int (i + 1))) (fun () -> ()))
  in
  Alcotest.(check int) "all pending" 10 (Engine.pending e);
  List.iteri (fun i h -> if i < 4 then Engine.cancel h) hs;
  Alcotest.(check int) "cancelled excluded" 6 (Engine.pending e);
  (* Cancelling past the half-way point triggers the lazy purge and the
     pool reflects it. *)
  List.iteri (fun i h -> if i < 6 then Engine.cancel h) hs;
  Alcotest.(check int) "after purge" 4 (Engine.pending e);
  Alcotest.(check int) "tombstones swept from pool" 4
    (Engine.pool_stats e).Engine.queued;
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* What the engine can check of the reserve-and-file contract: a
   block's size, a number's range and, as for [call_at], the time. *)
let test_engine_reserve_rejects () =
  let e = Engine.create () in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  raises "negative block" (fun () -> ignore (Engine.reserve e (-1)));
  let base = Engine.reserve e 2 in
  raises "number never handed out" (fun () ->
      Engine.call_at_reserved e (Time.seconds 1.0) ~plus:Time.zero ~seq:(base + 2) ignore ());
  Engine.call_at e (Time.seconds 1.0) ignore ();
  Engine.run e;
  raises "time in the past" (fun () ->
      Engine.call_at_reserved e (Time.seconds 0.5) ~plus:Time.zero ~seq:base ignore ());
  raises "time plus delay in the past" (fun () ->
      Engine.call_at_reserved e (Time.seconds 0.5) ~plus:(Time.seconds 0.25) ~seq:base ignore ());
  Alcotest.(check int) "nothing filed by a rejected call" 0 (Engine.pending e)

(* ------------------------------------------------------------------ *)
(* Channel                                                             *)
(* ------------------------------------------------------------------ *)

let test_channel_latency_and_bandwidth () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let ch =
    Channel.create e ~latency:(Time.ms 1.0) ~bytes_per_sec:1000.0
      ~deliver:(fun msg -> arrivals := (msg, Time.to_seconds (Engine.now e)) :: !arrivals)
      ()
  in
  (* 100 bytes at 1000 B/s = 100 ms transfer + 1 ms latency. *)
  Channel.send ch ~bytes:100 "m1";
  Engine.run e;
  (match !arrivals with
  | [ ("m1", t) ] -> check_float "arrival" 0.101 t
  | _ -> Alcotest.fail "expected one delivery")

let test_channel_fifo_serialization () =
  let e = Engine.create () in
  let arrivals = ref [] in
  let ch =
    Channel.create e ~latency:Time.zero ~bytes_per_sec:1000.0
      ~deliver:(fun msg -> arrivals := (msg, Time.to_seconds (Engine.now e)) :: !arrivals)
      ()
  in
  Channel.send ch ~bytes:100 "a";
  Channel.send ch ~bytes:100 "b";
  Engine.run e;
  (match List.rev !arrivals with
  | [ ("a", ta); ("b", tb) ] ->
    check_float "first" 0.1 ta;
    check_float "second queued behind first" 0.2 tb
  | _ -> Alcotest.fail "expected two deliveries");
  Alcotest.(check int) "bytes counted" 200 (Channel.bytes_sent ch);
  Alcotest.(check int) "messages counted" 2 (Channel.messages_sent ch)

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

(* Off by default; on, the trace grows instead of wrapping: 100
   instants in a 16-row trace are all kept, in the order logged. *)
let test_timeline_keeps_every_instant () =
  Alcotest.(check bool) "off by default" false (Telemetry.timeline (Telemetry.create ()));
  let tel = Telemetry.create ~span_capacity:16 ~timeline:true () in
  Alcotest.(check bool) "on" true (Telemetry.timeline tel);
  for i = 1 to 100 do
    Telemetry.instant tel ~now:(Time.ms (float_of_int i))
      ~actor:(if i mod 2 = 0 then "mb1" else "mb2")
      ~name:"pkt" ~detail:(string_of_int i) ()
  done;
  let tr = Telemetry.trace tel in
  Alcotest.(check int) "all held" 100 (Telemetry.Trace.length tr);
  Alcotest.(check int) "none overwritten" 0 (Telemetry.Trace.overwritten tr);
  let held =
    Telemetry.Trace.fold tr ~init:[]
      ~f:(fun acc ~actor:_ ~name:_ ~op:_ ~a0:_ ~a1:_ ~t0 ~t1 ~detail ->
        if t1 <> t0 then Alcotest.fail "an instant has a duration";
        (t0, detail) :: acc)
    |> List.rev
  in
  Alcotest.(check (list string)) "in order" (List.init 100 (fun i -> string_of_int (i + 1)))
    (List.map snd held);
  Alcotest.(check bool) "times ascend" true
    (List.for_all2 (fun (t, _) i -> t = Time.ms (float_of_int i)) held
       (List.init 100 (fun i -> i + 1)))

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_registry () =
  let tel = Telemetry.create () in
  let c = Telemetry.counter tel "c" in
  Telemetry.incr c;
  Telemetry.add c 4;
  Alcotest.(check int) "counter" 5 (Telemetry.counter_value c);
  Alcotest.(check bool) "same handle on re-request" true (Telemetry.counter tel "c" == c);
  let g = Telemetry.gauge tel "g" in
  Telemetry.set_gauge g 7;
  Telemetry.set_gauge g 3;
  Alcotest.(check int) "gauge value" 3 (Telemetry.gauge_value g);
  Alcotest.(check int) "gauge peak" 7 (Telemetry.gauge_peak g);
  (match Telemetry.gauge tel "c" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ());
  (* Null sinks accept writes and never surface anywhere. *)
  Telemetry.incr Telemetry.null_counter;
  Telemetry.set_gauge Telemetry.null_gauge 42;
  Telemetry.observe Telemetry.null_histogram 1.0;
  let h = Telemetry.histogram tel "lat" in
  Telemetry.observe h 2e-6;
  Telemetry.observe h 5e-3;
  Alcotest.(check int) "hist count" 2 (Telemetry.hist_count h);
  check_float "hist sum" (2e-6 +. 5e-3) (Telemetry.hist_sum h);
  check_float "hist max" 5e-3 (Telemetry.hist_max h)

let test_telemetry_snapshot_diff () =
  let open Openmb_wire in
  let tel = Telemetry.create () in
  let c = Telemetry.counter tel "ops" in
  let h = Telemetry.histogram tel "lat" in
  Telemetry.incr c;
  Telemetry.observe h 1e-6;
  let before = Telemetry.snapshot tel in
  Telemetry.add c 9;
  Telemetry.observe h 1e-3;
  let d = Telemetry.diff ~before ~after:(Telemetry.snapshot tel) in
  let j = Json.of_string (Telemetry.snapshot_to_json d) in
  Alcotest.(check int) "counter delta" 9
    (Json.get_int (Json.member "ops" (Json.member "counters" j)));
  Alcotest.(check int) "hist delta count" 1
    (Json.get_int (Json.member "count" (Json.member "lat" (Json.member "histograms" j))))

(* The same rank rule the histogram uses: the ceil(q*n)-th smallest. *)
let true_quantile samples q =
  let arr = Array.of_list (List.sort compare samples) in
  let n = Array.length arr in
  let rank = int_of_float (ceil (q *. float_of_int n)) in
  let rank = if rank < 1 then 1 else if rank > n then n else rank in
  arr.(rank - 1)

(* Buckets are factor-of-two wide, so the reported quantile (the
   containing bucket's upper bound) is sandwiched by the true one:
   at least it (minus 1ns truncation), less than twice it (plus
   slack). *)
let prop_hist_quantile_bounds =
  QCheck2.Test.make ~name:"histogram quantile within its bucket bounds" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (float_range 1e-9 10.0))
        (float_range 0.0 1.0))
    (fun (samples, q) ->
      let tel = Telemetry.create () in
      let h = Telemetry.histogram tel "lat" in
      List.iter (Telemetry.observe h) samples;
      let v = Telemetry.quantile h q in
      let t = true_quantile samples q in
      v >= t -. 2e-9 && v <= (2.0 *. t) +. 4e-9)

let prop_hist_quantile_monotone =
  QCheck2.Test.make ~name:"histogram quantile monotone in q" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 100) (float_range 0.0 5.0))
        (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (samples, qa, qb) ->
      let q1 = Float.min qa qb and q2 = Float.max qa qb in
      let tel = Telemetry.create () in
      let h = Telemetry.histogram tel "lat" in
      List.iter (Telemetry.observe h) samples;
      Telemetry.quantile h q1 <= Telemetry.quantile h q2)

let prop_hist_bucket_monotone =
  (* A larger sample never lands in a lower bucket: the single-sample
     quantile (its bucket's upper bound) is monotone in the sample. *)
  QCheck2.Test.make ~name:"histogram buckets monotone in value" ~count:300
    QCheck2.Gen.(pair (float_range 0.0 10.0) (float_range 0.0 10.0))
    (fun (a, b) ->
      let v1 = Float.min a b and v2 = Float.max a b in
      let one v =
        let tel = Telemetry.create () in
        let h = Telemetry.histogram tel "x" in
        Telemetry.observe h v;
        Telemetry.quantile h 1.0
      in
      one v1 <= one v2)

(* ------------------------------------------------------------------ *)
(* Registry merge (sharded telemetry aggregation)                      *)
(* ------------------------------------------------------------------ *)

let test_registry_merge () =
  let mk f =
    let tel = Telemetry.create () in
    f tel;
    Telemetry.snapshot tel
  in
  let a =
    mk (fun tel ->
        Telemetry.add (Telemetry.counter tel "ops") 7;
        Telemetry.set_gauge (Telemetry.gauge tel "depth") 9;
        Telemetry.set_gauge (Telemetry.gauge tel "depth") 2;
        Telemetry.observe (Telemetry.histogram tel "lat") 1.0;
        Telemetry.add (Telemetry.counter tel "only_a") 3)
  in
  let b =
    mk (fun tel ->
        Telemetry.add (Telemetry.counter tel "ops") 5;
        Telemetry.set_gauge (Telemetry.gauge tel "depth") 4;
        Telemetry.observe (Telemetry.histogram tel "lat") 4.0;
        Telemetry.observe (Telemetry.histogram tel "lat") 2.0)
  in
  let m = Telemetry.merge a b in
  Alcotest.(check (option int)) "counters sum" (Some 12) (Telemetry.snap_counter m "ops");
  Alcotest.(check (option int)) "disjoint names survive" (Some 3)
    (Telemetry.snap_counter m "only_a");
  Alcotest.(check (option (pair int int)))
    "gauge: last writer's value, max peak" (Some (4, 9))
    (Telemetry.snap_gauge m "depth");
  (match Telemetry.snap_hist m "lat" with
  | Some (count, sum, mx) ->
    Alcotest.(check int) "hist count adds" 3 count;
    Alcotest.(check (float 1e-9)) "hist sum adds" 7.0 sum;
    Alcotest.(check (float 1e-9)) "hist max" 4.0 mx
  | None -> Alcotest.fail "merged histogram missing");
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument
       "Telemetry.merge: \"x\" is a counter on one side and a histogram on the other")
    (fun () ->
      ignore
        (Telemetry.merge
           (mk (fun tel -> Telemetry.incr (Telemetry.counter tel "x")))
           (mk (fun tel -> Telemetry.observe (Telemetry.histogram tel "x") 1.0))))

(* Random registry programs over a small shared name pool.  Histogram
   observations are integer-valued so float sums stay exact and merge
   associativity is checkable with structural equality. *)
type tel_op = Cadd of int * int | Gset of int * int | Hobs of int * int

let gen_tel_ops ~gauges =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (oneof
         ([
            map2 (fun i n -> Cadd (i, n)) (int_bound 2) (int_range 0 1_000);
            map2 (fun i v -> Hobs (i, v)) (int_bound 1) (int_range 0 1_000);
          ]
         @ if gauges then [ map2 (fun i v -> Gset (i, v)) (int_bound 1) (int_range 0 500) ]
           else [])))

let snap_of_ops ops =
  let tel = Telemetry.create () in
  List.iter
    (function
      | Cadd (i, n) -> Telemetry.add (Telemetry.counter tel (Printf.sprintf "c%d" i)) n
      | Gset (i, v) -> Telemetry.set_gauge (Telemetry.gauge tel (Printf.sprintf "g%d" i)) v
      | Hobs (i, v) ->
        Telemetry.observe
          (Telemetry.histogram tel (Printf.sprintf "h%d" i))
          (float_of_int v))
    ops;
  Telemetry.snapshot tel

let prop_merge_associative =
  QCheck2.Test.make ~name:"registry merge is associative" ~count:300
    QCheck2.Gen.(
      triple (gen_tel_ops ~gauges:true) (gen_tel_ops ~gauges:true)
        (gen_tel_ops ~gauges:true))
    (fun (xa, xb, xc) ->
      let a = snap_of_ops xa and b = snap_of_ops xb and c = snap_of_ops xc in
      Telemetry.merge (Telemetry.merge a b) c
      = Telemetry.merge a (Telemetry.merge b c))

let prop_merge_commutative =
  (* Gauges are last-writer by design, so commutativity is only claimed
     for counter/histogram registries — the shard-aggregation case. *)
  QCheck2.Test.make ~name:"registry merge commutes on counters and histograms"
    ~count:300
    QCheck2.Gen.(pair (gen_tel_ops ~gauges:false) (gen_tel_ops ~gauges:false))
    (fun (xa, xb) ->
      let a = snap_of_ops xa and b = snap_of_ops xb in
      Telemetry.merge a b = Telemetry.merge b a)

let prop_merge_quantile_sandwich =
  (* A merged histogram's quantile can't escape the envelope of the
     per-shard quantiles: pooling samples interpolates between the
     parts. *)
  QCheck2.Test.make ~name:"merged quantile sandwiched by per-shard quantiles"
    ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 100) (int_range 0 100_000))
        (list_size (int_range 1 100) (int_range 0 100_000))
        (float_range 0.0 1.0))
    (fun (va, vb, q) ->
      let snap vs = snap_of_ops (List.map (fun v -> Hobs (0, v)) vs) in
      let a = snap va and b = snap vb in
      let m = Telemetry.merge a b in
      let quant s =
        match Telemetry.snap_hist_quantile s "h0" q with
        | Some v -> v
        | None -> QCheck2.Test.fail_reportf "histogram h0 missing from snapshot"
      in
      let qa = quant a and qb = quant b and qm = quant m in
      Float.min qa qb <= qm && qm <= Float.max qa qb)

let test_trace_ring_overwrite () =
  let tr = Telemetry.Trace.create ~capacity:16 () in
  let t i = Time.seconds (float_of_int i) in
  let spans =
    List.init 40 (fun i ->
        Telemetry.Trace.span_begin tr ~now:(t i) ~actor:"a" ~name:"s" ~op:i ())
  in
  Alcotest.(check int) "total" 40 (Telemetry.Trace.total tr);
  Alcotest.(check int) "length capped" 16 (Telemetry.Trace.length tr);
  Alcotest.(check int) "overwritten" 24 (Telemetry.Trace.overwritten tr);
  (* Ending an overwritten span is a no-op: its bogus end time must not
     land on whichever newer row reused the slot. *)
  Telemetry.Trace.span_end tr ~now:(Time.seconds 999.0) (List.hd spans);
  let bogus =
    Telemetry.Trace.fold tr ~init:false
      ~f:(fun acc ~actor:_ ~name:_ ~op:_ ~a0:_ ~a1:_ ~t0:_ ~t1 ~detail:_ ->
        acc || Time.to_seconds t1 = 999.0)
  in
  Alcotest.(check bool) "overwritten span_end is a no-op" false bogus;
  (* The live rows are exactly the newest [capacity], oldest first. *)
  let ops =
    List.rev
      (Telemetry.Trace.fold tr ~init:[]
         ~f:(fun acc ~actor:_ ~name:_ ~op ~a0:_ ~a1:_ ~t0:_ ~t1:_ ~detail:_ ->
           op :: acc))
  in
  Alcotest.(check (list int)) "newest rows live" (List.init 16 (fun i -> 24 + i)) ops;
  (* A live span still closes normally. *)
  Telemetry.Trace.span_end tr ~now:(Time.seconds 100.0) (List.nth spans 39);
  let closed =
    Telemetry.Trace.fold tr ~init:0
      ~f:(fun acc ~actor:_ ~name:_ ~op:_ ~a0:_ ~a1:_ ~t0:_ ~t1 ~detail:_ ->
        if Time.to_seconds t1 >= 0.0 then acc + 1 else acc)
  in
  Alcotest.(check int) "one closed" 1 closed

let test_trace_chrome_export () =
  let open Openmb_wire in
  let tel = Telemetry.create () in
  let s =
    Telemetry.span_begin tel ~now:(Time.ms 1.0) ~actor:"controller" ~name:"move"
      ~op:7 ~a0:3 ()
  in
  Telemetry.span_end tel ~now:(Time.ms 2.0) s;
  Telemetry.instant tel ~now:(Time.ms 3.0) ~actor:"mb" ~name:"tick" ();
  let file = Filename.temp_file "openmb_trace" ".json" in
  Out_channel.with_open_text file (fun oc -> Telemetry.export_chrome tel oc);
  let json = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  Sys.remove file;
  match Json.member "traceEvents" json with
  | Json.List evs ->
    (* Two actor-name metadata rows + one complete + one instant. *)
    Alcotest.(check int) "event count" 4 (List.length evs);
    let complete =
      List.find
        (fun e -> match Json.member "ph" e with Json.String "X" -> true | _ -> false)
        evs
    in
    Alcotest.(check int) "op_id arg" 7
      (Json.get_int (Json.member "op_id" (Json.member "args" complete)));
    check_float "duration us" 1000.0
      (match Json.member "dur" complete with
      | Json.Float f -> f
      | Json.Int i -> float_of_int i
      | _ -> nan)
  | _ -> Alcotest.fail "no traceEvents list"

let test_heap_exn () =
  let h = Heap.create ~cmp:Int.compare in
  Alcotest.check_raises "peek_exn empty"
    (Invalid_argument "Heap.peek_exn: empty heap") (fun () ->
      ignore (Heap.peek_exn h));
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h));
  List.iter (fun x -> Heap.push h x) [ 3; 1; 2 ];
  Alcotest.(check int) "peek_exn" 1 (Heap.peek_exn h);
  Alcotest.(check int) "pop_exn 1" 1 (Heap.pop_exn h);
  Alcotest.(check int) "pop_exn 2" 2 (Heap.pop_exn h);
  Alcotest.(check int) "pop_exn 3" 3 (Heap.pop_exn h);
  Alcotest.(check bool) "empty again" true (Heap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Impairment profiles (Faults)                                        *)
(* ------------------------------------------------------------------ *)

(* A fresh injector applying [link_profile] to every link, nothing
   else.  [deliveries] takes [~now] explicitly, so properties can walk
   virtual time without stepping the engine. *)
let faults_with link_profile =
  let engine = Engine.create () in
  let plan = { (Faults.clean_plan ~seed:1) with Faults.link = link_profile } in
  let t = Faults.create engine plan in
  (t, Faults.link t ~name:"wire" ())

(* Token-bucket conservation: every send is either delivered exactly
   once with a queueing delay in [0, max_queue] or tail-dropped, the
   two outcomes partition the sends, and the shaper is the only loss
   cause in play. *)
let prop_shaper_conservation =
  QCheck2.Test.make ~name:"token bucket conserves and bounds queueing delay"
    ~count:150
    QCheck2.Gen.(
      quad
        (float_range 100.0 100_000.0)
        (int_range 64 10_000)
        (float_range 0.001 0.5)
        (list_size (int_range 1 150) (pair (float_range 0.0 5.0) (int_range 1 4096))))
    (fun (rate, burst, maxq, sends) ->
      let sends = List.sort compare sends in
      let prof =
        {
          Faults.clean_dir with
          rate =
            Some
              {
                Faults.rate_bytes_per_sec = rate;
                burst_bytes = burst;
                max_queue = Time.seconds maxq;
              };
        }
      in
      let t, l = faults_with (Faults.symmetric prof) in
      let delivered = ref 0 in
      let ok =
        List.for_all
          (fun (at, bytes) ->
            match Faults.deliveries l ~now:(Time.seconds at) ~bytes with
            | [] -> true
            | [ d ] ->
              incr delivered;
              Time.compare d Time.zero >= 0 && Time.to_seconds d <= maxq +. 1e-9
            | _ -> false)
          sends
      in
      ok
      && !delivered + Faults.shaper_dropped t = List.length sends
      && Faults.lost t = Faults.shaper_dropped t
      && Faults.dropped t = 0)

let gen_jitter_spec =
  let open QCheck2.Gen in
  oneof
    [
      map (fun c -> Dist.Constant c) (float_range (-0.5) 2.0);
      map2
        (fun lo w -> Dist.Uniform_spec { lo; hi = lo +. w })
        (float_range 0.0 1.0) (float_range 0.0 2.0);
      map (fun mean -> Dist.Exponential_spec { mean }) (float_range 0.01 1.0);
      map2
        (fun mean stddev -> Dist.Normal_spec { mean; stddev })
        (float_range 0.0 1.0) (float_range 0.01 0.5);
      map2
        (fun mu sigma -> Dist.Lognormal_spec { mu; sigma })
        (float_range (-1.0) 0.5) (float_range 0.05 0.8);
      map3
        (fun shape lo w -> Dist.Pareto_spec { shape; lo; hi = lo +. w })
        (float_range 1.1 3.0) (float_range 0.01 1.0) (float_range 0.0 5.0);
    ]

(* Every jitter delay falls inside the spec's advertised support,
   clamped at zero (jitter only ever delays). *)
let prop_jitter_within_support =
  QCheck2.Test.make ~name:"jitter delays stay within Dist.support" ~count:200
    QCheck2.Gen.(
      pair gen_jitter_spec (list_size (int_range 1 100) (float_range 0.0 5.0)))
    (fun (spec, times) ->
      let lo, hi = Dist.support spec in
      let lo = Float.max 0.0 lo and hi = Float.max 0.0 hi in
      let prof = { Faults.clean_dir with jitter = Some spec } in
      let _t, l = faults_with (Faults.symmetric prof) in
      List.for_all
        (fun at ->
          match Faults.deliveries l ~now:(Time.seconds at) ~bytes:100 with
          | [ d ] ->
            let d = Time.to_seconds d in
            d >= lo -. 1e-9 && (hi = infinity || d <= hi +. 1e-9)
          | _ -> false)
        times)

(* Blackhole windows lose exactly the in-window sends — no bleed into
   surrounding traffic, and each loss is attributed to the blackhole
   counter. *)
let prop_blackhole_exact =
  QCheck2.Test.make ~name:"blackhole windows lose exactly the in-window sends"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 3) (pair (float_range 0.0 8.0) (float_range 0.0 2.0)))
        (list_size (int_range 1 150) (float_range 0.0 10.0)))
    (fun (windows, times) ->
      let bhs =
        List.map
          (fun (f, w) ->
            { Faults.bh_from = Time.seconds f; bh_until = Time.seconds (f +. w) })
          windows
      in
      let prof = { Faults.clean_dir with blackholes = bhs } in
      let t, l = faults_with (Faults.symmetric prof) in
      let in_window at =
        List.exists
          (fun b ->
            Time.compare at b.Faults.bh_from >= 0 && Time.compare at b.bh_until < 0)
          bhs
      in
      let expected_lost = ref 0 in
      let ok =
        List.for_all
          (fun s ->
            let at = Time.seconds s in
            let lost = Faults.deliveries l ~now:at ~bytes:64 = [] in
            if in_window at then begin
              incr expected_lost;
              lost
            end
            else not lost)
          times
      in
      ok && Faults.blackholed t = !expected_lost && Faults.lost t = !expected_lost)

(* Channel-level determinism: the same impairment plan over the same
   traffic makes bit-identical fault decisions — the property the soak's
   printed-plan replay rests on. *)
let prop_impairment_rerun_identical =
  QCheck2.Test.make ~name:"same plan, same traffic, same fault decisions" ~count:60
    QCheck2.Gen.(pair small_nat (int_range 10 120))
    (fun (seed, n) ->
      let plan =
        Faults.random_impairment_plan ~seed ~mbs:[ "m" ] ~horizon:(Time.seconds 10.0)
      in
      let run () =
        let engine = Engine.create () in
        let t = Faults.create engine plan in
        let fwd = Faults.link t ~name:"wire" () in
        let rev = Faults.link t ~dir:`Rev ~name:"wire" () in
        let g = Prng.create ~seed:(seed lxor 0x7E57) in
        let out = ref [] in
        for _ = 1 to n do
          let at = Time.seconds (Prng.float g 10.0) in
          let bytes = 1 + Prng.int g 4096 in
          let dir = if Prng.chance g 0.5 then fwd else rev in
          out := Faults.deliveries dir ~now:at ~bytes :: !out
        done;
        ( !out,
          Faults.dropped t,
          Faults.duplicated t,
          Faults.delayed t,
          Faults.corrupted t,
          Faults.throttled t,
          Faults.shaper_dropped t,
          Faults.blackholed t )
      in
      run () = run ())

(* ------------------------------------------------------------------ *)
(* Telemetry remove/reset                                              *)
(* ------------------------------------------------------------------ *)

let test_telemetry_remove_reset () =
  let tel = Telemetry.create () in
  let c = Telemetry.counter tel "x" in
  Telemetry.add c 5;
  Telemetry.reset_counter c;
  Alcotest.(check int) "counter reset" 0 (Telemetry.counter_value c);
  Telemetry.incr c;
  Alcotest.(check int) "counts again after reset" 1 (Telemetry.counter_value c);
  let g = Telemetry.gauge tel "y" in
  Telemetry.set_gauge g 7;
  Telemetry.reset_gauge g;
  Alcotest.(check int) "gauge reset" 0 (Telemetry.gauge_value g);
  Alcotest.(check bool) "remove existing" true (Telemetry.remove tel "x");
  Alcotest.(check bool) "remove missing" false (Telemetry.remove tel "x");
  (* The detached handle becomes a sink: writes must not resurrect the
     removed row. *)
  Telemetry.add c 100;
  Alcotest.(check (option int))
    "removed stays gone" None
    (Telemetry.snap_counter (Telemetry.snapshot tel) "x");
  let c' = Telemetry.counter tel "x" in
  Alcotest.(check int) "recreated starts fresh" 0 (Telemetry.counter_value c')

(* Random registry programs extended with remove/reset: merge must stay
   associative — a reset metric is just a smaller value, and a removed
   one is absent from the snapshot on every side identically. *)
type tel_op_rr = Base of tel_op | Crst of int | Grst of int | Rm of string

let gen_tel_ops_rr =
  QCheck2.Gen.(
    list_size (int_range 0 50)
      (oneof
         [
           map2 (fun i n -> Base (Cadd (i, n))) (int_bound 2) (int_range 0 1_000);
           map2 (fun i v -> Base (Gset (i, v))) (int_bound 1) (int_range 0 500);
           map2 (fun i v -> Base (Hobs (i, v))) (int_bound 1) (int_range 0 1_000);
           map (fun i -> Crst i) (int_bound 2);
           map (fun i -> Grst i) (int_bound 1);
           map2
             (fun k i -> Rm (Printf.sprintf "%s%d" k i))
             (oneofl [ "c"; "g"; "h" ])
             (int_bound 2);
         ]))

let snap_of_ops_rr ops =
  let tel = Telemetry.create () in
  List.iter
    (function
      | Base (Cadd (i, n)) ->
        Telemetry.add (Telemetry.counter tel (Printf.sprintf "c%d" i)) n
      | Base (Gset (i, v)) ->
        Telemetry.set_gauge (Telemetry.gauge tel (Printf.sprintf "g%d" i)) v
      | Base (Hobs (i, v)) ->
        Telemetry.observe
          (Telemetry.histogram tel (Printf.sprintf "h%d" i))
          (float_of_int v)
      | Crst i -> Telemetry.reset_counter (Telemetry.counter tel (Printf.sprintf "c%d" i))
      | Grst i -> Telemetry.reset_gauge (Telemetry.gauge tel (Printf.sprintf "g%d" i))
      | Rm name -> ignore (Telemetry.remove tel name))
    ops;
  Telemetry.snapshot tel

let prop_merge_associative_after_reset =
  QCheck2.Test.make ~name:"registry merge stays associative under remove/reset"
    ~count:300
    QCheck2.Gen.(triple gen_tel_ops_rr gen_tel_ops_rr gen_tel_ops_rr)
    (fun (xa, xb, xc) ->
      let a = snap_of_ops_rr xa and b = snap_of_ops_rr xb and c = snap_of_ops_rr xc in
      Telemetry.merge (Telemetry.merge a b) c
      = Telemetry.merge a (Telemetry.merge b c))

(* ------------------------------------------------------------------ *)
(* Timeseries                                                          *)
(* ------------------------------------------------------------------ *)

(* Drive a scraper for exactly [n] samples: a sentinel event pins the
   horizon (the tick auto-stops when it would be the only pending
   event) and [~until] bounds the last tick to (n-1) periods. *)
let scrape_values ?(cap = 16) ~every values n =
  let engine = Engine.create () in
  let ts = Timeseries.create ~cap engine in
  let i = ref 0 in
  Timeseries.add ts ~name:"v"
    (Timeseries.Poll
       (fun () ->
         let v = values.(!i) in
         incr i;
         v));
  (* Accumulate the horizon with the same repeated addition the tick
     uses, so the (n-1)-th tick lands exactly on [until] even where
     n * every is not float-exact. *)
  let horizon = ref Time.zero in
  for _ = 2 to n do
    horizon := Time.(!horizon + every)
  done;
  let horizon = !horizon in
  ignore (Engine.schedule_at engine horizon (fun () -> ()));
  Timeseries.start ts ~until:horizon ~every;
  Engine.run engine;
  (engine, ts)

let test_timeseries_basics () =
  let values = Array.init 40 float_of_int in
  let _, ts = scrape_values ~cap:16 ~every:(Time.seconds 1.0) values 40 in
  Alcotest.(check int) "total" 40 (Timeseries.total ts);
  Alcotest.(check bool) "auto-stopped" false (Timeseries.running ts);
  Alcotest.(check int) "retained" 16 (Timeseries.retained ts);
  let si = Timeseries.index ts "v" in
  check_float "raw keeps absolute indexing" 24.0 (Timeseries.raw_get ts ~series:si 24);
  check_float "newest sample" 39.0 (Timeseries.raw_get ts ~series:si 39);
  Alcotest.check_raises "evicted sample rejected"
    (Invalid_argument "Timeseries.raw_get: index outside retained window")
    (fun () -> ignore (Timeseries.raw_get ts ~series:si 23));
  check_float "sample timestamps" 39.0 (Timeseries.time_of_sample ts 39);
  Alcotest.(check int) "10x buckets" 4 (Timeseries.completed_buckets ts ~level:0);
  let mn, mx, mean, last = Timeseries.bucket_get ts ~series:si ~level:0 3 in
  check_float "bucket min" 30.0 mn;
  check_float "bucket max" 39.0 mx;
  check_float "bucket mean" 34.5 mean;
  check_float "bucket last" 39.0 last

let test_timeseries_merge_json () =
  let n = 30 in
  let mk c =
    let values = Array.make n c in
    let _, ts = scrape_values ~cap:8 ~every:(Time.ms 1.0) values n in
    Timeseries.snapshot ts
  in
  let merged = Timeseries.merge_all [ mk 1.0; mk 2.0 ] in
  let json = Timeseries.to_json merged in
  (* Well-formed JSON carrying the summed series. *)
  (match Openmb_wire.Json.of_string json with
  | Openmb_wire.Json.Assoc _ -> ()
  | _ -> Alcotest.fail "merged snapshot JSON is not an object"
  | exception Openmb_wire.Json.Parse_error _ ->
    Alcotest.fail "merged snapshot JSON failed to parse");
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "series present" true (contains ~sub:"\"v\"" json);
  (* Sum mode: 1.0 + 2.0 everywhere in the overlapping window. *)
  Alcotest.(check bool) "summed values" true (contains ~sub:"3" json)

(* Every retained completed bucket at every rollup level aggregates
   exactly its absolute sample range [f*b, f*(b+1)) — wrap or no wrap —
   and the bounds sandwich both the bucket mean and the raw samples.
   Integer-valued floats keep the reference sums exact. *)
let prop_rollup_buckets_exact =
  QCheck2.Test.make ~name:"rollup buckets aggregate absolute sample ranges exactly"
    ~count:100
    QCheck2.Gen.(
      triple (int_range 1 400) (int_range 16 32)
        (array_size (return 400) (map float_of_int (int_range (-1000) 1000))))
    (fun (n, cap, values) ->
      let _, ts = scrape_values ~cap ~every:(Time.ms 1.0) values n in
      if Timeseries.total ts <> n then
        QCheck2.Test.fail_reportf "sampled %d of %d" (Timeseries.total ts) n;
      let si = Timeseries.index ts "v" in
      for k = max 0 (n - cap) to n - 1 do
        if Timeseries.raw_get ts ~series:si k <> values.(k) then
          QCheck2.Test.fail_reportf "raw[%d] drifted after wrap" k
      done;
      for l = 0 to Timeseries.levels - 1 do
        let f = Timeseries.level_factor l in
        let nb = Timeseries.completed_buckets ts ~level:l in
        if nb <> n / f then
          QCheck2.Test.fail_reportf "level %d: %d buckets from %d samples" l nb n;
        for b = nb - Timeseries.retained_buckets ts ~level:l to nb - 1 do
          let mn, mx, mean, last = Timeseries.bucket_get ts ~series:si ~level:l b in
          let emn = ref infinity and emx = ref neg_infinity and esum = ref 0.0 in
          for k = f * b to (f * (b + 1)) - 1 do
            let v = values.(k) in
            if v < !emn then emn := v;
            if v > !emx then emx := v;
            esum := !esum +. v
          done;
          if mn <> !emn || mx <> !emx then
            QCheck2.Test.fail_reportf "level %d bucket %d bounds mismatch" l b;
          if last <> values.((f * (b + 1)) - 1) then
            QCheck2.Test.fail_reportf "level %d bucket %d last mismatch" l b;
          if Float.abs (mean -. (!esum /. float_of_int f)) > 1e-9 then
            QCheck2.Test.fail_reportf "level %d bucket %d mean mismatch" l b;
          if not (mn <= mean && mean <= mx) then
            QCheck2.Test.fail_reportf "level %d bucket %d mean escapes [min,max]" l b;
          for k = f * b to (f * (b + 1)) - 1 do
            if k >= n - cap then begin
              let v = Timeseries.raw_get ts ~series:si k in
              if not (mn <= v && v <= mx) then
                QCheck2.Test.fail_reportf "level %d bucket %d does not sandwich raw[%d]"
                  l b k
            end
          done
        done
      done;
      true)

(* ------------------------------------------------------------------ *)
(* SLO burn rates                                                      *)
(* ------------------------------------------------------------------ *)

(* 20 good samples then sustained badness: with a 5-sample window and a
   10% budget the first bad sample burns at 2x and trips the objective
   exactly once (edge-triggered). *)
let test_slo_breach () =
  let engine = Engine.create () in
  let ts = Timeseries.create ~cap:64 engine in
  let i = ref 0 in
  Timeseries.add ts ~name:"lat"
    (Timeseries.Poll
       (fun () ->
         incr i;
         if !i <= 20 then 0.001 else 0.010));
  let slo = Slo.create ts in
  Slo.add slo
    (Slo.objective ~budget:0.1 ~windows:[ (5, 1.0) ] ~name:"lat-slo" ~series:"lat"
       Slo.Le 0.002);
  Slo.attach slo;
  let seen = ref [] in
  Slo.set_on_breach slo (fun br -> seen := br.Slo.br_objective :: !seen);
  let horizon = Time.seconds 39.0 in
  ignore (Engine.schedule_at engine horizon (fun () -> ()));
  Timeseries.start ts ~until:horizon ~every:(Time.seconds 1.0);
  Engine.run engine;
  Alcotest.(check int) "edge-triggered once" 1 (Slo.breach_count slo);
  Alcotest.(check (list string)) "hook fired" [ "lat-slo" ] !seen;
  Alcotest.(check bool) "still in breach" true (Slo.in_breach slo "lat-slo");
  Alcotest.(check bool) "burn rate >= threshold" true (Slo.burn_rate slo "lat-slo" >= 1.0);
  match Slo.breaches slo with
  | [ br ] ->
    check_float "offending value recorded" 0.010 br.Slo.br_value;
    check_float "virtual timestamp" 20.0 br.Slo.br_at
  | _ -> Alcotest.fail "expected exactly one breach"

let test_slo_quiet () =
  let engine = Engine.create () in
  let ts = Timeseries.create ~cap:64 engine in
  Timeseries.add ts ~name:"lat" (Timeseries.Poll (fun () -> 0.001));
  let slo = Slo.create ts in
  Slo.add slo (Slo.objective ~name:"lat-slo" ~series:"lat" Slo.Le 0.002);
  Slo.attach slo;
  let horizon = Time.seconds 50.0 in
  ignore (Engine.schedule_at engine horizon (fun () -> ()));
  Timeseries.start ts ~until:horizon ~every:(Time.seconds 1.0);
  Engine.run engine;
  Alcotest.(check int) "no breach on healthy series" 0 (Slo.breach_count slo);
  Alcotest.(check bool) "not in breach" false (Slo.in_breach slo "lat-slo")

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_recorder_bundle () =
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  Telemetry.add (Telemetry.counter tel "pkts") 3;
  let tr = Telemetry.trace tel in
  let s = Telemetry.Trace.span_begin tr ~now:Time.zero ~actor:"mb" ~name:"op" ~op:1 () in
  Telemetry.Trace.span_end tr ~now:(Time.ms 1.0) s;
  let ts = Timeseries.create ~cap:64 engine in
  let i = ref 0 in
  Timeseries.add ts ~name:"lat"
    (Timeseries.Poll
       (fun () ->
         incr i;
         if !i <= 10 then 0.001 else 0.010));
  let slo = Slo.create ts in
  Slo.add slo
    (Slo.objective ~budget:0.1 ~windows:[ (5, 1.0) ] ~name:"lat-slo" ~series:"lat"
       Slo.Le 0.002);
  Slo.attach slo;
  let fr =
    Flight_recorder.create ~telemetry:tel ~timeseries:ts ~slo ~fault_plan:"plan{demo}" ()
  in
  Flight_recorder.arm fr ~engine;
  let horizon = Time.seconds 30.0 in
  ignore (Engine.schedule_at engine horizon (fun () -> ()));
  Timeseries.start ts ~until:horizon ~every:(Time.seconds 1.0);
  Engine.run engine;
  Alcotest.(check int) "one bundle on first breach" 1 (Flight_recorder.dumps fr);
  let bundle =
    match Flight_recorder.last_bundle fr with
    | Some b -> b
    | None -> Alcotest.fail "no bundle captured"
  in
  (match Openmb_wire.Json.of_string bundle with
  | Openmb_wire.Json.Assoc fields ->
    List.iter
      (fun key ->
        if not (List.mem_assoc key fields) then
          Alcotest.failf "bundle missing %S section" key)
      [ "reason"; "at_s"; "fault_plan"; "breaches"; "series"; "registry"; "span_tail" ]
  | _ -> Alcotest.fail "bundle is not a JSON object"
  | exception Openmb_wire.Json.Parse_error _ ->
    Alcotest.fail "bundle failed to parse as JSON");
  let contains ~sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "replayable plan embedded" true (contains ~sub:"plan{demo}" bundle);
  Alcotest.(check bool) "breached series window" true (contains ~sub:"\"lat\"" bundle);
  Alcotest.(check bool) "breach log" true (contains ~sub:"lat-slo" bundle);
  Alcotest.(check bool) "span tail" true (contains ~sub:"\"mb\"" bundle)

(* Every JSON writer quotes through Telemetry.add_json_string: names and
   details carrying UTF-8, quotes, backslashes and control bytes parse,
   and read back identical.  OCaml's [%S] escapes ([\195], [\001]) are
   not JSON. *)
let test_json_writers_escape () =
  let odd = "prads\x01 \"caf\xc3\xa9\" \\ \n\t\x1f" and detail = "http GET /caf\xc3\xa9\x01" in
  let tel = Telemetry.create () in
  let engine = Engine.create ~telemetry:tel () in
  Telemetry.incr (Telemetry.counter tel odd);
  Telemetry.instant tel ~now:Time.zero ~actor:odd ~name:"pkt" ~detail ();
  let ts = Timeseries.create ~cap:64 engine in
  Timeseries.add ts ~name:odd (Timeseries.Poll (fun () -> 1.0));
  let slo = Slo.create ts in
  Slo.add slo
    (Slo.objective ~budget:0.1 ~windows:[ (5, 1.0) ] ~name:odd ~series:odd Slo.Le 0.5);
  Slo.attach slo;
  let fr = Flight_recorder.create ~telemetry:tel ~timeseries:ts ~slo ~fault_plan:odd () in
  Flight_recorder.arm fr ~engine;
  let horizon = Time.seconds 10.0 in
  ignore (Engine.schedule_at engine horizon (fun () -> ()));
  Timeseries.start ts ~until:horizon ~every:(Time.seconds 1.0);
  Engine.run engine;
  let module Json = Openmb_wire.Json in
  let parse what s =
    try Json.of_string s with Json.Parse_error m -> Alcotest.failf "%s: %s" what m
  in
  let str what = function Json.String s -> s | _ -> Alcotest.failf "%s: not a string" what in
  let keys what = function
    | Json.Assoc fields -> List.map fst fields
    | _ -> Alcotest.failf "%s: not an object" what
  in
  let series = parse "timeseries" (Timeseries.to_json (Timeseries.snapshot ts)) in
  Alcotest.(check (list string)) "series name" [ odd ] (keys "series" (Json.member "series" series));
  (match parse "breaches" (Slo.breaches_to_json slo) with
  | Json.List (br :: _) ->
    Alcotest.(check string) "objective" odd (str "objective" (Json.member "objective" br));
    Alcotest.(check string) "breached series" odd (str "series" (Json.member "series" br))
  | _ -> Alcotest.fail "no breach");
  let bundle =
    match Flight_recorder.last_bundle fr with
    | Some b -> parse "bundle" b
    | None -> Alcotest.fail "no bundle captured"
  in
  Alcotest.(check string) "fault plan" odd (str "fault_plan" (Json.member "fault_plan" bundle));
  Alcotest.(check bool) "registry counter" true
    (List.mem odd (keys "counters" (Json.member "counters" (Json.member "registry" bundle))));
  match Json.member "span_tail" bundle with
  | Json.List [ span ] ->
    Alcotest.(check string) "span actor" odd (str "actor" (Json.member "actor" span));
    Alcotest.(check string) "span detail" detail (str "detail" (Json.member "detail" span))
  | _ -> Alcotest.fail "span tail is not the one instant"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_sim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "exn accessors" `Quick test_heap_exn;
        ]
        @ qcheck [ prop_heap_sorts ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "float mean" `Quick test_prng_float_mean;
          Alcotest.test_case "xor stream" `Quick test_prng_xor_stream;
        ] );
      ( "dist",
        [
          Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
          Alcotest.test_case "zipf popularity" `Quick test_dist_zipf_rank1_most_popular;
          Alcotest.test_case "empirical endpoints" `Quick test_dist_empirical_endpoints;
          Alcotest.test_case "bounded pareto bounds" `Quick test_dist_bounded_pareto_bounds;
          Alcotest.test_case "weighted index" `Quick test_dist_weighted_index;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "percentile interpolation" `Quick
            test_stats_percentile_interpolation;
          Alcotest.test_case "fraction above" `Quick test_stats_fraction_above;
          Alcotest.test_case "cdf monotone" `Quick test_stats_cdf_monotone;
          Alcotest.test_case "histogram total" `Quick test_stats_histogram_total;
          Alcotest.test_case "present value allocates nothing" `Quick
            test_stats_add_present_allocates_nothing;
          Alcotest.test_case "memory follows distinct values" `Quick test_stats_memory_bounded;
        ]
        @ qcheck
            [ prop_stats_mean_bounded; prop_stats_multiset_ties; prop_stats_multiset_distinct ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected;
          Alcotest.test_case "mixed-kind fifo" `Quick test_engine_call_fifo_with_closures;
          Alcotest.test_case "far-future overflow" `Quick test_engine_far_future_overflow;
          Alcotest.test_case "pending excludes cancelled" `Quick
            test_engine_pending_excludes_cancelled;
          Alcotest.test_case "reserve rejects misuse" `Quick test_engine_reserve_rejects;
          Alcotest.test_case "pool reuse" `Quick test_pool_reuse;
          Alcotest.test_case "steady-state allocation" `Quick test_engine_steady_alloc;
        ]
        @ qcheck
            [
              prop_engine_time_order;
              prop_wheel_equiv;
              prop_wheel_equiv_coarse;
              prop_wheel_equiv_fine;
              prop_pool_invariants;
            ] );
      ( "channel",
        [
          Alcotest.test_case "latency and bandwidth" `Quick
            test_channel_latency_and_bandwidth;
          Alcotest.test_case "fifo serialization" `Quick test_channel_fifo_serialization;
        ] );
      ( "faults",
        qcheck
          [
            prop_shaper_conservation;
            prop_jitter_within_support;
            prop_blackhole_exact;
            prop_impairment_rerun_identical;
          ] );
      ( "timeline",
        [ Alcotest.test_case "keeps every instant" `Quick test_timeline_keeps_every_instant ] );
      ( "telemetry",
        [
          Alcotest.test_case "registry" `Quick test_telemetry_registry;
          Alcotest.test_case "snapshot diff" `Quick test_telemetry_snapshot_diff;
          Alcotest.test_case "registry merge" `Quick test_registry_merge;
          Alcotest.test_case "ring overwrite" `Quick test_trace_ring_overwrite;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "remove and reset" `Quick test_telemetry_remove_reset;
        ]
        @ qcheck
            [
              prop_hist_quantile_bounds;
              prop_hist_quantile_monotone;
              prop_hist_bucket_monotone;
              prop_merge_associative;
              prop_merge_commutative;
              prop_merge_quantile_sandwich;
              prop_merge_associative_after_reset;
            ] );
      ( "timeseries",
        [
          Alcotest.test_case "scrape, wrap, rollups" `Quick test_timeseries_basics;
          Alcotest.test_case "merge + json" `Quick test_timeseries_merge_json;
        ]
        @ qcheck [ prop_rollup_buckets_exact ] );
      ( "slo",
        [
          Alcotest.test_case "burn-rate breach" `Quick test_slo_breach;
          Alcotest.test_case "healthy series" `Quick test_slo_quiet;
        ] );
      ( "flight_recorder",
        [
          Alcotest.test_case "breach bundle" `Quick test_flight_recorder_bundle;
          Alcotest.test_case "JSON writers escape any bytes" `Quick test_json_writers_escape;
        ] );
    ]
