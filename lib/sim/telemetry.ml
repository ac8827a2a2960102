(* Metric registry + span ring.

   Hot-path layout notes:

   - [counter]/[gauge] are records of immediate ints, so increments are
     single stores.

   - [histogram] keeps its float accumulators (sum, max) in a float
     array rather than mutable record fields: a mutable float field in
     a mixed record is boxed and every assignment would allocate.

   - The span ring is a structure of arrays (one column per field) so a
     begin/end touches seven flat stores and no per-span block exists.
     A span token is the row's absolute index; with [cap] rows the slot
     is [idx mod cap] and the row is still live iff
     [idx >= total - cap], which makes [span_end] on an overwritten row
     detectable (and a no-op) without generation counters. *)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type counter = { mutable c : int }
type gauge = { mutable g : int; mutable g_peak : int }

let hist_slots = 64

type histogram = {
  buckets : int array;  (* slot i counts samples with floor(log2 ns) = i *)
  fs : float array;  (* [| sum; max |], seconds *)
  mutable n : int;
}

let null_counter = { c = 0 }
let null_gauge = { g = 0; g_peak = 0 }
let null_histogram = { buckets = Array.make hist_slots 0; fs = [| 0.0; 0.0 |]; n = 0 }

let incr c = c.c <- c.c + 1
let add c k = c.c <- c.c + k
let counter_value c = c.c

let set_gauge gg v =
  gg.g <- v;
  if v > gg.g_peak then gg.g_peak <- v

let gauge_value gg = gg.g
let gauge_peak gg = gg.g_peak

(* Highest set bit, tail-recursively: no refs, no allocation. *)
let rec msb acc n = if n <= 1 then acc else msb (acc + 1) (n lsr 1)

let bucket_of_seconds v =
  let ns = int_of_float (v *. 1e9) in
  if ns <= 0 then 0
  else
    let b = msb 0 ns in
    if b >= hist_slots then hist_slots - 1 else b

(* Upper bound of bucket [i] in seconds: 2^(i+1) ns. *)
let bucket_upper i = ldexp 1e-9 (i + 1)

let observe h v =
  let v = if v < 0.0 then 0.0 else v in
  let b = bucket_of_seconds v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.n <- h.n + 1;
  h.fs.(0) <- h.fs.(0) +. v;
  if v > h.fs.(1) then h.fs.(1) <- v

(* Weighted observe for the batch packet path: [n] members of a batch
   share one measured value, so the histogram update is a single bucket
   store instead of [n] — instrumentation cost per batch, not per
   packet. *)
let observe_n h v ~n =
  if n > 0 then begin
    let v = if v < 0.0 then 0.0 else v in
    let b = bucket_of_seconds v in
    h.buckets.(b) <- h.buckets.(b) + n;
    h.n <- h.n + n;
    h.fs.(0) <- h.fs.(0) +. (v *. float_of_int n);
    if v > h.fs.(1) then h.fs.(1) <- v
  end

(* Dimensionless-count histograms (batch occupancy, queue depths): one
   unit is encoded as 1ns so a count of [k] lands in bucket
   [floor (log2 k)] and the pp/quantile machinery reads naturally as
   "units" where it prints "ns". *)
let observe_count h k = observe h (float_of_int k *. 1e-9)

let hist_count h = h.n
let hist_sum h = h.fs.(0)
let hist_max h = h.fs.(1)

let quantile_of_buckets buckets n q =
  if n = 0 then 0.0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int n)) in
      if r < 1 then 1 else if r > n then n else r
    in
    let i = ref 0 and seen = ref 0 in
    (* Walk up the buckets until the cumulative count covers the rank. *)
    while !seen + buckets.(!i) < rank do
      seen := !seen + buckets.(!i);
      i := !i + 1
    done;
    bucket_upper !i
  end

let quantile h q = quantile_of_buckets h.buckets h.n q

(* A JSON string literal.  Bytes from 0x20 up pass through, so UTF-8
   text stays as it is and every byte string reads back unchanged. *)
let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type t = {
    cap : int;
    growable : bool;
    (* Columns; all the same length, 0 until the first span. *)
    mutable col_actor : int array;
    mutable col_name : int array;
    mutable col_op : int array;
    mutable col_a0 : int array;
    mutable col_a1 : int array;
    mutable col_t0 : float array;
    mutable col_t1 : float array;
    mutable col_detail : string array;
    mutable alloc : int;  (* current column length *)
    mutable total : int;  (* spans ever begun *)
    intern : (string, int) Hashtbl.t;
    mutable strings : string array;
    mutable nstrings : int;
  }

  type span = int

  let none = -1

  let make ~capacity ~growable =
    let cap = if capacity < 16 then 16 else capacity in
    {
      cap;
      growable;
      col_actor = [||];
      col_name = [||];
      col_op = [||];
      col_a0 = [||];
      col_a1 = [||];
      col_t0 = [||];
      col_t1 = [||];
      col_detail = [||];
      alloc = 0;
      total = 0;
      intern = Hashtbl.create 64;
      strings = Array.make 16 "";
      nstrings = 0;
    }

  let create ?(capacity = 4096) () = make ~capacity ~growable:false

  let intern t s =
    match Hashtbl.find_opt t.intern s with
    | Some id -> id
    | None ->
      let id = t.nstrings in
      if id = Array.length t.strings then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.strings 0 bigger 0 id;
        t.strings <- bigger
      end;
      t.strings.(id) <- s;
      t.nstrings <- id + 1;
      Hashtbl.add t.intern s id;
      id

  let lookup_id t s = match Hashtbl.find_opt t.intern s with Some id -> id | None -> -1
  let string_of_id t id = t.strings.(id)

  let grow_to t n =
    let grow_int a = Array.append a (Array.make (n - Array.length a) 0) in
    let grow_float a = Array.append a (Array.make (n - Array.length a) 0.0) in
    let grow_str a = Array.append a (Array.make (n - Array.length a) "") in
    t.col_actor <- grow_int t.col_actor;
    t.col_name <- grow_int t.col_name;
    t.col_op <- grow_int t.col_op;
    t.col_a0 <- grow_int t.col_a0;
    t.col_a1 <- grow_int t.col_a1;
    t.col_t0 <- grow_float t.col_t0;
    t.col_t1 <- grow_float t.col_t1;
    t.col_detail <- grow_str t.col_detail;
    t.alloc <- n

  (* Row for the next span: bounded mode wraps (overwriting the row
     [cap] spans back), growable mode doubles before it runs out.  The
     columns start empty so an instance that never traces costs eight
     empty arrays. *)
  let next_slot t =
    if t.growable then begin
      if t.total = t.alloc then grow_to t (if t.alloc = 0 then t.cap else 2 * t.alloc);
      t.total
    end
    else begin
      if t.alloc < t.cap then grow_to t t.cap;
      t.total mod t.cap
    end

  let span_begin t ~now ~actor ~name ?(op = 0) ?(a0 = 0) ?(a1 = 0) ?(detail = "") () =
    let slot = next_slot t in
    t.col_actor.(slot) <- intern t actor;
    t.col_name.(slot) <- intern t name;
    t.col_op.(slot) <- op;
    t.col_a0.(slot) <- a0;
    t.col_a1.(slot) <- a1;
    t.col_t0.(slot) <- now;
    t.col_t1.(slot) <- -1.0;
    t.col_detail.(slot) <- detail;
    let idx = t.total in
    t.total <- idx + 1;
    idx

  let live t idx =
    idx >= 0 && idx < t.total && (t.growable || idx >= t.total - t.cap)

  let span_end t ~now idx =
    if live t idx then begin
      let slot = if t.growable then idx else idx mod t.cap in
      t.col_t1.(slot) <- now
    end

  let instant t ~now ~actor ~name ?op ?a0 ?a1 ?detail () =
    let idx = span_begin t ~now ~actor ~name ?op ?a0 ?a1 ?detail () in
    span_end t ~now idx

  let total t = t.total

  let length t =
    if t.growable then t.total else if t.total < t.cap then t.total else t.cap

  let overwritten t = if t.growable then 0 else max 0 (t.total - t.cap)

  let clear t = t.total <- 0

  let fold t ~init ~f =
    let first = if t.growable then 0 else max 0 (t.total - t.cap) in
    let acc = ref init in
    for idx = first to t.total - 1 do
      let slot = if t.growable then idx else idx mod t.cap in
      acc :=
        f !acc ~actor:t.col_actor.(slot) ~name:t.col_name.(slot)
          ~op:t.col_op.(slot) ~a0:t.col_a0.(slot) ~a1:t.col_a1.(slot)
          ~t0:t.col_t0.(slot) ~t1:t.col_t1.(slot) ~detail:t.col_detail.(slot)
    done;
    !acc

  (* ---------------- Chrome trace_event export ---------------- *)

  let export_chrome t oc =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let sep = ref "" in
    let emit_meta id name =
      Buffer.add_string b !sep;
      sep := ",";
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":"
           id);
      add_json_string b name;
      Buffer.add_string b "}}"
    in
    (* Name every thread (= actor) that appears in a held row. *)
    let actors = Array.make t.nstrings false in
    ignore
      (fold t ~init:() ~f:(fun () ~actor ~name:_ ~op:_ ~a0:_ ~a1:_ ~t0:_ ~t1:_ ~detail:_ ->
           actors.(actor) <- true));
    Array.iteri (fun id seen -> if seen then emit_meta id t.strings.(id)) actors;
    ignore
      (fold t ~init:() ~f:(fun () ~actor ~name ~op ~a0 ~a1 ~t0 ~t1 ~detail ->
           Buffer.add_string b !sep;
           sep := ",";
           let ts = t0 *. 1e6 in
           let still_open = t1 < t0 in
           let dur = if still_open then 0.0 else (t1 -. t0) *. 1e6 in
           Buffer.add_string b "{\"name\":";
           add_json_string b t.strings.(name);
           (* Instants render as "i" so Perfetto draws a marker rather
              than an invisible zero-width slice. *)
           if (not still_open) && t1 = t0 then
             Buffer.add_string b
               (Printf.sprintf ",\"cat\":\"openmb\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d"
                  ts actor)
           else
             Buffer.add_string b
               (Printf.sprintf
                  ",\"cat\":\"openmb\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
                  ts dur actor);
           Buffer.add_string b
             (Printf.sprintf ",\"args\":{\"op_id\":%d,\"a0\":%d,\"a1\":%d" op a0 a1);
           if not (String.equal detail "") then begin
             Buffer.add_string b ",\"detail\":";
             add_json_string b detail
           end;
           if still_open then Buffer.add_string b ",\"open\":true";
           Buffer.add_string b "}}"));
    Buffer.add_string b "],\"displayTimeUnit\":\"ms\"}";
    Buffer.output_buffer oc b
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

type metric = Counter of counter | Gauge of gauge | Hist of histogram

type t = {
  metrics : (string, metric) Hashtbl.t;
  tr : Trace.t;
  mutable next_tid : int;
}

let create ?(span_capacity = 4096) ?(timeline = false) () =
  {
    metrics = Hashtbl.create 32;
    tr = Trace.make ~capacity:span_capacity ~growable:timeline;
    next_tid = 0;
  }

let timeline t = t.tr.Trace.growable

let kind_name = function Counter _ -> "counter" | Gauge _ -> "gauge" | Hist _ -> "histogram"

let register t name make =
  match Hashtbl.find_opt t.metrics name with
  | Some m -> m
  | None ->
    let m = make () in
    Hashtbl.add t.metrics name m;
    m

let counter t name =
  match register t name (fun () -> Counter { c = 0 }) with
  | Counter c -> c
  | m ->
    invalid_arg
      (Printf.sprintf "Telemetry.counter: %S is already a %s" name (kind_name m))

let gauge t name =
  match register t name (fun () -> Gauge { g = 0; g_peak = 0 }) with
  | Gauge g -> g
  | m ->
    invalid_arg (Printf.sprintf "Telemetry.gauge: %S is already a %s" name (kind_name m))

let histogram t name =
  match
    register t name (fun () ->
        Hist { buckets = Array.make hist_slots 0; fs = [| 0.0; 0.0 |]; n = 0 })
  with
  | Hist h -> h
  | m ->
    invalid_arg
      (Printf.sprintf "Telemetry.histogram: %S is already a %s" name (kind_name m))

let remove t name =
  if Hashtbl.mem t.metrics name then begin
    Hashtbl.remove t.metrics name;
    true
  end
  else false

let reset_counter c = c.c <- 0

let reset_gauge gg =
  gg.g <- 0;
  gg.g_peak <- 0

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snap_metric =
  | Scounter of int
  | Sgauge of { value : int; peak : int }
  | Shist of { buckets : int array; count : int; sum : float; mx : float }

type snapshot = (string * snap_metric) list  (* sorted by name *)

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let s =
        match m with
        | Counter c -> Scounter c.c
        | Gauge g -> Sgauge { value = g.g; peak = g.g_peak }
        | Hist h ->
          Shist { buckets = Array.copy h.buckets; count = h.n; sum = h.fs.(0); mx = h.fs.(1) }
      in
      (name, s) :: acc)
    t.metrics []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let diff ~before ~after =
  List.map
    (fun (name, a) ->
      match (List.assoc_opt name before, a) with
      | Some (Scounter b), Scounter a -> (name, Scounter (a - b))
      | Some (Shist b), Shist a ->
        ( name,
          Shist
            {
              buckets = Array.mapi (fun i v -> v - b.buckets.(i)) a.buckets;
              count = a.count - b.count;
              sum = a.sum -. b.sum;
              (* max/min don't difference; keep the after-side view. *)
              mx = a.mx;
            } )
      | _, a -> (name, a))
    after

let snap_quantile buckets count q = quantile_of_buckets buckets count q

let snap_counter snap name =
  match List.assoc_opt name snap with Some (Scounter v) -> Some v | _ -> None

let snap_gauge snap name =
  match List.assoc_opt name snap with
  | Some (Sgauge { value; peak }) -> Some (value, peak)
  | _ -> None

let snap_hist snap name =
  match List.assoc_opt name snap with
  | Some (Shist { count; sum; mx; _ }) -> Some (count, sum, mx)
  | _ -> None

let snap_hist_quantile snap name q =
  match List.assoc_opt name snap with
  | Some (Shist { buckets; count; _ }) -> Some (quantile_of_buckets buckets count q)
  | _ -> None

(* Merge two snapshots metric-by-metric.  Both inputs are sorted by
   name (the [snapshot] invariant), so this is a linear sorted-list
   union; the result keeps the invariant.  Counters and histograms
   combine symmetrically; gauges are levels, which don't sum — the
   right-hand (later) side's value wins, with the peak of both. *)
let merge_metric name a b =
  match (a, b) with
  | Scounter x, Scounter y -> Scounter (x + y)
  | Sgauge x, Sgauge y -> Sgauge { value = y.value; peak = max x.peak y.peak }
  | Shist x, Shist y ->
    Shist
      {
        buckets = Array.mapi (fun i v -> v + y.buckets.(i)) x.buckets;
        count = x.count + y.count;
        sum = x.sum +. y.sum;
        mx = Float.max x.mx y.mx;
      }
  | _ ->
    let kind = function Scounter _ -> "counter" | Sgauge _ -> "gauge" | Shist _ -> "histogram" in
    invalid_arg
      (Printf.sprintf "Telemetry.merge: %S is a %s on one side and a %s on the other"
         name (kind a) (kind b))

let rec merge a b =
  match (a, b) with
  | [], s | s, [] -> s
  | (na, ma) :: ra, (nb, mb) :: rb ->
    let c = String.compare na nb in
    if c < 0 then (na, ma) :: merge ra b
    else if c > 0 then (nb, mb) :: merge a rb
    else (na, merge_metric na ma mb) :: merge ra rb

let merge_all = List.fold_left merge []

let pp_ns fmt v =
  if v < 1e-6 then Format.fprintf fmt "%4.0fns" (v *. 1e9)
  else if v < 1e-3 then Format.fprintf fmt "%4.1fus" (v *. 1e6)
  else if v < 1.0 then Format.fprintf fmt "%4.1fms" (v *. 1e3)
  else Format.fprintf fmt "%4.2fs " v

let pp_snapshot fmt snap =
  let counters = List.filter (fun (_, m) -> match m with Scounter _ -> true | _ -> false) snap
  and gauges = List.filter (fun (_, m) -> match m with Sgauge _ -> true | _ -> false) snap
  and hists = List.filter (fun (_, m) -> match m with Shist _ -> true | _ -> false) snap in
  List.iter
    (function
      | name, Scounter v -> Format.fprintf fmt "%-36s %10d@." name v
      | _ -> ())
    counters;
  List.iter
    (function
      | name, Sgauge { value; peak } ->
        Format.fprintf fmt "%-36s %10d  (peak %d)@." name value peak
      | _ -> ())
    gauges;
  List.iter
    (function
      | name, Shist { buckets; count; sum; mx } ->
        Format.fprintf fmt
          "%-36s %10d  p50 %a p90 %a p99 %a max %a mean %a@." name count pp_ns
          (snap_quantile buckets count 0.5)
          pp_ns
          (snap_quantile buckets count 0.9)
          pp_ns
          (snap_quantile buckets count 0.99)
          pp_ns mx pp_ns
          (if count = 0 then 0.0 else sum /. float_of_int count)
      | _ -> ())
    hists

let snapshot_to_json snap =
  let b = Buffer.create 1024 in
  let section pred =
    let first = ref true in
    List.iter
      (fun (name, m) ->
        match pred m with
        | None -> ()
        | Some payload ->
          if not !first then Buffer.add_char b ',';
          first := false;
          add_json_string b name;
          Buffer.add_char b ':';
          Buffer.add_string b payload)
      snap
  in
  Buffer.add_string b "{\"counters\":{";
  section (function Scounter v -> Some (string_of_int v) | _ -> None);
  Buffer.add_string b "},\"gauges\":{";
  section
    (function
      | Sgauge { value; peak } -> Some (Printf.sprintf "{\"value\":%d,\"peak\":%d}" value peak)
      | _ -> None);
  Buffer.add_string b "},\"histograms\":{";
  section
    (function
      | Shist { buckets; count; sum; mx } ->
        Some
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%.9f,\"max\":%.9f,\"p50\":%.9f,\"p90\":%.9f,\"p99\":%.9f}"
             count sum mx
             (snap_quantile buckets count 0.5)
             (snap_quantile buckets count 0.9)
             (snap_quantile buckets count 0.99))
      | _ -> None);
  Buffer.add_string b "}}";
  Buffer.contents b

let pp fmt t = pp_snapshot fmt (snapshot t)

(* ------------------------------------------------------------------ *)
(* Span/trace conveniences                                             *)
(* ------------------------------------------------------------------ *)

let trace t = t.tr

let next_op_id t =
  t.next_tid <- t.next_tid + 1;
  t.next_tid

let span_begin t ~now ~actor ~name ?op ?a0 ?a1 ?detail () =
  Trace.span_begin t.tr ~now ~actor ~name ?op ?a0 ?a1 ?detail ()

let span_end t ~now span = Trace.span_end t.tr ~now span

let instant t ~now ~actor ~name ?op ?a0 ?a1 ?detail () =
  Trace.instant t.tr ~now ~actor ~name ?op ?a0 ?a1 ?detail ()

let export_chrome t oc = Trace.export_chrome t.tr oc
