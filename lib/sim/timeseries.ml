(* Time-series history over Telemetry: a closure-free timer-wheel
   scraper sampling registered sources into fixed-capacity ring
   buffers with 10x/100x rollups.  See timeseries.mli for the
   contract; the load-bearing invariants are:

   - the sample path allocates nothing (preallocated flat float
     arrays, accumulator registers flushed in place);
   - rollup buckets are aligned to absolute sample indices — bucket b
     at factor f always covers raw samples [f*b, f*(b+1)), no matter
     how often the rings wrapped;
   - the tick schedules itself with Engine.call_at (pooled cells, the
     scraper itself as the argument) and stops when its engine has
     nothing else pending, so drain-mode runs terminate. *)

type source =
  | Counter of Telemetry.counter
  | Gauge of Telemetry.gauge
  | Quantile of Telemetry.histogram * float
  | Poll of (unit -> float)

type mode = Sum | Max | Last

let levels = 2
let factors = [| 10; 100 |]
let level_factor l = factors.(l)

(* One registered series.  Rollup state is flat: per level, [cap]
   ring slots for each of min/max/mean-sum/last, plus one in-progress
   accumulator register (flushed to its ring slot every [factor]
   samples, keyed by absolute index so wrap never shifts buckets). *)
type series = {
  sr_name : string;
  sr_mode : mode;
  sr_source : source;
  raw : float array; (* cap slots, slot = abs_index mod cap *)
  l_min : float array array; (* levels x cap *)
  l_max : float array array;
  l_sum : float array array;
  l_last : float array array;
  acc_min : float array; (* levels *)
  acc_max : float array;
  acc_sum : float array;
  acc_last : float array;
  acc_n : int array;
}

type t = {
  eng : Engine.t;
  cap : int;
  mutable series : series array;
  mutable n : int;
  mutable total : int; (* raw samples taken per series *)
  mutable period : Time.t;
  mutable until : Time.t; (* horizon when bounded *)
  mutable bounded : bool;
  mutable running : bool;
  mutable t0 : Time.t; (* virtual time of sample 0 *)
  mutable on_tick : Time.t -> unit;
}

let no_series : series array = [||]
let nop_tick (_ : Time.t) = ()

let create ?(cap = 512) eng =
  let cap = if cap < 16 then 16 else cap in
  {
    eng;
    cap;
    series = no_series;
    n = 0;
    total = 0;
    period = Time.ms 1.0;
    until = Time.zero;
    bounded = false;
    running = false;
    t0 = Time.zero;
    on_tick = nop_tick;
  }

let default_mode = function
  | Counter _ | Poll _ | Gauge _ -> Sum
  | Quantile _ -> Max

let add t ~name ?mode src =
  for i = 0 to t.n - 1 do
    if String.equal t.series.(i).sr_name name then
      invalid_arg ("Timeseries.add: duplicate series " ^ name)
  done;
  let mode = match mode with Some m -> m | None -> default_mode src in
  let s =
    {
      sr_name = name;
      sr_mode = mode;
      sr_source = src;
      raw = Array.make t.cap 0.0;
      l_min = Array.init levels (fun _ -> Array.make t.cap 0.0);
      l_max = Array.init levels (fun _ -> Array.make t.cap 0.0);
      l_sum = Array.init levels (fun _ -> Array.make t.cap 0.0);
      l_last = Array.init levels (fun _ -> Array.make t.cap 0.0);
      acc_min = Array.make levels 0.0;
      acc_max = Array.make levels 0.0;
      acc_sum = Array.make levels 0.0;
      acc_last = Array.make levels 0.0;
      acc_n = Array.make levels 0;
    }
  in
  if t.n = Array.length t.series then begin
    let cap' = if t.n = 0 then 8 else t.n * 2 in
    let a = Array.make cap' s in
    Array.blit t.series 0 a 0 t.n;
    t.series <- a
  end;
  t.series.(t.n) <- s;
  t.n <- t.n + 1

let[@inline] read_source = function
  | Counter c -> float_of_int (Telemetry.counter_value c)
  | Gauge g -> float_of_int (Telemetry.gauge_value g)
  | Quantile (h, q) -> Telemetry.quantile h q
  | Poll f -> f ()

(* Sample every series once.  [k] is the absolute index of this
   round; flushing level l's accumulator at acc_n = factor lands the
   completed bucket at absolute bucket index (k+1)/factor - 1, whose
   ring slot is that index mod cap — alignment is a function of k
   alone, never of wrap history. *)
let sample t =
  let k = t.total in
  let cap = t.cap in
  let slot = k mod cap in
  for i = 0 to t.n - 1 do
    let s = Array.unsafe_get t.series i in
    let v = read_source s.sr_source in
    Array.unsafe_set s.raw slot v;
    for l = 0 to levels - 1 do
      let n = Array.unsafe_get s.acc_n l in
      if n = 0 then begin
        Array.unsafe_set s.acc_min l v;
        Array.unsafe_set s.acc_max l v;
        Array.unsafe_set s.acc_sum l v
      end
      else begin
        if v < Array.unsafe_get s.acc_min l then Array.unsafe_set s.acc_min l v;
        if v > Array.unsafe_get s.acc_max l then Array.unsafe_set s.acc_max l v;
        Array.unsafe_set s.acc_sum l (Array.unsafe_get s.acc_sum l +. v)
      end;
      Array.unsafe_set s.acc_last l v;
      let n = n + 1 in
      let f = Array.unsafe_get factors l in
      if n = f then begin
        let b = ((k + 1) / f) - 1 in
        let bs = b mod cap in
        Array.unsafe_set (Array.unsafe_get s.l_min l) bs (Array.unsafe_get s.acc_min l);
        Array.unsafe_set (Array.unsafe_get s.l_max l) bs (Array.unsafe_get s.acc_max l);
        Array.unsafe_set (Array.unsafe_get s.l_sum l) bs (Array.unsafe_get s.acc_sum l);
        Array.unsafe_set (Array.unsafe_get s.l_last l) bs (Array.unsafe_get s.acc_last l);
        Array.unsafe_set s.acc_n l 0
      end
      else Array.unsafe_set s.acc_n l n
    done
  done;
  t.total <- k + 1

(* The scrape tick.  Top-level recursive function scheduled with
   [Engine.call_at eng next tick t]: the event cell carries (tick, t),
   no closure is allocated per tick.  Rescheduling rules:
   - stopped scrapers fire once more as a no-op (call_at events are
     not cancellable) and do not reschedule;
   - when [Engine.pending] is 0 after this dispatch, nothing else can
     ever run on this engine, so rescheduling would spin the drain
     loop forever — stop instead;
   - a bounded scraper stops past [until]. *)
let rec tick t =
  if t.running then begin
    sample t;
    let now = Engine.now t.eng in
    t.on_tick now;
    let next = Time.(now + t.period) in
    if
      t.running
      && Engine.pending t.eng > 0
      && ((not t.bounded) || Time.compare next t.until <= 0)
    then Engine.call_at t.eng next tick t
    else t.running <- false
  end

let start ?until t ~every =
  if Time.compare every Time.zero <= 0 then
    invalid_arg "Timeseries.start: period must be positive";
  if t.running then invalid_arg "Timeseries.start: already running";
  t.period <- every;
  (match until with
  | Some u ->
      t.bounded <- true;
      t.until <- u
  | None -> t.bounded <- false);
  t.running <- true;
  t.t0 <- Engine.now t.eng;
  Engine.call_at t.eng (Engine.now t.eng) tick t

let stop t = t.running <- false
let running t = t.running
let set_on_tick t f = t.on_tick <- f
let total t = t.total
let ticks = total
let retained t = if t.total < t.cap then t.total else t.cap
let period t = t.period
let n_series t = t.n

let index t name =
  let rec go i = if i >= t.n then -1 else if String.equal t.series.(i).sr_name name then i else go (i + 1) in
  go 0

let raw_get t ~series k =
  if k < 0 || k >= t.total || k < t.total - t.cap then
    invalid_arg "Timeseries.raw_get: index outside retained window";
  t.series.(series).raw.(k mod t.cap)

let time_of_sample t k = Time.to_seconds t.t0 +. (float_of_int k *. Time.to_seconds t.period)
let completed_buckets t ~level = t.total / factors.(level)

let retained_buckets t ~level =
  let c = completed_buckets t ~level in
  if c < t.cap then c else t.cap

let bucket_get t ~series ~level b =
  let c = completed_buckets t ~level in
  if b < 0 || b >= c || b < c - t.cap then
    invalid_arg "Timeseries.bucket_get: bucket outside retained window";
  let s = t.series.(series) in
  let bs = b mod t.cap in
  let f = float_of_int factors.(level) in
  (s.l_min.(level).(bs), s.l_max.(level).(bs), s.l_sum.(level).(bs) /. f, s.l_last.(level).(bs))

(* -- snapshots ---------------------------------------------------- *)

(* Copied-out, absolute-indexed views: [ss_first] is the absolute
   index of raw.(0); each rollup level carries its factor and the
   absolute index of its first retained bucket. *)
type level_snap = {
  lv_factor : int;
  lv_first : int;
  lv_min : float array;
  lv_max : float array;
  lv_mean : float array;
  lv_last : float array;
}

type series_snap = {
  ss_name : string;
  ss_mode : mode;
  ss_total : int;
  ss_first : int;
  ss_raw : float array;
  ss_levels : level_snap array;
}

type snapshot = { sn_period : float; sn_series : series_snap list }

let snapshot t =
  let ret = retained t in
  let first = t.total - ret in
  let snap_series s =
    let raw = Array.init ret (fun j -> s.raw.((first + j) mod t.cap)) in
    let levels_ =
      Array.init levels (fun l ->
          let nb = retained_buckets t ~level:l in
          let bfirst = completed_buckets t ~level:l - nb in
          let f = float_of_int factors.(l) in
          {
            lv_factor = factors.(l);
            lv_first = bfirst;
            lv_min = Array.init nb (fun j -> s.l_min.(l).((bfirst + j) mod t.cap));
            lv_max = Array.init nb (fun j -> s.l_max.(l).((bfirst + j) mod t.cap));
            lv_mean = Array.init nb (fun j -> s.l_sum.(l).((bfirst + j) mod t.cap) /. f);
            lv_last = Array.init nb (fun j -> s.l_last.(l).((bfirst + j) mod t.cap));
          })
    in
    {
      ss_name = s.sr_name;
      ss_mode = s.sr_mode;
      ss_total = t.total;
      ss_first = first;
      ss_raw = raw;
      ss_levels = levels_;
    }
  in
  let l = List.init t.n (fun i -> snap_series t.series.(i)) in
  {
    sn_period = Time.to_seconds t.period;
    sn_series = List.sort (fun a b -> String.compare a.ss_name b.ss_name) l;
  }

(* Pointwise combine of two absolute-indexed windows over their
   intersection.  Under Sum, min/max columns add — the sum of
   per-side minima is a valid lower bound for the summed signal (both
   sides' buckets cover the same absolute sample range), so the
   sandwich invariant survives merging. *)
let combine_window mode (fa, a) (fb, b) =
  let la = Array.length a and lb = Array.length b in
  let first = max fa fb and last = min (fa + la) (fb + lb) in
  let n = last - first in
  if n <= 0 then (first, [||])
  else
    ( first,
      Array.init n (fun j ->
          let va = a.(first - fa + j) and vb = b.(first - fb + j) in
          match mode with Sum -> va +. vb | Max -> if va > vb then va else vb | Last -> vb) )

let merge_series a b =
  if a.ss_mode <> b.ss_mode then
    invalid_arg ("Timeseries.merge: mode mismatch on series " ^ a.ss_name);
  let first, raw = combine_window a.ss_mode (a.ss_first, a.ss_raw) (b.ss_first, b.ss_raw) in
  let nl = min (Array.length a.ss_levels) (Array.length b.ss_levels) in
  let levels_ =
    Array.init nl (fun l ->
        let la = a.ss_levels.(l) and lb = b.ss_levels.(l) in
        if la.lv_factor <> lb.lv_factor then
          invalid_arg "Timeseries.merge: rollup factor mismatch";
        let bf, mn = combine_window a.ss_mode (la.lv_first, la.lv_min) (lb.lv_first, lb.lv_min) in
        let _, mx = combine_window a.ss_mode (la.lv_first, la.lv_max) (lb.lv_first, lb.lv_max) in
        let _, mean = combine_window a.ss_mode (la.lv_first, la.lv_mean) (lb.lv_first, lb.lv_mean) in
        let _, lst = combine_window a.ss_mode (la.lv_first, la.lv_last) (lb.lv_first, lb.lv_last) in
        { lv_factor = la.lv_factor; lv_first = bf; lv_min = mn; lv_max = mx; lv_mean = mean; lv_last = lst })
  in
  {
    ss_name = a.ss_name;
    ss_mode = a.ss_mode;
    ss_total = min a.ss_total b.ss_total;
    ss_first = first;
    ss_raw = raw;
    ss_levels = levels_;
  }

let merge sa sb =
  if sa.sn_series <> [] && sb.sn_series <> [] && sa.sn_period <> sb.sn_period then
    invalid_arg "Timeseries.merge: period mismatch";
  let rec go a b =
    match (a, b) with
    | [], s | s, [] -> s
    | xa :: ra, xb :: rb ->
        let c = String.compare xa.ss_name xb.ss_name in
        if c < 0 then xa :: go ra b
        else if c > 0 then xb :: go a rb
        else merge_series xa xb :: go ra rb
  in
  {
    sn_period = (if sa.sn_series = [] then sb.sn_period else sa.sn_period);
    sn_series = go sa.sn_series sb.sn_series;
  }

let merge_all = function
  | [] -> { sn_period = 0.0; sn_series = [] }
  | s :: rest -> List.fold_left merge s rest

(* -- export ------------------------------------------------------- *)

let mode_string = function Sum -> "sum" | Max -> "max" | Last -> "last"

let json_floats buf a =
  Buffer.add_char buf '[';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%.9g" v))
    a;
  Buffer.add_char buf ']'

let to_json snap =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"period_s\":%.9g,\"series\":{" snap.sn_period);
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Telemetry.add_json_string buf s.ss_name;
      Buffer.add_string buf
        (Printf.sprintf ":{\"mode\":\"%s\",\"total\":%d,\"first\":%d,\"raw\":"
           (mode_string s.ss_mode) s.ss_total s.ss_first);
      json_floats buf s.ss_raw;
      Buffer.add_string buf ",\"rollups\":[";
      Array.iteri
        (fun l lv ->
          if l > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "{\"factor\":%d,\"first\":%d,\"min\":" lv.lv_factor lv.lv_first);
          json_floats buf lv.lv_min;
          Buffer.add_string buf ",\"max\":";
          json_floats buf lv.lv_max;
          Buffer.add_string buf ",\"mean\":";
          json_floats buf lv.lv_mean;
          Buffer.add_string buf ",\"last\":";
          json_floats buf lv.lv_last;
          Buffer.add_char buf '}')
        s.ss_levels;
      Buffer.add_string buf "]}")
    snap.sn_series;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* -- terminal dashboard ------------------------------------------- *)

let spark_glyphs = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline buf t si width =
  let ret = retained t in
  let n = min ret width in
  if n = 0 then Buffer.add_string buf (String.make width ' ')
  else begin
    let first = t.total - n in
    let lo = ref infinity and hi = ref neg_infinity in
    for k = first to t.total - 1 do
      let v = raw_get t ~series:si k in
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    let span = !hi -. !lo in
    for _ = n to width - 1 do
      Buffer.add_char buf ' '
    done;
    for k = first to t.total - 1 do
      let v = raw_get t ~series:si k in
      let g =
        if span <= 0.0 then 0
        else
          let x = int_of_float ((v -. !lo) /. span *. 7.99) in
          if x < 0 then 0 else if x > 7 then 7 else x
      in
      Buffer.add_string buf spark_glyphs.(g)
    done
  end

let human v =
  let a = Float.abs v in
  if a >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else if a >= 1.0 || a = 0.0 then Printf.sprintf "%.2f" v
  else Printf.sprintf "%.4f" v

(* Raw samples per sparkline. *)
let dash_width = 48

let pp_dash ~status fmt t =
  let namew =
    let w = ref 10 in
    for i = 0 to t.n - 1 do
      let l = String.length t.series.(i).sr_name in
      if l > !w then w := l
    done;
    !w
  in
  Format.fprintf fmt "%-*s %-*s %10s %10s %10s  slo@." namew "series" dash_width "history" "last"
    "min" "max";
  for i = 0 to t.n - 1 do
    let buf = Buffer.create (dash_width * 3) in
    sparkline buf t i dash_width;
    let ret = retained t in
    let last, lo, hi =
      if ret = 0 then (0.0, 0.0, 0.0)
      else begin
        let lo = ref infinity and hi = ref neg_infinity in
        for k = t.total - ret to t.total - 1 do
          let v = raw_get t ~series:i k in
          if v < !lo then lo := v;
          if v > !hi then hi := v
        done;
        (raw_get t ~series:i (t.total - 1), !lo, !hi)
      end
    in
    Format.fprintf fmt "%-*s %s %10s %10s %10s  %s@." namew t.series.(i).sr_name (Buffer.contents buf)
      (human last) (human lo) (human hi)
      (status t.series.(i).sr_name)
  done
