(* SLO objectives over Timeseries with multi-window burn rates.
   Evaluation runs on the scrape tick (Timeseries.on_tick), scanning
   the trailing raw window of each judged series — windows are <= a
   few hundred samples, so the scan is cheap and allocation-free. *)

type comparator = Le | Ge
type signal = Level | Delta

type objective = {
  o_name : string;
  o_series : string;
  o_signal : signal;
  o_cmp : comparator;
  o_target : float;
  o_budget : float;
  o_windows : (int * float) list;
}

let objective ?(signal = Level) ?(budget = 0.01) ?(windows = [ (10, 1.0); (100, 1.0) ]) ~name
    ~series cmp target =
  if budget <= 0.0 || budget > 1.0 then invalid_arg "Slo.objective: budget must be in (0,1]";
  if windows = [] then invalid_arg "Slo.objective: need at least one window";
  List.iter (fun (w, _) -> if w <= 0 then invalid_arg "Slo.objective: window must be positive") windows;
  { o_name = name; o_series = series; o_signal = signal; o_cmp = cmp; o_target = target;
    o_budget = budget; o_windows = windows }

type breach = {
  br_objective : string;
  br_series : string;
  br_at : float;
  br_value : float;
  br_burn : float;
}

(* Burn rates are maintained incrementally: each sample's badness is
   judged once, stored in a bit ring sized to the longest window, and
   every window keeps a rolling bad count (add the entrant, subtract
   the leaver).  Evaluation cost per tick is O(windows), not O(window
   samples) — the scraper runs this on every tick, so the difference
   is the observability overhead gate's margin. *)
type ostate = {
  obj : objective;
  windows : (int * float) array;
  ring : Bytes.t; (* badness of sample k at k mod |ring| *)
  counts : int array; (* rolling bad count per window *)
  mutable seen : int; (* samples judged so far *)
  mutable last_bad : float; (* most recent bad signal value *)
  mutable idx : int; (* series index, resolved lazily (-2 = unresolved) *)
  mutable in_breach : bool;
  mutable last_burn : float;
}

type t = {
  ts : Timeseries.t;
  mutable objs : ostate array;
  mutable n : int;
  mutable breaches_rev : breach list;
  mutable count : int;
  mutable on_breach : breach -> unit;
}

let nop_breach (_ : breach) = ()

let create ts = { ts; objs = [||]; n = 0; breaches_rev = []; count = 0; on_breach = nop_breach }

let add t obj =
  let windows = Array.of_list obj.o_windows in
  let wmax = Array.fold_left (fun m (w, _) -> max m w) 1 windows in
  let os =
    {
      obj;
      windows;
      ring = Bytes.make wmax '\000';
      counts = Array.make (Array.length windows) 0;
      seen = 0;
      last_bad = 0.0;
      idx = -2;
      in_breach = false;
      last_burn = 0.0;
    }
  in
  if t.n = Array.length t.objs then begin
    let cap' = if t.n = 0 then 4 else t.n * 2 in
    let a = Array.make cap' os in
    Array.blit t.objs 0 a 0 t.n;
    t.objs <- a
  end;
  t.objs.(t.n) <- os;
  t.n <- t.n + 1

let[@inline] bad obj v =
  match obj.o_cmp with Le -> v > obj.o_target | Ge -> v < obj.o_target

(* Sample k's judged value: the sample itself, or its delta from
   k-1 (taken as a rise from 0 at the very first sample). *)
let[@inline] signal_at ts si obj k =
  let v = Timeseries.raw_get ts ~series:si k in
  match obj.o_signal with
  | Level -> v
  | Delta -> if k = 0 then v else v -. Timeseries.raw_get ts ~series:si (k - 1)

(* Judge sample [k] once and roll every window's bad count forward:
   add the entrant, subtract the sample falling out of the window (its
   badness still sits in the ring — it is only overwritten by [k]'s
   own slot after the subtraction, which is exactly the leaver when
   the window spans the whole ring). *)
let judge_sample ts os k =
  let v = signal_at ts os.idx os.obj k in
  let b = bad os.obj v in
  if b then os.last_bad <- v;
  let rcap = Bytes.length os.ring in
  for i = 0 to Array.length os.windows - 1 do
    let w, _ = Array.unsafe_get os.windows i in
    let c = Array.unsafe_get os.counts i in
    let c = if k >= w then c - Char.code (Bytes.unsafe_get os.ring ((k - w) mod rcap)) else c in
    Array.unsafe_set os.counts i (if b then c + 1 else c)
  done;
  Bytes.unsafe_set os.ring (k mod rcap) (if b then '\001' else '\000')

let eval_objective t now os =
  if os.idx = -2 then os.idx <- Timeseries.index t.ts os.obj.o_series;
  if os.idx >= 0 && Timeseries.total t.ts > 0 then begin
    let obj = os.obj in
    let total = Timeseries.total t.ts in
    (* Catch up on samples judged since the last evaluation — one per
       tick when attached.  If evaluation lagged past the retained
       window (detached tracker evaluated rarely), the unreadable gap
       is dropped and the rolling counts restart from what remains. *)
    if total > os.seen then begin
      let ret = Timeseries.retained t.ts in
      let lo_avail = total - ret + (match obj.o_signal with Level -> 0 | Delta -> 1) in
      let lo = if lo_avail < 0 then 0 else lo_avail in
      let lo =
        if lo > os.seen then begin
          Array.fill os.counts 0 (Array.length os.counts) 0;
          Bytes.fill os.ring 0 (Bytes.length os.ring) '\000';
          lo
        end
        else os.seen
      in
      for k = lo to total - 1 do
        judge_sample t.ts os k
      done;
      os.seen <- total
    end;
    let all_burning = ref true and worst_burn = ref 0.0 in
    for i = 0 to Array.length os.windows - 1 do
      let w, thr = os.windows.(i) in
      let examined = min total w in
      let burn =
        if examined = 0 then 0.0
        else float_of_int os.counts.(i) /. float_of_int examined /. obj.o_budget
      in
      if burn > !worst_burn then worst_burn := burn;
      if burn < thr then all_burning := false
    done;
    os.last_burn <- !worst_burn;
    if !all_burning then begin
      if not os.in_breach then begin
        os.in_breach <- true;
        let br =
          { br_objective = obj.o_name; br_series = obj.o_series; br_at = Time.to_seconds now;
            br_value = os.last_bad; br_burn = !worst_burn }
        in
        t.breaches_rev <- br :: t.breaches_rev;
        t.count <- t.count + 1;
        t.on_breach br
      end
    end
    else os.in_breach <- false
  end

let evaluate t ~now =
  for i = 0 to t.n - 1 do
    eval_objective t now t.objs.(i)
  done

let attach t = Timeseries.set_on_tick t.ts (fun now -> evaluate t ~now)
let breaches t = List.rev t.breaches_rev
let breach_count t = t.count
let set_on_breach t f = t.on_breach <- f

let find_obj t name =
  let rec go i =
    if i >= t.n then None
    else if String.equal t.objs.(i).obj.o_name name then Some t.objs.(i)
    else go (i + 1)
  in
  go 0

let in_breach t name = match find_obj t name with Some os -> os.in_breach | None -> false
let burn_rate t name = match find_obj t name with Some os -> os.last_burn | None -> 0.0

let status_cell t series =
  let any = ref false and breached = ref false and burn = ref 0.0 in
  for i = 0 to t.n - 1 do
    let os = t.objs.(i) in
    if String.equal os.obj.o_series series then begin
      any := true;
      if os.in_breach then breached := true;
      if os.last_burn > !burn then burn := os.last_burn
    end
  done;
  if not !any then "-"
  else if !breached then "BREACH"
  else if !burn > 0.0 then Printf.sprintf "burn r=%.2f" !burn
  else "ok"

let pp_dash fmt t =
  Timeseries.pp_dash ~status:(status_cell t) fmt t.ts;
  if t.count > 0 then begin
    Format.fprintf fmt "breaches (%d):@." t.count;
    List.iter
      (fun br ->
        Format.fprintf fmt "  t=%.6fs %s on %s value=%g burn=%.2f@." br.br_at br.br_objective
          br.br_series br.br_value br.br_burn)
      (breaches t)
  end

let breaches_to_json t =
  let buf = Buffer.create 256 in
  Buffer.add_char buf '[';
  List.iteri
    (fun i br ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "{\"objective\":";
      Telemetry.add_json_string buf br.br_objective;
      Buffer.add_string buf ",\"series\":";
      Telemetry.add_json_string buf br.br_series;
      Buffer.add_string buf
        (Printf.sprintf ",\"at_s\":%.9g,\"value\":%.9g,\"burn\":%.9g}" br.br_at br.br_value
           br.br_burn))
    (breaches t);
  Buffer.add_char buf ']';
  Buffer.contents buf
