(* Wall-clock spans taken from outside the library.

   The traced run drives the engine one [Engine.step] at a time and
   opens a top-level span around each step.  The benchmark's own
   callbacks — the replay [into], link receivers, middlebox egresses and
   the wrapped southbound closures — open nested spans around the call
   they hand work to, and name the step they occur in.  Nothing inside
   the library is instrumented.

   Spans are aggregated by name as they close (self time = duration
   minus the time covered by nested spans; the same for minor words),
   and the first [capacity] spans are also kept in preallocated arrays
   for a Chrome trace_event file.  Recording allocates nothing: the
   clock and [Gc.minor_words] are unboxed externals and every store goes
   into a preallocated int or float array. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_names = 64
let max_depth = 32

type t = {
  names : string array;
  mutable n_names : int;
  self_ns : int array;
  self_words : float array;
  calls : int array;
  mutable top_ns : int;  (* sum of top-level span durations *)
  (* the stack of open spans *)
  st_name : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child_ns : int array;
  st_child_w : float array;
  st_raw : int array;
  mutable depth : int;
  (* the first spans, for the trace file *)
  raw_name : int array;
  raw_depth : int array;
  raw_t0 : int array;
  raw_t1 : int array;
  raw_words : float array;
  mutable n_raw : int;
}

(* Steps in which no harness callback runs keep this name. *)
let unobserved = "unobserved"

let create ~capacity =
  let t =
    {
      names = Array.make max_names "";
      n_names = 0;
      self_ns = Array.make max_names 0;
      self_words = Array.make max_names 0.0;
      calls = Array.make max_names 0;
      top_ns = 0;
      st_name = Array.make max_depth 0;
      st_t0 = Array.make max_depth 0;
      st_w0 = Array.make max_depth 0.0;
      st_child_ns = Array.make max_depth 0;
      st_child_w = Array.make max_depth 0.0;
      st_raw = Array.make max_depth (-1);
      depth = 0;
      raw_name = Array.make capacity 0;
      raw_depth = Array.make capacity 0;
      raw_t0 = Array.make capacity 0;
      raw_t1 = Array.make capacity 0;
      raw_words = Array.make capacity 0.0;
      n_raw = 0;
    }
  in
  t.names.(0) <- unobserved;
  t.n_names <- 1;
  t

(* Intern a span name; done when callbacks are built, never per span. *)
let id t name =
  let rec find i =
    if i = t.n_names then begin
      if i = max_names then invalid_arg "Tracer.id: too many span names";
      t.names.(i) <- name;
      t.n_names <- i + 1;
      i
    end
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let open_span t id =
  let d = t.depth in
  t.st_name.(d) <- id;
  t.st_child_ns.(d) <- 0;
  t.st_child_w.(d) <- 0.0;
  if t.n_raw < Array.length t.raw_name then begin
    t.st_raw.(d) <- t.n_raw;
    t.n_raw <- t.n_raw + 1
  end
  else t.st_raw.(d) <- -1;
  t.depth <- d + 1;
  t.st_w0.(d) <- Gc.minor_words ();
  t.st_t0.(d) <- now_ns ()

let close_span t =
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = t1 - t.st_t0.(d) in
  let dw = w1 -. t.st_w0.(d) in
  let id = t.st_name.(d) in
  t.self_ns.(id) <- t.self_ns.(id) + dur - t.st_child_ns.(d);
  t.self_words.(id) <- t.self_words.(id) +. dw -. t.st_child_w.(d);
  t.calls.(id) <- t.calls.(id) + 1;
  if d = 0 then t.top_ns <- t.top_ns + dur
  else begin
    t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + dur;
    t.st_child_w.(d - 1) <- t.st_child_w.(d - 1) +. dw
  end;
  let r = t.st_raw.(d) in
  if r >= 0 then begin
    t.raw_name.(r) <- id;
    t.raw_depth.(r) <- d;
    t.raw_t0.(r) <- t.st_t0.(d);
    t.raw_t1.(r) <- t1;
    t.raw_words.(r) <- dw
  end

(* One engine step as a top-level span named [unobserved] until a
   harness callback inside it renames it. *)
let step t engine =
  open_span t 0;
  let more = Openmb_sim.Engine.step engine in
  close_span t;
  more

(* A top-level span around timed work done outside the step loop (trace
   scheduling, submitting a northbound call). *)
let top t id f =
  open_span t id;
  f ();
  close_span t

(* A hand-off callback: the step it runs in is named [step] (the first
   hand-off seen in a step wins), and the downstream call gets a nested
   span named [callee]. *)
let handoff t ~step ~callee f =
  let step = id t step and callee = id t callee in
  fun x ->
    if t.depth = 1 && t.st_name.(0) = 0 then t.st_name.(0) <- step;
    open_span t callee;
    f x;
    close_span t

(* A call boundary: a nested span around the call, without naming the
   step (southbound operations run inside the agent's steps). *)
let call t name f =
  let name = id t name in
  fun x ->
    open_span t name;
    let r = f x in
    close_span t;
    r

let names t = Array.to_list (Array.sub t.names 0 t.n_names)

let find t name =
  let rec go i = if i = t.n_names then None else if t.names.(i) = name then Some i else go (i + 1) in
  go 0

let self_ns t name = match find t name with Some i -> t.self_ns.(i) | None -> 0
let self_words t name = match find t name with Some i -> t.self_words.(i) | None -> 0.0
let calls t name = match find t name with Some i -> t.calls.(i) | None -> 0
let top_ns t = t.top_ns

(* Chrome trace_event JSON ("X" complete events, microseconds relative
   to the first recorded span). *)
let write_chrome t path =
  let oc = open_out path in
  let origin = if t.n_raw > 0 then t.raw_t0.(0) else 0 in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for r = 0 to t.n_raw - 1 do
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d,\"minor_words\":%.0f}}\n"
      (if r = 0 then "" else ",")
      t.names.(t.raw_name.(r))
      (float_of_int (t.raw_t0.(r) - origin) /. 1e3)
      (float_of_int (t.raw_t1.(r) - t.raw_t0.(r)) /. 1e3)
      t.raw_depth.(r) t.raw_words.(r)
  done;
  output_string oc "]}\n";
  close_out oc
