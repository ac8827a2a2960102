(* tc-netem-class deterministic impairment: per-direction profiles with
   pluggable jitter distributions, token-bucket rate shaping with
   queueing delay, payload corruption, scheduled blackhole windows —
   on top of the original drop/duplicate/reorder/spike plans, global
   partitions and MB crash schedules.  Every stochastic decision draws
   from a per-link Prng stream derived from the plan seed, so a plan is
   a pure value and applying it twice gives identical fault decisions. *)

type rate_limit = {
  rate_bytes_per_sec : float;
  burst_bytes : int;
  max_queue : Time.t;
}

type blackhole = { bh_from : Time.t; bh_until : Time.t }

type dir_profile = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_window : Time.t;
  spike : float;
  spike_delay : Time.t;
  jitter : Dist.spec option;
  corrupt : float;
  rate : rate_limit option;
  blackholes : blackhole list;
}

type link_profile = { fwd : dir_profile; rev : dir_profile }

let clean_dir =
  {
    drop = 0.0;
    duplicate = 0.0;
    reorder = 0.0;
    reorder_window = Time.zero;
    spike = 0.0;
    spike_delay = Time.zero;
    jitter = None;
    corrupt = 0.0;
    rate = None;
    blackholes = [];
  }

let clean_link = { fwd = clean_dir; rev = clean_dir }
let symmetric d = { fwd = d; rev = d }

type partition = { part_from : Time.t; part_until : Time.t }
type crash = { crash_at : Time.t; restart_after : Time.t option }

type plan = {
  seed : int;
  link : link_profile;
  partitions : partition list;
  crashes : (string * crash) list;
}

let clean_plan ~seed = { seed; link = clean_link; partitions = []; crashes = [] }

type t = {
  engine : Engine.t;
  plan : plan;
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable corrupted : int;
  mutable throttled : int;
  mutable shaper_dropped : int;
  mutable blackholed : int;
  mutable crashes_fired : int;
  mutable restarts_fired : int;
  (* Registry mirrors of the per-instance counters above, so a chaos
     run's telemetry snapshot shows realized faults without reaching
     for the Faults handle.  Null sinks when uninstrumented. *)
  tel_dropped : Telemetry.counter;
  tel_duplicated : Telemetry.counter;
  tel_delayed : Telemetry.counter;
  tel_corrupted : Telemetry.counter;
  tel_throttled : Telemetry.counter;
  tel_shaper_dropped : Telemetry.counter;
  tel_blackholed : Telemetry.counter;
  tel_crashes : Telemetry.counter;
  tel_restarts : Telemetry.counter;
}

type direction = [ `Fwd | `Rev ]

type link = {
  owner : t;
  rng : Prng.t;
  prof : dir_profile;
  (* Token-bucket state when the direction is rate-limited.  [tokens]
     may go negative: a message that over-draws the bucket is queued —
     it borrows future tokens and carries the corresponding queueing
     delay, so back-to-back sends serialize FIFO through the shaper. *)
  mutable tokens : float;
  mutable tokens_at : Time.t;
}

let create ?telemetry engine plan =
  let c name =
    match telemetry with
    | Some tel -> Telemetry.counter tel name
    | None -> Telemetry.null_counter
  in
  {
    engine;
    plan;
    dropped = 0;
    duplicated = 0;
    delayed = 0;
    corrupted = 0;
    throttled = 0;
    shaper_dropped = 0;
    blackholed = 0;
    crashes_fired = 0;
    restarts_fired = 0;
    tel_dropped = c "faults.dropped";
    tel_duplicated = c "faults.duplicated";
    tel_delayed = c "faults.delayed";
    tel_corrupted = c "faults.corrupted";
    tel_throttled = c "faults.throttled";
    tel_shaper_dropped = c "faults.shaper_dropped";
    tel_blackholed = c "faults.blackholed";
    tel_crashes = c "faults.crashes";
    tel_restarts = c "faults.restarts";
  }

(* Each link draws from its own stream, seeded from the plan seed and
   the link name, so the fault pattern on one channel does not depend
   on traffic volume (and hence draw order) on any other, nor on the
   order links are created in.  The two directions of a name are
   distinct streams. *)
let link t ?(dir : direction = `Fwd) ~name () =
  let prof =
    match dir with `Fwd -> t.plan.link.fwd | `Rev -> t.plan.link.rev
  in
  let dir_salt = match dir with `Fwd -> 0 | `Rev -> 0x5A5A5A in
  {
    owner = t;
    rng = Prng.create ~seed:(t.plan.seed lxor Hashtbl.hash name lxor dir_salt);
    prof;
    tokens =
      (match prof.rate with Some r -> float_of_int r.burst_bytes | None -> 0.0);
    tokens_at = Time.zero;
  }

let in_partition t now =
  List.exists
    (fun p -> Time.compare now p.part_from >= 0 && Time.compare now p.part_until < 0)
    t.plan.partitions

let in_blackhole l now =
  List.exists
    (fun b -> Time.compare now b.bh_from >= 0 && Time.compare now b.bh_until < 0)
    l.prof.blackholes

(* Token-bucket admission for [bytes] at [now]: [Ok delay] admits the
   message with a FIFO queueing delay (zero when tokens cover it),
   [Error ()] drops it because its queueing delay would exceed the
   profile's backlog bound (a full shaper queue tail-drops). *)
let shaper_admit l ~now ~bytes =
  match l.prof.rate with
  | None -> Ok Time.zero
  | Some r ->
    let elapsed = Time.to_seconds Time.(now - l.tokens_at) in
    let refilled = l.tokens +. (r.rate_bytes_per_sec *. Float.max 0.0 elapsed) in
    l.tokens <- Float.min (float_of_int r.burst_bytes) refilled;
    l.tokens_at <- Time.max now l.tokens_at;
    let b = float_of_int bytes in
    if l.tokens >= b then begin
      l.tokens <- l.tokens -. b;
      Ok Time.zero
    end
    else begin
      let wait = (b -. l.tokens) /. r.rate_bytes_per_sec in
      if wait > Time.to_seconds r.max_queue then Error ()
      else begin
        l.tokens <- l.tokens -. b;
        Ok (Time.seconds wait)
      end
    end

(* Per-delivery extra delay: legacy reorder window and spike, plus one
   draw from the profile's jitter distribution (negative tails clamp to
   zero — jitter only ever delays). *)
let jitter l =
  let p = l.prof in
  let reorder =
    if Prng.chance l.rng p.reorder then
      Time.seconds (Prng.float l.rng (Time.to_seconds p.reorder_window))
    else Time.zero
  in
  let spiked =
    if Prng.chance l.rng p.spike then Time.(reorder + p.spike_delay) else reorder
  in
  let d =
    match p.jitter with
    | None -> spiked
    | Some spec -> Time.(spiked + seconds (Float.max 0.0 (Dist.sample l.rng spec)))
  in
  if Time.compare d Time.zero > 0 then begin
    l.owner.delayed <- l.owner.delayed + 1;
    Telemetry.incr l.owner.tel_delayed
  end;
  d

(* Decide the fate of one [bytes]-byte message sent at [now].  The
   stages model the path of a real impaired link, in order: a global
   partition or a scheduled blackhole window swallows the send before
   it reaches the wire; the token-bucket shaper either queues it
   (adding FIFO delay) or tail-drops it; random loss drops it in the
   pipe; corruption delivers garbage the receiver's checksum discards
   (counted separately, but equally lost); survivors pick up jitter,
   and a duplicate travels with its own jitter draw. *)
let deliveries l ~now ~bytes =
  let t = l.owner in
  let p = l.prof in
  if in_partition t now then begin
    t.dropped <- t.dropped + 1;
    Telemetry.incr t.tel_dropped;
    []
  end
  else if in_blackhole l now then begin
    t.blackholed <- t.blackholed + 1;
    Telemetry.incr t.tel_blackholed;
    []
  end
  else
    match shaper_admit l ~now ~bytes with
    | Error () ->
      t.shaper_dropped <- t.shaper_dropped + 1;
      Telemetry.incr t.tel_shaper_dropped;
      []
    | Ok queue_delay ->
      if Time.compare queue_delay Time.zero > 0 then begin
        t.throttled <- t.throttled + 1;
        Telemetry.incr t.tel_throttled
      end;
      if Prng.chance l.rng p.drop then begin
        t.dropped <- t.dropped + 1;
        Telemetry.incr t.tel_dropped;
        []
      end
      else if Prng.chance l.rng p.corrupt then begin
        t.corrupted <- t.corrupted + 1;
        Telemetry.incr t.tel_corrupted;
        []
      end
      else begin
        let first = Time.(queue_delay + jitter l) in
        if Prng.chance l.rng p.duplicate then begin
          t.duplicated <- t.duplicated + 1;
          Telemetry.incr t.tel_duplicated;
          [ first; Time.(queue_delay + jitter l) ]
        end
        else [ first ]
      end

let arm_crashes t ~name ~on_crash ~on_restart =
  List.iter
    (fun (n, c) ->
      if String.equal n name then
        (* Clamp: the MB may be connected after the plan's crash point,
           in which case it goes down immediately. *)
        Engine.call_at t.engine
          (Time.max c.crash_at (Engine.now t.engine))
          (fun () ->
            t.crashes_fired <- t.crashes_fired + 1;
            Telemetry.incr t.tel_crashes;
            on_crash ();
            match c.restart_after with
            | None -> ()
            | Some d ->
              Engine.call_after t.engine d
                (fun () ->
                  t.restarts_fired <- t.restarts_fired + 1;
                  Telemetry.incr t.tel_restarts;
                  on_restart ())
                ())
          ())
    t.plan.crashes

let dropped t = t.dropped
let duplicated t = t.duplicated
let delayed t = t.delayed
let corrupted t = t.corrupted
let throttled t = t.throttled
let shaper_dropped t = t.shaper_dropped
let blackholed t = t.blackholed
let crashes_fired t = t.crashes_fired
let restarts_fired t = t.restarts_fired
let lost t = t.dropped + t.blackholed + t.shaper_dropped + t.corrupted

(* ------------------------------------------------------------------ *)
(* Plan printer / parser: exact round trip                              *)
(* ------------------------------------------------------------------ *)

(* Every float (including Time.t, printed in seconds) uses the "%h"
   hex-float literal form, which float_of_string reads back
   bit-identically — so a printed plan re-runs verbatim.  Separators
   are layered (top level '|', dir fields ';', list elements ',') so no
   quoting is needed; MB names in crash entries must avoid them. *)

let time_str t = Printf.sprintf "%h" (Time.to_seconds t)

let rate_to_string = function
  | None -> "none"
  | Some r ->
    Printf.sprintf "tb(%h,%d,%s)" r.rate_bytes_per_sec r.burst_bytes
      (time_str r.max_queue)

let window_to_string ~from_ ~until =
  Printf.sprintf "%s..%s" (time_str from_) (time_str until)

let dir_to_string d =
  Printf.sprintf
    "dir{drop=%h;dup=%h;reorder=%h;rwin=%s;spike=%h;sdelay=%s;jitter=%s;corrupt=%h;rate=%s;bh=[%s]}"
    d.drop d.duplicate d.reorder (time_str d.reorder_window) d.spike
    (time_str d.spike_delay)
    (match d.jitter with None -> "none" | Some s -> Dist.spec_to_string s)
    d.corrupt (rate_to_string d.rate)
    (String.concat ","
       (List.map (fun b -> window_to_string ~from_:b.bh_from ~until:b.bh_until) d.blackholes))

(* '~' separates crash_at from restart_after: it can never appear in a
   hex-float literal (unlike '+', which shows up in "p+NN" exponents). *)
let crash_to_string (name, c) =
  Printf.sprintf "%s@%s~%s" name (time_str c.crash_at)
    (match c.restart_after with None -> "never" | Some d -> time_str d)

let plan_to_string p =
  Printf.sprintf "plan{seed=%d|fwd=%s|rev=%s|parts=[%s]|crashes=[%s]}" p.seed
    (dir_to_string p.link.fwd) (dir_to_string p.link.rev)
    (String.concat ","
       (List.map
          (fun w -> window_to_string ~from_:w.part_from ~until:w.part_until)
          p.partitions))
    (String.concat "," (List.map crash_to_string p.crashes))

let parse_fail what s =
  failwith (Printf.sprintf "Faults.plan_of_string: bad %s in %S" what s)

let parse_float what s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> parse_fail what s

let parse_time what s = Time.seconds (parse_float what s)

(* "prefix{body}" -> body *)
let unwrap ~prefix s =
  let n = String.length s and pn = String.length prefix in
  if n >= pn + 2 && String.sub s 0 pn = prefix && s.[pn] = '{' && s.[n - 1] = '}' then
    String.sub s (pn + 1) (n - pn - 2)
  else parse_fail (prefix ^ "{...}") s

(* "[a,b,...]" -> ["a"; "b"; ...] (empty list for "[]") *)
let parse_list what s =
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '[' || s.[n - 1] <> ']' then parse_fail what s
  else
    let body = String.sub s 1 (n - 2) in
    if String.trim body = "" then [] else String.split_on_char ',' body

let parse_window what s =
  match
    (* Hex-float literals never contain "..": the mantissa holds at most
       one '.' followed by hex digits, and the exponent is "p±digits". *)
    let rec find i =
      if i + 1 >= String.length s then None
      else if s.[i] = '.' && s.[i + 1] = '.' then Some i
      else find (i + 1)
    in
    find 0
  with
  | None -> parse_fail what s
  | Some i ->
    ( parse_time what (String.sub s 0 i),
      parse_time what (String.sub s (i + 2) (String.length s - i - 2)) )

let parse_assoc what s =
  match String.index_opt s '=' with
  | None -> parse_fail what s
  | Some i ->
    (String.trim (String.sub s 0 i), String.sub s (i + 1) (String.length s - i - 1))

let parse_rate s =
  if String.trim s = "none" then None
  else
    let body = String.trim s in
    let n = String.length body in
    if n < 4 || String.sub body 0 3 <> "tb(" || body.[n - 1] <> ')' then
      parse_fail "rate" s
    else
      match String.split_on_char ',' (String.sub body 3 (n - 4)) with
      | [ rate; burst; queue ] ->
        Some
          {
            rate_bytes_per_sec = parse_float "rate" rate;
            burst_bytes = int_of_string (String.trim burst);
            max_queue = parse_time "max_queue" queue;
          }
      | _ -> parse_fail "rate" s

let dir_of_string s =
  let body = unwrap ~prefix:"dir" (String.trim s) in
  let fields = List.map (parse_assoc "dir field") (String.split_on_char ';' body) in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> parse_fail ("dir field " ^ k) s
  in
  {
    drop = parse_float "drop" (get "drop");
    duplicate = parse_float "dup" (get "dup");
    reorder = parse_float "reorder" (get "reorder");
    reorder_window = parse_time "rwin" (get "rwin");
    spike = parse_float "spike" (get "spike");
    spike_delay = parse_time "sdelay" (get "sdelay");
    jitter =
      (let v = String.trim (get "jitter") in
       if v = "none" then None else Some (Dist.spec_of_string v));
    corrupt = parse_float "corrupt" (get "corrupt");
    rate = parse_rate (get "rate");
    blackholes =
      List.map
        (fun w ->
          let bh_from, bh_until = parse_window "blackhole" w in
          { bh_from; bh_until })
        (parse_list "bh" (get "bh"));
  }

let crash_of_string s =
  match String.index_opt s '@' with
  | None -> parse_fail "crash" s
  | Some i -> (
    let name = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.index_opt rest '~' with
    | None -> parse_fail "crash" s
    | Some j ->
      let at = parse_time "crash_at" (String.sub rest 0 j) in
      let r = String.sub rest (j + 1) (String.length rest - j - 1) in
      ( name,
        {
          crash_at = at;
          restart_after =
            (if String.trim r = "never" then None else Some (parse_time "restart" r));
        } ))

let plan_of_string s =
  let body = unwrap ~prefix:"plan" (String.trim s) in
  let fields = List.map (parse_assoc "plan field") (String.split_on_char '|' body) in
  let get k =
    match List.assoc_opt k fields with
    | Some v -> v
    | None -> parse_fail ("plan field " ^ k) s
  in
  {
    seed = int_of_string (String.trim (get "seed"));
    link = { fwd = dir_of_string (get "fwd"); rev = dir_of_string (get "rev") };
    partitions =
      List.map
        (fun w ->
          let part_from, part_until = parse_window "partition" w in
          { part_from; part_until })
        (parse_list "parts" (get "parts"));
    crashes = List.map crash_of_string (parse_list "crashes" (get "crashes"));
  }

(* ------------------------------------------------------------------ *)
(* Seed-derived random plans                                           *)
(* ------------------------------------------------------------------ *)

(* One canonical generator so the chaos harness and the failover bench
   name the same plan by the same seed.  Draw order is part of the
   seed contract: both directions share one symmetric legacy profile,
   drawn exactly as the original scalar generator did. *)
let random_plan ~seed ~mbs ~horizon =
  let g = Prng.create ~seed in
  let h = Time.to_seconds horizon in
  let d =
    {
      clean_dir with
      drop = Prng.float g 0.12;
      duplicate = Prng.float g 0.10;
      reorder = Prng.float g 0.30;
      reorder_window = Time.seconds (Prng.float g (h /. 20.0));
      spike = Prng.float g 0.05;
      spike_delay = Time.seconds (Prng.float g (h /. 10.0));
    }
  in
  let partitions =
    List.init (Prng.int g 3) (fun _ ->
        let start = Prng.float g h in
        let len = Prng.float g (h /. 8.0) in
        { part_from = Time.seconds start; part_until = Time.seconds (start +. len) })
  in
  let crashes =
    List.filter_map
      (fun mb ->
        if Prng.chance g 0.4 then
          Some
            ( mb,
              {
                crash_at = Time.seconds (Prng.float g h);
                restart_after =
                  (if Prng.chance g 0.75 then
                     Some (Time.seconds (Prng.float g (h /. 4.0)))
                   else None);
              } )
        else None)
      mbs
  in
  { seed; link = symmetric d; partitions; crashes }

(* Production-grade impairment plans: independent per-direction
   profiles with distribution-drawn jitter, token-bucket shaping,
   corruption and blackhole windows, on top of moderated legacy
   pathology.  Rates and windows scale with [horizon] so every fault
   kind is realized on long soaks without permanently severing the
   control plane — blackholes and partitions always end, shapers always
   drain, so a retried operation eventually lands. *)
let random_impairment_plan ~seed ~mbs ~horizon =
  let g = Prng.create ~seed in
  let h = Time.to_seconds horizon in
  let random_dir () =
    let jitter =
      match Prng.int g 5 with
      | 0 -> None
      | 1 -> Some (Dist.Uniform_spec { lo = 0.0; hi = Prng.float g (h /. 2000.0) })
      | 2 -> Some (Dist.Exponential_spec { mean = Prng.float g (h /. 4000.0) })
      | 3 ->
        Some
          (Dist.Lognormal_spec
             { mu = log (Float.max 1e-6 (Prng.float g (h /. 4000.0))); sigma = 0.5 })
      | _ ->
        let lo = Float.max 1e-7 (Prng.float g (h /. 8000.0)) in
        Some (Dist.Pareto_spec { shape = 1.5; lo; hi = lo *. 50.0 })
    in
    let rate =
      if Prng.chance g 0.5 then
        Some
          {
            rate_bytes_per_sec = 2e5 +. Prng.float g 2e6;
            burst_bytes = 2048 + Prng.int g 63488;
            max_queue = Time.seconds (Float.max 1e-4 (h /. 50.0));
          }
      else None
    in
    let blackholes =
      List.init (Prng.int g 3) (fun _ ->
          let start = Prng.float g h in
          let len = Prng.float g (h /. 15.0) in
          { bh_from = Time.seconds start; bh_until = Time.seconds (start +. len) })
    in
    {
      drop = Prng.float g 0.06;
      duplicate = Prng.float g 0.05;
      reorder = Prng.float g 0.20;
      reorder_window = Time.seconds (Prng.float g (h /. 100.0));
      spike = Prng.float g 0.03;
      spike_delay = Time.seconds (Prng.float g (h /. 50.0));
      jitter;
      corrupt = Prng.float g 0.03;
      rate;
      blackholes;
    }
  in
  let fwd = random_dir () in
  let rev = random_dir () in
  let partitions =
    List.init (Prng.int g 3) (fun _ ->
        let start = Prng.float g h in
        let len = Prng.float g (h /. 10.0) in
        { part_from = Time.seconds start; part_until = Time.seconds (start +. len) })
  in
  let crashes =
    List.filter_map
      (fun mb ->
        if Prng.chance g 0.3 then
          Some
            ( mb,
              {
                crash_at = Time.seconds (Prng.float g h);
                restart_after = Some (Time.seconds (Prng.float g (h /. 6.0)));
              } )
        else None)
      mbs
  in
  { seed; link = { fwd; rev }; partitions; crashes }
