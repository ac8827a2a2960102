(* Epoch-barrier coordinator over per-domain shard engines.

   Determinism argument, in full:

   - Shard-local execution is a single engine run to a horizon —
     sequential and deterministic regardless of which domain performs
     it.

   - Cross-shard messages only move at barriers.  Each destination's
     incoming batch is sorted by (clamped deliver-at, source shard,
     per-source sequence), a total order: deliver-at clamping depends
     only on the epoch grid, source ids are fixed, and sequence
     numbers are per-source counters.  Injection in that order pins
     the engine's FIFO tie-break, so same-instant deliveries execute
     identically however many domains ran the epoch.

   - The epoch grid itself is domain-independent: horizons are
     epoch * k for integer k, and each round's k is the epoch holding
     the earliest queued event across all shards — read while every
     worker is parked, so a deterministic quantity.  Rounds therefore
     skip empty epochs but never span two non-empty ones: an event
     always runs in the round whose horizon closes its own epoch, and a
     cross-shard post it makes is clamped to that horizon.  Events that
     only observe (a telemetry scraper's ticks) add rounds of their own
     but cannot move any other event's horizon.

   Hence the run's outcome is a function of (shards, seed, epoch,
   workload) only; [domains] changes wall-clock time, never results.

   The parallel path uses one long-lived worker domain per extra
   domain for the duration of a [run] call, released/collected with a
   generation-counted condition-variable barrier.  The coordinator
   only reads or mutates shard state (drain/inject, executed counts)
   while every worker is parked inside the barrier, so the mutex
   hand-off publishes all shard writes — no other synchronisation
   exists or is needed. *)

type t = {
  sh : Shard.t array;
  epoch : Time.t;
  n_domains : int;
  mutable epoch_idx : int; (* horizons reached: epoch * epoch_idx *)
  mutable rounds : int;
  mutable moved_total : int;
}

let create ?slot_us ?(domains = 1) ?(epoch = Time.ms 1.0) ?(seed = 0) ?span_capacity
    ~shards () =
  if shards < 1 then invalid_arg "Sharded_engine.create: shards must be >= 1";
  if Time.compare epoch Time.zero <= 0 then
    invalid_arg "Sharded_engine.create: epoch must be positive";
  let n_domains = max 1 (min domains shards) in
  (* Shard PRNG streams split off a parent in index order, so stream i
     is a function of (seed, i) alone — never of the domain count. *)
  let parent = Prng.create ~seed in
  let streams = Array.make shards parent in
  (* Explicit index-order loop: Array.init's evaluation order is
     unspecified and each split advances the parent. *)
  for i = 0 to shards - 1 do
    streams.(i) <- Prng.split parent
  done;
  let sh =
    Array.init shards (fun i ->
        Shard.create ?slot_us ?span_capacity ~id:i ~shards ~prng:streams.(i) ())
  in
  { sh; epoch; n_domains; epoch_idx = 0; rounds = 0; moved_total = 0 }

let shards t = Array.length t.sh
let domains t = t.n_domains

let shard t i =
  if i < 0 || i >= Array.length t.sh then invalid_arg "Sharded_engine.shard: out of range";
  t.sh.(i)

let executed t = Array.fold_left (fun acc s -> acc + Engine.executed (Shard.engine s)) 0 t.sh
let pending t = Array.fold_left (fun acc s -> acc + Engine.pending (Shard.engine s)) 0 t.sh
let exchanged t = t.moved_total
let epochs t = t.rounds
let now t = Engine.now (Shard.engine t.sh.(0))

let merged_snapshot t =
  Telemetry.merge_all
    (Array.to_list (Array.map (fun s -> Telemetry.snapshot (Shard.telemetry s)) t.sh))

(* Drain every outbox into its destination, clamped to the horizon and
   totally ordered; returns the number of messages that crossed. *)
let exchange t ~horizon =
  let n = Array.length t.sh in
  let moved = ref 0 in
  for dst = 0 to n - 1 do
    let incoming = ref [] in
    for src = 0 to n - 1 do
      if src <> dst then
        List.iter
          (fun m -> incoming := (Time.max (Shard.msg_at m) horizon, src, m) :: !incoming)
          (Shard.drain t.sh.(src) ~dst)
    done;
    match !incoming with
    | [] -> ()
    | msgs ->
      let arr = Array.of_list msgs in
      Array.sort
        (fun (a1, s1, m1) (a2, s2, m2) ->
          let c = Time.compare a1 a2 in
          if c <> 0 then c
          else
            let c = Int.compare s1 s2 in
            if c <> 0 then c else Int.compare (Shard.msg_seq m1) (Shard.msg_seq m2))
        arr;
      Array.iter
        (fun (at, _, m) ->
          Shard.inject t.sh.(dst) ~at m;
          incr moved)
        arr
  done;
  t.moved_total <- t.moved_total + !moved;
  !moved

(* ------------------------------------------------------------------ *)
(* Worker barrier                                                      *)
(* ------------------------------------------------------------------ *)

type sync = {
  m : Mutex.t;
  cv : Condition.t;
  mutable gen : int; (* bumped by the coordinator to release an epoch *)
  mutable horizon : Time.t;
  mutable quit : bool;
  mutable done_count : int;
}

let run_slice t d horizon =
  let n = Array.length t.sh in
  let i = ref d in
  while !i < n do
    Engine.run ~until:horizon (Shard.engine t.sh.(!i));
    i := !i + t.n_domains
  done

let worker t sync d () =
  let seen = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    Mutex.lock sync.m;
    while sync.gen = !seen && not sync.quit do
      Condition.wait sync.cv sync.m
    done;
    if sync.quit then begin
      Mutex.unlock sync.m;
      continue_ := false
    end
    else begin
      seen := sync.gen;
      let h = sync.horizon in
      Mutex.unlock sync.m;
      run_slice t d h;
      Mutex.lock sync.m;
      sync.done_count <- sync.done_count + 1;
      Condition.broadcast sync.cv;
      Mutex.unlock sync.m
    end
  done

let horizon_of t k = Time.seconds (Time.to_seconds t.epoch *. float_of_int k)

(* First epoch index after [t.epoch_idx] whose horizon reaches [at]. *)
let epoch_reaching t at =
  let lo = t.epoch_idx + 1 in
  if at = infinity then lo
  else begin
    let k = ref (max lo (int_of_float (Float.ceil (Time.to_seconds at /. Time.to_seconds t.epoch)))) in
    while Time.compare (horizon_of t !k) at < 0 do incr k done;
    while !k > lo && Time.compare (horizon_of t (!k - 1)) at >= 0 do decr k done;
    !k
  end

let run ?until t =
  (* Keep the grid strictly ahead of the clock so repeated runs resume
     cleanly on the same epoch boundaries. *)
  let clock0 = now t in
  let k = int_of_float (Time.to_seconds clock0 /. Time.to_seconds t.epoch) in
  if t.epoch_idx < k then t.epoch_idx <- k;
  let nw = t.n_domains - 1 in
  let sync =
    { m = Mutex.create (); cv = Condition.create (); gen = 0; horizon = Time.zero;
      quit = false; done_count = 0 }
  in
  let workers =
    if nw = 0 then [||] else Array.init nw (fun d -> Domain.spawn (worker t sync (d + 1)))
  in
  let run_all horizon =
    if nw = 0 then run_slice t 0 horizon
    else begin
      Mutex.lock sync.m;
      sync.horizon <- horizon;
      sync.done_count <- 0;
      sync.gen <- sync.gen + 1;
      Condition.broadcast sync.cv;
      Mutex.unlock sync.m;
      run_slice t 0 horizon;
      Mutex.lock sync.m;
      while sync.done_count < nw do
        Condition.wait sync.cv sync.m
      done;
      Mutex.unlock sync.m
    end
  in
  let body () =
    let continue_ = ref (pending t > 0) in
    while !continue_ do
      let next =
        Array.fold_left (fun m s -> Time.min m (Engine.next_at (Shard.engine s))) infinity t.sh
      in
      let k = epoch_reaching t next in
      let raw = horizon_of t k in
      let horizon, at_limit =
        match until with
        | Some u when Time.compare raw u >= 0 -> (u, true)
        | _ -> (raw, false)
      in
      run_all horizon;
      let moved = exchange t ~horizon in
      t.rounds <- t.rounds + 1;
      if at_limit then
        (* Horizon pinned at [until]: keep flushing barrier deliveries
           that land at or before the limit, then stop with later
           events left pending. *)
        continue_ := moved > 0
      else begin
        t.epoch_idx <- k;
        continue_ := pending t > 0
      end
    done
  in
  Fun.protect body ~finally:(fun () ->
      if nw > 0 then begin
        Mutex.lock sync.m;
        sync.quit <- true;
        Condition.broadcast sync.cv;
        Mutex.unlock sync.m;
        Array.iter Domain.join workers
      end;
      (* Land every clock exactly on [until] (or leave them on the last
         horizon when running to drain). *)
      match until with
      | Some u -> Array.iter (fun s -> Engine.run ~until:u (Shard.engine s)) t.sh
      | None -> ())
