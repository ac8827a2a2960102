(* Hierarchical timer wheel over a pooled, closure-free event store.

   This is the engine's pending-event queue.  Two structural ideas:

   1. Pooled cells.  An event is an integer index into a set of
      parallel arrays (structure-of-arrays: the timestamp lives in a
      dedicated [float array] so it is never boxed), recycled through a
      free list sized by the high-water mark.  Payloads are stored as
      two [Obj.t] slots plus a kind tag; the engine casts them back
      under a typed public API.  Steady-state scheduling therefore
      allocates nothing.

   2. Hierarchical wheel.  Timestamps are quantized to ticks (default
      1us per slot).  A cell whose tick differs from [current] first in
      byte [l] is filed in level [l]'s slot [byte l of tick] — the
      highest-differing-byte rule, which guarantees that every slot at
      level [l] strictly ahead of [current]'s level-[l] index belongs
      to the current revolution, so finding the next event is a bitmap
      scan and an O(1) jump, never a revolution-counting walk.  Four
      levels x 256 slots cover 2^32 ticks (~71 minutes at 1us); cells
      beyond that fall back to the classic binary [Heap] and are merged
      at pop time by (timestamp, sequence) comparison.

   Exact event order is preserved: the global order is (timestamp,
   insertion sequence), with the FIFO tie-break for equal timestamps.
   Tick quantization never reorders — a level-0 slot is materialized
   into the sorted [drain] list before its cells fire, late inserts
   landing on a past tick are clamped into the drain in (at, seq)
   position, and the overflow heap compares with the same key. *)

let levels = 4
let slot_bits = 8
let slots = 1 lsl slot_bits (* 256 *)
let slot_mask = slots - 1

(* 2^32 ticks: cells whose tick differs from [current] at byte >= 4 go
   to the overflow heap. *)
let wheel_horizon = 1 lsl (levels * slot_bits)

(* Bitmaps use 32-bit words: OCaml ints are 63-bit, so packing 64 slots
   per word would need shifts by 63 which are out of range. *)
let bitmap_words = slots / 32

let nil = -1

(* Cell states: bit 0 = queued, bit 1 = cancelled (tombstone). *)
let st_free = 0
let st_queued = 1
let cancelled_bit = 2

let obj_nil = Obj.repr 0

(* Hot paths use unchecked array access: every index is an internal
   invariant — cell indices come off the free list (< cap), slot
   indices are masked with [slot_mask] (< 256), bitmap words are
   [slot lsr 5] (< 8) and levels are literals 0..3.  Cold paths
   (create, grow, purge) keep checked access.  [A.unsafe_get] must be
   applied directly (module alias, never a [let]-bound alias): an
   eta-reduced binding demotes the compiler primitive to a generic
   closure call that tag-dispatches and boxes floats. *)
module A = Array

type t = {
  ticks_per_sec : float;
  (* --- pooled cell store (structure-of-arrays) --- *)
  mutable cap : int;
  mutable at_ : float array; (* unboxed timestamps *)
  mutable seq_ : int array;
  mutable kind_ : int array;
  mutable gen_ : int array; (* bumped on release; stale-handle guard *)
  mutable state_ : int array;
  mutable next_ : int array; (* free list / slot chain / drain chain *)
  mutable pa_ : Obj.t array;
  mutable pb_ : Obj.t array;
  mutable pc_ : Obj.t array;
  mutable free_head : int;
  mutable in_use : int;
  mutable high_water : int;
  mutable next_seq : int;
  (* --- wheel --- *)
  slot_head : int array array; (* levels x slots *)
  bits : int array array; (* levels x bitmap_words, 32 bits per word *)
  mutable current : int; (* tick the wheel has advanced to *)
  mutable wheel_count : int; (* cells in slots + drain *)
  mutable drain : int; (* (at, seq)-sorted chain of due cells *)
  sort_bins : int array; (* scratch for the bottom-up merge sort *)
  mutable overflow : int Heap.t; (* far-future fallback *)
}

let cmp_cells t a b =
  let c = Float.compare (A.unsafe_get t.at_ a) (A.unsafe_get t.at_ b) in
  if c <> 0 then c else Int.compare (A.unsafe_get t.seq_ a) (A.unsafe_get t.seq_ b)

let create ?(slot_us = 1.0) () =
  if slot_us <= 0.0 then invalid_arg "Timer_wheel.create: slot_us must be positive";
  let cap = 256 in
  let t =
    {
      ticks_per_sec = 1e6 /. slot_us;
      cap;
      at_ = Array.make cap 0.0;
      seq_ = Array.make cap 0;
      kind_ = Array.make cap 0;
      gen_ = Array.make cap 0;
      state_ = Array.make cap st_free;
      next_ = Array.init cap (fun i -> if i = cap - 1 then nil else i + 1);
      pa_ = Array.make cap obj_nil;
      pb_ = Array.make cap obj_nil;
      pc_ = Array.make cap obj_nil;
      free_head = 0;
      in_use = 0;
      high_water = 0;
      next_seq = 0;
      slot_head = Array.init levels (fun _ -> Array.make slots nil);
      bits = Array.init levels (fun _ -> Array.make bitmap_words 0);
      current = 0;
      wheel_count = 0;
      drain = nil;
      sort_bins = Array.make 32 nil;
      overflow = Heap.create ~cmp:Int.compare;
    }
  in
  t.overflow <- Heap.create ~cmp:(fun a b -> cmp_cells t a b);
  t

(* ------------------------------------------------------------------ *)
(* Cell pool                                                           *)
(* ------------------------------------------------------------------ *)

let grow t =
  let old = t.cap in
  let cap = old * 2 in
  let grow_int a = let d = Array.make cap 0 in Array.blit a 0 d 0 old; d in
  let grow_obj a = let d = Array.make cap obj_nil in Array.blit a 0 d 0 old; d in
  let at2 = Array.make cap 0.0 in
  Array.blit t.at_ 0 at2 0 old;
  t.at_ <- at2;
  t.seq_ <- grow_int t.seq_;
  t.kind_ <- grow_int t.kind_;
  t.gen_ <- grow_int t.gen_;
  t.state_ <- grow_int t.state_;
  t.next_ <- grow_int t.next_;
  t.pa_ <- grow_obj t.pa_;
  t.pb_ <- grow_obj t.pb_;
  t.pc_ <- grow_obj t.pc_;
  for i = old to cap - 1 do
    t.state_.(i) <- st_free;
    t.next_.(i) <- i + 1
  done;
  t.next_.(cap - 1) <- t.free_head;
  t.free_head <- old;
  t.cap <- cap

let release t i =
  if A.unsafe_get t.state_ i land st_queued = 0 then
    invalid_arg "Timer_wheel.release: cell is not queued";
  A.unsafe_set t.state_ i st_free;
  A.unsafe_set t.gen_ i (A.unsafe_get t.gen_ i + 1);
  (* Drop payload references so the pool never keeps dead objects
     reachable.  [obj_nil] is the immediate 0, so an already-nil slot
     needs no store — and skipping it skips a write-barrier call. *)
  A.unsafe_set t.pa_ i obj_nil;
  if A.unsafe_get t.pb_ i != obj_nil then A.unsafe_set t.pb_ i obj_nil;
  if A.unsafe_get t.pc_ i != obj_nil then A.unsafe_set t.pc_ i obj_nil;
  A.unsafe_set t.next_ i t.free_head;
  t.free_head <- i;
  t.in_use <- t.in_use - 1

(* ------------------------------------------------------------------ *)
(* Bitmaps                                                             *)
(* ------------------------------------------------------------------ *)

let set_bit t l s =
  let words = A.unsafe_get t.bits l in
  let w = s lsr 5 in
  A.unsafe_set words w (A.unsafe_get words w lor (1 lsl (s land 31)))

let clear_bit t l s =
  let words = A.unsafe_get t.bits l in
  let w = s lsr 5 in
  A.unsafe_set words w (A.unsafe_get words w land lnot (1 lsl (s land 31)))

let ctz32 x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Lowest set bit of [words] at word [w] or later, with [mask] applied
   to word [w] only; -1 if none.  Top-level, like every helper on the
   per-event paths: a local function that captures a variable is a
   closure allocated on each call of its parent. *)
let rec find_bit_in words w mask =
  if w >= bitmap_words then -1
  else begin
    let v = A.unsafe_get words w land mask in
    if v <> 0 then (w lsl 5) + ctz32 v else find_bit_in words (w + 1) 0xFFFFFFFF
  end

(* Lowest occupied slot index >= [idx] at level [l], or -1. *)
let find_bit_from t l idx =
  if idx >= slots then -1
  else
    find_bit_in (A.unsafe_get t.bits l) (idx lsr 5)
      (0xFFFFFFFF lxor ((1 lsl (idx land 31)) - 1))

(* ------------------------------------------------------------------ *)
(* Placement                                                           *)
(* ------------------------------------------------------------------ *)

(* Beyond this, [at *. ticks_per_sec] cannot be converted to an int
   tick; such cells live in the overflow heap (which compares raw
   timestamps and never quantizes). *)
let max_tick_f = 4.0e18

let tick_of t i =
  let ft = A.unsafe_get t.at_ i *. t.ticks_per_sec in
  let k = int_of_float ft in
  if k < t.current then t.current else k

(* File cell [i] (tick in the current 2^32 block, >= current) by the
   highest-differing-byte rule. *)
let place t i tick =
  let x = tick lxor t.current in
  let l =
    if x < 1 lsl slot_bits then 0
    else if x < 1 lsl (2 * slot_bits) then 1
    else if x < 1 lsl (3 * slot_bits) then 2
    else 3
  in
  let s = (tick lsr (l * slot_bits)) land slot_mask in
  let heads = A.unsafe_get t.slot_head l in
  A.unsafe_set t.next_ i (A.unsafe_get heads s);
  A.unsafe_set heads s i;
  set_bit t l s

(* Sorted insert into the drain chain; chains are short (one tick's
   worth of same-instant events). *)
let insert_drain t i =
  if t.drain = nil || cmp_cells t i t.drain < 0 then begin
    A.unsafe_set t.next_ i t.drain;
    t.drain <- i
  end
  else begin
    let j = ref t.drain in
    while A.unsafe_get t.next_ !j <> nil && cmp_cells t (A.unsafe_get t.next_ !j) i <= 0 do
      j := A.unsafe_get t.next_ !j
    done;
    A.unsafe_set t.next_ i (A.unsafe_get t.next_ !j);
    A.unsafe_set t.next_ !j i
  end

let enqueue t i =
  let ft = A.unsafe_get t.at_ i *. t.ticks_per_sec in
  if ft >= max_tick_f then Heap.push t.overflow i
  else begin
    let tick = int_of_float ft in
    if t.wheel_count = 0 && tick lxor t.current < slots then begin
      (* Empty wheel, cell within the current level-0 block: advancing
         [current] to the cell's tick is exactly the jump
         [ensure_drain] would make at pop time, done while it is free —
         the cell goes straight to the drain and its pop touches
         neither bitmaps nor slots.  This is the single event-in-flight
         cycle (channel delivery chains, dp/cpu busy timers), the
         engine's most common state.  The jump is capped to the block
         so one idle far-future timer cannot drag [current] ahead of
         every near-future insert that follows. *)
      if tick > t.current then t.current <- tick;
      A.unsafe_set t.next_ i nil;
      t.drain <- i;
      t.wheel_count <- 1
    end
    else if tick <= t.current then begin
      (* Late or due: joins the drain in (at, seq) position rather than
         filing behind [current].  Keeping clamped cells out of the
         slots keeps every slot's bitmap tick lower bound truthful,
         which [may_have_before]'s soundness proof depends on. *)
      insert_drain t i;
      t.wheel_count <- t.wheel_count + 1
    end
    else if tick lxor t.current < wheel_horizon then begin
      place t i tick;
      t.wheel_count <- t.wheel_count + 1
    end
    else Heap.push t.overflow i
  end

(* Take a cell off the free list (growing the pool if exhausted) and
   fill everything but its time. *)
let take t ~seq ~kind ~a ~b ~c =
  if t.free_head = nil then grow t;
  let i = t.free_head in
  if A.unsafe_get t.state_ i <> st_free then
    invalid_arg "Timer_wheel.alloc: corrupt free list";
  t.free_head <- A.unsafe_get t.next_ i;
  A.unsafe_set t.state_ i st_queued;
  A.unsafe_set t.seq_ i seq;
  A.unsafe_set t.kind_ i kind;
  (* Free cells have nil payload slots (see [release]); [obj_nil] is
     the immediate 0, so storing a 0-valued payload is a no-op and the
     write (with its barrier) can be skipped. *)
  A.unsafe_set t.pa_ i a;
  if b != obj_nil then A.unsafe_set t.pb_ i b;
  if c != obj_nil then A.unsafe_set t.pc_ i c;
  t.in_use <- t.in_use + 1;
  if t.in_use > t.high_water then t.high_water <- t.in_use;
  i

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let alloc t ~at ~kind ~a ~b ~c =
  let i = take t ~seq:(fresh_seq t) ~kind ~a ~b ~c in
  A.unsafe_set t.at_ i at;
  enqueue t i;
  i

(* The sum is formed here, not by the caller: a float computed in
   another module is boxed to be passed in. *)
let alloc_after t ~clock ~delay ~kind ~a ~b ~c =
  let i = take t ~seq:(fresh_seq t) ~kind ~a ~b ~c in
  A.unsafe_set t.at_ i (A.unsafe_get clock 0 +. delay);
  enqueue t i;
  i

(* A block of sequence numbers taken now and filed later: every number
   is ordered exactly as if its cell had been allocated here, because
   the order only ever compares (at, seq) keys and no later cell can
   draw a number inside the block. *)
let reserve t n =
  if n < 0 then invalid_arg "Timer_wheel.reserve: negative count";
  let base = t.next_seq in
  t.next_seq <- base + n;
  base

let alloc_reserved t ~at ~plus ~seq ~kind ~a ~b ~c =
  if seq < 0 || seq >= t.next_seq then
    invalid_arg "Timer_wheel.alloc_reserved: sequence number not reserved";
  let i = take t ~seq ~kind ~a ~b ~c in
  A.unsafe_set t.at_ i (at +. plus);
  enqueue t i;
  i

(* ------------------------------------------------------------------ *)
(* Advancing                                                           *)
(* ------------------------------------------------------------------ *)

let detach t l s =
  let heads = A.unsafe_get t.slot_head l in
  let h = A.unsafe_get heads s in
  A.unsafe_set heads s nil;
  clear_bit t l s;
  h

(* Iterative bottom-up merge sort of a cell chain by (at, seq), using
   the persistent scratch bins (no allocation). *)
let merge t a b =
  let a = ref a and b = ref b in
  let head = ref nil and tail = ref nil in
  while !a <> nil && !b <> nil do
    let n =
      if cmp_cells t !a !b <= 0 then begin
        let n = !a in
        a := A.unsafe_get t.next_ n;
        n
      end
      else begin
        let n = !b in
        b := A.unsafe_get t.next_ n;
        n
      end
    in
    if !tail = nil then head := n else A.unsafe_set t.next_ !tail n;
    tail := n
  done;
  let rest = if !a <> nil then !a else !b in
  if !tail = nil then rest
  else begin
    A.unsafe_set t.next_ !tail rest;
    !head
  end

let sort t head =
  if head = nil || t.next_.(head) = nil then head
  else begin
    let bins = t.sort_bins in
    let nbins = Array.length bins in
    let node = ref head in
    while !node <> nil do
      let n = !node in
      node := A.unsafe_get t.next_ n;
      A.unsafe_set t.next_ n nil;
      let run = ref n in
      let i = ref 0 in
      while !i < nbins - 1 && bins.(!i) <> nil do
        run := merge t bins.(!i) !run;
        bins.(!i) <- nil;
        incr i
      done;
      bins.(!i) <- (if bins.(!i) = nil then !run else merge t bins.(!i) !run)
    done;
    let acc = ref nil in
    for i = 0 to nbins - 1 do
      if bins.(i) <> nil then begin
        acc := (if !acc = nil then bins.(i) else merge t bins.(i) !acc);
        bins.(i) <- nil
      end
    done;
    !acc
  end

(* Re-file every cell of slot (l, s) after [current] moved into that
   slot's block: each now differs from [current] in a byte below [l],
   so it drops to a lower level (or level 0). *)
let cascade t l s =
  let n = ref (detach t l s) in
  while !n <> nil do
    let i = !n in
    n := A.unsafe_get t.next_ i;
    place t i (tick_of t i)
  done

(* The first occupied slot ahead of [current]'s own index at the
   lowest level [>= l] that has one, packed as [(level lsl slot_bits)
   lor slot], or -1 if none.  The highest-differing-byte invariant
   means the scan can start at index+1 (the slot at [current]'s own
   index would have been filed lower), and the slot found is the
   earliest of all of them. *)
let rec next_slot t l =
  if l >= levels then -1
  else begin
    let j = find_bit_from t l (((t.current lsr (l * slot_bits)) land slot_mask) + 1) in
    if j >= 0 then (l lsl slot_bits) lor j else next_slot t (l + 1)
  end

(* The lowest tick that slot [j] of level [l] can hold once [current]
   reaches its block: [current]'s bytes above [l], [j], then zeros.
   Shifts are right-associative in OCaml: the truncation must be
   parenthesized or [lsr above lsl above] shifts by [above lsl
   above]. *)
let slot_base t l j =
  let shift = l * slot_bits in
  let above = shift + slot_bits in
  ((t.current lsr above) lsl above) lor (j lsl shift)

let bitmaps_inconsistent () =
  invalid_arg "Timer_wheel: occupancy bitmaps inconsistent with count"

(* Make [drain] non-empty if the wheel holds any cell: find the lowest
   occupied level-0 slot at or ahead of [current]; if level 0 is clear,
   jump to the next occupied slot of the lowest occupied level and
   cascade it down, then retry.  Nothing ever hides behind
   [current]. *)
let rec ensure_drain t =
  if t.drain = nil && t.wheel_count > 0 then begin
    let s0 = find_bit_from t 0 (t.current land slot_mask) in
    if s0 >= 0 then begin
      t.current <- slot_base t 0 s0;
      t.drain <- sort t (detach t 0 s0)
    end
    else begin
      let ls = next_slot t 1 in
      if ls < 0 then bitmaps_inconsistent ();
      let l = ls lsr slot_bits and j = ls land slot_mask in
      t.current <- slot_base t l j;
      cascade t l j;
      ensure_drain t
    end
  end

(* ------------------------------------------------------------------ *)
(* Queue interface                                                     *)
(* ------------------------------------------------------------------ *)

let size t = t.wheel_count + Heap.size t.overflow

(* Conservative boundary probe: could some queued cell have
   [at <= limit]?  Never cascades.  [run ~until] must not answer its
   stopping question with {!peek}: peeking past the window would
   materialize (cascade) a far-future slot and drag [current] up to
   it, after which every near-future insert lands behind [current] and
   degenerates into a sorted drain insert.  A slot's placement gives a
   free lower bound on its cells' ticks — level [l] slot [j] holds
   ticks >= block base with byte [l] = [j] and lower bytes zero — and
   ticks only ever truncate [at *. ticks_per_sec] downward, so
   [lb > limit_tick] proves every wheel cell is strictly later than
   [limit]. *)
let may_have_before t limit =
  (if t.drain <> nil then A.unsafe_get t.at_ t.drain <= limit
   else if t.wheel_count = 0 then false
   else begin
     let lf = limit *. t.ticks_per_sec in
     lf >= max_tick_f
     ||
     let limit_tick = int_of_float lf in
     let s0 = find_bit_from t 0 (t.current land slot_mask) in
     if s0 >= 0 then slot_base t 0 s0 <= limit_tick
     else begin
       let ls = next_slot t 1 in
       ls >= 0 && slot_base t (ls lsr slot_bits) (ls land slot_mask) <= limit_tick
     end
   end)
  || ((not (Heap.is_empty t.overflow)) && A.unsafe_get t.at_ (Heap.peek_exn t.overflow) <= limit)

(* Next cell in (at, seq) order, or [nil].  Non-destructive. *)
let peek t =
  if t.drain = nil && t.wheel_count > 0 then ensure_drain t;
  let w = t.drain in
  if Heap.is_empty t.overflow then w
  else begin
    let h = Heap.peek_exn t.overflow in
    if w = nil then h else if cmp_cells t w h <= 0 then w else h
  end

(* Earliest timestamp over slot ([l], [s])'s chain (chains are
   unsorted).  A loop over a local float ref: a float passed to a
   function is boxed, a local one is not. *)
let chain_min t l s =
  let m = ref infinity and i = ref (A.unsafe_get (A.unsafe_get t.slot_head l) s) in
  while !i <> nil do
    m := Float.min !m (A.unsafe_get t.at_ !i);
    i := A.unsafe_get t.next_ !i
  done;
  !m

(* What [peek] would find, without advancing: the drain head, else the
   minimum of the first occupied slot's chain — the slot [ensure_drain]
   would cascade, which the highest-differing-byte rule makes the
   earliest — and the overflow head. *)
let next_at t =
  let w =
    if t.drain <> nil then A.unsafe_get t.at_ t.drain
    else if t.wheel_count = 0 then infinity
    else begin
      let s0 = find_bit_from t 0 (t.current land slot_mask) in
      if s0 >= 0 then chain_min t 0 s0
      else begin
        let ls = next_slot t 1 in
        if ls < 0 then bitmaps_inconsistent ();
        chain_min t (ls lsr slot_bits) (ls land slot_mask)
      end
    end
  in
  if Heap.is_empty t.overflow then w
  else Float.min w (A.unsafe_get t.at_ (Heap.peek_exn t.overflow))

let pop t =
  let c = peek t in
  if c <> nil then begin
    if c = t.drain then begin
      t.drain <- A.unsafe_get t.next_ c;
      t.wheel_count <- t.wheel_count - 1
    end
    else begin
      ignore (Heap.pop_exn t.overflow);
      (* The wheel is allowed to lag arbitrarily while the heap leads;
         re-sync when it is empty so later near-future inserts still
         land in slots rather than overflowing. *)
      if t.wheel_count = 0 then begin
        let ft = A.unsafe_get t.at_ c *. t.ticks_per_sec in
        if ft < max_tick_f then begin
          let k = int_of_float ft in
          if k > t.current then t.current <- k
        end
      end
    end
  end;
  c

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

(* The engine's reads of a cell's time: a float returned to another
   module is boxed, so these store or compare it here. *)
let load_at t i dst = A.unsafe_set dst 0 (A.unsafe_get t.at_ i)
let at_le t i limit = A.unsafe_get t.at_ i <= limit

let kind t i = A.unsafe_get t.kind_ i
let gen t i = A.unsafe_get t.gen_ i
let pa t i = A.unsafe_get t.pa_ i
let pb t i = A.unsafe_get t.pb_ i
let pc t i = A.unsafe_get t.pc_ i
let cancelled t i = A.unsafe_get t.state_ i land cancelled_bit <> 0
let set_cancelled t i = A.unsafe_set t.state_ i (A.unsafe_get t.state_ i lor cancelled_bit)
let capacity t = t.cap
let in_use t = t.in_use
let high_water t = t.high_water

(* ------------------------------------------------------------------ *)
(* Tombstone purge                                                     *)
(* ------------------------------------------------------------------ *)

(* Drop every cancelled cell still queued; returns how many were
   dropped.  Called by the engine when tombstones outnumber live
   events. *)
let purge t =
  let dropped = ref 0 in
  let filter head =
    (* Unlink cancelled cells from a chain, releasing them. *)
    let skip i =
      let j = ref i in
      while !j <> nil && t.state_.(!j) land cancelled_bit <> 0 do
        let nxt = t.next_.(!j) in
        release t !j;
        incr dropped;
        j := nxt
      done;
      !j
    in
    let head = skip head in
    let i = ref head in
    while !i <> nil do
      let nxt = skip t.next_.(!i) in
      t.next_.(!i) <- nxt;
      i := nxt
    done;
    head
  in
  let in_wheel_before = !dropped in
  t.drain <- filter t.drain;
  for l = 0 to levels - 1 do
    for s = 0 to slots - 1 do
      if t.slot_head.(l).(s) <> nil then begin
        let h = filter t.slot_head.(l).(s) in
        t.slot_head.(l).(s) <- h;
        if h = nil then clear_bit t l s
      end
    done
  done;
  t.wheel_count <- t.wheel_count - (!dropped - in_wheel_before);
  if not (Heap.is_empty t.overflow) then begin
    let survivors =
      List.filter
        (fun i ->
          if t.state_.(i) land cancelled_bit <> 0 then begin
            release t i;
            incr dropped;
            false
          end
          else true)
        (Heap.to_list t.overflow)
    in
    Heap.clear t.overflow;
    List.iter (fun i -> Heap.push t.overflow i) survivors
  end;
  !dropped
