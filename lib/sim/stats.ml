(* An exact multiset of observations: each distinct value once, with its
   count, in an open-addressed table keyed by the value's bits.  Every
   query answers as if over the sorted array of all observations, by
   reading that array's ranks through a sorted view of the distinct
   values, built when a query first needs it after an add.

   The add path allocates nothing: the value arrives boxed and is only
   read, the table stores it unboxed in a float array, and the sums sit
   in a float array too (a float field of a mixed record is boxed on
   every write). *)

type t = {
  mutable keys : float array;  (* power-of-two size; a free slot has count 0 *)
  mutable counts : int array;
  mutable distinct : int;
  mutable len : int;
  acc : float array;  (* [| sum; sum of squares |] *)
  (* The sorted view: the distinct values in [Float.compare] order, and
     in [upto.(r)] how many observations the values [vals.(0..r)] hold. *)
  mutable vals : float array;
  mutable upto : int array;
  mutable view_ok : bool;
}

let create () =
  {
    keys = Array.make 16 0.0;
    counts = Array.make 16 0;
    distinct = 0;
    len = 0;
    acc = [| 0.0; 0.0 |];
    vals = [||];
    upto = [||];
    view_ok = true;
  }

(* A value's home slot: its bits through MurmurHash3's 64-bit
   finalizer, which spreads every input bit over the low ones (floats
   that differ only in their exponent, such as small integers, differ
   only in high bits).  Inlined, so the bits stay unboxed. *)
let[@inline] home bits mask =
  let open Int64 in
  let h = logxor bits (shift_right_logical bits 33) in
  let h = mul h 0xFF51AFD7ED558CCDL in
  let h = logxor h (shift_right_logical h 33) in
  let h = mul h 0xC4CEB9FE1A85EC53L in
  to_int (logxor h (shift_right_logical h 33)) land mask

(* The slot holding [x]'s bits, or the free slot where they go. *)
let find keys counts x =
  let mask = Array.length keys - 1 in
  let bits = Int64.bits_of_float x in
  let i = ref (home bits mask) in
  while counts.(!i) <> 0 && Int64.bits_of_float keys.(!i) <> bits do
    i := (!i + 1) land mask
  done;
  !i

(* Rehash into twice the slots, reading each value's bits in place:
   passing it to [find] would box it.  The values are distinct, so each
   goes to the first free slot from its home. *)
let grow t =
  let size = 2 * Array.length t.keys in
  let keys = Array.make size 0.0 and counts = Array.make size 0 in
  for i = 0 to Array.length t.keys - 1 do
    if t.counts.(i) > 0 then begin
      let j = ref (home (Int64.bits_of_float t.keys.(i)) (size - 1)) in
      while counts.(!j) <> 0 do
        j := (!j + 1) land (size - 1)
      done;
      keys.(!j) <- t.keys.(i);
      counts.(!j) <- t.counts.(i)
    end
  done;
  t.keys <- keys;
  t.counts <- counts

let add_n t x ~n =
  if n > 0 then begin
    let i = find t.keys t.counts x in
    if t.counts.(i) > 0 then t.counts.(i) <- t.counts.(i) + n
    else begin
      (* At most three slots in four are taken. *)
      let i =
        if 4 * (t.distinct + 1) <= 3 * Array.length t.keys then i
        else begin
          grow t;
          find t.keys t.counts x
        end
      in
      t.keys.(i) <- x;
      t.counts.(i) <- n;
      t.distinct <- t.distinct + 1
    end;
    t.len <- t.len + n;
    (* [x *. 1.0] is [x], so one observation sums as it always did. *)
    let fn = float_of_int n in
    t.acc.(0) <- t.acc.(0) +. (x *. fn);
    t.acc.(1) <- t.acc.(1) +. (x *. x *. fn);
    t.view_ok <- false
  end

let add t x = add_n t x ~n:1

let count t = t.len
let total t = t.acc.(0)
let mean t = if t.len = 0 then nan else t.acc.(0) /. float_of_int t.len

let variance t =
  if t.len = 0 then nan
  else
    let m = mean t in
    Float.max 0.0 ((t.acc.(1) /. float_of_int t.len) -. (m *. m))

let stddev t = sqrt (variance t)

let ensure_view t =
  if not t.view_ok then begin
    let slots = Array.make t.distinct 0 in
    let d = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          slots.(!d) <- i;
          incr d
        end)
      t.counts;
    let keys = t.keys in
    Array.sort (fun i j -> Float.compare keys.(i) keys.(j)) slots;
    t.vals <- Array.map (fun i -> keys.(i)) slots;
    let run = ref 0 in
    t.upto <-
      Array.map
        (fun i ->
          run := !run + t.counts.(i);
          !run)
        slots;
    t.view_ok <- true
  end

(* The [k]-th smallest observation (0-based): the first distinct value
   whose run reaches past rank [k]. *)
let nth t k =
  let rec search a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if t.upto.(mid) > k then search a mid else search (mid + 1) b
  in
  t.vals.(search 0 (t.distinct - 1))

let min_value t =
  if t.len = 0 then nan
  else begin
    ensure_view t;
    nth t 0
  end

let max_value t =
  if t.len = 0 then nan
  else begin
    ensure_view t;
    nth t (t.len - 1)
  end

let percentile t p =
  if t.len = 0 then nan
  else begin
    ensure_view t;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then nth t lo
    else
      let frac = rank -. float_of_int lo in
      nth t lo +. (frac *. (nth t hi -. nth t lo))
  end

let median t = percentile t 50.0

(* The observations [<= x]: a binary search for the upper bound over
   the ranks. *)
let count_le t x =
  let rec search a b =
    if a >= b then a
    else
      let mid = (a + b) / 2 in
      if nth t mid <= x then search (mid + 1) b else search a mid
  in
  search 0 t.len

let cdf t ~points =
  if t.len = 0 || points <= 0 then []
  else begin
    ensure_view t;
    let lo = nth t 0 and hi = nth t (t.len - 1) in
    let step = if points = 1 then 0.0 else (hi -. lo) /. float_of_int (points - 1) in
    List.init points (fun i ->
        let x = lo +. (float_of_int i *. step) in
        (x, float_of_int (count_le t x) /. float_of_int t.len))
  end

let fraction_above t x =
  if t.len = 0 then nan
  else begin
    ensure_view t;
    float_of_int (t.len - count_le t x) /. float_of_int t.len
  end

let histogram t ~bins =
  if t.len = 0 || bins <= 0 then []
  else begin
    ensure_view t;
    let lo = nth t 0 and hi = nth t (t.len - 1) in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    Array.iteri
      (fun r v ->
        let b = int_of_float ((v -. lo) /. width) in
        let b = if b >= bins then bins - 1 else b in
        counts.(b) <- counts.(b) + (t.upto.(r) - if r = 0 then 0 else t.upto.(r - 1)))
      t.vals;
    List.init bins (fun b ->
        (lo +. (float_of_int b *. width), lo +. (float_of_int (b + 1) *. width), counts.(b)))
  end
