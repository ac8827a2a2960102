(* SplitMix64 (Steele, Lea & Flood 2014): tiny state, excellent
   statistical quality for simulation purposes, and trivially
   splittable. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g = { state = mix (bits64 g) }

(* The stream of [create ~seed] consumed LSB-first, so eight stream
   bytes are one [bits64] output read little-endian.  The state is a
   local [int64] the compiler keeps unboxed, where [bits64] boxes its
   result and the stored state on every step.  [src] is only read, so a
   string may stand in for it. *)
let xor_blocks ~seed src dst n =
  let state = ref (mix (Int64.of_int seed)) in
  let blocks = n / 8 in
  for b = 0 to blocks - 1 do
    state := Int64.add !state golden_gamma;
    let off = b * 8 in
    Bytes.set_int64_le dst off (Int64.logxor (Bytes.get_int64_le src off) (mix !state))
  done;
  if n land 7 <> 0 then begin
    state := Int64.add !state golden_gamma;
    let block = ref (mix !state) in
    for i = blocks * 8 to n - 1 do
      Bytes.set dst i
        (Char.unsafe_chr (Char.code (Bytes.get src i) lxor (Int64.to_int !block land 0xFF)));
      block := Int64.shift_right_logical !block 8
    done
  end

let xor_stream ~seed buf = xor_blocks ~seed buf buf (Bytes.length buf)

let xor_into ~seed src dst =
  if Bytes.length dst < String.length src then invalid_arg "Prng.xor_into: destination too short";
  xor_blocks ~seed (Bytes.unsafe_of_string src) dst (String.length src)

let int g bound =
  assert (bound > 0);
  (* Drop two bits so the value fits OCaml's 63-bit int without
     touching the sign bit. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  r mod bound

let int_in g lo hi =
  assert (lo <= hi);
  lo + int g (hi - lo + 1)

let float g bound =
  (* 53 uniform mantissa bits. *)
  let r = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  r /. 9007199254740992.0 *. bound

let bool g = Int64.logand (bits64 g) 1L = 1L

let chance g p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float g 1.0 < p

let choose g a =
  assert (Array.length a > 0);
  a.(int g (Array.length a))
