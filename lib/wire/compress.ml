(* LZSS with a 4 KiB sliding window and 3-byte hash-chain match
   finding.  Output format: groups of 8 tokens preceded by a flag byte;
   bit i set means token i is a (offset, length) back-reference encoded
   in two bytes (12-bit offset, 4-bit length-3), clear means a literal
   byte.

   The match rule is part of the format's contract, since a transfer's
   bytes follow from it: at each position, the longest match (up to
   [max_match] and the input's end) among the [chain_tries] most recent
   earlier positions in the window sharing its 15-bit hash, the most
   recent on a tie; shorter than [min_match], a literal. *)

let window_size = 4096
let min_match = 3
let max_match = 18 (* 4-bit length field stores length - min_match *)
let chain_tries = 32

(* A position's 15-bit hash covers its next three bytes, and rolls:
   [roll h c] drops the oldest of [h]'s bytes and takes [c]. *)
let roll h c = ((h lsl 5) lxor Char.code c) land 32767

(* The hash of the three bytes from [i]; callers check [i + 2 < n]. *)
let[@inline] hash3 s i =
  roll (roll (Char.code (String.unsafe_get s i)) (String.unsafe_get s (i + 1)))
    (String.unsafe_get s (i + 2))

(* A reusable workspace.  Chains hold positions offset by [base], which
   each call advances by its input's length: a value below [base] is an
   earlier call's and reads as empty, so a new input needs no clearing.
   [out] holds the latest encoding in its first [len] bytes. *)
type workspace = {
  head : int array;  (* head.(h) = most recent position with hash h *)
  prev : int array;  (* prev.(p mod window) = the position before p on its chain *)
  mutable base : int;
  mutable out : Bytes.t;
  mutable len : int;
}

let create_workspace () =
  { head = Array.make 32768 (-1); prev = Array.make window_size (-1); base = 0;
    out = Bytes.create 512; len = 0 }

(* Link position [q] (base-offset) into chain [h]; both indices are masked into range. *)
let[@inline] link ws h q =
  Array.unsafe_set ws.prev (q land (window_size - 1)) (Array.unsafe_get ws.head h);
  Array.unsafe_set ws.head h q

(* The match for [pos], whose three bytes hash to [h], packed as
   [offset lsl 5 lor length] (0 for none), so it allocates nothing.  Two
   shortcuts keep the rule's match: a candidate whose byte at the best
   length so far differs cannot be longer, so it is counted unread, and
   the walk stops at a match as long as [pos] allows. *)
let[@inline] find_match ws input n base pos h =
  let max_here = Int.min max_match (n - pos) in
  (* Chain values in (lo, hi) are this call's positions in the window. *)
  let lo = Int.max (base - 1) (base + pos - window_size) and hi = base + pos in
  let best_len = ref 0 and best_off = ref 0 in
  let c = ref (Array.unsafe_get ws.head h) and tries = ref chain_tries in
  while !c > lo && !c < hi && !tries > 0 && !best_len < max_here do
    (* 0 <= cand < pos, and every length read is below [max_here]: both
       sides' indices stay below [pos + max_here <= n]. *)
    let cand = !c - base and b = !best_len in
    if String.unsafe_get input (cand + b) = String.unsafe_get input (pos + b) then begin
      let len = ref 0 in
      while
        !len < max_here
        && String.unsafe_get input (cand + !len) = String.unsafe_get input (pos + !len)
      do
        incr len
      done;
      if !len > b then begin
        best_len := !len;
        best_off := pos - cand
      end
    end;
    c := Array.unsafe_get ws.prev (!c land (window_size - 1));
    decr tries
  done;
  if !best_len >= min_match then (!best_off lsl 5) lor !best_len else 0

(* [compress_to ws input] encodes [input] into [ws.out] and sets
   [ws.len].  Tokens go straight after their group's flag byte, patched
   once the group is done.  No token writes more bytes than it consumes,
   so the output fits in [worst], the size [out] is grown to first. *)
let compress_to ws input =
  let n = String.length input in
  let worst = n + ((n + 7) / 8) in
  if Bytes.length ws.out < worst then
    ws.out <- Bytes.create (Int.max worst (2 * Bytes.length ws.out));
  let out = ws.out and base = ws.base in
  ws.base <- base + n;
  let pos = ref 0 and o = ref 0 in
  while !pos < n do
    let flag_at = !o and flags = ref 0 and k = ref 0 in
    o := flag_at + 1;
    while !k < 8 && !pos < n do
      let p = !pos in
      (* Fewer than three bytes left: a literal, and no chain. *)
      let h = if p + min_match <= n then hash3 input p else -1 in
      let m = if h < 0 then 0 else find_match ws input n base p h in
      if m <> 0 then begin
        let off = m lsr 5 and len = m land 31 in
        flags := !flags lor (1 lsl !k);
        (* 12-bit offset (1..4095), 4-bit length - min_match. *)
        Bytes.unsafe_set out !o (Char.unsafe_chr (off lsr 4));
        Bytes.unsafe_set out (!o + 1)
          (Char.unsafe_chr (((off land 0xF) lsl 4) lor (len - min_match)));
        o := !o + 2;
        (* Link the matched positions three bytes follow, rolling the
           hash from [q]'s to [q + 1]'s: [q + 3 <= last + 2 < n]. *)
        let h = ref h and last = Int.min (p + len - 1) (n - min_match) in
        for q = p to last do
          link ws !h (base + q);
          if q < last then h := roll !h (String.unsafe_get input (q + 3))
        done;
        pos := p + len
      end
      else begin
        Bytes.unsafe_set out !o (String.unsafe_get input p);
        incr o;
        if h >= 0 then link ws h (base + p);
        pos := p + 1
      end;
      incr k
    done;
    Bytes.unsafe_set out flag_at (Char.unsafe_chr !flags)
  done;
  ws.len <- !o

let compress_with ws input =
  compress_to ws input;
  Bytes.sub_string ws.out 0 ws.len

(* The plain entry points' workspace, one per domain (domains must not
   share one), made on a domain's first use. *)
let default_workspace = Domain.DLS.new_key create_workspace

let compress input = compress_with (Domain.DLS.get default_workspace) input

let compressed_size input =
  let ws = Domain.DLS.get default_workspace in
  compress_to ws input;
  ws.len

let blit_compressed dst pos =
  let ws = Domain.DLS.get default_workspace in
  Bytes.blit ws.out 0 dst pos ws.len

(* The decoder's output scratch, one per domain and its own, grown to
   the longest output decoded: a call decodes into it in one pass and
   copies the result out once. *)
let decode_scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

let decompress_sub input ~pos ~stop:n =
  if pos < 0 || n > String.length input then invalid_arg "Compress.decompress_sub";
  let scratch = Domain.DLS.get decode_scratch in
  let pos = ref pos and o = ref 0 in
  while !pos < n do
    (* Room for the group's writes: 8 tokens of up to [max_match] bytes. *)
    if Bytes.length !scratch < !o + (8 * max_match) then
      scratch := Bytes.extend !scratch 0 (!o + (8 * max_match));
    (* Every input index read is at least 0 and checked below [n]. *)
    let out = !scratch and flags = Char.code (String.unsafe_get input !pos) and k = ref 0 in
    incr pos;
    while !k < 8 && !pos < n do
      if flags land (1 lsl !k) <> 0 then begin
        if !pos + 1 >= n then invalid_arg "Compress.decompress: truncated input";
        let b1 = Char.code (String.unsafe_get input !pos)
        and b2 = Char.code (String.unsafe_get input (!pos + 1)) in
        pos := !pos + 2;
        let off = (b1 lsl 4) lor (b2 lsr 4) and o0 = !o in
        if off = 0 || off > o0 then invalid_arg "Compress.decompress: bad back-reference";
        o := o0 + (b2 land 0xF) + min_match;
        (* Byte by byte: a reference may overlap the bytes it writes. *)
        for i = o0 to !o - 1 do
          Bytes.unsafe_set out i (Bytes.unsafe_get out (i - off))
        done
      end
      else begin
        Bytes.unsafe_set out !o (String.unsafe_get input !pos);
        incr pos;
        incr o
      end;
      incr k
    done
  done;
  Bytes.sub_string !scratch 0 !o

let decompress_from input ~pos = decompress_sub input ~pos ~stop:(String.length input)
let decompress input = decompress_from input ~pos:0

let ratio s =
  let n = String.length s in
  if n = 0 then 0.0
  else Float.max 0.0 (1.0 -. (float_of_int (compressed_size s) /. float_of_int n))
