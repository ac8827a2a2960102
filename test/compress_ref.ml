(* The LZSS kernel as it stood before its inner loops were rewritten,
   frozen as the reference that test_chaos compares [Compress] against
   byte for byte: the compressor (hash-chain match finding with an
   epoch-stamped head array and a separate group buffer) and the
   decoder (a sizing pass, then a decode into a string of exactly that
   length).  It stays as it is when the library changes: the library
   is what it checks. *)

let window_size = 4096
let min_match = 3
let max_match = 18

let hash3 s i =
  (Char.code s.[i] lsl 10) lxor (Char.code s.[i + 1] lsl 5) lxor Char.code s.[i + 2]

type workspace = {
  head : int array;
  stamp : int array;
  prev : int array;
  mutable epoch : int;
  out : Buffer.t;
  group : Buffer.t;
}

let create_workspace () =
  {
    head = Array.make 32768 (-1);
    stamp = Array.make 32768 (-1);
    prev = Array.make window_size (-1);
    epoch = 0;
    out = Buffer.create 512;
    group = Buffer.create 17;
  }

let head_get ws h = if ws.stamp.(h) = ws.epoch then ws.head.(h) else -1

let insert ws input n pos =
  if pos + min_match <= n then begin
    let h = hash3 input pos land 32767 in
    ws.prev.(pos land (window_size - 1)) <- head_get ws h;
    ws.head.(h) <- pos;
    ws.stamp.(h) <- ws.epoch
  end

let find_match ws input n pos =
  if pos + min_match > n then 0
  else begin
    let h = hash3 input pos land 32767 in
    let limit = pos - window_size in
    let max_here = min max_match (n - pos) in
    let best_len = ref 0 and best_off = ref 0 in
    let candidate = ref (head_get ws h) in
    let tries = ref 32 in
    while !candidate >= 0 && !candidate > limit && !tries > 0 do
      let cand = !candidate in
      let len = ref 0 in
      while !len < max_here && input.[cand + !len] = input.[pos + !len] do
        incr len
      done;
      if !len > !best_len then begin
        best_len := !len;
        best_off := pos - cand
      end;
      candidate := ws.prev.(cand land (window_size - 1));
      decr tries
    done;
    if !best_len >= min_match then (!best_off lsl 5) lor !best_len else 0
  end

let flush_group ws flags =
  Buffer.add_char ws.out (Char.chr flags);
  Buffer.add_buffer ws.out ws.group;
  Buffer.clear ws.group

let compress_to ws input =
  let n = String.length input in
  Buffer.clear ws.out;
  Buffer.clear ws.group;
  ws.epoch <- ws.epoch + 1;
  let pos = ref 0 and flags = ref 0 and count = ref 0 in
  while !pos < n do
    let m = find_match ws input n !pos in
    if m <> 0 then begin
      let off = m lsr 5 and len = m land 31 in
      flags := !flags lor (1 lsl !count);
      Buffer.add_char ws.group (Char.chr ((off lsr 4) land 0xFF));
      Buffer.add_char ws.group (Char.chr (((off land 0xF) lsl 4) lor (len - min_match)));
      for k = 0 to len - 1 do
        insert ws input n (!pos + k)
      done;
      pos := !pos + len
    end
    else begin
      Buffer.add_char ws.group input.[!pos];
      insert ws input n !pos;
      incr pos
    end;
    incr count;
    if !count = 8 then begin
      flush_group ws !flags;
      flags := 0;
      count := 0
    end
  done;
  if !count > 0 then flush_group ws !flags

let compress_with ws input =
  compress_to ws input;
  Buffer.contents ws.out

let default_workspace = Domain.DLS.new_key create_workspace
let compress input = compress_with (Domain.DLS.get default_workspace) input

let rec decoded_length input n pos acc =
  if pos >= n then acc
  else group_length input n (Char.code input.[pos]) 0 (pos + 1) acc

and group_length input n flags k pos acc =
  if k = 8 || pos >= n then decoded_length input n pos acc
  else if flags land (1 lsl k) = 0 then group_length input n flags (k + 1) (pos + 1) (acc + 1)
  else if pos + 1 >= n then invalid_arg "Compress.decompress: truncated input"
  else
    group_length input n flags (k + 1) (pos + 2)
      (acc + (Char.code input.[pos + 1] land 0xF) + min_match)

let decompress_sub input ~pos ~stop:n =
  if pos < 0 || n > String.length input then invalid_arg "Compress.decompress_sub";
  let out = Bytes.create (decoded_length input n pos 0) in
  let pos = ref pos and o = ref 0 in
  while !pos < n do
    let flags = Char.code input.[!pos] in
    incr pos;
    let k = ref 0 in
    while !k < 8 && !pos < n do
      if flags land (1 lsl !k) <> 0 then begin
        let b1 = Char.code input.[!pos] and b2 = Char.code input.[!pos + 1] in
        pos := !pos + 2;
        let off = (b1 lsl 4) lor (b2 lsr 4) in
        if off = 0 || off > !o then invalid_arg "Compress.decompress: bad back-reference";
        for _ = 1 to (b2 land 0xF) + min_match do
          Bytes.set out !o (Bytes.get out (!o - off));
          incr o
        done
      end
      else begin
        Bytes.set out !o input.[!pos];
        incr pos;
        incr o
      end;
      incr k
    done
  done;
  Bytes.unsafe_to_string out
