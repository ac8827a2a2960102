exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

type sink = Buffer.t

let buffer_sink buf = buf
let u8 k v = Buffer.add_char k (Char.unsafe_chr (v land 0xFF))
let u16 k v = Buffer.add_uint16_be k (v land 0xFFFF)
let u32 k v = Buffer.add_int32_be k (Int32.of_int v)

(* Base-128 emitter over the raw (two's-complement) bit pattern; [lsr]
   makes the loop terminate for any int. *)
let rec base128 k v =
  if v land lnot 0x7F = 0 then u8 k v
  else begin
    u8 k (0x80 lor (v land 0x7F));
    base128 k (v lsr 7)
  end

let uvarint k v =
  if v < 0 then invalid_arg "Binary.uvarint: negative";
  base128 k v

(* Zigzag over OCaml's 63-bit int: sign bit is bit 62. *)
let varint k v = base128 k ((v lsl 1) lxor (v asr 62))
let f64 k v = Buffer.add_int64_be k (Int64.bits_of_float v)

let str k s =
  uvarint k (String.length s);
  Buffer.add_string k s

type reader = { src : string; mutable pos : int }

let reader ?(pos = 0) src = { src; pos }

let get_u8 r =
  if r.pos >= String.length r.src then fail "Binary: truncated input at byte %d" r.pos;
  let c = Char.code (String.unsafe_get r.src r.pos) in
  r.pos <- r.pos + 1;
  c

let get_u16 r =
  let a = get_u8 r in
  (a lsl 8) lor get_u8 r

let get_u32 r =
  let a = get_u16 r in
  (a lsl 16) lor get_u16 r

(* The raw 63-bit pattern: a zigzag varint may use the sign bit. *)
let get_base128 r =
  let rec go shift acc =
    if shift > 62 then fail "Binary: varint overflow at byte %d" r.pos;
    let b = get_u8 r in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let get_uvarint r =
  let v = get_base128 r in
  if v < 0 then fail "Binary: uvarint overflow at byte %d" r.pos;
  v

let get_varint r =
  let u = get_base128 r in
  (u lsr 1) lxor (0 - (u land 1))

let get_f64 r =
  let bits = ref 0L in
  for _ = 0 to 7 do
    bits := Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (get_u8 r))
  done;
  Int64.float_of_bits !bits

let get_str r =
  let n = get_uvarint r in
  if n > String.length r.src - r.pos then
    fail "Binary: string of %d bytes exceeds input at byte %d" n r.pos;
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s
