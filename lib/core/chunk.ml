type t = {
  mb_kind : string;
  role : Taxonomy.role;
  partition : Taxonomy.partition;
  key : Openmb_net.Hfl.t;
  cipher : string;
}

let magic = "OMB1"
let magic_len = String.length magic

(* Keystream: SplitMix64 seeded from a hash of the MB kind, standing in
   for a per-vendor symmetric key.  The seed is hashed once per kind and
   domain, not rebuilt from the kind's name on every seal and unseal. *)
let seeds : (string, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let seed mb_kind =
  let memo = Domain.DLS.get seeds in
  match Hashtbl.find memo mb_kind with
  | s -> s
  | exception Not_found ->
    let s = Hashtbl.hash ("vendor-secret:" ^ mb_kind) in
    Hashtbl.add memo mb_kind s;
    s

let compression_enabled = ref false

(* The sealed bytes, [magic ^ flag ^ body], assembled straight into the
   output and encrypted in place: one allocation per seal. *)
let framed ~flag n =
  let buf = Bytes.create (magic_len + 1 + n) in
  Bytes.blit_string magic 0 buf 0 magic_len;
  Bytes.set buf magic_len flag;
  buf

let sealed ~mb_kind buf =
  Openmb_sim.Prng.xor_stream ~seed:(seed mb_kind) buf;
  Bytes.unsafe_to_string buf

let seal_plain ~mb_kind plain =
  let buf = framed ~flag:'R' (String.length plain) in
  Bytes.blit_string plain 0 buf (magic_len + 1) (String.length plain);
  sealed ~mb_kind buf

(* Compress-then-encrypt: the XOR keystream destroys redundancy, so any
   compression must happen on the plaintext.  A flag byte after the
   magic records whether the body is compressed.  The compressor's
   output is copied from its workspace straight into the sealed bytes,
   not into a string first. *)
let seal ~mb_kind ~role ~partition ~key ~plain =
  let cipher =
    if !compression_enabled then begin
      let n = Openmb_wire.Compress.compressed_size plain in
      if n < String.length plain then begin
        let buf = framed ~flag:'C' n in
        Openmb_wire.Compress.blit_compressed buf (magic_len + 1);
        sealed ~mb_kind buf
      end
      else seal_plain ~mb_kind plain
    end
    else seal_plain ~mb_kind plain
  in
  { mb_kind; role; partition; key; cipher }

(* [magic] starts [buf]; checked in place. *)
let rec magic_at buf i = i = magic_len || (Bytes.get buf i = magic.[i] && magic_at buf (i + 1))

(* Decryption scratch, one per domain and grown to the largest chunk
   seen: a chunk decrypts into it and its body is read straight out, so
   an unseal allocates only the plaintext it returns. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

let scratch_for n =
  let r = Domain.DLS.get scratch in
  if Bytes.length !r < n then r := Bytes.create (max n (2 * Bytes.length !r));
  !r

let unseal ~mb_kind t =
  let n = String.length t.cipher in
  let buf = scratch_for n in
  Openmb_sim.Prng.xor_into ~seed:(seed mb_kind) t.cipher buf;
  if n > magic_len && magic_at buf 0 then begin
    let body = magic_len + 1 in
    match Bytes.get buf magic_len with
    | 'R' -> Ok (Bytes.sub_string buf body (n - body))
    | 'C' -> (
      (* Read only, and not kept past the call. *)
      match Openmb_wire.Compress.decompress_sub (Bytes.unsafe_to_string buf) ~pos:body ~stop:n with
      | s -> Ok s
      | exception Invalid_argument _ ->
        Error (Errors.Bad_chunk "corrupt compressed chunk body"))
    | _ -> Error (Errors.Bad_chunk "corrupt chunk framing")
  end
  else
    Error
      (Errors.Bad_chunk
         (Printf.sprintf "cannot unseal %s chunk with kind %s key" t.mb_kind mb_kind))

let size_bytes t = String.length t.cipher

(* [seal]'s rule: the compressed body when it is smaller. *)
let sealed_size plain =
  let n = String.length plain in
  let body = if !compression_enabled then min n (Openmb_wire.Compress.compressed_size plain) else n in
  magic_len + 1 + body

let describe t =
  Printf.sprintf "%s/%s %s (%dB)"
    (Taxonomy.role_to_string t.role)
    (Taxonomy.partition_to_string t.partition)
    (match t.key with [] -> "<shared>" | key -> Openmb_net.Hfl.to_string key)
    (size_bytes t)
