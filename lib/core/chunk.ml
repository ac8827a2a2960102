type t = {
  mb_kind : string;
  role : Taxonomy.role;
  partition : Taxonomy.partition;
  key : Openmb_net.Hfl.t;
  cipher : string;
}

let magic = "OMB1"

(* Keystream: SplitMix64 seeded from a hash of the MB kind, standing in
   for a per-vendor symmetric key, applied in place. *)
let xor_inplace ~mb_kind buf =
  Openmb_sim.Prng.xor_stream ~seed:(Hashtbl.hash ("vendor-secret:" ^ mb_kind)) buf

let compression_enabled = ref false

let magic_len = String.length magic

(* Assemble [magic ^ flag ^ body] straight into the output bytes and
   encrypt in place: one allocation per seal, no intermediate
   concatenations. *)
let seal_body ~mb_kind ~flag body =
  let n = magic_len + 1 + String.length body in
  let buf = Bytes.create n in
  Bytes.blit_string magic 0 buf 0 magic_len;
  Bytes.set buf magic_len flag;
  Bytes.blit_string body 0 buf (magic_len + 1) (String.length body);
  xor_inplace ~mb_kind buf;
  Bytes.unsafe_to_string buf

let seal ~mb_kind ~role ~partition ~key ~plain =
  (* Compress-then-encrypt: the XOR keystream destroys redundancy, so
     any compression must happen on the plaintext.  A flag byte after
     the magic records whether the body is compressed. *)
  let cipher =
    if !compression_enabled then begin
      let c = Openmb_wire.Compress.compress plain in
      if String.length c < String.length plain then seal_body ~mb_kind ~flag:'C' c
      else seal_body ~mb_kind ~flag:'R' plain
    end
    else seal_body ~mb_kind ~flag:'R' plain
  in
  { mb_kind; role; partition; key; cipher }

(* [magic] starts [buf]; checked in place. *)
let rec magic_at buf i = i = magic_len || (Bytes.get buf i = magic.[i] && magic_at buf (i + 1))

(* Decrypt into one buffer, check the framing there, and read the body
   straight out of it. *)
let unseal ~mb_kind t =
  let buf = Bytes.of_string t.cipher in
  xor_inplace ~mb_kind buf;
  if Bytes.length buf > magic_len && magic_at buf 0 then begin
    let plain = Bytes.unsafe_to_string buf in
    let body = magic_len + 1 in
    match plain.[magic_len] with
    | 'R' -> Ok (String.sub plain body (String.length plain - body))
    | 'C' -> (
      match Openmb_wire.Compress.decompress_from plain ~pos:body with
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

let describe t =
  Printf.sprintf "%s/%s %s (%dB)"
    (Taxonomy.role_to_string t.role)
    (Taxonomy.partition_to_string t.partition)
    (match t.key with [] -> "<shared>" | key -> Openmb_net.Hfl.to_string key)
    (size_bytes t)
