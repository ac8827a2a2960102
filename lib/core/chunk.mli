(** Opaque state chunks.

    Per-flow state is exported as [⟨HeaderFieldList⟩ : ⟨EncryptedChunk⟩]
    pairs and shared state as a single encrypted chunk (§4.1.2).
    Encryption lets MBs conceal the syntax and semantics of their
    internal structures from the controller and control applications
    while still allowing a same-kind MB to import the state.

    The sealing here is a real (if deliberately lightweight) XOR
    keystream derived from the MB kind's vendor secret: the controller
    cannot read chunk contents, and unsealing with the wrong kind is
    detected by a magic prefix check rather than silently yielding
    garbage. *)

type t = {
  mb_kind : string;  (** MB type able to unseal this chunk. *)
  role : Taxonomy.role;
  partition : Taxonomy.partition;
  key : Openmb_net.Hfl.t;
      (** State key for per-flow chunks; [Hfl.any] for shared chunks. *)
  cipher : string;  (** Sealed serialized state. *)
}

val compression_enabled : bool ref
(** When set, {!seal} compresses the plaintext (compress-then-encrypt)
    before sealing, shrinking transfer sizes — the §8.3 optimization.
    Off by default.  Unsealing handles both forms transparently. *)

val seal :
  mb_kind:string ->
  role:Taxonomy.role ->
  partition:Taxonomy.partition ->
  key:Openmb_net.Hfl.t ->
  plain:string ->
  t
(** Encrypt [plain] under [mb_kind]'s keystream, compressing first when
    {!compression_enabled} is set. *)

val unseal : mb_kind:string -> t -> (string, Errors.t) result
(** Recover the plaintext.  Returns [Error (Bad_chunk _)] when
    [mb_kind] differs from the sealing kind or the ciphertext is
    corrupt. *)

val size_bytes : t -> int
(** Wire size of the chunk body (ciphertext length). *)

val sealed_size : string -> int
(** [sealed_size plain] is the {!size_bytes} of [plain] sealed now,
    counted without compressing into a buffer or encrypting. *)

val describe : t -> string
(** One-line ["supporting/per-flow nw_src=... (1234B)"] summary — all
    the controller is allowed to know. *)
