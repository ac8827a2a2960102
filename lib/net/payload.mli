(** Packet payload contents, modelled as content tokens.

    Storing real multi-hundred-megabyte payloads would make the
    redundancy-elimination experiments (500 MB caches) infeasible in
    memory, so payload content is modelled as a sequence of {e content
    tokens}: each token stands for {!token_bytes} bytes of concrete
    content, and two regions are byte-identical iff their token
    sequences are equal.  This preserves exactly the property the RE
    middleboxes depend on — detecting and re-constructing repeated
    content — at 1/16th the storage. *)

val token_bytes : int
(** Number of payload bytes represented by one token (64). *)

type t
(** An immutable payload. *)

val empty : t
(** Zero-length payload. *)

val of_tokens : int array -> t
(** Payload made of the given token sequence (copied). *)

val of_tokens_trailing : int array -> trailing:int -> t
(** Like {!of_tokens} with [trailing] extra literal bytes
    (0 ≤ trailing < {!token_bytes}) that never match any cache
    content. *)

val tokens : t -> int array
(** The token sequence (copy). *)

val token_count : t -> int
(** Number of tokens. *)

val size_bytes : t -> int
(** Total payload size in bytes. *)

val sub : t -> pos:int -> len:int -> t
(** Token subsequence [\[pos, pos+len)]; raises [Invalid_argument] when
    out of range.  Trailing bytes are dropped unless the slice reaches
    the end. *)

val concat : t list -> t
(** Concatenation; any trailing bytes of non-final parts are folded
    into the byte count of the result. *)

val equal : t -> t -> bool
(** Byte-level equality (token sequences and sizes agree). *)

val fingerprint : t -> pos:int -> int
(** Rabin-style fingerprint of the window starting at token [pos]
    (the token value itself — one token is already a content hash of
    its bytes in this model). *)

val pp : Format.formatter -> t -> unit
(** Abbreviated rendering: byte size and first few tokens. *)
