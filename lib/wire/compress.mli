(** LZ-style compression for state transfers.

    The paper's controller profile (§8.3) shows that move latency is
    dominated by socket reads and that compressing state by 38% cuts a
    500-chunk move from 110 ms to 70 ms.  This module provides a real
    (self-contained) LZSS compressor so the compression bench measures
    an actual ratio on actual serialized state rather than assuming
    one.

    The format is groups of 8 tokens, each group led by a flag byte; a
    token is a literal byte or a two-byte back-reference (a 12-bit
    offset into a 4 KiB window, a 4-bit length of 3 to 18).  The match
    rule is part of the contract, so equal inputs give equal bytes
    whatever the implementation: at each position the encoder takes the
    longest match among the 32 most recent earlier positions inside the
    window that share the position's 15-bit hash of its next three
    bytes, capped at 18 bytes and at the input's end, the most recent
    one on a tie, and emits a literal when no match reaches 3 bytes. *)

type workspace
(** Reusable compressor scratch state: the 32 K-entry hash-chain head
    array, the window-sized chain links and the output buffer.  A
    workspace makes repeated calls allocation-free apart from the
    result string: chain positions are offset by a base that each call
    advances, so a new input starts with no clearing.  One workspace
    serves one call at a time: domains compressing at once each need
    their own. *)

val create_workspace : unit -> workspace

val compress_with : workspace -> string -> string
(** [compress_with ws s] is {!compress}[ s] computed with [ws]'s
    scratch state, and returned as a fresh string: what [ws] holds is
    rewritten by its next call.  The output is byte-for-byte identical
    to a fresh workspace's (prior inputs never leak into the encoding),
    so either side of a transfer may reuse or not reuse workspaces
    freely. *)

val compress : string -> string
(** [compress s] is an LZSS encoding of [s], computed in the calling
    domain's own workspace and returned as a fresh string.  Worst case
    it is slightly larger than the input (one flag bit per literal
    byte). *)

val compressed_size : string -> int
(** [compressed_size s] is [String.length (compress s)].  It encodes [s]
    into the calling domain's own workspace and leaves the encoding
    there, without copying it out, until the domain's next compression
    ({!compress}, {!compressed_size} or {!ratio}). *)

val blit_compressed : Bytes.t -> int -> unit
(** [blit_compressed dst pos] copies the encoding the calling domain's
    last {!compressed_size} left in its workspace into [dst] at [pos]:
    [compressed_size s] bytes of {!compress}[ s].  Raises
    [Invalid_argument] if they do not fit. *)

val decompress : string -> string
(** Inverse of {!compress}.  Raises [Invalid_argument] on input that
    was not produced by {!compress}. *)

val decompress_from : string -> pos:int -> string
(** [decompress_from s ~pos] is [decompress] of the suffix of [s] from
    byte [pos], read in place. *)

val decompress_sub : string -> pos:int -> stop:int -> string
(** [decompress_sub s ~pos ~stop] is [decompress] of the bytes of [s]
    in [\[pos, stop)], read in place.  Raises [Invalid_argument] as
    {!decompress} does, and if [stop] is past the end of [s].  Every
    decompression decodes into the calling domain's own output scratch,
    which is not a compressor's, and returns a fresh copy: nothing it
    returns is overwritten later. *)

val ratio : string -> float
(** [ratio s] is [1 - compressed_size s / length s]: the fraction of
    bytes saved (0 for incompressible input, approaching 1 for highly
    redundant input).  Returns [0.] for the empty string. *)
