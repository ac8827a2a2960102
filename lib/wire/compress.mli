(** LZ-style compression for state transfers.

    The paper's controller profile (§8.3) shows that move latency is
    dominated by socket reads and that compressing state by 38% cuts a
    500-chunk move from 110 ms to 70 ms.  This module provides a real
    (self-contained) LZSS compressor so the compression bench measures
    an actual ratio on actual serialized state rather than assuming
    one. *)

type workspace
(** Reusable compressor scratch state: the 32 K-entry hash-chain head
    array, the window-sized chain links and the output buffer.  A
    workspace makes repeated calls allocation-free apart from the
    result string — resetting between inputs is O(1) (an epoch bump),
    not a 32 K-word clear — which is what lets a 1000-chunk transfer
    compress every chunk without re-paying the table setup.  One
    workspace serves one call at a time: domains compressing at once
    each need their own. *)

val create_workspace : unit -> workspace

val compress_with : workspace -> string -> string
(** [compress_with ws s] is {!compress}[ s] computed with [ws]'s
    scratch state.  The output is byte-for-byte identical to a fresh
    workspace's (prior inputs never leak into the encoding), so either
    side of a transfer may reuse or not reuse workspaces freely. *)

val compress : string -> string
(** [compress s] is an LZSS encoding of [s], using the calling domain's
    own internal workspace.  Worst case it is slightly larger than the
    input (one flag bit per literal byte). *)

val decompress : string -> string
(** Inverse of {!compress}.  Raises [Invalid_argument] on input that
    was not produced by {!compress}. *)

val decompress_from : string -> pos:int -> string
(** [decompress_from s ~pos] is [decompress] of the suffix of [s] from
    byte [pos], read in place. *)

val decompress_sub : string -> pos:int -> stop:int -> string
(** [decompress_sub s ~pos ~stop] is [decompress] of the bytes of [s]
    in [\[pos, stop)], read in place.  Raises [Invalid_argument] as
    {!decompress} does, and if [stop] is past the end of [s]. *)

val compress_scratch : string -> Buffer.t
(** [compress_scratch s] encodes [s] with the calling domain's own
    workspace and returns the workspace's output buffer, which holds
    {!compress}[ s] until the domain's next compression: copy out what
    must outlive that. *)

val compressed_size : string -> int
(** [compressed_size s] is [String.length (compress s)] without
    materializing the output string. *)

val ratio : string -> float
(** [ratio s] is [1 - compressed_size s / length s]: the fraction of
    bytes saved (0 for incompressible input, approaching 1 for highly
    redundant input).  Returns [0.] for the empty string. *)
