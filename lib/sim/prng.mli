(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulation — traffic generators,
    payload content, jitter — draws from an explicit [Prng.t] so that a
    run is fully reproducible from its seed.  Generators can be [split]
    to give independent streams to independent components without the
    draw order of one perturbing the other. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a fresh generator determined entirely by [seed]. *)

val split : t -> t
(** [split g] is a new generator whose stream is independent of
    subsequent draws from [g]; it advances [g] by one step. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val xor_stream : seed:int -> Bytes.t -> unit
(** [xor_stream ~seed buf] XORs [buf] in place with the byte stream of
    [create ~seed]: each {!bits64} output in turn, eight bytes
    little-endian, the last one cut to [buf]'s length.  Allocates
    nothing. *)

val xor_into : seed:int -> string -> Bytes.t -> unit
(** [xor_into ~seed src dst] writes [src] XORed with the same stream
    into the first [String.length src] bytes of [dst]: {!xor_stream} of
    a copy of [src], in one pass and without the copy.  Raises
    [Invalid_argument] if [dst] is shorter than [src]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] inclusive; requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val chance : t -> float -> bool
(** [chance g p] is [true] with probability [p] (clamped to
    [\[0, 1\]]). *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
