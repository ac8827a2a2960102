(** Online measurement collection.

    The benches accumulate per-packet latencies, operation durations and
    byte counts into {!t} values and then extract means, percentiles and
    CDF series for the paper's figures. *)

type t
(** A mutable sample accumulator: an exact multiset, holding each
    distinct value once with its count.  Memory grows with the distinct
    values, not the observations; recording a value already present
    allocates nothing.  Every query answers exactly as it would over
    the sorted array of all observations.  Values are told apart by
    their bits, so [-0.0] and [0.0] (or two NaN payloads) are kept
    apart, and their order among themselves is unspecified. *)

val create : unit -> t
(** Fresh empty accumulator. *)

val add : t -> float -> unit
(** Record one observation. *)

val add_n : t -> float -> n:int -> unit
(** [add_n t x ~n] records [n] identical observations of [x] with one
    count update — the batch-path form of {!add}.  [n <= 0] is a
    no-op. *)

val count : t -> int
(** Number of observations recorded. *)

val total : t -> float
(** Sum of all observations. *)

val mean : t -> float
(** Arithmetic mean; [nan] when empty. *)

val variance : t -> float
(** Population variance; [nan] when empty. *)

val stddev : t -> float
(** Population standard deviation; [nan] when empty. *)

val min_value : t -> float
(** Smallest observation; [nan] when empty. *)

val max_value : t -> float
(** Largest observation; [nan] when empty. *)

val percentile : t -> float -> float
(** [percentile t p] is the [p]-th percentile ([0 <= p <= 100]) using
    linear interpolation between closest ranks; [nan] when empty. *)

val median : t -> float
(** 50th percentile. *)

val cdf : t -> points:int -> (float * float) list
(** [cdf t ~points] is an evenly spaced [(value, fraction <= value)]
    series of [points] entries suitable for plotting a CDF. *)

val fraction_above : t -> float -> float
(** [fraction_above t x] is the fraction of observations strictly
    greater than [x]. *)

val histogram : t -> bins:int -> (float * float * int) list
(** [histogram t ~bins] is a list of [(lo, hi, count)] buckets of equal
    width spanning the observed range. *)
