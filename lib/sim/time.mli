(** Simulated time.

    Time is represented as a [float] number of seconds since the start of
    the simulation.  All OpenMB latencies and delays are expressed in this
    unit; helper constructors are provided for the sub-second magnitudes
    the paper reports (milliseconds for API-call processing, microseconds
    for per-packet costs).

    The conversions, the order and the arithmetic are [external]
    compiler primitives rather than functions.  The project builds with
    [-opaque] (dune's default profile), so no call into another module
    is inlined and every float that crosses a module boundary is boxed;
    a primitive is expanded at each call site instead, on unboxed
    floats. *)

type t = float
(** A point in simulated time, in seconds.  Always non-negative. *)

val zero : t
(** The simulation epoch. *)

external seconds : float -> t = "%identity"
(** [seconds s] is the duration of [s] seconds. *)

val ms : float -> t
(** [ms m] is the duration of [m] milliseconds. *)

val us : float -> t
(** [us u] is the duration of [u] microseconds. *)

external to_seconds : t -> float = "%identity"
(** [to_seconds t] is [t] expressed in seconds. *)

val to_ms : t -> float
(** [to_ms t] is [t] expressed in milliseconds. *)

val to_us : t -> float
(** [to_us t] is [t] expressed in microseconds. *)

external compare : t -> t -> int = "%compare"
(** Total order on time points. *)

external ( + ) : t -> t -> t = "%addfloat"
(** Sum of a time point and a duration (or two durations). *)

external ( - ) : t -> t -> t = "%subfloat"
(** Difference of two time points; may be negative for out-of-order
    arguments. *)

val max : t -> t -> t
(** Later of two time points. *)

val min : t -> t -> t
(** Earlier of two time points. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints [t] with millisecond precision, e.g. ["12.345s"]. *)
