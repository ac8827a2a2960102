(** Random-variate distributions used by the traffic generators.

    Each sampler takes the {!Prng.t} explicitly so the caller controls
    which stream the draw comes from. *)

val exponential : Prng.t -> mean:float -> float
(** Exponential variate with the given mean. *)

val uniform : Prng.t -> lo:float -> hi:float -> float
(** Uniform variate in [\[lo, hi)]. *)

val pareto : Prng.t -> shape:float -> scale:float -> float
(** Pareto (type I) variate: minimum value [scale], tail index
    [shape].  Heavy-tailed for [shape <= 2]. *)

val bounded_pareto : Prng.t -> shape:float -> lo:float -> hi:float -> float
(** Pareto variate truncated to [\[lo, hi\]] by inverse-CDF sampling of
    the bounded distribution (no rejection). *)

val lognormal : Prng.t -> mu:float -> sigma:float -> float
(** Log-normal variate with parameters of the underlying normal. *)

val normal : Prng.t -> mean:float -> stddev:float -> float
(** Normal variate (Box–Muller). *)

val zipf : Prng.t -> n:int -> s:float -> int
(** Zipf-distributed rank in [\[1, n\]] with exponent [s], sampled by
    inversion over the precomputed normalization (O(log n) per draw
    after an O(n) table build per call site is avoided by a small
    internal cache keyed on [(n, s)]). *)

val empirical : Prng.t -> points:(float * float) array -> float
(** [empirical g ~points] samples from the CDF given as
    [(value, cumulative_probability)] pairs sorted by probability, with
    linear interpolation between points.  The final pair must have
    cumulative probability [1.0]. *)

val weighted_index : Prng.t -> weights:float array -> int
(** Index [i] chosen with probability proportional to [weights.(i)].
    Weights must be non-negative and not all zero. *)

(** {1 First-class distribution specs}

    A {!spec} is a pure, serializable description of a distribution —
    the pluggable jitter model of {!Faults} impairment profiles.  Specs
    survive a print/parse round trip bit-identically (parameters print
    as hex-float literals), which is what lets a failing chaos-soak
    seed print a fault plan that re-runs verbatim. *)

type spec =
  | Constant of float
  | Uniform_spec of { lo : float; hi : float }
  | Exponential_spec of { mean : float }
  | Normal_spec of { mean : float; stddev : float }
  | Lognormal_spec of { mu : float; sigma : float }
  | Pareto_spec of { shape : float; lo : float; hi : float }
      (** Bounded Pareto on [\[lo, hi\]] (see {!bounded_pareto}). *)

val sample : Prng.t -> spec -> float
(** Draw one variate; dispatches to the matching sampler above. *)

val support : spec -> float * float
(** [(lo, hi)] bounds every {!sample} draw falls within (possibly
    infinite for unbounded distributions). *)

val spec_to_string : spec -> string
(** Compact textual form, e.g. ["uniform(0x1p-3,0x1p-1)"]. *)

val spec_of_string : string -> spec
(** Inverse of {!spec_to_string}; raises [Failure] on malformed input.
    [spec_of_string (spec_to_string s) = s] for every [s]. *)
