(** Synthetic stand-in for the university data-center capture
    (Benson et al., IMC 2010) used for Figure 8: what matters there is
    the flow-duration distribution — heavy-tailed, with roughly 9% of
    HTTP flows lasting longer than 1500 s, which is what strands a
    deprecated middlebox under config-and-routing-only scale-down. *)

type params = {
  seed : int;
  n_flows : int;
  clients : Openmb_net.Addr.prefix;
  servers : Openmb_net.Addr.prefix;
}

val default_params : params
(** 2000 flows between 10.2.0.0/16 and 10.3.0.0/24. *)

val generate : ?ids:Trace.Id_gen.gen -> params -> Trace.t
(** Flows all start in the first minute (so scale-down at t=60 s sees
    them all active); each carries a handful of packets spread over its
    duration. *)

val sample_duration : Openmb_sim.Prng.t -> float
(** One draw from the empirical flow-duration CDF the generator
    samples: mostly short flows with a long tail, [P(d > 1500 s) ≈
    0.09]. *)
