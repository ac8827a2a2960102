(** Constant-rate traffic over a fixed population of long-lived flows —
    the controlled workload of the Figure 9 and Split/Merge
    experiments, where the packet rate and the number of per-flow state
    chunks are the independent variables. *)

type params = {
  seed : int;
  n_flows : int;  (** Concurrent long-lived flows (= state chunks). *)
  rate_pps : float;  (** Aggregate packet rate. *)
  duration : float;
  tokens_per_packet : int;
  opening_window : float;
      (** Seconds over which the flows' handshakes are spread (default
          0.1; raise it when the MB under test cannot absorb a
          handshake burst without queueing). *)
  clients : Openmb_net.Addr.prefix;
  server : Openmb_net.Addr.t;
  dst_port : int;
}

val default_params : params
(** 100 flows at 1000 pkt/s for 5 s toward 1.1.1.10:80. *)

val generate : ?ids:Trace.Id_gen.gen -> params -> Trace.t
(** First each flow opens (SYN/SYN-ACK within [opening_window]), then
    data packets are dealt round-robin across flows at the aggregate
    rate.  No FINs — flows stay alive for the whole run. *)

