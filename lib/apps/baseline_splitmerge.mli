(** Split/Merge baseline (§2.1, §8.1.2).

    Split/Merge guarantees atomicity by {e halting} the affected
    traffic while per-flow state moves: packets arriving during the
    move are buffered and replayed at the destination once the move and
    routing update complete.  The cost is latency — the paper measures
    244 packets buffered and an 863 ms average latency increase for a
    1000-chunk move at 1000 pkt/s — versus OpenMB's events, which keep
    packets flowing at a ≤2% penalty. *)

type report = {
  move_duration : float;  (** Seconds traffic was halted. *)
  buffered_packets : int;
  avg_added_latency : float;
      (** Mean extra per-packet latency of the buffered packets versus
          undisturbed processing, in seconds. *)
  max_added_latency : float;
}

val run : n_chunks:int -> rate_pps:float -> report
(** Simulate a Split/Merge move of [n_chunks] records while traffic
    arrives at [rate_pps]: traffic halts for 0.244 ms per chunk
    (Split/Merge moves state by direct reference, no linear scan), then
    the buffered packets drain through the destination at the IDS's
    0.8 ms service time while live traffic continues to arrive. *)
