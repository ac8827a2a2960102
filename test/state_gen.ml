(* Generators of every middlebox state value a description carries,
   shared by the description properties of test_mbox and the codec
   properties of test_chaos. *)

open Openmb_net
open Openmb_mbox
open QCheck2.Gen

let time = map (fun f -> if Float.is_finite f then f else 0.0) float
let count = oneof [ nat; int_range 0 max_int ]
let port = int_bound 0xFFFF
let addr = map Addr.of_int (int_bound 0xFFFF_FFFF)
let proto = oneofl Packet.[ Tcp; Udp; Icmp ]
let text = string_size (int_range 0 12)

let mapping =
  map
    (fun ((m_int_ip, m_int_port, m_ext_ip, m_ext_port), (m_proto, m_created, m_last_active)) ->
      { Nat.m_int_ip; m_int_port; m_ext_ip; m_ext_port; m_proto; m_created; m_last_active })
    (pair (quad addr port addr port) (triple proto time time))

let tuple =
  map
    (fun (src_ip, dst_ip, (src_port, dst_port), proto) ->
      { Five_tuple.src_ip; dst_ip; src_port; dst_port; proto })
    (quad addr addr (pair port port) proto)

let conn =
  map
    (fun ((orig, started, last_seen, tcp), (history, orig_pkts, orig_bytes, resp_pkts),
          (resp_bytes, open_http, http_done, logged)) ->
      { Ids.orig; started; last_seen; tcp; history; orig_pkts; orig_bytes; resp_pkts;
        resp_bytes; open_http; http_done; logged })
    (triple
       (quad tuple time time
          (oneofl Ids.[ Ts_syn; Ts_synack; Ts_est; Ts_closed; Ts_reset_orig; Ts_reset_resp ]))
       (quad text count (int_bound 100_000) count)
       (quad (int_bound 100_000)
          (list_size (int_bound 3) (triple text text text))
          (list_size (int_bound 3) (quad text text text int))
          bool))

let scan = list_size (int_bound 5) (pair text (map2 (fun syn_count alerted -> { Ids.syn_count; alerted }) count bool))

let rule =
  map2 (fun rl_match rl_action -> { Firewall.rl_match; rl_action })
    (list_size (int_range 0 4)
       (oneof
          [
            map2 (fun a len -> Hfl.Src_ip (Addr.prefix a len)) addr (int_bound 32);
            map2 (fun a len -> Hfl.Dst_ip (Addr.prefix a len)) addr (int_bound 32);
            map (fun v -> Hfl.Src_port v) port;
            map (fun v -> Hfl.Dst_port v) port;
            map (fun v -> Hfl.Proto v) proto;
          ]))
    (oneofl Firewall.[ Allow; Deny ])

let flow_record =
  map
    (fun ((fr_first, fr_last), (fr_pkts, fr_bytes, fr_service)) ->
      { Monitor.fr_first; fr_last; fr_pkts; fr_bytes; fr_service })
    (pair (pair time time) (triple count count text))

let totals =
  map
    (fun ((tot_pkts, tot_bytes, tot_tcp), (tot_udp, tot_icmp, tot_new_flows)) ->
      { Monitor.tot_pkts; tot_bytes; tot_tcp; tot_udp; tot_icmp; tot_new_flows })
    (pair (triple count count count) (triple count count count))

let verdict = oneofl Firewall.[ Allow; Deny ]
let counters = pair count count
