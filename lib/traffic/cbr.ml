open Openmb_sim
open Openmb_net

type params = {
  seed : int;
  n_flows : int;
  rate_pps : float;
  duration : float;
  tokens_per_packet : int;
  opening_window : float;
  clients : Addr.prefix;
  server : Addr.t;
  dst_port : int;
}

let default_params =
  {
    seed = 11;
    n_flows = 100;
    rate_pps = 1000.0;
    duration = 5.0;
    tokens_per_packet = 4;
    opening_window = 0.1;
    clients = Addr.prefix_of_string "10.0.0.0/16";
    server = Addr.of_string "1.1.1.10";
    dst_port = 80;
  }

let generate ?(ids = Trace.Id_gen.create ()) p =
  let prng = Prng.create ~seed:p.seed in
  let tuples =
    Array.init p.n_flows (fun i ->
        {
          Five_tuple.src_ip = Addr.host_in_prefix p.clients (1 + i);
          dst_ip = p.server;
          src_port = 10000 + i;
          dst_port = p.dst_port;
          proto = Packet.Tcp;
        })
  in
  let openings =
    Array.to_list tuples
    |> List.concat_map (fun tuple ->
           let start = Dist.uniform prng ~lo:0.0 ~hi:p.opening_window in
           let syn = Flow_gen.syn_probe ~ids ~tuple ~start in
           let synack =
             Packet.make ~flags:Packet.synack_flags ~id:(Trace.Id_gen.next ids)
               ~ts:(Time.seconds (start +. 0.001))
               ~src_ip:tuple.dst_ip ~dst_ip:tuple.src_ip ~src_port:tuple.dst_port
               ~dst_port:tuple.src_port ~proto:tuple.proto ()
           in
           [ syn; synack ])
  in
  let interval = 1.0 /. p.rate_pps in
  let data_start = p.opening_window +. 0.05 in
  let n_data = int_of_float ((p.duration -. data_start) /. interval) in
  let data =
    List.init n_data (fun k ->
        let tuple = tuples.(k mod p.n_flows) in
        let ts = data_start +. (float_of_int k *. interval) in
        let tokens =
          Array.init p.tokens_per_packet (fun _ -> 0x2000000 + Prng.int prng 0xFFFFFFF)
        in
        Packet.make
          ~body:(Packet.Raw (Payload.of_tokens tokens))
          ~id:(Trace.Id_gen.next ids) ~ts:(Time.seconds ts) ~src_ip:tuple.src_ip
          ~dst_ip:tuple.dst_ip ~src_port:tuple.src_port ~dst_port:tuple.dst_port
          ~proto:tuple.proto ())
  in
  Trace.of_packets (openings @ data)
