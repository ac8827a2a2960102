open Openmb_sim
open Openmb_net

type content = { payload_for : int -> Payload.t }

(* Fresh tokens come from a dedicated 48-bit space so they never
   collide with generator pools. *)
let fresh_content prng ~tokens_per_packet =
  {
    payload_for =
      (fun _ ->
        Payload.of_tokens
          (Array.init tokens_per_packet (fun _ ->
               0x1000000 + Prng.int prng 0xFFFFFFFFFF)));
  }

let empty_content = { payload_for = (fun _ -> Payload.empty) }

(* Sorted timestamps for [n] packets across [start, start+duration]:
   the handshake happens promptly, the rest spread uniformly. *)
let timestamps prng ~start ~duration ~n =
  if n <= 0 then [||]
  else begin
    let ts = Array.make n start in
    for i = 0 to n - 1 do
      ts.(i) <- start +. Prng.float prng (Float.max duration 1e-6)
    done;
    Array.sort Float.compare ts;
    ts
  end

let mk ~ids ~ts ~tuple:(tup : Five_tuple.t) ?(flags = Packet.no_flags) ?(app = Packet.Plain)
    ?(body = Packet.Raw Payload.empty) ~reverse () =
  let t = if reverse then Five_tuple.reverse tup else tup in
  Packet.make ~flags ~app ~body ~id:(Trace.Id_gen.next ids) ~ts:(Time.seconds ts)
    ~src_ip:t.src_ip ~dst_ip:t.dst_ip ~src_port:t.src_port ~dst_port:t.dst_port
    ~proto:t.proto ()

let tcp_flow ~ids ~prng ~tuple ~start ~duration ~data_packets
    ?(content = empty_content) ?(http = []) () =
  let handshake_gap = 0.001 in
  let syn = mk ~ids ~ts:start ~tuple ~flags:Packet.syn_flags ~reverse:false () in
  let synack =
    mk ~ids ~ts:(start +. handshake_gap) ~tuple ~flags:Packet.synack_flags ~reverse:true ()
  in
  let data_start = start +. (2.0 *. handshake_gap) in
  let data_span = Float.max 0.0 (duration -. (3.0 *. handshake_gap)) in
  let ts = timestamps prng ~start:data_start ~duration:data_span ~n:data_packets in
  (* Interleave HTTP transactions: request on an originator packet,
     response on the following responder packet. *)
  let http = Array.of_list http in
  let n_http = Array.length http in
  let data =
    List.init data_packets (fun i ->
        let reverse = i mod 2 = 1 in
        (* Transaction k rides data packets 2k (request) and 2k+1
           (response). *)
        let app =
          if (not reverse) && i / 2 < n_http then begin
            let host, uri = http.(i / 2) in
            Packet.Http_request { method_ = "GET"; host; uri }
          end
          else if reverse && i / 2 < n_http then Packet.Http_response { status = 200 }
          else Packet.Plain
        in
        mk ~ids ~ts:ts.(i) ~tuple ~app
          ~body:(Packet.Raw (content.payload_for i))
          ~reverse ())
  in
  let fin = mk ~ids ~ts:(start +. duration) ~tuple ~flags:Packet.fin_flags ~reverse:false () in
  (syn :: synack :: data) @ [ fin ]

let udp_flow ~ids ~prng ~tuple ~start ~duration ~data_packets ?(content = empty_content)
    () =
  let ts = timestamps prng ~start ~duration ~n:data_packets in
  List.init data_packets (fun i ->
      mk ~ids ~ts:ts.(i) ~tuple
        ~body:(Packet.Raw (content.payload_for i))
        ~reverse:(i mod 2 = 1) ())

let syn_probe ~ids ~tuple ~start =
  mk ~ids ~ts:start ~tuple ~flags:Packet.syn_flags ~reverse:false ()
