type proto = Tcp | Udp | Icmp

type tcp_flags = { syn : bool; ack : bool; fin : bool; rst : bool }

type app =
  | Plain
  | Http_request of { method_ : string; host : string; uri : string }
  | Http_response of { status : int }

type segment = Literal of Payload.t | Shim of { offset : int; len : int }

type body =
  | Raw of Payload.t
  | Encoded of {
      cache_id : int;
      append_base : int;
      segments : segment list;
      orig : Payload.t;
    }

type t = {
  id : int;
  ts : Openmb_sim.Time.t;
  src_ip : Addr.t;
  dst_ip : Addr.t;
  src_port : int;
  dst_port : int;
  proto : proto;
  flags : tcp_flags;
  app : app;
  body : body;
}

let no_flags = { syn = false; ack = false; fin = false; rst = false }
let syn_flags = { no_flags with syn = true }
let synack_flags = { no_flags with syn = true; ack = true }
let fin_flags = { no_flags with fin = true; ack = true }
let rst_flags = { no_flags with rst = true }

(* Bound once: a default written inline allocates its block on every
   call that omits [body]. *)
let empty_body = Raw Payload.empty

let make ?(flags = no_flags) ?(app = Plain) ?(body = empty_body) ~id ~ts ~src_ip
    ~dst_ip ~src_port ~dst_port ~proto () =
  { id; ts; src_ip; dst_ip; src_port; dst_port; proto; flags; app; body }

let header_bytes = 54
let shim_bytes = 12

let body_bytes p =
  match p.body with
  | Raw payload -> Payload.size_bytes payload
  | Encoded { segments; _ } ->
    List.fold_left
      (fun acc seg ->
        match seg with
        | Literal payload -> acc + Payload.size_bytes payload
        | Shim _ -> acc + shim_bytes)
      0 segments

let wire_bytes p = header_bytes + body_bytes p

let original_body_bytes p =
  match p.body with
  | Raw payload -> Payload.size_bytes payload
  | Encoded { segments; _ } ->
    List.fold_left
      (fun acc seg ->
        match seg with
        | Literal payload -> acc + Payload.size_bytes payload
        | Shim { len; _ } -> acc + (len * Payload.token_bytes))
      0 segments

let proto_to_string = function Tcp -> "tcp" | Udp -> "udp" | Icmp -> "icmp"

let proto_of_string = function
  | "tcp" -> Tcp
  | "udp" -> Udp
  | "icmp" -> Icmp
  | s -> invalid_arg (Printf.sprintf "Packet.proto_of_string: %S" s)

let flow_label p =
  Printf.sprintf "%s %s:%d>%s:%d" (proto_to_string p.proto) (Addr.to_string p.src_ip)
    p.src_port (Addr.to_string p.dst_ip) p.dst_port

let pp fmt p =
  Format.fprintf fmt "#%d %s %dB" p.id (flow_label p) (wire_bytes p)
