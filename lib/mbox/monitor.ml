open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type flow_record = {
  fr_first : float;
  mutable fr_last : float;
  mutable fr_pkts : int;
  mutable fr_bytes : int;
  mutable fr_service : string;
}

type totals = {
  mutable tot_pkts : int;
  mutable tot_bytes : int;
  mutable tot_tcp : int;
  mutable tot_udp : int;
  mutable tot_icmp : int;
  mutable tot_new_flows : int;
}

let add_totals s ~pkts ~bytes ~tcp ~udp ~icmp ~new_flows =
  s.tot_pkts <- s.tot_pkts + pkts;
  s.tot_bytes <- s.tot_bytes + bytes;
  s.tot_tcp <- s.tot_tcp + tcp;
  s.tot_udp <- s.tot_udp + udp;
  s.tot_icmp <- s.tot_icmp + icmp;
  s.tot_new_flows <- s.tot_new_flows + new_flows

type t = {
  base : Mb_base.t;
  table : flow_record State_table.t;
  flows : flow_record Mb_base.perflow;
  (* The [service/ports] config, parsed: every packet of a flow that is
     still unclassified consults it.  Refreshed by every config write
     through the southbound interface. *)
  mutable known_ports : int list;
  shared : totals;  (* updated in place *)
}

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 120.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 20.0;
    serialize_per_chunk = Time.us 250.0;
    serialize_per_byte = Time.us 0.05;
    deserialize_per_chunk = Time.us 40.0;
    deserialize_per_byte = Time.us 0.01;
  }

let base t = t.base

let known_service_ports t =
  match Config_tree.get (Mb_base.config t.base) [ "service"; "ports" ] with
  | [ { values; _ } ] -> List.filter_map (function Json.Int p -> Some p | _ -> None) values
  | _ -> []

let service_of_known known port =
  if not (List.mem port known) then ""
  else
    match port with
    | 80 | 8080 -> "http"
    | 443 -> "https"
    | 22 -> "ssh"
    | 53 -> "dns"
    | 25 -> "smtp"
    | _ -> "tcp-" ^ string_of_int port

let new_asset_code = "monitor.new_asset"

(* Per-flow record update for one packet, in place: a seen flow's
   packet allocates nothing, and a new flow only its record, key and
   entry (the asset announcement is built only when the agent's filter
   admits it).  [body] is the packet's body size, which the caller also
   needs for the shared totals.  Returns whether the flow was first
   seen here. *)
let touch t (p : Packet.t) ~body ~side_effects =
  let entry, created =
    match
      State_table.find_words t.table ~pa:(Five_tuple.word_a_packet p)
        ~pb:(Five_tuple.word_b_packet p)
    with
    | Some e -> (e, false)
    | None ->
      ( State_table.add_missing t.table p
          { fr_first = p.ts; fr_last = p.ts; fr_pkts = 0; fr_bytes = 0; fr_service = "" },
        true )
  in
  let r = entry.value in
  (* [p.ts] is stored as is: no fresh float is boxed. *)
  if p.ts > r.fr_last then r.fr_last <- p.ts;
  r.fr_pkts <- r.fr_pkts + 1;
  r.fr_bytes <- r.fr_bytes + body;
  if r.fr_service = "" then begin
    let service = service_of_known t.known_ports p.dst_port in
    if service <> "" then begin
      r.fr_service <- service;
      if side_effects && Mb_base.introspects t.base ~code:new_asset_code ~key:entry.key then
        Mb_base.raise_event t.base
          (Event.Introspect
             {
               code = new_asset_code;
               key = entry.key;
               info = Json.Assoc [ ("service", Json.String service) ];
             })
    end
  end;
  if entry.moved then
    Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
  created

(* The shared totals are accumulated in locals and written back once per
   batch.  Shared reporting state is merged between instances when flows
   consolidate (§4.1.3); a re-processed packet must not also bump these
   counters or the merged totals would double-count it.  Only the state
   the event identifies — the per-flow record — is replayed. *)
let work t ~side_effects b =
  let n = Packet_batch.length b in
  let bytes = ref 0 and tcp = ref 0 and udp = ref 0 and icmp = ref 0 and new_flows = ref 0 in
  for i = 0 to n - 1 do
    let p = Packet_batch.get b i in
    let body = Packet.body_bytes p in
    if touch t p ~body ~side_effects then incr new_flows;
    bytes := !bytes + body;
    match p.proto with
    | Packet.Tcp -> incr tcp
    | Packet.Udp -> incr udp
    | Packet.Icmp -> incr icmp
  done;
  if side_effects then begin
    add_totals t.shared ~pkts:n ~bytes:!bytes ~tcp:!tcp ~udp:!udp ~icmp:!icmp
      ~new_flows:!new_flows;
    Mb_base.forward_batch t.base b
  end
  else Packet_batch.release b

(* ------------------------------------------------------------------ *)
(* State descriptions: a single flat structure per flow, like PRADS'   *)
(* connection struct (§7 — no complex serialization needed).           *)
(* ------------------------------------------------------------------ *)

let flow_record_codec =
  Codec.(
    obj
      (record (fun fr_first fr_last fr_pkts fr_bytes fr_service ->
           { fr_first; fr_last; fr_pkts; fr_bytes; fr_service })
      |> field "first" float (fun r -> r.fr_first)
      |> field "last" float (fun r -> r.fr_last)
      |> field "pkts" uvarint (fun r -> r.fr_pkts)
      |> field "bytes" uvarint (fun r -> r.fr_bytes)
      |> field "service" string (fun r -> r.fr_service)))

let totals_codec =
  Codec.(
    obj
      (record (fun tot_pkts tot_bytes tot_tcp tot_udp tot_icmp tot_new_flows ->
           { tot_pkts; tot_bytes; tot_tcp; tot_udp; tot_icmp; tot_new_flows })
      |> field "pkts" uvarint (fun s -> s.tot_pkts)
      |> field "bytes" uvarint (fun s -> s.tot_bytes)
      |> field "tcp" uvarint (fun s -> s.tot_tcp)
      |> field "udp" uvarint (fun s -> s.tot_udp)
      |> field "icmp" uvarint (fun s -> s.tot_icmp)
      |> field "new_flows" uvarint (fun s -> s.tot_new_flows)))

let create engine ?telemetry ?(cost = default_cost) ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"prads" ~cost () in
  Config_tree.set (Mb_base.config base) [ "service"; "ports" ]
    [ Json.Int 80; Json.Int 443; Json.Int 22; Json.Int 53; Json.Int 25 ];
  let table = State_table.create ~granularity:Hfl.full_granularity () in
  let t =
    {
      base;
      table;
      flows =
        Mb_base.perflow base table ~role:Taxonomy.Reporting
          ~encode:(Codec.encode Framing.Json flow_record_codec)
          ~decode:(Codec.decode flow_record_codec);
      known_ports = [];
      shared =
        { tot_pkts = 0; tot_bytes = 0; tot_tcp = 0; tot_udp = 0; tot_icmp = 0; tot_new_flows = 0 };
    }
  in
  t.known_ports <- known_service_ports t;
  Mb_base.set_work base (work t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

let impl t =
  let default = Mb_base.default_impl t.base ~report:t.flows () in
  let reread r =
    t.known_ports <- known_service_ports t;
    r
  in
  let encode_totals () = Codec.encode Framing.Json totals_codec t.shared in
  {
    default with
    set_config = (fun path values -> reread (default.set_config path values));
    del_config = (fun path -> reread (default.del_config path));
    get_report_shared =
      (fun () ->
        Ok
          (Some
             (Mb_base.seal_raw t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
                ~key:Hfl.any (encode_totals ()))));
    (* Merging shared reporting state adds the counter values (§7: "we
       add the counter values stored in the prads_stat structure
       provided in the put call to the [local ones]"). *)
    put_report_shared =
      Mb_base.import t.base ~role:Taxonomy.Reporting ~partition:Taxonomy.Shared
        ~decode:(Codec.decode totals_codec)
        (fun _ o ->
          add_totals t.shared ~pkts:o.tot_pkts ~bytes:o.tot_bytes ~tcp:o.tot_tcp
            ~udp:o.tot_udp ~icmp:o.tot_icmp ~new_flows:o.tot_new_flows);
    stats =
      (fun hfl ->
        { (default.stats hfl) with shared_report_bytes = Chunk.sealed_size (encode_totals ()) });
  }

(* A copy: the live block changes under every batch. *)
let totals t = { t.shared with tot_pkts = t.shared.tot_pkts }

(* Copies, not the live records: those change under every packet. *)
let flow_records t =
  State_table.fold t.table ~init:[] ~f:(fun acc e ->
      (e.key, { e.value with fr_pkts = e.value.fr_pkts }) :: acc)

let tracked_flows t = State_table.size t.table
