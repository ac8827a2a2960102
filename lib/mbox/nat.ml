open Openmb_sim
open Openmb_wire
open Openmb_net
open Openmb_core

type mapping = {
  m_int_ip : Addr.t;
  m_int_port : int;
  m_ext_ip : Addr.t;
  m_ext_port : int;
  m_proto : Packet.proto;
  m_created : float;
  mutable m_last_active : float;
}

(* Ports 20000..65000 inclusive per external IP. *)
let port_lo = 20000
let port_hi = 65000
let ports_per_ip = port_hi - port_lo + 1

type t = {
  base : Mb_base.t;
  (* Carrier-grade pool: one external IP caps the NAT at ~45k concurrent
     mappings, so large-scale runs hand in a pool and mappings record
     which address they translated to.  [ext_ips.(0)] is the primary. *)
  ext_ips : Addr.t array;
  internal_prefix : Addr.prefix;
  table : mapping State_table.t;
  flows : mapping Mb_base.perflow;
  (* packed (ext ip, port) -> table key, in the flat open-addressing
     core: the int key rides in word [pa] with [pb = 0]. *)
  by_external : Hfl.t Flat_table.t;
  announcement : mapping Codec.t;  (* [announcement_codec ext_ips.(0)] *)
  mutable next_slot : int; (* cursor into ip x port slot space *)
  mutable dropped : int;
}

let pack_external ip port = (Addr.to_int ip lsl 16) lor port

let ext_find t ip port =
  let pa = pack_external ip port in
  Flat_table.find t.by_external ~pa ~pb:0 ~h:(Five_tuple.hash_words ~pa ~pb:0)

let ext_mem t ip port =
  let pa = pack_external ip port in
  Flat_table.mem t.by_external ~pa ~pb:0 ~h:(Five_tuple.hash_words ~pa ~pb:0)

let ext_set t ip port key =
  let pa = pack_external ip port in
  Flat_table.replace t.by_external ~pa ~pb:0 ~h:(Five_tuple.hash_words ~pa ~pb:0) key

let ext_remove t ip port =
  let pa = pack_external ip port in
  ignore (Flat_table.remove t.by_external ~pa ~pb:0 ~h:(Five_tuple.hash_words ~pa ~pb:0) : bool)

let nat_granularity = Hfl.[ Dim_src_ip; Dim_src_port; Dim_proto ]

let default_cost : Southbound.cost_model =
  {
    per_packet = Time.us 60.0;
    op_slowdown = 1.02;
    scan_per_entry = Time.us 10.0;
    serialize_per_chunk = Time.us 100.0;
    serialize_per_byte = Time.us 0.02;
    deserialize_per_chunk = Time.us 20.0;
    deserialize_per_byte = Time.us 0.005;
  }

let base t = t.base

(* A slot numbers one (external ip, port) pair. *)
let slot_ip t slot = t.ext_ips.(slot / ports_per_ip)
let slot_port slot = port_lo + (slot mod ports_per_ip)

(* Sequential allocation with wrap over the slot space, skipping pairs
   in use.  A top-level loop that returns the slot: a local one would
   heap a closure per new flow, and a pair result a tuple. *)
let rec free_slot t ~nslots slot tried =
  if tried >= nslots then failwith "Nat.allocate_external: port pool exhausted";
  let slot = if slot >= nslots then 0 else slot in
  if ext_mem t (slot_ip t slot) (slot_port slot) then free_slot t ~nslots (slot + 1) (tried + 1)
  else slot

let allocate_external t =
  let slot = free_slot t ~nslots:(Array.length t.ext_ips * ports_per_ip) t.next_slot 0 in
  t.next_slot <- slot + 1;
  slot

let is_outbound t (p : Packet.t) = Addr.in_prefix p.src_ip t.internal_prefix

(* ------------------------------------------------------------------ *)
(* State descriptions                                                  *)
(* ------------------------------------------------------------------ *)

(* A moved mapping.  Timers are non-critical state: the import resets
   [last_active] to [created] (§2, failure recovery). *)
let mapping_codec =
  Codec.(
    obj
      (record (fun m_int_ip m_int_port m_ext_ip m_ext_port m_proto m_created _ ->
           { m_int_ip; m_int_port; m_ext_ip; m_ext_port; m_proto; m_created;
             m_last_active = m_created })
      |> field "int_ip" Message.addr (fun m -> m.m_int_ip)
      |> field "int_port" u16 (fun m -> m.m_int_port)
      |> field "ext_ip" Message.addr (fun m -> m.m_ext_ip)
      |> field "ext_port" u16 (fun m -> m.m_ext_port)
      |> field "proto" Message.proto (fun m -> m.m_proto)
      |> field "created" float (fun m -> m.m_created)
      |> field "last_active" float (fun m -> m.m_last_active)))

(* The critical part of a mapping, as [nat.new_mapping] announces it
   and [static_mappings] restores it: read back, it translates to
   [ext_ip] with its timers at zero. *)
let announcement_codec ext_ip =
  Codec.(
    obj
      (record (fun m_int_ip m_int_port m_ext_port m_proto ->
           { m_int_ip; m_int_port; m_ext_ip = ext_ip; m_ext_port; m_proto; m_created = 0.0;
             m_last_active = 0.0 })
      |> field "int_ip" Message.addr (fun m -> m.m_int_ip)
      |> field "int_port" u16 (fun m -> m.m_int_port)
      |> field "ext_port" u16 (fun m -> m.m_ext_port)
      |> field "proto" Message.proto (fun m -> m.m_proto)))

let new_mapping_code = "nat.new_mapping"

(* First packet of an outbound flow, after the table probe missed:
   allocate the external slot, index it for the reverse path and
   announce the mapping — building the announcement only when the
   agent's filter admits it. *)
let new_mapping t (p : Packet.t) ~side_effects =
  let slot = allocate_external t in
  let m =
    {
      m_int_ip = p.src_ip;
      m_int_port = p.src_port;
      m_ext_ip = slot_ip t slot;
      m_ext_port = slot_port slot;
      m_proto = p.proto;
      m_created = p.ts;
      m_last_active = p.ts;
    }
  in
  let entry = State_table.add_missing t.table p m in
  ext_set t m.m_ext_ip m.m_ext_port entry.key;
  if side_effects && Mb_base.introspects t.base ~code:new_mapping_code ~key:entry.key then
    Mb_base.raise_event t.base
      (Event.Introspect
         { code = new_mapping_code; key = entry.key; info = Codec.to_json t.announcement m });
  entry

(* The mapping is updated in place: a seen flow's packet allocates
   nothing here but its translated copy, which is returned bare
   ({!Mb_base.process_batch}).  [p.ts] is stored as is, so the timer
   write does not box a fresh float. *)
let process t (p : Packet.t) ~side_effects =
  if is_outbound t p then begin
    let entry =
      match
        State_table.find_words t.table ~pa:(Five_tuple.word_a_packet p)
          ~pb:(Five_tuple.word_b_packet p)
      with
      | Some e -> e
      | None -> new_mapping t p ~side_effects
    in
    let m = entry.value in
    m.m_last_active <- p.ts;
    if entry.moved then
      Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
    if side_effects then { p with src_ip = m.m_ext_ip; src_port = m.m_ext_port } else p
  end
  else begin
    (* Inbound: reverse translation by destination (external IP, port).
       The stored key is exact at NAT granularity, so the reverse map
       resolves with two O(1) flat probes — no table scan. *)
    match ext_find t p.dst_ip p.dst_port with
    | None ->
      t.dropped <- t.dropped + 1;
      Mb_base.drop
    | Some key -> (
      match State_table.find_key t.table key with
      | Some entry ->
        let m = entry.value in
        m.m_last_active <- p.ts;
        if entry.moved then
          Mb_base.raise_event t.base (Event.Reprocess { key = entry.key; packet = p });
        if side_effects then { p with dst_ip = m.m_int_ip; dst_port = m.m_int_port } else p
      | None ->
        t.dropped <- t.dropped + 1;
        Mb_base.drop)
  end

let create engine ?telemetry ?(cost = default_cost) ?(external_ips = []) ~external_ip
    ~internal_prefix ~name () =
  let base = Mb_base.create engine ?telemetry ~name ~kind:"nat" ~cost () in
  Config_tree.set (Mb_base.config base) [ "external_ip" ]
    [ Json.String (Addr.to_string external_ip) ];
  Config_tree.set (Mb_base.config base) [ "timeout"; "tcp" ] [ Json.Int 300 ];
  Config_tree.set (Mb_base.config base) [ "timeout"; "udp" ] [ Json.Int 60 ];
  let table = State_table.create ~granularity:nat_granularity () in
  let t =
    {
      base;
      ext_ips = Array.of_list (external_ip :: external_ips);
      internal_prefix;
      table;
      flows =
        Mb_base.perflow base table ~role:Taxonomy.Supporting
          ~encode:(Codec.encode Framing.Json mapping_codec)
          ~decode:(Codec.decode mapping_codec);
      by_external = Flat_table.create ~capacity:64 ();
      announcement = announcement_codec external_ip;
      next_slot = 0;
      dropped = 0;
    }
  in
  (* Members are translated in index order: external-port allocation is
     cursor-based, so processing order is part of the NAT's observable
     state. *)
  Mb_base.set_work base (Mb_base.process_batch base process t);
  t

let receive t p = Mb_base.inject t.base p ~side_effects:true
let receive_batch t b = Mb_base.inject_batch t.base b ~side_effects:true

(* Static mappings (port forwarding) installed through configuration —
   also the failure-recovery application's restore path: critical
   state re-created via the configuring interface, with non-critical
   timers at defaults. *)
let set_config t path values =
  let store () =
    match Config_tree.set (Mb_base.config t.base) path values with
    | () -> Ok ()
    | exception Invalid_argument msg -> Error (Errors.Op_failed msg)
  in
  match path with
  | [ "static_mappings" ] -> (
    match List.map (Codec.of_json t.announcement) values with
    | ms ->
      List.iter
        (fun m ->
          let key =
            Hfl.[ Src_ip (Addr.prefix m.m_int_ip 32); Src_port m.m_int_port; Proto m.m_proto ]
          in
          State_table.insert t.table ~key m;
          ext_set t m.m_ext_ip m.m_ext_port key)
        ms;
      store ()
    | exception Binary.Decode_error msg -> Error (Errors.Op_failed msg))
  | _ -> store ()

(* The external-port index follows the table through import and
   delete. *)
let impl t =
  let default = Mb_base.default_impl t.base ~support:t.flows () in
  {
    default with
    set_config = set_config t;
    put_support_perflow =
      (fun chunk ->
        match default.put_support_perflow chunk with
        | Ok () ->
          Option.iter
            (fun (e : mapping State_table.entry) ->
              ext_set t e.value.m_ext_ip e.value.m_ext_port e.key)
            (State_table.find_key t.table chunk.Chunk.key);
          Ok ()
        | Error _ as err -> err);
    del_support_perflow =
      (fun hfl ->
        State_table.iter_matching t.table hfl (fun e ->
            if e.moved then ext_remove t e.value.m_ext_ip e.value.m_ext_port);
        default.del_support_perflow hfl);
  }

(* Accessors hand out copies: the live records change under every
   packet, and a caller keeping a snapshot (a failover checkpoint) must
   not see it move. *)
let copy m = { m with m_last_active = m.m_last_active }
let mappings t = State_table.fold t.table ~init:[] ~f:(fun acc e -> copy e.value :: acc)
let mapping_count t = State_table.size t.table

let lookup_external t ~ext_port =
  (* Port-only lookup: scan the (small) IP pool for the first hit. *)
  let n = Array.length t.ext_ips in
  let rec go i =
    if i >= n then None
    else
      match ext_find t t.ext_ips.(i) ext_port with
      | None -> go (i + 1)
      | Some key -> (
        match State_table.find_key t.table key with
        | Some e -> Some (copy e.value)
        | None -> None)
  in
  go 0

let packets_dropped t = t.dropped
