open Openmb_sim
open Openmb_core
module Packet_batch = Openmb_net.Packet_batch

type t = {
  engine : Engine.t;
  (* The shared telemetry when it keeps a timeline, else [None]. *)
  timeline : Telemetry.t option;
  name : string;
  kind : string;
  cost : Southbound.cost_model;
  config : Config_tree.t;
  mutable event_sink : Event.t -> unit;
  (* The attached agent's live filter; empty until one attaches, so an
     MB without an agent builds no introspection event. *)
  mutable introspect : Event.Filter.t;
  mutable egress : Packet_batch.t -> unit;
  mutable work : side_effects:bool -> Packet_batch.t -> unit;
  pool : Packet_batch.pool;  (* 1-member batches of [inject] *)
  (* Batches waiting for the data path, in a power-of-two ring.  Their
     dispatch events fire in the order they were queued (dp_free_at
     never decreases and the engine keeps same-instant FIFO), so the
     ring needs no per-batch closure to remember whose turn it is. *)
  mutable q_batch : Packet_batch.t array;
  mutable q_arrival : float array;
  mutable q_flags : int array;  (* bit 0 during_op, bit 1 side_effects *)
  mutable q_head : int;
  mutable q_len : int;
  mutable op_active : bool;
  mutable dp_free_at : Time.t;
  latency : Stats.t;
  latency_during_op : Stats.t;
  mutable pkts : int;
  c_pkts : Telemetry.counter;
  h_pkt : Telemetry.histogram;
  h_occ : Telemetry.histogram;
}

let empty_batch = Packet_batch.create ~capacity:1 ()
let no_work ~side_effects:_ b = Packet_batch.release b

let create engine ?telemetry ~name ~kind ~cost () =
  let c_pkts, h_pkt, h_occ =
    match telemetry with
    | Some tel ->
      ( Telemetry.counter tel "mb.pkts",
        Telemetry.histogram tel "mb.pkt_latency",
        Telemetry.histogram tel "mb.batch_occupancy" )
    | None -> (Telemetry.null_counter, Telemetry.null_histogram, Telemetry.null_histogram)
  in
  {
    engine;
    timeline =
      (match telemetry with Some tel when Telemetry.timeline tel -> telemetry | _ -> None);
    name;
    kind;
    cost;
    config = Config_tree.create ();
    event_sink = (fun _ -> ());
    introspect = Event.Filter.create ();
    egress = Packet_batch.release;
    work = no_work;
    pool = Packet_batch.pool ();
    q_batch = Array.make 16 empty_batch;
    q_arrival = Array.make 16 0.0;
    q_flags = Array.make 16 0;
    q_head = 0;
    q_len = 0;
    op_active = false;
    dp_free_at = Time.zero;
    latency = Stats.create ();
    latency_during_op = Stats.create ();
    pkts = 0;
    c_pkts;
    h_pkt;
    h_occ;
  }

(* Per-MB scrape set.  The registry counters ("mb.pkts", ...) are
   shared across every MB on one telemetry instance, so per-instance
   series go through Poll sources reading this base's own fields,
   named by the MB.  The polls read simulation state but never write
   it, preserving scrape determinism. *)
let register_series t ts =
  Timeseries.add ts ~name:(t.name ^ ".pkts") ~mode:Timeseries.Sum
    (Timeseries.Poll (fun () -> float_of_int t.pkts));
  Timeseries.add ts ~name:(t.name ^ ".dp_backlog_us") ~mode:Timeseries.Max
    (Timeseries.Poll
       (fun () ->
         let b = Time.to_us Time.(t.dp_free_at - Engine.now t.engine) in
         if b > 0.0 then b else 0.0));
  Timeseries.add ts ~name:(t.name ^ ".lat_mean_us") ~mode:Timeseries.Max
    (Timeseries.Poll
       (fun () -> if Stats.count t.latency = 0 then 0.0 else Stats.mean t.latency *. 1e6))

let engine t = t.engine
let name t = t.name
let kind t = t.kind
let config t = t.config
let now t = Engine.now t.engine
let set_egress t f = t.egress <- (fun b -> Packet_batch.drain b f)
let set_egress_batch t f = t.egress <- f
let set_work t f = t.work <- f

let forward_batch t b =
  if Packet_batch.length b = 0 then Packet_batch.release b else t.egress b

let raise_event t ev = t.event_sink ev
let introspects t ~code ~key = Event.Filter.admits_introspect t.introspect ~code ~key
let set_op_active t b = t.op_active <- b
let op_active t = t.op_active

(* [detail] is built only on a timeline. *)
let record t ~kind ~detail =
  match t.timeline with
  | Some tel ->
    Telemetry.instant tel ~now:(Engine.now t.engine) ~actor:t.name ~name:kind
      ~detail:(detail ()) ()
  | None -> ()

let grow_queue t =
  let cap = Array.length t.q_batch in
  let batch = Array.make (2 * cap) empty_batch in
  let arrival = Array.make (2 * cap) 0.0 in
  let flags = Array.make (2 * cap) 0 in
  for k = 0 to t.q_len - 1 do
    let i = (t.q_head + k) land (cap - 1) in
    batch.(k) <- t.q_batch.(i);
    arrival.(k) <- t.q_arrival.(i);
    flags.(k) <- t.q_flags.(i)
  done;
  t.q_batch <- batch;
  t.q_arrival <- arrival;
  t.q_flags <- flags;
  t.q_head <- 0

(* The data-path event of the batch at the head of the queue: the
   per-packet accounting (counters, latency stats, histogram) is done
   once with weight [n], then the MB's work takes ownership. *)
let dispatch t =
  let i = t.q_head in
  let b = t.q_batch.(i) in
  let arrival = t.q_arrival.(i) in
  let flags = t.q_flags.(i) in
  t.q_batch.(i) <- empty_batch;
  t.q_head <- (i + 1) land (Array.length t.q_batch - 1);
  t.q_len <- t.q_len - 1;
  let n = Packet_batch.length b in
  t.pkts <- t.pkts + n;
  Telemetry.add t.c_pkts n;
  (* Boxed once here: a let-bound float is boxed again at each call
     that takes it, and up to three do. *)
  let lat = Sys.opaque_identity (Engine.now t.engine -. arrival) in
  Stats.add_n t.latency lat ~n;
  Telemetry.observe_n t.h_pkt lat ~n;
  Telemetry.observe_count t.h_occ n;
  if flags land 1 <> 0 then Stats.add_n t.latency_during_op lat ~n;
  let side_effects = flags land 2 <> 0 in
  (match t.timeline with
  | Some tel when side_effects ->
    for k = 0 to n - 1 do
      Telemetry.instant tel ~now:(Engine.now t.engine) ~actor:t.name ~name:"pkt"
        ~detail:(Openmb_net.Packet.flow_label (Packet_batch.get b k)) ()
    done
  | Some _ | None -> ());
  t.work ~side_effects b

(* The whole batch is charged [n × per-packet cost] on the serial
   data-path clock as one event; for a 1-member batch that is exactly a
   lone packet's charge, op slowdown included.  The clock arithmetic is
   on raw floats ([Time.t] is seconds): a call into [Time] would box each
   intermediate. *)
let inject_batch t b ~side_effects =
  let n = Packet_batch.length b in
  if n = 0 then Packet_batch.release b
  else begin
    let arrival = Engine.now t.engine in
    let during_op = t.op_active in
    let per =
      if during_op then t.cost.per_packet *. t.cost.op_slowdown else t.cost.per_packet
    in
    let start = Float.max arrival t.dp_free_at in
    t.dp_free_at <- start +. (per *. float_of_int n);
    if t.q_len = Array.length t.q_batch then grow_queue t;
    let j = (t.q_head + t.q_len) land (Array.length t.q_batch - 1) in
    t.q_batch.(j) <- b;
    t.q_arrival.(j) <- arrival;
    t.q_flags.(j) <- (if during_op then 1 else 0) lor if side_effects then 2 else 0;
    t.q_len <- t.q_len + 1;
    Engine.call_at t.engine t.dp_free_at dispatch t
  end

let inject t p ~side_effects = inject_batch t (Packet_batch.singleton t.pool p) ~side_effects

(* Never forwarded: [process_batch] recognises it by [==] before it
   could reach a batch. *)
let drop =
  let zero = Openmb_net.Addr.of_int 0 in
  Openmb_net.Packet.make ~id:(-1) ~ts:Time.zero ~src_ip:zero ~dst_ip:zero ~src_port:0
    ~dst_port:0 ~proto:Openmb_net.Packet.Tcp ()

let process_batch t process mb ~side_effects b =
  for i = 0 to Packet_batch.length b - 1 do
    let p = Packet_batch.get b i in
    let p' = process mb p ~side_effects in
    if p' == drop then Packet_batch.drop b i else if p' != p then Packet_batch.set b i p'
  done;
  if side_effects then begin
    ignore (Packet_batch.compact b : int);
    forward_batch t b
  end
  else Packet_batch.release b

let latency_stats t = t.latency
let latency_during_op_stats t = t.latency_during_op

(* ------------------------------------------------------------------ *)
(* Chunk helpers                                                       *)
(* ------------------------------------------------------------------ *)

let seal_raw t ~role ~partition ~key plain =
  Chunk.seal ~mb_kind:t.kind ~role ~partition ~key ~plain

(* ------------------------------------------------------------------ *)
(* Checked import, and the per-flow state protocol                     *)
(* ------------------------------------------------------------------ *)

(* Only [decode] runs under the handler: [apply] sees a whole value, so
   a malformed chunk never leaves a half-applied merge behind. *)
let import t ~role ~partition ~decode apply (chunk : Chunk.t) =
  if chunk.role <> role || chunk.partition <> partition then
    Error (Errors.Illegal_operation "wrong chunk class for this put")
  else
    match Chunk.unseal ~mb_kind:t.kind chunk with
    | Error e -> Error e
    | Ok plain -> (
      match decode plain with
      | v ->
        apply chunk.key v;
        Ok ()
      | exception (Openmb_wire.Binary.Decode_error msg | Invalid_argument msg) ->
        Error (Errors.Bad_chunk msg))

type 'a perflow = {
  pf_base : t;
  table : 'a State_table.t;
  role : Taxonomy.role;
  encode : 'a -> string;
  decode : string -> 'a;
  insert : Openmb_net.Hfl.t -> 'a -> unit;  (* built once: a put allocates no closure *)
  mutable suspect : bool;  (* the crash latch: see [export] and [latch] *)
}

let perflow base table ~role ~encode ~decode =
  {
    pf_base = base;
    table;
    role;
    encode;
    decode;
    insert = (fun key v -> State_table.insert table ~key v);
    suspect = false;
  }

let seal_entry p (e : _ State_table.entry) =
  seal_raw p.pf_base ~role:p.role ~partition:Taxonomy.Per_flow ~key:e.key (p.encode e.value)

let marked p hfl =
  let found = ref false in
  State_table.iter_matching p.table hfl (fun e -> if e.moved then found := true);
  !found

(* Marked entries belong to an earlier pending transfer whose deferred
   delete will collect them, so an overlapping get skips them.  After a
   crash with marks outstanding ([suspect]), though, this get may be the
   retransmission of one whose reply died with the agent's dedup cache:
   exporting only the unmarked remainder would let the controller close
   the stream without the lost chunks, silently completing a partial
   move.  Refusing aborts the transfer; the rollback clears the marks
   and the re-run exports everything.  Chunks are consed during the one
   pass, so they come out in the order [State_table.matching] returns. *)
let export p hfl =
  if not (Openmb_net.Hfl.compatible_with_granularity hfl (State_table.granularity p.table))
  then Error Errors.Granularity_too_fine
  else if p.suspect && marked p hfl then
    Error (Errors.Illegal_operation "export possibly lost in a crash for this range")
  else begin
    let chunks = ref [] in
    State_table.iter_matching p.table hfl (fun e ->
        if not e.moved then begin
          e.moved <- true;
          chunks := seal_entry p e :: !chunks
        end);
    State_table.add_move_filter p.table hfl;
    Ok !chunks
  end

let delete p hfl =
  let removed = State_table.remove_moved_matching p.table hfl in
  State_table.remove_move_filter p.table hfl;
  Ok (List.length removed)

(* Transactional rollback: give exported-but-undeleted entries back to
   this MB, so an aborted move leaves the source authoritative and
   re-exportable.  The marks the crash made suspect are gone with
   them. *)
let rollback p hfl =
  State_table.iter_matching p.table hfl (fun e -> e.moved <- false);
  State_table.remove_move_filter p.table hfl;
  p.suspect <- false

(* A crash can only have lost an export reply if some export was
   outstanding when it hit — i.e. some entry still carries a moved
   mark.  A crash with no marks has nothing to suspect, and latching
   anyway would poison a far-later unrelated transfer. *)
let latch p =
  if State_table.fold p.table ~init:false ~f:(fun acc e -> acc || e.State_table.moved) then
    p.suspect <- true

(* The bytes the entries' chunks would take, counted from their
   plaintexts: nothing is sealed to be measured. *)
let count p hfl =
  let n = ref 0 and bytes = ref 0 in
  State_table.iter_matching p.table hfl (fun e ->
      incr n;
      bytes := !bytes + Chunk.sealed_size (p.encode e.value));
  (!n, !bytes)

(* ------------------------------------------------------------------ *)
(* Impl assembly                                                       *)
(* ------------------------------------------------------------------ *)

let config_get t path =
  match Config_tree.get t.config path with
  | [] ->
    if Config_tree.mem t.config path then Ok []
    else Error (Errors.Unknown_config_key (Config_tree.path_to_string path))
  | entries -> Ok entries

let config_set t path values =
  match Config_tree.set t.config path values with
  | () -> Ok ()
  | exception Invalid_argument msg -> Error (Errors.Op_failed msg)

let config_del t path =
  if Config_tree.del t.config path then Ok ()
  else Error (Errors.Unknown_config_key (Config_tree.path_to_string path))

let default_impl t ?support ?report () : Southbound.impl =
  let illegal what _ = Error (Errors.Illegal_operation what) in
  let get = function Some p -> export p | None -> fun _ -> Ok [] in
  let put what = function
    | Some p -> import t ~role:p.role ~partition:Taxonomy.Per_flow ~decode:p.decode p.insert
    | None -> illegal what
  in
  let del = function Some p -> delete p | None -> fun _ -> Ok 0 in
  let stats = function Some p -> count p | None -> fun _ -> (0, 0) in
  let support_stats = stats support and report_stats = stats report in
  let granularity, table_entries =
    match (support, report) with
    | Some p, _ -> (State_table.granularity p.table, fun () -> State_table.size p.table)
    | None, Some p -> (State_table.granularity p.table, fun () -> State_table.size p.table)
    | None, None -> (Openmb_net.Hfl.full_granularity, fun () -> 0)
  in
  {
    name = t.name;
    kind = t.kind;
    granularity;
    cost = t.cost;
    table_entries;
    get_config = config_get t;
    set_config = config_set t;
    del_config = config_del t;
    (* Reading a state class the MB does not keep yields an empty
       stream (a move touches both supporting and reporting state, and
       most MBs hold only one); importing into an absent class is an
       error. *)
    get_support_perflow = get support;
    put_support_perflow = put "MB keeps no per-flow supporting state" support;
    del_support_perflow = del support;
    get_support_shared = (fun () -> Ok None);
    put_support_shared = illegal "MB keeps no shared supporting state";
    get_report_perflow = get report;
    put_report_perflow = put "MB keeps no per-flow reporting state" report;
    del_report_perflow = del report;
    get_report_shared = (fun () -> Ok None);
    put_report_shared = illegal "MB keeps no shared reporting state";
    abort_perflow =
      (fun hfl ->
        Option.iter (fun p -> rollback p hfl) support;
        Option.iter (fun p -> rollback p hfl) report);
    on_crash =
      (fun () ->
        Option.iter latch support;
        Option.iter latch report);
    stats =
      (fun hfl ->
        let sc, sb = support_stats hfl and rc, rb = report_stats hfl in
        {
          Southbound.empty_stats with
          perflow_support_chunks = sc;
          perflow_support_bytes = sb;
          perflow_report_chunks = rc;
          perflow_report_bytes = rb;
        });
    process_packet = (fun p ~side_effects -> inject t p ~side_effects);
    set_event_sink =
      (fun filter sink ->
        t.introspect <- filter;
        t.event_sink <- sink);
    set_op_active = set_op_active t;
  }
