open Openmb_sim

type t = {
  engine : Engine.t;
  name : string;
  table : Flow_table.t;
  ports : (string, Link.t) Hashtbl.t;
  mutable miss_handler : (Packet.t -> unit) option;
  mutable received : int;
  mutable dropped : int;
  c_recv : Telemetry.counter;
  c_drop : Telemetry.counter;
  c_punt : Telemetry.counter;
  h_occ : Telemetry.histogram;
  (* Pool for split batches and for the 1-member batches of [receive]. *)
  pool : Packet_batch.pool;
  mutable actions : Flow_table.action option array;  (* classification scratch *)
}

let switching_delay = Time.us 10.0

let create engine ?telemetry ~name () =
  let c n =
    match telemetry with
    | Some tel -> Telemetry.counter tel n
    | None -> Telemetry.null_counter
  in
  {
    engine;
    name;
    table = Flow_table.create ();
    ports = Hashtbl.create 8;
    miss_handler = None;
    received = 0;
    dropped = 0;
    c_recv = c "switch.received";
    c_drop = c "switch.dropped";
    c_punt = c "switch.to_controller";
    h_occ =
      (match telemetry with
      | Some tel -> Telemetry.histogram tel "switch.batch_occupancy"
      | None -> Telemetry.null_histogram);
    pool = Packet_batch.pool ?telemetry ();
    actions = Array.make 64 None;
  }

let name t = t.name
let batch_pool t = t.pool
let attach_port t ~port link = Hashtbl.replace t.ports port link
let table t = t.table
let on_miss t f = t.miss_handler <- Some f

let drop t =
  t.dropped <- t.dropped + 1;
  Telemetry.incr t.c_drop

let punt t p =
  Telemetry.incr t.c_punt;
  match t.miss_handler with Some f -> f p | None -> drop t

(* Whether members [i, n) all forward to [port]. *)
let rec forwards_to actions port i n =
  i >= n
  ||
  match actions.(i) with
  | Some (Flow_table.Forward p') when String.equal p' port -> forwards_to actions port (i + 1) n
  | _ -> false

(* Mixed verdicts: walk the members in original index order (preserving
   per-arrival FIFO even when the batch splits between forward, drop and
   punt), staging each output port's survivors into a pool batch that is
   flushed once per port. *)
let split t b actions n =
  let staged = ref [] in
  for i = 0 to n - 1 do
    match actions.(i) with
    | Some (Flow_table.Forward port) -> (
      let stage =
        match List.find_opt (fun (p, _, _) -> String.equal p port) !staged with
        | Some _ as s -> s
        | None -> (
          match Hashtbl.find_opt t.ports port with
          | Some link ->
            let s = (port, link, Packet_batch.alloc t.pool) in
            staged := s :: !staged;
            Some s
          | None -> None)
      in
      match stage with
      | Some (_, _, sb) -> Packet_batch.push sb (Packet_batch.get b i)
      | None -> drop t)
    | Some Flow_table.Drop -> drop t
    | Some Flow_table.To_controller | None -> punt t (Packet_batch.get b i)
  done;
  List.iter (fun (_, link, sb) -> Link.send_batch link sb) (List.rev !staged);
  Packet_batch.release b

(* Classify a whole batch with one flow-table pass, then forward.  The
   common case — every member forwards to the same port — hands the
   batch onward intact, zero copies and no allocation. *)
let forward_batch_now t b =
  let n = Packet_batch.length b in
  if n = 0 then Packet_batch.release b
  else begin
    let actions =
      if Array.length t.actions < n then begin
        t.actions <- Array.make (2 * n) None;
        t.actions
      end
      else t.actions
    in
    Flow_table.lookup_batch t.table b actions;
    match actions.(0) with
    | Some (Flow_table.Forward port) when forwards_to actions port 1 n -> (
      match Hashtbl.find t.ports port with
      | link -> Link.send_batch link b
      | exception Not_found -> split t b actions n)
    | _ -> split t b actions n
  end

let receive_batch t b =
  let n = Packet_batch.length b in
  t.received <- t.received + n;
  Telemetry.add t.c_recv n;
  Telemetry.observe_count t.h_occ n;
  Engine.call2_after t.engine switching_delay forward_batch_now t b

let receive t p = receive_batch t (Packet_batch.singleton t.pool p)

let packets_received t = t.received
let packets_dropped t = t.dropped
