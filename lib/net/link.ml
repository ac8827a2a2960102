open Openmb_sim

type t = {
  name : string;
  engine : Engine.t;
  (* Only the serialization clock: deliveries are scheduled here. *)
  channel : unit Channel.t;
  faults : Faults.link option;
  mutable deliver : Packet_batch.t -> unit;
  (* 1-member batches for [send] and for members that split off. *)
  pool : Packet_batch.pool;
  mutable packets : int;
  mutable bytes : int;
}

(* 1 Gbit/s, in bytes. *)
let bytes_per_sec = 1e9 /. 8.0

let create engine ?faults ?(latency = Time.us 50.0) ~name ~dst () =
  {
    name;
    engine;
    channel = Channel.create engine ~latency ~bytes_per_sec ~deliver:ignore ();
    faults;
    deliver = (fun b -> Packet_batch.drain b dst);
    pool = Packet_batch.pool ();
    packets = 0;
    bytes = 0;
  }

let set_dst_batch t f = t.deliver <- f
let deliver_batch t b = t.deliver b
let deliver_one t p = t.deliver (Packet_batch.singleton t.pool p)

(* A whole batch crosses the wire as one message: one reservation on the
   channel's serialization clock and one delivery event.  Ownership of
   [b] passes to the receiver.

   Per-link faults apply to batch members individually: a dropped member
   is compacted out; a delayed member leaves the batch and arrives alone
   at its jittered time ("split on reorder"); duplicate copies also
   travel alone.  Survivors stay in arrival order, so the fault-free
   members of a batch are never reordered among themselves.  The batch's
   own delivery is scheduled when its first on-time member is met, so a
   1-member batch schedules its deliveries in the order a lone packet's
   fault decisions list them. *)
let send_batch t b =
  let n = Packet_batch.length b in
  if n = 0 then Packet_batch.release b
  else begin
    let bytes = Packet_batch.total_bytes b in
    t.packets <- t.packets + n;
    t.bytes <- t.bytes + bytes;
    let arrival = Channel.reserve t.channel ~bytes in
    match t.faults with
    | None -> Engine.call2_at t.engine arrival deliver_batch t b
    | Some link ->
      let now = Engine.now t.engine in
      let sizes = Packet_batch.sizes b in
      let scheduled = ref false in
      for i = 0 to n - 1 do
        match Faults.deliveries link ~now ~bytes:sizes.(i) with
        | [] -> Packet_batch.drop b i
        | first :: dups ->
          let p = Packet_batch.get b i in
          if first <> Time.zero then begin
            Packet_batch.drop b i;
            Engine.call2_at t.engine Time.(arrival + first) deliver_one t p
          end
          else if not !scheduled then begin
            scheduled := true;
            Engine.call2_at t.engine arrival deliver_batch t b
          end;
          List.iter
            (fun extra -> Engine.call2_at t.engine Time.(arrival + extra) deliver_one t p)
            dups
      done;
      ignore (Packet_batch.compact b : int);
      if not !scheduled then Packet_batch.release b
  end

let send t p = send_batch t (Packet_batch.singleton t.pool p)
let name t = t.name
let packets_sent t = t.packets
let bytes_sent t = t.bytes
