open Openmb_sim
open Openmb_net

type t = Packet.t array

let of_packets pkts =
  let arr = Array.of_list pkts in
  Array.stable_sort (fun (a : Packet.t) (b : Packet.t) -> Time.compare a.ts b.ts) arr;
  arr

let packets t = Array.to_list t
let packet_count t = Array.length t

let payload_bytes t =
  Array.fold_left (fun acc p -> acc + Packet.body_bytes p) 0 t

let duration t = if Array.length t = 0 then Time.zero else t.(Array.length t - 1).Packet.ts

let merge traces = of_packets (List.concat_map packets traces)

let filter t ~f = Array.of_list (List.filter f (Array.to_list t))

let replay engine t ~into =
  (* Closure-free: one pooled event cell per packet, no per-packet
     closure or handle. *)
  Array.iter (fun (p : Packet.t) -> Engine.call_at engine p.ts into p) t

(* The size-or-deadline rule: a batch opened at index [first] takes
   the packets that follow while it has fewer than [batch] members and
   they land within [window] of its first member.  Returns the index
   one past its last member. *)
let batch_stop t ~batch ~window first =
  let deadline = Time.(t.(first).Packet.ts + window) in
  let n = Array.length t in
  let stop = ref (first + 1) in
  while !stop < n && !stop - first < batch && Time.compare t.(!stop).Packet.ts deadline <= 0 do
    incr stop
  done;
  !stop

let replay_batched engine t ?pool ~batch ~window ~into () =
  (* One injection event per batch: [replay]'s event per packet becomes
     an event per batch.  The batches are cut here, but an event carries
     only its batch's first index and fills a pooled batch when it
     fires, so batches are live only between firing and release. *)
  if batch < 1 then invalid_arg "Trace.replay_batched: batch must be >= 1";
  let pool = match pool with Some p -> p | None -> Packet_batch.pool () in
  let fill first =
    let b = Packet_batch.alloc ~capacity:batch pool in
    for i = first to batch_stop t ~batch ~window first - 1 do
      Packet_batch.push b t.(i)
    done;
    into b
  in
  let n = Array.length t in
  let first = ref 0 in
  while !first < n do
    let stop = batch_stop t ~batch ~window !first in
    (* A full batch, or the trace's last, leaves at its last member's
       timestamp; a window-expired one at its deadline. *)
    let at =
      if stop - !first < batch && stop < n then Time.(t.(!first).Packet.ts + window)
      else t.(stop - 1).Packet.ts
    in
    Engine.call_at engine at fill !first;
    first := stop
  done

module Id_gen = struct
  type gen = int ref

  let create () = ref 0

  let next g =
    let v = !g in
    incr g;
    v
end
