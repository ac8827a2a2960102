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

let replay_batched engine t ?pool ~batch ~window ~into () =
  (* Accumulate the trace through a size-or-deadline window and schedule
     one injection event per emitted batch: [replay]'s event per
     packet becomes an event per batch. *)
  let bld =
    Packet_batch.Builder.create ?pool ~size:batch ~window
      ~emit:(fun ~at b -> Engine.call_at engine at into b)
      ()
  in
  Array.iter (Packet_batch.Builder.add bld) t;
  Packet_batch.Builder.flush bld

module Id_gen = struct
  type gen = int ref

  let create () = ref 0

  let next g =
    let v = !g in
    incr g;
    v
end
