open Openmb_sim
open Openmb_net

type t = Packet.t array

let rec sorted_from (arr : Packet.t array) i =
  i >= Array.length arr
  || (Time.compare arr.(i - 1).ts arr.(i).ts <= 0 && sorted_from arr (i + 1))

(* A stable sort of sorted input is the identity, so skipping it for
   input already in order changes no trace. *)
let of_packets pkts =
  let arr = Array.of_list pkts in
  if not (sorted_from arr 1) then
    Array.stable_sort (fun (a : Packet.t) (b : Packet.t) -> Time.compare a.ts b.ts) arr;
  arr

let packets t = Array.to_list t
let packet_count t = Array.length t

let payload_bytes t =
  Array.fold_left (fun acc p -> acc + Packet.body_bytes p) 0 t

let duration t = if Array.length t = 0 then Time.zero else t.(Array.length t - 1).Packet.ts

let merge traces = of_packets (List.concat_map packets traces)

let filter t ~f = Array.of_list (List.filter f (Array.to_list t))

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

(* The one driver of both replays, holding one engine event in flight.
   The call reserves one insertion sequence number per packet index,
   where scheduling every batch up front took its numbers, and files
   the first batch.  The batch opened at index [first] is filed under
   [base + first]; its event carries only [first], an immediate int.
   When it fires it files its successor before [deliver] runs, so
   [Engine.pending] and [Engine.next_at] answer as they would with
   every batch queued.  Each event keeps the (time, seq) key the
   up-front schedule gave it and is filed while an earlier key fires,
   so the global order is unchanged.  The successor is never in the
   past: the trace is sorted, a window-expired batch stopped because
   its next packet lands after its deadline, and a full batch leaves at
   its last member's timestamp, which is at most the next member's. *)
let drive engine t ~batch ~window ~deliver =
  let n = Array.length t in
  if n > 0 then begin
    let base = Engine.reserve engine n in
    let rec file first =
      (* A full batch, or the trace's last, leaves at its last member's
         timestamp, a window-expired one at its deadline, [window] after
         its first member.  The engine forms the deadline's sum: one
         computed here would be boxed to be passed. *)
      let stop = batch_stop t ~batch ~window first in
      if stop - first < batch && stop < n then
        Engine.call_at_reserved engine t.(first).Packet.ts ~plus:window ~seq:(base + first)
          fire first
      else
        Engine.call_at_reserved engine t.(stop - 1).Packet.ts ~plus:Time.zero
          ~seq:(base + first) fire first
    and fire first =
      let stop = batch_stop t ~batch ~window first in
      if stop < n then file stop;
      deliver first stop
    in
    file 0
  end

let replay engine t ~into =
  drive engine t ~batch:1 ~window:Time.zero ~deliver:(fun i _ -> into t.(i))

let replay_batched engine t ?pool ~batch ~window ~into () =
  if batch < 1 then invalid_arg "Trace.replay_batched: batch must be >= 1";
  let pool = match pool with Some p -> p | None -> Packet_batch.pool () in
  (* Wrapped once: [~capacity:batch] would allocate its [Some] per batch. *)
  let capacity = Some batch in
  drive engine t ~batch ~window ~deliver:(fun first stop ->
      let b = Packet_batch.alloc ?capacity pool in
      for i = first to stop - 1 do
        Packet_batch.push b t.(i)
      done;
      into b)

module Id_gen = struct
  type gen = int ref

  let create () = ref 0

  let next g =
    let v = !g in
    incr g;
    v
end
