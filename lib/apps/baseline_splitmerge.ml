open Openmb_sim

type report = {
  move_duration : float;
  buffered_packets : int;
  avg_added_latency : float;
  max_added_latency : float;
}

(* Split/Merge moves a chunk by direct reference in 0.244 ms, and the
   destination, an IDS, serves a packet in 0.8 ms. *)
let per_chunk_move = Time.us 244.0
let per_packet = Time.us 800.0

let run ~n_chunks ~rate_pps =
  let engine = Engine.create () in
  let halt_duration = Time.to_seconds per_chunk_move *. float_of_int n_chunks in
  let service = Time.to_seconds per_packet in
  (* The destination MB's data path: serial server with queueing. *)
  let dp_free_at = ref 0.0 in
  let added = Stats.create () in
  let process ~arrival ~buffered =
    let now = Time.to_seconds (Engine.now engine) in
    let start = Float.max now !dp_free_at in
    dp_free_at := start +. service;
    let finish = !dp_free_at in
    if buffered then Stats.add added (finish -. arrival -. service)
  in
  (* Halt window [t0, t0 + halt]: arrivals buffer; at the end of the
     window the buffer drains into the destination ahead of (already
     scheduled) live arrivals at the same instant. *)
  let t0 = 0.5 in
  let t_resume = t0 +. halt_duration in
  let buffer = Queue.create () in
  let buffered_total = ref 0 in
  let horizon = t_resume +. 30.0 in
  let interval = 1.0 /. rate_pps in
  let n_arrivals = int_of_float (horizon /. interval) in
  for k = 0 to n_arrivals - 1 do
    let ts = float_of_int k *. interval in
    ignore
      (Engine.schedule_at engine (Time.seconds ts) (fun () ->
           let now = Time.to_seconds (Engine.now engine) in
           if now >= t0 && now < t_resume then begin
             Queue.push now buffer;
             incr buffered_total
           end
           else process ~arrival:now ~buffered:false))
  done;
  ignore
    (Engine.schedule_at engine (Time.seconds t_resume) (fun () ->
         Queue.iter (fun arrival -> process ~arrival ~buffered:true) buffer;
         Queue.clear buffer));
  Engine.run engine;
  {
    move_duration = halt_duration;
    buffered_packets = !buffered_total;
    avg_added_latency = Stats.mean added;
    max_added_latency = Stats.max_value added;
  }
