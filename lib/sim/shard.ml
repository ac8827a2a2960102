(* One shard: engine + PRNG + telemetry + per-destination outboxes.

   Outbox records store the callback and its arguments as [Obj.t], the
   same closure-free convention as the engine's pooled cells: the typed
   [post] signature is the only writer and [inject] casts back.  Outboxes are plain lists kept in
   reverse posting order — cross-shard messages are the rare path, a
   few per epoch against thousands of shard-local events.

   Thread-safety is by ownership, not locking: only the domain running
   a shard touches its engine, PRNG, telemetry or outboxes, and the
   epoch barrier's mutex hand-off is what publishes outbox contents to
   the coordinator ([Sharded_engine]). *)

type omsg = {
  m_at : Time.t;
  m_seq : int;
  m_f : Obj.t;
  m_x : Obj.t;
}

type t = {
  s_id : int;
  s_shards : int;
  s_engine : Engine.t;
  s_prng : Prng.t;
  s_tel : Telemetry.t;
  out : omsg list array; (* per-destination, reversed *)
  mutable next_seq : int;
  mutable posted : int;
}

let create ?slot_us ?span_capacity ~id ~shards ~prng () =
  let tel = Telemetry.create ?span_capacity () in
  {
    s_id = id;
    s_shards = shards;
    s_engine = Engine.create ?slot_us ~telemetry:tel ();
    s_prng = prng;
    s_tel = tel;
    out = Array.make shards [];
    next_seq = 0;
    posted = 0;
  }

let id t = t.s_id
let shards t = t.s_shards
let engine t = t.s_engine
let prng t = t.s_prng
let telemetry t = t.s_tel
let posted t = t.posted

let check_dst t dst =
  if dst < 0 || dst >= t.s_shards then
    invalid_arg (Printf.sprintf "Shard.post: destination %d out of range" dst)

let enqueue t ~dst ~at ~f ~x =
  check_dst t dst;
  if Time.compare at (Engine.now t.s_engine) < 0 then
    invalid_arg "Shard.post: time is in the past";
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.posted <- t.posted + 1;
  t.out.(dst) <- { m_at = at; m_seq = seq; m_f = f; m_x = x } :: t.out.(dst)

let post : 'a. t -> dst:int -> at:Time.t -> ('a -> unit) -> 'a -> unit =
 fun t ~dst ~at f x ->
  if dst = t.s_id then Engine.call_at t.s_engine at f x
  else enqueue t ~dst ~at ~f:(Obj.repr f) ~x:(Obj.repr x)

type route = { route : 'a. at:Time.t -> ('a -> unit) -> 'a -> unit }

let route_to t ~dst = { route = (fun ~at f x -> post t ~dst ~at f x) }

let msg_at m = m.m_at
let msg_seq m = m.m_seq

let drain t ~dst =
  let msgs = t.out.(dst) in
  t.out.(dst) <- [];
  List.rev msgs

let inject t ~at m = Engine.call_at t.s_engine at (Obj.obj m.m_f : Obj.t -> unit) m.m_x
