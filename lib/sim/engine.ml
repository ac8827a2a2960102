(* The event loop over the hierarchical timer wheel.

   Cells are popped in exact (timestamp, insertion-sequence) order, so
   behavior is identical to the former binary-heap-of-closures engine:
   same-instant events fire in scheduling order, [run ?until] and
   [step] are unchanged.

   Two scheduling paths share the pooled cell store:

   - [schedule_at]/[schedule_after] keep the general closure API and a
     cancellable handle.  The handle records the cell's generation
     stamp; [release] bumps the stamp before dispatch, so a cancel
     racing a recycled cell is a no-op.

   - [call_at]/[call2_at] are the closure-free hot path: the callback
     and its arguments are stored in the cell's payload slots and the
     dispatch casts them back.  The casts are safe because the typed
     signatures below are the only writers, OCaml's calling convention
     is uniform across value types, and a cell's kind tag selects the
     matching arity at dispatch.

   [reserve] and [call_at_reserved] split [call_at] in two: the
   sequence number is taken when the caller decides the order, the
   cell only when the event is filed. *)

module Wheel = Timer_wheel

type t = {
  (* A one-element float array, not a mutable field: a mutable float in
     a mixed record is boxed, which would allocate on every event. *)
  clock_ : float array;
  w : Wheel.t;
  mutable tombstones : int;
  mutable executed : int;
  (* "engine.events" when created with a telemetry instance, the shared
     null sink otherwise — dispatch stays branch-free either way. *)
  ev : Telemetry.counter;
}

type handle = { eng : t; idx : int; gen : int; mutable hc : bool }

type pool_stats = {
  capacity : int;
  free : int;
  queued : int;
  high_water : int;
}

let kind_closure = 0
let kind_call1 = 1
let kind_call2 = 2
let obj_unit = Obj.repr ()

let create ?slot_us ?telemetry () =
  {
    clock_ = [| 0.0 |];
    w = Wheel.create ?slot_us ();
    tombstones = 0;
    executed = 0;
    ev =
      (match telemetry with
      | Some tel -> Telemetry.counter tel "engine.events"
      | None -> Telemetry.null_counter);
  }

let now t : Time.t = t.clock_.(0)

let schedule_at t when_ f =
  if Time.compare when_ (now t) < 0 then
    invalid_arg "Engine.schedule_at: time is in the past";
  let idx =
    Wheel.alloc t.w ~at:when_ ~kind:kind_closure ~a:(Obj.repr f) ~b:obj_unit
      ~c:obj_unit
  in
  { eng = t; idx; gen = Wheel.gen t.w idx; hc = false }

let schedule_after t delay f =
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t Time.(now t + delay) f

let call_at : 'a. t -> Time.t -> ('a -> unit) -> 'a -> unit =
 fun t when_ f x ->
  if Time.compare when_ (now t) < 0 then
    invalid_arg "Engine.call_at: time is in the past";
  ignore
    (Wheel.alloc t.w ~at:when_ ~kind:kind_call1 ~a:(Obj.repr f) ~b:(Obj.repr x)
       ~c:obj_unit)

let call_after : 'a. t -> Time.t -> ('a -> unit) -> 'a -> unit =
 fun t delay f x ->
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Engine.call_after: negative delay";
  ignore
    (Wheel.alloc_after t.w ~clock:t.clock_ ~delay ~kind:kind_call1 ~a:(Obj.repr f)
       ~b:(Obj.repr x) ~c:obj_unit)

let call2_at : 'a 'b. t -> Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit =
 fun t when_ f x y ->
  if Time.compare when_ (now t) < 0 then
    invalid_arg "Engine.call2_at: time is in the past";
  ignore
    (Wheel.alloc t.w ~at:when_ ~kind:kind_call2 ~a:(Obj.repr f) ~b:(Obj.repr x)
       ~c:(Obj.repr y))

let call2_after : 'a 'b. t -> Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit =
 fun t delay f x y ->
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Engine.call2_after: negative delay";
  ignore
    (Wheel.alloc_after t.w ~clock:t.clock_ ~delay ~kind:kind_call2 ~a:(Obj.repr f)
       ~b:(Obj.repr x) ~c:(Obj.repr y))

let reserve t n = Wheel.reserve t.w n

let call_at_reserved : 'a. t -> Time.t -> plus:Time.t -> seq:int -> ('a -> unit) -> 'a -> unit =
 fun t at ~plus ~seq f x ->
  if Time.compare Time.(at + plus) (now t) < 0 then
    invalid_arg "Engine.call_at_reserved: time is in the past";
  ignore
    (Wheel.alloc_reserved t.w ~at ~plus ~seq ~kind:kind_call1 ~a:(Obj.repr f)
       ~b:(Obj.repr x) ~c:obj_unit)

let cancel h =
  h.hc <- true;
  let t = h.eng in
  if Wheel.gen t.w h.idx = h.gen && not (Wheel.cancelled t.w h.idx) then begin
    Wheel.set_cancelled t.w h.idx;
    t.tombstones <- t.tombstones + 1;
    (* Lazy purge: once tombstones outnumber live events, sweep them
       out so the pool shrinks back and pops never wade through a
       majority of corpses.  Amortized O(1) per cancel. *)
    if t.tombstones * 2 > Wheel.size t.w then
      t.tombstones <- t.tombstones - Wheel.purge t.w
  end

let is_cancelled h = h.hc

let pending t = Wheel.size t.w - t.tombstones

let executed t = t.executed

let next_at t = Wheel.next_at t.w

let pool_stats t =
  let capacity = Wheel.capacity t.w in
  let queued = Wheel.in_use t.w in
  { capacity; free = capacity - queued; queued; high_water = Wheel.high_water t.w }

let rec step t =
  let i = Wheel.pop t.w in
  if i < 0 then false
  else if Wheel.cancelled t.w i then begin
    t.tombstones <- t.tombstones - 1;
    Wheel.release t.w i;
    step t
  end
  else begin
    Wheel.load_at t.w i t.clock_;
    t.executed <- t.executed + 1;
    Telemetry.incr t.ev;
    let a = Wheel.pa t.w i in
    (* Payload reads come first ([release] clears them), release comes
       before dispatch: the callback may schedule (reusing this cell)
       or cancel a stale handle (inert after the gen bump).  Each arm
       reads only the slots its arity uses. *)
    (match Wheel.kind t.w i with
    | 0 ->
      Wheel.release t.w i;
      (Obj.obj a : unit -> unit) ()
    | 1 ->
      let b = Wheel.pb t.w i in
      Wheel.release t.w i;
      (Obj.obj a : Obj.t -> unit) b
    | _ ->
      let b = Wheel.pb t.w i and c = Wheel.pc t.w i in
      Wheel.release t.w i;
      (Obj.obj a : Obj.t -> Obj.t -> unit) b c);
    true
  end

(* Next live (non-cancelled) event, discarding tombstones on the way.
   [run ?until] must decide the boundary on the next event that will
   actually execute: a tombstone at the queue head with [at <= until]
   must not admit a later live event past the limit. *)
let rec peek_live t =
  let i = Wheel.peek t.w in
  if i >= 0 && Wheel.cancelled t.w i then begin
    ignore (Wheel.pop t.w);
    t.tombstones <- t.tombstones - 1;
    Wheel.release t.w i;
    peek_live t
  end
  else i

(* Whether the next live event is due by [limit].  Gates on the
   cascade-free probe first: peeking past the window would materialize
   far-future wheel slots and drag the wheel's position beyond every
   near-future insert that follows. *)
let due_by t limit =
  Wheel.may_have_before t.w limit
  &&
  let i = peek_live t in
  i >= 0 && Wheel.at_le t.w i limit

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
    while due_by t limit do
      ignore (step t)
    done;
    if Time.compare (now t) limit < 0 then t.clock_.(0) <- limit
