open Openmb_sim
open Openmb_net

type kind = Move | Clone | Merge

type action =
  | Put_batch of Chunk.t list
  | Forward of Event.t
  | Buffered
  | Serial_window of Time.t
  | Return of Event.t
  | Abort_perflow
  | Abort of Errors.t
  | Complete
  | Arm_quiescence of Time.t
  | Finish
  | Delete

(* Per-key bookkeeping, one record per key the gets streamed.  Keys are
   the HFL values themselves, under the polymorphic hash and structural
   equality: equal exactly when the keys' text forms are, constraint
   order included (unlike [Hfl.equal]), and nothing is rendered per
   chunk.  Shared state and whole clone/merge transfers are keyed
   [Hfl.any]. *)
type key = {
  mutable seen : int;  (* Bit [s] set once get stream [s] delivered the key. *)
  mutable putting : int;
      (* Chunks received and not yet acknowledged: a flow with both a
         supporting and a reporting chunk has its events buffered until
         every chunk under the key received so far is acknowledged. *)
  mutable started : Time.t;
      (* First receipt since [putting] was last 0; the gap to the key's
         completing ack is the per-flow serialization window (the
         paper's Fig. 7 metric).  It holds the receive time the shell
         passed in, already boxed, so setting it allocates nothing. *)
}

type t = {
  kind : kind;
  batch_chunks : int;
  batch_bytes : int;
  put_window : int;
  quiescence : Time.t;
  emit : t -> action -> unit;
  (* Per get stream: distinct chunks received, and the [End_of_state]
     count once announced (-1 before). *)
  received : int array;
  announced : int array;
  mutable open_gets : int;
  mutable pending_puts : int;
  (* Windowed batching: streamed chunks queue here until a size-bounded
     batch is cut; at most [put_window] batches are in flight at once.
     Each queued or in-flight chunk counts in [pending_puts] and in its
     key's [putting] from the moment it is received. *)
  queued : Chunk.t Queue.t;
  mutable queued_bytes : int;
  mutable inflight : int;
  mutable returned : bool;
  mutable chunks : int;
  mutable bytes : int;
  keys : (Hfl.t, key) Hashtbl.t;
  buffered : (Hfl.t, Event.t Queue.t) Hashtbl.t;
  mutable buffered_count : int;
  mutable last_event : Time.t;
}

let create ~kind ~gets ~batch_chunks ~batch_bytes ~put_window ~quiescence ~now ~emit =
  {
    kind;
    batch_chunks;
    batch_bytes;
    put_window;
    quiescence;
    emit;
    received = Array.make gets 0;
    announced = Array.make gets (-1);
    open_gets = gets;
    pending_puts = 0;
    queued = Queue.create ();
    queued_bytes = 0;
    inflight = 0;
    returned = false;
    chunks = 0;
    bytes = 0;
    keys = Hashtbl.create 64;
    buffered = Hashtbl.create 16;
    buffered_count = 0;
    last_event = now;
  }

let kind t = t.kind
let chunks t = t.chunks
let bytes t = t.bytes
let buffered t = t.buffered_count
let inflight t = t.inflight

let chunk_key (chunk : Chunk.t) =
  match chunk.partition with Taxonomy.Per_flow -> chunk.key | Taxonomy.Shared -> Hfl.any

let event_key t key = match t.kind with Move -> key | Clone | Merge -> Hfl.any

let flush t id =
  if Hashtbl.length t.buffered > 0 then
    match Hashtbl.find t.buffered id with
    | exception Not_found -> ()
    | q ->
      Hashtbl.remove t.buffered id;
      t.buffered_count <- t.buffered_count - Queue.length q;
      Queue.iter (fun ev -> t.emit t (Forward ev)) q

let arm t ~now =
  let due = Time.(t.last_event + t.quiescence) in
  (* Clamp to a positive minimum: floating-point rounding can make
     [due - now] collapse to zero while [now - last_event] still
     compares below the quiescence threshold, which would re-arm the
     check at the same instant forever. *)
  t.emit t (Arm_quiescence (Time.max Time.(due - now) (Time.ms 1.0)))

let maybe_return t ~now =
  if (not t.returned) && t.open_gets = 0 && t.pending_puts = 0 then begin
    t.returned <- true;
    (* Any still-buffered events belong to flows that started mid-move
       (no chunk was ever exported for them): replay them now, in
       order — the destination rebuilds their state from scratch. *)
    let ids = Hashtbl.fold (fun id _ acc -> id :: acc) t.buffered [] in
    List.iter (flush t) ids;
    t.last_event <- now;
    t.emit t Complete;
    arm t ~now
  end

(* Transactional rollback (the paper's move/clone are all-or-nothing
   from the caller's perspective): on any mid-transfer failure the
   source keeps its state — buffered re-process events flush back to
   it, and an [Abort_perflow] clears the moved marks its exports left
   behind so the state is re-exportable.  The destination may retain
   already-installed copies; the source stays authoritative and no
   delete is ever issued. *)
let fail t err =
  if not t.returned then begin
    t.returned <- true;
    Hashtbl.iter (fun _ q -> Queue.iter (fun ev -> t.emit t (Return ev)) q) t.buffered;
    (match t.kind with Move -> t.emit t Abort_perflow | Clone | Merge -> ());
    Hashtbl.reset t.buffered;
    t.buffered_count <- 0;
    t.emit t (Abort err)
  end

(* The per-key bookkeeping one acknowledged chunk performs, once per
   chunk in batch order, so event buffering and flushing behave exactly
   as under sequential acks.  A key's buffered events flush only when
   its last outstanding chunk is acknowledged, so a flow with both
   supporting and reporting state never sees events forwarded after
   half its state landed. *)
let ack t ~now id =
  t.pending_puts <- t.pending_puts - 1;
  let k = Hashtbl.find t.keys id in
  if k.putting > 1 then k.putting <- k.putting - 1
  else begin
    k.putting <- 0;
    (* Every chunk under the key is installed: the key's serialization
       window — first export to last ack — closes here. *)
    t.emit t (Serial_window Time.(now - k.started));
    flush t id
  end

(* Cut one size-bounded batch off the head of the queue, preserving
   stream order: built front to back, so no list is reversed.  The
   recursion is at most [batch_chunks] deep. *)
let rec next_batch t n bytes =
  if Queue.is_empty t.queued || n >= t.batch_chunks || (n > 0 && bytes >= t.batch_bytes) then []
  else begin
    let c = Queue.pop t.queued in
    t.queued_bytes <- t.queued_bytes - Chunk.size_bytes c;
    c :: next_batch t (n + 1) (bytes + Chunk.size_bytes c)
  end

(* Drain the queue into batches while the send window has room.  A
   batch is cut when enough chunks or bytes have accumulated, or
   unconditionally once every get stream has ended (the flush of the
   final partial batch).  Acks re-enter here to refill the window. *)
let rec pump t =
  if
    (not t.returned)
    && (not (Queue.is_empty t.queued))
    && t.inflight < t.put_window
    && (Queue.length t.queued >= t.batch_chunks
       || t.queued_bytes >= t.batch_bytes
       || t.open_gets = 0)
  then begin
    let batch = next_batch t 0 0 in
    t.inflight <- t.inflight + 1;
    t.emit t (Put_batch batch);
    pump t
  end

let close t ~now =
  t.open_gets <- t.open_gets - 1;
  pump t;
  maybe_return t ~now

(* Each get stream keeps its own accounting so losses, duplicates and
   reorder on the reply channel are detected rather than silently
   corrupting the move: duplicated chunks are dropped, and the stream
   only closes once the [End_of_state] count has been reconciled against
   the chunks actually received — a missing chunk keeps the op open
   until its timeout aborts the transfer. *)
let chunk t ~stream ~now (c : Chunk.t) =
  t.returned
  ||
  let id = chunk_key c in
  let k =
    match Hashtbl.find t.keys id with
    | k -> k
    | exception Not_found ->
      let k = { seen = 0; putting = 0; started = now } in
      Hashtbl.add t.keys id k;
      k
  in
  let bit = 1 lsl stream in
  if k.seen land bit <> 0 then false
  else begin
    k.seen <- k.seen lor bit;
    t.received.(stream) <- t.received.(stream) + 1;
    (* The chunk is now this transfer's responsibility: events on its
       key buffer until the destination acknowledges it. *)
    let size = Chunk.size_bytes c in
    t.pending_puts <- t.pending_puts + 1;
    t.chunks <- t.chunks + 1;
    t.bytes <- t.bytes + size;
    if k.putting = 0 then k.started <- now;
    k.putting <- k.putting + 1;
    Queue.push c t.queued;
    t.queued_bytes <- t.queued_bytes + size;
    pump t;
    let announced = t.announced.(stream) in
    if announced >= 0 && t.received.(stream) >= announced then begin
      close t ~now;
      true
    end
    else false
  end

let end_of_state t ~stream ~now count =
  t.returned
  ||
  if t.received.(stream) >= count then begin
    close t ~now;
    true
  end
  else begin
    (* Chunks overtaken by the end marker are still in flight: keep the
       stream open until they arrive (or its timeout aborts the
       transfer). *)
    t.announced.(stream) <- count;
    false
  end

let rec ack_batch t ~now idx errors = function
  | [] -> ()
  | c :: rest -> (
    match List.assoc_opt idx errors with
    | Some e -> fail t e
    | None ->
      ack t ~now (chunk_key c);
      ack_batch t ~now (idx + 1) errors rest)

let batch_acked t ~now batch errors =
  t.inflight <- t.inflight - 1;
  (* Acknowledge the batch's chunks in order up to the first failure —
     exactly what N sequential acks would do. *)
  ack_batch t ~now 0 errors batch;
  maybe_return t ~now;
  pump t

let batch_failed t err =
  t.inflight <- t.inflight - 1;
  fail t err

let event t ~now key ev =
  t.last_event <- now;
  let id = event_key t key in
  (* Forward once the destination holds the state the event applies
     to: either every chunk received for its key has been acknowledged
     (a chunk that arrives later for an acknowledged key buffers its
     events again until its own ack), or the source's export streams
     have ended without a chunk for this key — the flow started
     mid-move and exists only through its replayed packets. *)
  let ready =
    match Hashtbl.find t.keys id with
    | k -> k.putting = 0
    | exception Not_found -> t.open_gets = 0
  in
  if ready then t.emit t (Forward ev)
  else begin
    let q =
      match Hashtbl.find t.buffered id with
      | q -> q
      | exception Not_found ->
        let q = Queue.create () in
        Hashtbl.replace t.buffered id q;
        q
    in
    Queue.push ev q;
    t.buffered_count <- t.buffered_count + 1;
    t.emit t Buffered
  end

let quiesce t ~now =
  if Time.compare Time.(now - t.last_event) t.quiescence >= 0 then begin
    t.emit t Finish;
    match t.kind with Move -> t.emit t Delete | Clone | Merge -> ()
  end
  else arm t ~now
