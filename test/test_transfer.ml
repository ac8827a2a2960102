(* Exhaustive small-scope check of the transfer machine ([Transfer]).

   Random seeds only sample the orderings a transfer can see, and the
   engine breaks same-instant ties one fixed way.  Here the machine runs
   alone — no engine, channel or agent — through every interleaving of
   its inputs for a small move, clone and merge, the way NICE
   model-checks OpenFlow controller programs by enumerating the orders
   of their handlers' events.  The machine is mutable, so each branch
   replays its prefix from a fresh machine.

   The paper's guarantees are checked as each action is emitted and
   again when no input is left:

   1. A completed transfer puts each streamed chunk exactly once, and
      every chunk the source exported was streamed.  An aborted move
      sends [abortPerflow]; an aborted transfer never deletes.
   2. An event reaches the destination at most once, and only when
      every chunk received for its key is acknowledged, or after the
      gets closed with no chunk for its key.  On abort every event still
      buffered returns to the source exactly once.  Once the transfer is
      over, every event it claimed was forwarded or returned.
   3. The delete at the source follows completion and a full quiescence
      period without events.
   4. Completion follows the last ack: every get is closed, every
      streamed chunk acknowledged and no batch in flight.

   Faults, at most one per path: a lost chunk, end marker or ack (seen
   as the op's timeout), a duplicated chunk, an end marker that
   overtakes a chunk, or a put error. *)

open Openmb_net
open Openmb_core

let quiescence = 3.0

(* Virtual time between two inputs; three of them make a quiescence
   period, so events can land before, at and after the timer. *)
let tick = 1.0

type scenario = {
  kind : Transfer.kind;
  streams : Chunk.t array array;  (** Per get, in stream order. *)
  batch_chunks : int;
  put_window : int;
}

let key_a = Hfl.of_string "nw_src=10.0.0.1/32"
let key_b = Hfl.of_string "nw_src=10.0.0.2/32"
let key_c = Hfl.of_string "nw_src=10.0.0.3/32"

let chunk role partition key = { Chunk.mb_kind = "dummy"; role; partition; key; cipher = "sealed" }

let event id key =
  let packet =
    Packet.make ~id ~ts:0.0 ~src_ip:(Addr.of_string "10.0.0.1")
      ~dst_ip:(Addr.of_string "1.1.1.1") ~src_port:1234 ~dst_port:80 ~proto:Packet.Tcp ()
  in
  (key, Event.Reprocess { key; packet })

(* One event on a key that has a chunk, one on a key that has none. *)
let events = [| event 1 key_a; event 2 key_c |]

(* ------------------------------------------------------------------ *)
(* One path: the world around the machine, and the checks              *)
(* ------------------------------------------------------------------ *)

type input =
  | Chunk of int  (** Get [s]'s next chunk. *)
  | End of int  (** Get [s]'s end marker; overtakes a chunk if one is left. *)
  | Dup of int * int  (** Get [s]'s chunk [i] arrives again. *)
  | Get_timeout of int
  | Ack of int  (** The ack of batch [b]. *)
  | Ack_error of int * int  (** Batch [b]'s ack fails its chunk [i]. *)
  | Put_timeout of int
  | Ev of int
  | Timer

(* A lost message is invisible to the machine until its op times out,
   so where the loss happens is fixed before a path starts; the faults
   the machine does see are chosen along the path. *)
type plan =
  | Seen  (** At most one duplicate, overtaking end marker or put error. *)
  | Lost of int * int
      (** Get [s]'s message [i] is lost: chunk [i], or its end marker
          when [i] is the stream's length. *)
  | Lost_ack of int  (** Batch [b]'s ack is lost. *)

type ev_state = Unsent | Claimed | Buffered | Forwarded | Returned

type batch = { chunks : Chunk.t list; lost : bool; mutable landed : bool }

type entry = In of input | Out of Transfer.action

type world = {
  sc : scenario;
  plan : plan;
  all_chunks : Chunk.t array;
  mutable now : float;
  next : int array;  (* Per get: index of its next chunk. *)
  ended : bool array;  (* Its end marker was sent (delivered or lost). *)
  end_in : bool array;  (* Its end marker arrived. *)
  pending : bool array;  (* Its op still takes replies. *)
  closed : bool array;  (* Its end marker and every chunk arrived. *)
  lossy : bool array;  (* A message of it was lost: its timeout may fire. *)
  delivered : bool array array;  (* Per get and chunk: arrived at least once. *)
  mutable fault : bool;  (* The path took its fault. *)
  mutable batches : batch list;  (* Newest first. *)
  mutable n_batches : int;
  evs : ev_state array;
  mutable feeding : int;  (* The event being fed, or -1. *)
  mutable last_event : float;
  streamed : bool array;  (* Per chunk: the machine took it. *)
  put : int array;
  acked : bool array;
  mutable completed : float option;
  mutable aborted : bool;
  mutable perflow_aborts : int;
  mutable finished : bool;
  mutable deleted : bool;
  mutable timer : float option;  (* Due time of the armed timer. *)
  mutable log : entry list;  (* Newest first. *)
}

exception Violation of string

let chunk_id w c =
  let rec go i = if w.all_chunks.(i) == c then i else go (i + 1) in
  go 0

let event_id (ev : Event.t) =
  let rec go i = if snd events.(i) == ev then i else go (i + 1) in
  go 0

let describe w = function
  | In (Chunk s) -> Printf.sprintf "chunk(get %d)" s
  | In (End s) -> Printf.sprintf "end(get %d)" s
  | In (Dup (s, i)) -> Printf.sprintf "DUPLICATE(get %d chunk %d)" s i
  | In (Get_timeout s) -> Printf.sprintf "timeout(get %d)" s
  | In (Ack b) -> Printf.sprintf "ack(batch %d)" b
  | In (Ack_error (b, i)) -> Printf.sprintf "ACK-ERROR(batch %d index %d)" b i
  | In (Put_timeout b) -> Printf.sprintf "timeout(batch %d)" b
  | In (Ev e) -> Printf.sprintf "event %d" e
  | In Timer -> "quiescence timer"
  | Out (Transfer.Put_batch cs) ->
    Printf.sprintf "=> putBatch [%s]"
      (String.concat "," (List.map (fun c -> string_of_int (chunk_id w c)) cs))
  | Out (Transfer.Forward ev) -> Printf.sprintf "=> forward event %d" (event_id ev)
  | Out Transfer.Buffered -> "=> buffer"
  | Out (Transfer.Serial_window _) -> "=> window"
  | Out (Transfer.Return ev) -> Printf.sprintf "=> return event %d" (event_id ev)
  | Out Transfer.Abort_perflow -> "=> abortPerflow"
  | Out (Transfer.Abort _) -> "=> abort"
  | Out Transfer.Complete -> "=> complete"
  | Out (Transfer.Arm_quiescence _) -> "=> arm timer"
  | Out Transfer.Finish -> "=> finish"
  | Out Transfer.Delete -> "=> delete"

let violate w fmt =
  Printf.ksprintf
    (fun msg ->
      let plan =
        match w.plan with
        | Seen -> ""
        | Lost (s, i) -> Printf.sprintf " (get %d loses message %d)" s i
        | Lost_ack b -> Printf.sprintf " (batch %d's ack is lost)" b
      in
      raise
        (Violation
           (Printf.sprintf "%s%s\n  path: %s" msg plan
              (String.concat "; " (List.rev_map (describe w) w.log)))))
    fmt

let key_id w (c : Chunk.t) = match w.sc.kind with Transfer.Move -> c.key | _ -> Hfl.any
let event_key w key = match w.sc.kind with Transfer.Move -> key | _ -> Hfl.any
let in_flight w = List.length (List.filter (fun b -> not b.landed) w.batches)
let all_closed w = Array.for_all Fun.id w.closed
let returned w = w.aborted || w.completed <> None

(* The destination holds an event's state: every chunk the machine took
   for its key is acknowledged, or the gets closed without one. *)
let key_ready w key =
  let mine = ref false and unacked = ref false in
  Array.iteri
    (fun i c ->
      if w.streamed.(i) && key_id w c = key then begin
        mine := true;
        if not w.acked.(i) then unacked := true
      end)
    w.all_chunks;
  if !mine then not !unacked else all_closed w

let full_quiescence w =
  match w.completed with
  | None -> false
  | Some t -> w.now -. Float.max t w.last_event >= quiescence

let on_action w m (a : Transfer.action) =
  w.log <- Out a :: w.log;
  match a with
  | Transfer.Put_batch chunks ->
    if returned w then violate w "a batch was put after the transfer returned";
    if List.length chunks > w.sc.batch_chunks then violate w "a batch exceeds batch_chunks";
    List.iter
      (fun c ->
        let i = chunk_id w c in
        if not w.streamed.(i) then violate w "a chunk was put before it was streamed";
        w.put.(i) <- w.put.(i) + 1;
        if w.put.(i) > 1 then violate w "guarantee 1: chunk %d was put twice" i)
      chunks;
    w.batches <- { chunks; lost = w.plan = Lost_ack w.n_batches; landed = false } :: w.batches;
    w.n_batches <- w.n_batches + 1;
    if in_flight w > w.sc.put_window then violate w "the put window overflowed";
    if Transfer.inflight m <> in_flight w then violate w "the machine miscounts its batches"
  | Transfer.Forward ev ->
    let e = event_id ev in
    (match w.evs.(e) with
    | Claimed | Buffered -> ()
    | Unsent -> violate w "event %d was forwarded before it arrived" e
    | Forwarded | Returned -> violate w "guarantee 2: event %d went out twice" e);
    if w.aborted then violate w "guarantee 2: event %d was forwarded after the abort" e;
    if not (key_ready w (event_key w (fst events.(e)))) then
      violate w "guarantee 2: event %d was forwarded before its key's state was acknowledged" e;
    w.evs.(e) <- Forwarded
  | Transfer.Buffered ->
    if w.feeding < 0 || w.evs.(w.feeding) <> Claimed then violate w "a buffer with no event fed";
    if w.completed <> None then violate w "an event was buffered after completion";
    w.evs.(w.feeding) <- Buffered
  | Transfer.Serial_window window ->
    if window < 0.0 then violate w "a serialization window opened in the future"
  | Transfer.Return ev ->
    let e = event_id ev in
    if w.evs.(e) <> Buffered then violate w "guarantee 2: event %d returned but not buffered" e;
    w.evs.(e) <- Returned
  | Transfer.Abort_perflow ->
    if w.sc.kind <> Transfer.Move then violate w "abortPerflow for a clone or merge";
    if w.completed <> None then violate w "abortPerflow after completion";
    w.perflow_aborts <- w.perflow_aborts + 1
  | Transfer.Abort _ ->
    if returned w then violate w "a transfer ended twice";
    w.aborted <- true;
    Array.iteri
      (fun e s ->
        if s = Buffered then violate w "guarantee 2: event %d did not return on abort" e)
      w.evs;
    if w.sc.kind = Transfer.Move && w.perflow_aborts <> 1 then
      violate w "guarantee 1: an aborted move sent abortPerflow %d times" w.perflow_aborts
  | Transfer.Complete ->
    if returned w then violate w "a transfer ended twice";
    if not (all_closed w) then violate w "guarantee 4: completed with a get still open";
    if in_flight w > 0 then violate w "guarantee 4: completed with a batch in flight";
    Array.iteri
      (fun i _ ->
        if w.put.(i) <> 1 || not w.acked.(i) then
          violate w "guarantee 4: completed before chunk %d was put and acknowledged" i)
      w.all_chunks;
    Array.iteri
      (fun e s -> if s = Buffered then violate w "guarantee 2: event %d still buffered" e)
      w.evs;
    w.completed <- Some w.now
  | Transfer.Arm_quiescence delay ->
    if w.completed = None then violate w "the quiescence timer was armed before completion";
    if w.timer <> None then violate w "two quiescence timers";
    if delay <= 0.0 then violate w "a quiescence delay that is not positive";
    w.timer <- Some (w.now +. delay)
  | Transfer.Finish ->
    if w.finished then violate w "finished twice";
    if not (full_quiescence w) then
      violate w "guarantee 3: quiescence ended before a full period without events";
    w.finished <- true
  | Transfer.Delete ->
    if w.sc.kind <> Transfer.Move then violate w "a delete for a clone or merge";
    if w.aborted then violate w "guarantee 1: an aborted transfer deleted";
    if w.deleted then violate w "deleted twice";
    if not (full_quiescence w) then
      violate w "guarantee 3: deleted without completion and a full quiescence period";
    w.deleted <- true

(* Move get [s] past a message the plan loses. *)
let skip_lost w s =
  match w.plan with
  | Lost (s', i) when s' = s ->
    let len = Array.length w.sc.streams.(s) in
    if i < len && w.next.(s) = i then begin
      w.next.(s) <- i + 1;
      w.lossy.(s) <- true
    end
    else if i = len && w.next.(s) = len && not w.ended.(s) then begin
      w.ended.(s) <- true;
      w.lossy.(s) <- true
    end
  | Seen | Lost _ | Lost_ack _ -> ()

let fresh sc plan =
  let n = Array.length sc.streams in
  let all_chunks = Array.concat (Array.to_list sc.streams) in
  let k = Array.length all_chunks in
  let w =
    {
      sc;
      plan;
      all_chunks;
      now = 0.0;
      next = Array.make n 0;
      ended = Array.make n false;
      end_in = Array.make n false;
      pending = Array.make n true;
      closed = Array.make n false;
      lossy = Array.make n false;
      delivered = Array.map (fun s -> Array.make (Array.length s) false) sc.streams;
      fault = plan <> Seen;
      batches = [];
      n_batches = 0;
      evs = Array.make (Array.length events) Unsent;
      feeding = -1;
      last_event = 0.0;
      streamed = Array.make k false;
      put = Array.make k 0;
      acked = Array.make k false;
      completed = None;
      aborted = false;
      perflow_aborts = 0;
      finished = false;
      deleted = false;
      timer = None;
      log = [];
    }
  in
  for s = 0 to n - 1 do
    skip_lost w s
  done;
  let m =
    Transfer.create ~kind:sc.kind ~gets:n ~batch_chunks:sc.batch_chunks ~batch_bytes:(1 lsl 20)
      ~put_window:sc.put_window ~quiescence ~now:0.0 ~emit:(on_action w)
  in
  (w, m)

let batch w b = List.nth w.batches (w.n_batches - 1 - b)
let over w = w.finished || w.aborted

(* The inputs that may come next.  Acks come in batch order, since one
   connection carries them; a lost ack only times out. *)
let enabled w =
  let acc = ref [] in
  let add i = acc := i :: !acc in
  let may_fault = not w.fault in
  (* Nothing overtakes an armed timer. *)
  let room = match w.timer with Some due -> w.now +. tick <= due | None -> true in
  if room then begin
    Array.iteri
      (fun s chunks ->
        let len = Array.length chunks in
        if w.pending.(s) then begin
          if w.next.(s) < len then add (Chunk s);
          if (not w.ended.(s)) && (w.next.(s) = len || may_fault) then add (End s);
          if may_fault then Array.iteri (fun i d -> if d then add (Dup (s, i))) w.delivered.(s);
          if w.lossy.(s) then add (Get_timeout s)
        end)
      w.sc.streams;
    let first = ref true in
    List.iteri
      (fun id b ->
        if not b.landed then
          if b.lost then add (Put_timeout id)
          else if !first then begin
            first := false;
            add (Ack id);
            if may_fault then List.iteri (fun i _ -> add (Ack_error (id, i))) b.chunks
          end)
      (List.rev w.batches);
    if not (over w) then Array.iteri (fun e s -> if s = Unsent then add (Ev e)) w.evs
  end;
  if w.timer <> None && not (over w) then add Timer;
  Array.of_list (List.rev !acc)

(* A get reply.  The stream closes once its end marker and every chunk
   it counts have arrived; the machine must say so, and must call the
   op over on any reply once the transfer has returned. *)
let get_reply w s feed =
  let closes = w.end_in.(s) && Array.for_all Fun.id w.delivered.(s) in
  if closes && not (returned w) then w.closed.(s) <- true;
  let over_ = feed () in
  if over_ <> (closes || returned w) then
    violate w "get %d: the machine %s the stream" s (if over_ then "closed" else "kept open");
  if over_ then w.pending.(s) <- false

let step w m input =
  w.log <- In input :: w.log;
  (match input with Timer -> () | _ -> w.now <- w.now +. tick);
  match input with
  | Chunk s ->
    let i = w.next.(s) in
    let c = w.sc.streams.(s).(i) in
    w.next.(s) <- i + 1;
    skip_lost w s;
    w.delivered.(s).(i) <- true;
    if not (returned w) then w.streamed.(chunk_id w c) <- true;
    get_reply w s (fun () -> Transfer.chunk m ~stream:s ~now:w.now c)
  | Dup (s, i) ->
    w.fault <- true;
    get_reply w s (fun () -> Transfer.chunk m ~stream:s ~now:w.now w.sc.streams.(s).(i))
  | End s ->
    let len = Array.length w.sc.streams.(s) in
    if w.next.(s) < len then w.fault <- true;
    w.ended.(s) <- true;
    w.end_in.(s) <- true;
    get_reply w s (fun () -> Transfer.end_of_state m ~stream:s ~now:w.now len)
  | Get_timeout s ->
    w.pending.(s) <- false;
    Transfer.fail m (Errors.Timeout "get")
  | Ack b ->
    let bt = batch w b in
    bt.landed <- true;
    List.iter (fun c -> w.acked.(chunk_id w c) <- true) bt.chunks;
    Transfer.batch_acked m ~now:w.now bt.chunks []
  | Ack_error (b, i) ->
    w.fault <- true;
    let bt = batch w b in
    bt.landed <- true;
    List.iteri (fun j c -> if j < i then w.acked.(chunk_id w c) <- true) bt.chunks;
    Transfer.batch_acked m ~now:w.now bt.chunks [ (i, Errors.Op_failed "put") ]
  | Put_timeout b ->
    (batch w b).landed <- true;
    Transfer.batch_failed m (Errors.Timeout "putBatch")
  | Ev e ->
    let key, ev = events.(e) in
    w.evs.(e) <- Claimed;
    w.feeding <- e;
    w.last_event <- w.now;
    Transfer.event m ~now:w.now key ev;
    w.feeding <- -1;
    if w.evs.(e) = Claimed then violate w "event %d was neither forwarded nor buffered" e
  | Timer ->
    (match w.timer with Some due -> w.now <- Float.max w.now due | None -> ());
    w.timer <- None;
    Transfer.quiesce m ~now:w.now

let check_end w =
  if not (over w) then violate w "the transfer neither finished nor aborted";
  if w.finished && w.sc.kind = Transfer.Move && not w.deleted then
    violate w "a finished move never deleted";
  Array.iteri
    (fun e s ->
      if s = Claimed || s = Buffered then
        violate w "guarantee 2: event %d was claimed and neither forwarded nor returned" e)
    w.evs

(* Every path, depth first.  The stack holds each choice point's inputs
   and the one taken, deepest first; a path replays the stack into a
   fresh machine, then takes first choices to the end.  Returns the
   number of paths, not counting those on which a lost ack's batch was
   never put: they repeat fault-free paths. *)
let explore sc plan =
  let paths = ref 0 in
  let rec run stack =
    let w, m = fresh sc plan in
    List.iter (fun (inputs, i) -> step w m inputs.(i)) (List.rev stack);
    let rec extend stack =
      match enabled w with
      | [||] ->
        check_end w;
        stack
      | inputs ->
        step w m inputs.(0);
        extend ((inputs, 0) :: stack)
    in
    let stack = extend stack in
    (match plan with Lost_ack b when w.n_batches <= b -> () | _ -> incr paths);
    let rec backtrack = function
      | [] -> None
      | (inputs, i) :: rest ->
        if i + 1 < Array.length inputs then Some ((inputs, i + 1) :: rest) else backtrack rest
    in
    match backtrack stack with Some stack -> run stack | None -> ()
  in
  run [];
  !paths

(* ------------------------------------------------------------------ *)
(* The scope                                                           *)
(* ------------------------------------------------------------------ *)

let sup = chunk Taxonomy.Supporting
let rep = chunk Taxonomy.Reporting

let configs = [ (1, 1); (1, 2); (2, 1); (2, 2) ]

let plans streams =
  let lost =
    List.concat
      (List.mapi
         (fun s chunks -> List.init (Array.length chunks + 1) (fun i -> Lost (s, i)))
         (Array.to_list streams))
  in
  let n = Array.fold_left (fun acc c -> acc + Array.length c) 0 streams in
  (Seen :: lost) @ List.init n (fun b -> Lost_ack b)

let explored = ref []

let run_scope name kind streams =
  let total =
    List.fold_left
      (fun acc (batch_chunks, put_window) ->
        let sc = { kind; streams; batch_chunks; put_window } in
        List.fold_left
          (fun acc plan ->
            match explore sc plan with
            | n -> acc + n
            | exception Violation msg ->
              Alcotest.failf "%s, batch_chunks=%d put_window=%d: %s" name batch_chunks
                put_window msg)
          acc (plans streams))
      0 configs
  in
  explored := (name, total) :: !explored

(* Three chunks over both gets; key A has a supporting and a reporting
   chunk, key B only a supporting one, key C (the second event's) none.
   Then one chunk with an empty second get, and nothing to move: an
   end marker counting no chunk closes its get at once. *)
let test_move () =
  run_scope "move" Transfer.Move
    [| [| sup Taxonomy.Per_flow key_a; sup Taxonomy.Per_flow key_b |];
       [| rep Taxonomy.Per_flow key_a |] |];
  run_scope "one-chunk move" Transfer.Move [| [| sup Taxonomy.Per_flow key_a |]; [||] |];
  run_scope "empty move" Transfer.Move [| [||]; [||] |]

let test_clone () =
  run_scope "clone" Transfer.Clone [| [| sup Taxonomy.Shared Hfl.any |] |]

let test_merge () =
  run_scope "merge" Transfer.Merge
    [| [| sup Taxonomy.Shared Hfl.any |]; [| rep Taxonomy.Shared Hfl.any |] |]

let () =
  Alcotest.run ~and_exit:false "openmb_transfer"
    [
      ( "exhaustive",
        [
          Alcotest.test_case "move, every interleaving" `Quick test_move;
          Alcotest.test_case "clone, every interleaving" `Quick test_clone;
          Alcotest.test_case "merge, every interleaving" `Quick test_merge;
        ] );
    ];
  Printf.printf "\ntransfer machine: %s interleavings explored\n"
    (String.concat ", "
       (List.rev_map (fun (name, n) -> Printf.sprintf "%s %d" name n) !explored))
