(** The decisions of one state transfer — a move, clone or merge (§4–§5,
    Fig. 5) — free of I/O.

    The machine streams a transfer's gets into size-bounded [putBatch]es
    under a send window, tracks the destination's per-key acks, buffers
    each re-process event until the state it applies to is installed,
    returns the transfer once every chunk is acknowledged, and asks for
    the deferred delete once events quiesce.  On any failure it rolls
    back: buffered events go back to the source and, for a move, the
    source's moved marks are cleared.

    It names no engine, channel, agent, message or telemetry.  Its
    inputs are function calls carrying data; its actions go, in order,
    to the [emit] callback given at {!create}.  {!Controller} is its I/O
    shell: it turns each action into a channel send, an engine timer, a
    span or a counter, and it keeps op timeouts, retries, fencing, CPU
    charges and the choice of which transfer an event belongs to.
    [test/test_transfer.ml] drives the machine alone through every
    interleaving of a small move, clone and merge. *)

type kind = Move | Clone | Merge

type action =
  | Put_batch of Chunk.t list
      (** Send these chunks, in order, as one [putBatch]; feed its reply
          back with {!batch_acked} or {!batch_failed}. *)
  | Forward of Event.t  (** Forward a re-process event to the destination. *)
  | Buffered  (** An event was buffered: {!buffered} rose by one. *)
  | Serial_window of Openmb_sim.Time.t
      (** A key's last outstanding chunk was acknowledged; its
          serialization window, from first receipt to this ack, lasted
          this long. *)
  | Return of Event.t  (** Return a buffered event to the source (abort). *)
  | Abort_perflow  (** Clear the source's moved marks (an aborted move). *)
  | Abort of Errors.t
      (** The transfer failed with this cause; nothing else follows. *)
  | Complete
      (** Every streamed chunk is acknowledged: the transfer returns.
          Events keep flowing until {!Finish}. *)
  | Arm_quiescence of Openmb_sim.Time.t
      (** Call {!quiesce} after this delay. *)
  | Finish  (** Events quiesced: the transfer claims no more events. *)
  | Delete  (** Delete the moved state at the source (moves only). *)

type t

val create :
  kind:kind ->
  gets:int ->
  batch_chunks:int ->
  batch_bytes:int ->
  put_window:int ->
  quiescence:Openmb_sim.Time.t ->
  now:Openmb_sim.Time.t ->
  emit:(t -> action -> unit) ->
  t
(** A transfer whose source streams [gets] get replies, numbered
    [0 .. gets-1].  A batch is cut at [batch_chunks] chunks or once it
    reaches [batch_bytes]; at most [put_window] batches are in flight.
    [now] starts the quiescence clock.  [emit] receives the machine and
    each action, in order, while an input runs. *)

val chunk : t -> stream:int -> now:Openmb_sim.Time.t -> Chunk.t -> bool
(** A chunk streamed by get [stream].  A repeat of a key the stream
    already delivered is dropped.  [true] once the stream is over: its
    [End_of_state] count is reconciled, or the transfer has returned. *)

val end_of_state : t -> stream:int -> now:Openmb_sim.Time.t -> int -> bool
(** Get [stream]'s end marker with its chunk count.  [true] once the
    stream is over; [false] while chunks it counted are still to come. *)

val batch_acked :
  t -> now:Openmb_sim.Time.t -> Chunk.t list -> (int * Errors.t) list -> unit
(** The ack of a [Put_batch], with its per-index errors.  The batch's
    chunks are acknowledged in order up to the first error, which
    aborts. *)

val batch_failed : t -> Errors.t -> unit
(** A [Put_batch] failed as a whole (an op error or timeout); aborts. *)

val fail : t -> Errors.t -> unit
(** A get failed (an op error, a timeout or an unexpected reply); aborts
    unless the transfer has returned. *)

val event : t -> now:Openmb_sim.Time.t -> Openmb_net.Hfl.t -> Event.t -> unit
(** A re-process event on [key] that this transfer claims: forwarded at
    once when the destination holds the key's state — its chunks are
    acknowledged, or the gets closed with no chunk for it — else
    buffered until then. *)

val quiesce : t -> now:Openmb_sim.Time.t -> unit
(** The quiescence timer fired: finish (and delete, for a move) after a
    full quiescence period without events, else re-arm. *)

val kind : t -> kind

val chunks : t -> int
(** Distinct chunks streamed. *)

val bytes : t -> int
(** Their bytes. *)

val buffered : t -> int
(** Events buffered now. *)

val inflight : t -> int
(** Batches in flight. *)
