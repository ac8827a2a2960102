(** Discrete-event simulation engine.

    The engine owns a virtual clock and a queue of pending events — a
    hierarchical {!Timer_wheel} of pooled cells with a binary-heap
    fallback for the far future.  A component schedules work to run at
    (or after) some simulated time; [run] repeatedly pops the earliest
    event, advances the clock to its timestamp and executes it.  Events
    scheduled for the same instant execute in scheduling order.

    All OpenMB components — middleboxes, the MB controller, switches,
    traffic sources — are driven by one shared engine, which is what
    lets the benches measure protocol latencies deterministically.

    Two scheduling APIs:

    - {!schedule_at}/{!schedule_after} take a closure and return a
      cancellable {!handle} — the general path.

    - {!call_at}/{!call2_at} (and the [_after] variants) take a
      callback and its argument(s) separately, storing both in a
      reusable pooled cell: no closure, no handle, no per-event
      allocation.  Use these on packet-rate paths with a pre-existing
      callback (channel delivery, switch forwarding, trace replay).

    A caller that knows a sequence of events up front but wants only
    one of them queued at a time {!reserve}s their insertion sequence
    numbers as a block and files each with {!call_at_reserved} when
    its predecessor fires: the order is that of scheduling them all at
    reservation time, and the cell pool holds one. *)

type t
(** A simulation engine instance. *)

type handle
(** A cancellable reference to a scheduled event. *)

type pool_stats = {
  capacity : int;  (** cells allocated (high-water-mark sized) *)
  free : int;  (** cells on the free list *)
  queued : int;  (** cells holding pending events (incl. tombstones) *)
  high_water : int;  (** max simultaneously queued cells ever *)
}

val create : ?slot_us:float -> ?telemetry:Telemetry.t -> unit -> t
(** Fresh engine with the clock at {!Time.zero} and no pending events.
    [slot_us] is the timer wheel's level-0 slot width in microseconds
    of simulated time (default [1.0]); it affects performance only,
    never event order.  With [?telemetry], every dispatched event
    increments the ["engine.events"] counter. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at t when_ f] runs [f] when the clock reaches [when_].
    Scheduling in the past raises [Invalid_argument]. *)

val schedule_after : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_after t delay f] runs [f] at [now t + delay].  A negative
    [delay] raises [Invalid_argument]. *)

val call_at : t -> Time.t -> ('a -> unit) -> 'a -> unit
(** [call_at t when_ f x] runs [f x] when the clock reaches [when_],
    without allocating a closure or a handle (not cancellable).
    Scheduling in the past raises [Invalid_argument]. *)

val call_after : t -> Time.t -> ('a -> unit) -> 'a -> unit
(** [call_after t delay f x] is [call_at t (now t + delay) f x].  A
    negative [delay] raises [Invalid_argument]. *)

val call2_at : t -> Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [call2_at t when_ f x y] runs [f x y] at [when_]; the two-argument
    analogue of {!call_at} for callbacks like [receive mb packet]. *)

val call2_after : t -> Time.t -> ('a -> 'b -> unit) -> 'a -> 'b -> unit
(** [call2_after t delay f x y] is [call2_at t (now t + delay) f x y]. *)

val reserve : t -> int -> int
(** [reserve t n] takes the next [n] insertion sequence numbers as one
    block and returns the first, [base]: the numbers [base] to
    [base + n - 1] order at a same-instant tie exactly as [n] events
    scheduled now would, before every event scheduled afterwards.  It
    files nothing and holds no cell; {!call_at_reserved} files an event
    under one of the numbers later.  Raises [Invalid_argument] if
    [n < 0]. *)

val call_at_reserved : t -> Time.t -> plus:Time.t -> seq:int -> ('a -> unit) -> 'a -> unit
(** [call_at_reserved t at ~plus ~seq f x] is {!call_at} at
    [when_ = at + plus], filed under the number [seq] of a block taken
    by {!reserve}, not a fresh one, so [f x] fires where an event
    scheduled by {!call_at} at reservation time would have.  The engine
    forms the sum, as {!call_after} does, so a deadline is never boxed
    to be passed; pass [~plus:Time.zero] for a time already at hand.
    The contract: each reserved number is used once, at a time
    [>= now t], and before any event ordered after [(when_, seq)] has
    run — in practice from the reservation itself or from an event that
    precedes it, such as its predecessor in a chain over the block.
    Raises [Invalid_argument] if [when_] is in the past or [seq] was
    never handed out; a number used twice or filed late is not
    detected. *)

val cancel : handle -> unit
(** Cancel a pending event; a no-op if it already ran or was
    cancelled. *)

val is_cancelled : handle -> bool
(** Whether {!cancel} was called on this handle. *)

val pending : t -> int
(** Number of live events still queued.  Cancelled-but-undiscarded
    events are excluded; they are swept out lazily whenever tombstones
    outnumber live events. *)

val executed : t -> int
(** Total events dispatched since [create] (cancelled events are
    discarded, not dispatched). *)

val next_at : t -> Time.t
(** Time of the earliest queued event, or [infinity] when none is
    queued.  Cancelled events not yet discarded count, so this is a
    lower bound on the next event {!run} will execute.  Does not
    advance the queue. *)

val pool_stats : t -> pool_stats
(** Event-cell pool occupancy; [capacity = free + queued] always. *)

val run : ?until:Time.t -> t -> unit
(** [run t] executes events until the queue drains.  With [?until],
    stops once the next live event would be strictly later than
    [until] and advances the clock to [until]; cancelled events are
    discarded and never count toward the boundary. *)

val step : t -> bool
(** Execute the single earliest pending event.  Returns [false] when
    the queue is empty. *)
