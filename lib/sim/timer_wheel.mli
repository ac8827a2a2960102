(** Hierarchical timer wheel over a pooled, closure-free event store.

    The engine's pending-event queue.  Events are pooled cells — int
    indices into structure-of-arrays storage — filed into a 4-level,
    256-slot-per-level wheel (default 1us slots, 2^32-tick span) by the
    highest-differing-byte rule, with a binary {!Heap} fallback for
    timestamps beyond the wheel's span.  Cells pop in exact
    (timestamp, insertion-sequence) order, identical to a binary heap
    with FIFO tie-breaking.

    This module is the engine's internals: it stores payloads as
    [Obj.t] and trusts its caller ({!Engine}) to cast them back under
    typed wrappers.  Use {!Engine}, not this, to schedule work. *)

type t

val create : ?slot_us:float -> unit -> t
(** [create ?slot_us ()] is an empty wheel whose level-0 slot width is
    [slot_us] microseconds of simulated time (default [1.0]).  Raises
    [Invalid_argument] if [slot_us <= 0]. *)

val alloc :
  t -> at:Time.t -> kind:int -> a:Obj.t -> b:Obj.t -> c:Obj.t -> int
(** Take a cell from the free list (growing the pool if exhausted),
    fill it, assign the next insertion sequence number and queue it.
    Returns the cell index. *)

val alloc_after :
  t -> clock:float array -> delay:Time.t -> kind:int -> a:Obj.t -> b:Obj.t -> c:Obj.t -> int
(** {!alloc} at [clock.(0) + delay], summed inside the wheel so the
    time is never boxed. *)

val reserve : t -> int -> int
(** [reserve t n] takes the next [n] insertion sequence numbers as one
    block and returns the first, [base]; cells allocated afterwards get
    numbers above [base + n - 1].  Raises [Invalid_argument] if
    [n < 0]. *)

val alloc_reserved :
  t -> at:Time.t -> plus:Time.t -> seq:int -> kind:int -> a:Obj.t -> b:Obj.t -> c:Obj.t -> int
(** {!alloc} at [at + plus], summed inside the wheel as in
    {!alloc_after}, under the number [seq] taken earlier by {!reserve},
    not a fresh one.  Raises [Invalid_argument] if [seq] was never handed
    out; using a number twice is the caller's fault and is not
    detected. *)

val release : t -> int -> unit
(** Return a popped cell to the free list, clearing its payload and
    bumping its generation stamp.  Raises [Invalid_argument] if the
    cell is not queued — a cell can never be live in two schedules. *)

val peek : t -> int
(** Index of the next cell in (timestamp, sequence) order, or [-1].
    Advances the wheel's internal position but removes nothing. *)

val next_at : t -> Time.t
(** Timestamp of the cell {!peek} would return, or [infinity] when
    empty.  Unlike {!peek} it never advances the wheel (it scans one
    slot chain instead of cascading it), so probing far ahead costs
    later inserts nothing. *)

val pop : t -> int
(** Remove and return the next cell's index, or [-1] if empty.  The
    caller must {!release} the cell after reading its payload. *)

val size : t -> int
(** Queued cells, including cancelled ones not yet discarded. *)

val may_have_before : t -> Time.t -> bool
(** [may_have_before t limit] is a conservative, cascade-free probe:
    [false] proves no queued cell has [at <= limit]; [true] means one
    may (confirm with {!peek}).  Use it to bound [run ~until] without
    advancing the wheel toward far-future events. *)

val purge : t -> int
(** Drop every queued cell whose cancelled bit is set; returns the
    number dropped. *)

(** {2 Cell accessors} *)

val load_at : t -> int -> float array -> unit
(** [load_at t i clock] stores cell [i]'s timestamp in [clock.(0)].
    There is no accessor returning it: a float returned to another
    module is boxed. *)

val at_le : t -> int -> Time.t -> bool
(** [at_le t i limit] is whether cell [i]'s timestamp is [<= limit]. *)

val kind : t -> int -> int
val gen : t -> int -> int
val pa : t -> int -> Obj.t
val pb : t -> int -> Obj.t
val pc : t -> int -> Obj.t
val cancelled : t -> int -> bool
val set_cancelled : t -> int -> unit

(** {2 Pool statistics} *)

val capacity : t -> int
val in_use : t -> int
val high_water : t -> int
