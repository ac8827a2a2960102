(** Generic per-flow state table used by all middleboxes.

    Entries are keyed at the owning MB's granularity (a projection of
    the five-tuple onto the dimensions it distinguishes, §4.1.2) and
    carry the [moved] flag the paper adds to Bro's [Connection] class:
    once a get has exported an entry, updates to it raise re-process
    events until the entry is deleted.

    Lookups by five-tuple are O(1); lookups by header-field list (gets,
    deletes, stats) are the linear scan the paper's prototype performs
    (§7, footnote 6). *)

type 'a entry = {
  key : Openmb_net.Hfl.t;  (** The entry's state key at MB granularity. *)
  id : string;
      (** [Hfl.to_string key], rendered once when the entry is made,
          where the table looks entries up by text: in the string-keyed
          layout (see {!create}) and in a table with the source index.
          In a packed table without the index it is [""]: nothing looks
          its entries up by text, so a new flow renders nothing. *)
  mutable value : 'a;
  mutable moved : bool;
      (** Set when the entry has been exported by a get; packet-driven
          updates must then raise re-process events. *)
}

type 'a t

val create :
  ?indexed:bool ->
  ?packed:bool ->
  granularity:Openmb_net.Hfl.granularity ->
  unit ->
  'a t
(** With [indexed] (default false), a secondary source-address index
    accelerates {!matching} for exact-source requests from a full scan
    to O(matches) — the paper's footnote-6 suggestion of adopting
    switch-style lookup structures.  Results are identical either
    way.

    Tables are keyed by packed integer five-tuples
    ({!Openmb_net.Five_tuple.pack}), so the packet path never builds a
    field list or key string.  Coarse granularities participate by
    masking out the bits of absent dimensions, so every tuple with the
    same granularity projection probes the same slot; only imported
    keys whose shape differs from the table's granularity (wildcard
    prefixes, extra or missing dimensions) fall back to string keys.
    [packed:false] forces the all-string legacy layout (used by the
    equivalence tests); behaviour is identical either way. *)

val granularity : 'a t -> Openmb_net.Hfl.granularity

val size : 'a t -> int
(** Number of entries (the scan cost driver). *)

val key_of : 'a t -> Openmb_net.Five_tuple.t -> Openmb_net.Hfl.t
(** Projection of a tuple onto this table's granularity. *)

val find : 'a t -> Openmb_net.Five_tuple.t -> 'a entry option
(** Exact-direction lookup. *)

val find_bidir : 'a t -> Openmb_net.Five_tuple.t -> 'a entry option
(** Lookup trying the tuple, then its reverse — for connection-oriented
    MBs whose state is keyed on the originator direction. *)

val find_or_create :
  'a t -> Openmb_net.Five_tuple.t -> default:(unit -> 'a) -> 'a entry * bool
(** Bidirectional find; on miss, creates an entry keyed on the tuple as
    given, as {!add_missing} does for a packet.  The boolean is [true]
    when the entry was created. *)

val find_words : 'a t -> pa:int -> pb:int -> 'a entry option
(** {!find_bidir} probing directly with the tuple's two packed words
    ({!Openmb_net.Five_tuple.word_a}/[word_b]), as the packet paths
    hold them: a {!Openmb_net.Packet_batch}'s key columns or
    {!Openmb_net.Five_tuple.word_a_packet}.  On the packed layout a hit
    returns the stored option and allocates nothing. *)

val add_missing : 'a t -> Openmb_net.Packet.t -> 'a -> 'a entry
(** [add_missing t p v] creates the entry for the flow of packet [p]
    that {!find_words} (or {!find_bidir}) has just missed, keyed on the
    packet's direction as given — [key_of t (Five_tuple.of_packet p)],
    read from the packet's own fields — and returns it.  The entry is
    born [moved] when a registered move filter covers its key (see
    {!add_move_filter}); with none registered that costs nothing.  It
    does not probe again, so it is only valid right after that miss.  A
    new flow allocates its key, its entry and the table's growth, and
    nothing else. *)

val find_key : 'a t -> Openmb_net.Hfl.t -> 'a entry option
(** Exact lookup under a stored key (the key as {!insert} would store
    it): an O(1) flat probe when the key has the table's granularity
    shape, the string-keyed fallback otherwise.  Unlike {!matching}
    this never scans. *)

val insert : 'a t -> key:Openmb_net.Hfl.t -> 'a -> unit
(** Install an entry under an explicit key (state import).  Replaces
    any existing entry with that key and clears its [moved] flag. *)

val matching : 'a t -> Openmb_net.Hfl.t -> 'a entry list
(** Linear scan for entries whose key is subsumed by the request. *)

val iter_matching : 'a t -> Openmb_net.Hfl.t -> ('a entry -> unit) -> unit
(** [iter_matching t hfl f] applies [f] to every entry {!matching}
    would return, without building the list — the batch-export
    iteration used when a get streams a large table. *)

val remove_matching : 'a t -> Openmb_net.Hfl.t -> 'a entry list
(** Remove and return all matching entries. *)

val remove_moved_matching : 'a t -> Openmb_net.Hfl.t -> 'a entry list
(** Remove and return the matching entries whose [moved] flag is set —
    the delete that completes a move.  Entries re-imported since the
    export (flag cleared by {!insert}) belong to a newer transfer and
    are kept. *)

val add_move_filter : 'a t -> Openmb_net.Hfl.t -> unit
(** Register an in-progress move's scope: entries created under a
    registered filter are born with [moved] set, so flows that start
    mid-move are re-processed at the destination rather than stranding
    state here.  Called by the MB's get; removed by the matching
    delete. *)

val remove_move_filter : 'a t -> Openmb_net.Hfl.t -> unit
(** Unregister a move filter (compared up to constraint order). *)

val iter : 'a t -> ('a entry -> unit) -> unit

val fold : 'a t -> init:'b -> f:('b -> 'a entry -> 'b) -> 'b

val clear : 'a t -> unit
