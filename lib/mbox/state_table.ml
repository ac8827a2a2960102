open Openmb_net

type 'a entry = {
  key : Hfl.t;
  id : string;
  mutable value : 'a;
  mutable moved : bool;
}

type 'a t = {
  granularity : Hfl.granularity;
  (* Tables probe this flat open-addressing table on the packet path:
     no field list, no key string, no per-lookup allocation — the probe
     key is the tuple's two packed words and their precomputed hash
     ({!Openmb_net.Flat_table}).  Coarse granularities participate
     through masked words (below): the bits of absent dimensions are
     cleared, so every tuple with the same granularity projection
     probes the same slot. *)
  packed : 'a entry Flat_table.t option;
  (* Dimension-presence bits (see [dim_bit]) and the corresponding
     bit masks over the two packed words; at full granularity both
     word masks are all-ones, so masking is branch-free either way. *)
  kbits : int;
  pa_mask : int;
  pb_mask : int;
  (* Keys the masked packed index cannot represent — imported keys
     whose shape differs from the table's granularity (wildcard
     prefixes, extra/missing dims) — live here under their string
     form, as does everything when [packed] is [None]. *)
  by_key : (string, 'a entry) Hashtbl.t;
  (* Optional secondary index: source address -> entries, serving
     exact-source and host-prefix requests in O(matches) instead of a
     full scan (the paper's footnote-6 improvement). *)
  by_src : (int, (string, 'a entry) Hashtbl.t) Hashtbl.t option;
  mutable move_filters : Hfl.t list;
}

let dim_bit = function
  | Hfl.Dim_src_ip -> 1
  | Hfl.Dim_dst_ip -> 2
  | Hfl.Dim_src_port -> 4
  | Hfl.Dim_dst_port -> 8
  | Hfl.Dim_proto -> 16

let kbits_of g = List.fold_left (fun m d -> m lor dim_bit d) 0 g

(* Word layout (Five_tuple): pa = src_ip:32 | src_port:16,
   pb = dst_ip:32 | dst_port:16 | proto:2. *)
let pa_mask_of bits =
  (if bits land 1 <> 0 then -1 lsl 16 else 0)
  lor if bits land 4 <> 0 then 0xFFFF else 0

let pb_mask_of bits =
  (if bits land 2 <> 0 then -1 lsl 18 else 0)
  lor (if bits land 8 <> 0 then 0xFFFF lsl 2 else 0)
  lor if bits land 16 <> 0 then 3 else 0

(* Packed words of the reverse-direction tuple, from the forward words:
   swap the ip:port halves and carry the proto bits across. *)
let[@inline] rev_pa ~pb = ((pb lsr 18) lsl 16) lor ((pb lsr 2) land 0xFFFF)
let[@inline] rev_pb ~pa ~pb = ((pa lsr 16) lsl 18) lor ((pa land 0xFFFF) lsl 2) lor (pb land 3)

let create ?(indexed = false) ?packed ~granularity () =
  let use_packed = match packed with Some b -> b | None -> true in
  let kbits = kbits_of granularity in
  {
    granularity;
    packed = (if use_packed then Some (Flat_table.create ~capacity:64 ()) else None);
    kbits;
    pa_mask = pa_mask_of kbits;
    pb_mask = pb_mask_of kbits;
    by_key = Hashtbl.create (if use_packed then 8 else 64);
    by_src = (if indexed then Some (Hashtbl.create 64) else None);
    move_filters = [];
  }

(* Only the string-keyed layout and the source index look an entry up
   by its text, so only they render it: a packed entry is its key and
   value. *)
let mk_entry t key value moved =
  let id =
    match (t.packed, t.by_src) with
    | Some _, None -> ""
    | None, _ | _, Some _ -> Hfl.to_string key
  in
  { key; id; value; moved }

let src_of_key key =
  List.find_map
    (fun f ->
      match f with
      | Hfl.Src_ip p when Addr.prefix_len p = 32 -> Some (Addr.to_int (Addr.prefix_base p))
      | Hfl.Src_ip _ | Hfl.Dst_ip _ | Hfl.Src_port _ | Hfl.Dst_port _ | Hfl.Proto _ ->
        None)
    key

(* Both guards match on [by_src] first: the unindexed default must not
   pay [src_of_key]'s scan (and its closure) on every insert. *)
let index_add t (e : 'a entry) =
  match t.by_src with
  | None -> ()
  | Some idx -> (
    match src_of_key e.key with
    | None -> ()
    | Some src ->
      let bucket =
        match Hashtbl.find_opt idx src with
        | Some b -> b
        | None ->
          let b = Hashtbl.create 4 in
          Hashtbl.replace idx src b;
          b
      in
      Hashtbl.replace bucket e.id e)

let index_remove t (e : 'a entry) =
  match t.by_src with
  | None -> ()
  | Some idx -> (
    match src_of_key e.key with
    | None -> ()
    | Some src -> (
      match Hashtbl.find_opt idx src with
      | Some bucket ->
        Hashtbl.remove bucket e.id;
        if Hashtbl.length bucket = 0 then Hashtbl.remove idx src
      | None -> ()))

let granularity t = t.granularity

let size t =
  Hashtbl.length t.by_key
  + match t.packed with Some p -> Flat_table.length p | None -> 0

let key_of t tup = Hfl.key_of_tuple t.granularity tup

(* Masked packed form of a stored key, when the key has exactly the
   table's granularity shape (one exact field per dimension).  Keys
   that do not — wildcard prefixes, imports from an MB with a different
   granularity — return [None] and stay string-keyed.  The walk is a
   top-level function (an inner [let rec] would heap a closure per
   call) and builds the words from loose fields without an
   intermediate tuple record: imports stream through here once per
   chunk during a move, so the only allocation left is the result. *)
let rec masked_walk kbits pa_mask pb_mask bits src sp dst dp proto = function
  | [] ->
    if bits = kbits then
      Some
        ( Five_tuple.word_a_of ~src_ip:src ~src_port:sp land pa_mask,
          Five_tuple.word_b_of ~dst_ip:dst ~dst_port:dp ~proto land pb_mask )
    else None
  | f :: rest -> (
    match f with
    | Hfl.Src_ip p when Addr.prefix_len p = 32 ->
      masked_walk kbits pa_mask pb_mask (bits lor 1) (Addr.prefix_base p) sp dst dp
        proto rest
    | Hfl.Dst_ip p when Addr.prefix_len p = 32 ->
      masked_walk kbits pa_mask pb_mask (bits lor 2) src sp (Addr.prefix_base p) dp
        proto rest
    | Hfl.Src_port v ->
      masked_walk kbits pa_mask pb_mask (bits lor 4) src v dst dp proto rest
    | Hfl.Dst_port v ->
      masked_walk kbits pa_mask pb_mask (bits lor 8) src sp dst v proto rest
    | Hfl.Proto pr ->
      masked_walk kbits pa_mask pb_mask (bits lor 16) src sp dst dp pr rest
    | Hfl.Src_ip _ | Hfl.Dst_ip _ -> None)

let masked_of_key t key =
  masked_walk t.kbits t.pa_mask t.pb_mask 0 (Addr.of_int 0) 0 (Addr.of_int 0) 0
    Packet.Tcp key

let find t tup =
  match t.packed with
  | Some ftbl ->
    let pa = Five_tuple.word_a tup land t.pa_mask
    and pb = Five_tuple.word_b tup land t.pb_mask in
    Flat_table.find ftbl ~pa ~pb ~h:(Five_tuple.hash_words ~pa ~pb)
  | None -> Hashtbl.find_opt t.by_key (Hfl.to_string (key_of t tup))

(* Forward-then-reverse probe of the flat index by a tuple's packed
   words.  A hit returns the table's pre-wrapped [Some], so this
   allocates nothing. *)
let flat_bidir t ftbl ~wa ~wb =
  let pa = wa land t.pa_mask and pb = wb land t.pb_mask in
  match Flat_table.find ftbl ~pa ~pb ~h:(Five_tuple.hash_words ~pa ~pb) with
  | Some _ as hit -> hit
  | None ->
    let rpa = rev_pa ~pb:wb land t.pa_mask and rpb = rev_pb ~pa:wa ~pb:wb land t.pb_mask in
    Flat_table.find ftbl ~pa:rpa ~pb:rpb ~h:(Five_tuple.hash_words ~pa:rpa ~pb:rpb)

let string_bidir t tup =
  match find t tup with Some _ as hit -> hit | None -> find t (Five_tuple.reverse tup)

let find_bidir t tup =
  match t.packed with
  | Some ftbl -> flat_bidir t ftbl ~wa:(Five_tuple.word_a tup) ~wb:(Five_tuple.word_b tup)
  | None -> string_bidir t tup

(* The packet paths probe with the words a [Packet_batch] already
   carries (or {!Five_tuple.word_a_packet}); only the string layout has
   to rebuild the tuple. *)
let find_words t ~pa ~pb =
  match t.packed with
  | Some ftbl -> flat_bidir t ftbl ~wa:pa ~wb:pb
  | None -> string_bidir t (Five_tuple.unpack (Five_tuple.pack_words ~pa ~pb))

(* State created while a covering move is in progress belongs to the
   destination: flag it immediately so its packets are re-processed
   there (the flow started after the export scan and its record will
   never be put — the replayed packets rebuild it at the destination
   from scratch).  Written out rather than as [List.exists] over a
   closure: every new flow asks, and with no move in progress the
   answer is immediate. *)
let rec covered key = function [] -> false | f :: rest -> Hfl.subsumes f key || covered key rest

let born_moved t key = covered key t.move_filters

(* Miss-only create: the caller has just probed and missed, so the
   entry is placed under the flow's packed words [wa]/[wb] without a
   second probe. *)
let place t key ~wa ~wb value =
  let e = mk_entry t key value (born_moved t key) in
  (match t.packed with
  | Some ftbl ->
    let pa = wa land t.pa_mask and pb = wb land t.pb_mask in
    Flat_table.replace ftbl ~pa ~pb ~h:(Five_tuple.hash_words ~pa ~pb) e
  | None -> Hashtbl.replace t.by_key e.id e);
  index_add t e;
  e

let add_missing t (p : Packet.t) value =
  place t
    (Hfl.key_of_packet t.granularity p)
    ~wa:(Five_tuple.word_a_packet p) ~wb:(Five_tuple.word_b_packet p) value

let find_or_create t tup ~default =
  match find_bidir t tup with
  | Some e -> (e, false)
  | None ->
    ( place t (key_of t tup) ~wa:(Five_tuple.word_a tup) ~wb:(Five_tuple.word_b tup)
        (default ()),
      true )

(* The entry keeps the id rendered here, so removing it later does not
   render the key again. *)
let insert_string t ~key value =
  let id = Hfl.to_string key in
  (match Hashtbl.find_opt t.by_key id with
  | Some old -> index_remove t old
  | None -> ());
  let e = { key; id; value; moved = false } in
  Hashtbl.replace t.by_key id e;
  index_add t e

let insert t ~key value =
  match t.packed with
  | Some ftbl -> (
    match masked_of_key t key with
    | Some (pa, pb) ->
      let h = Five_tuple.hash_words ~pa ~pb in
      (match Flat_table.find ftbl ~pa ~pb ~h with
      | Some old -> index_remove t old
      | None -> ());
      let e = mk_entry t key value false in
      Flat_table.replace ftbl ~pa ~pb ~h e;
      index_add t e
    | None -> insert_string t ~key value)
  | None -> insert_string t ~key value

(* Exact lookup under a stored key: the masked flat probe when the key
   has the table's shape, the string fallback otherwise.  This is what
   lets NAT resolve an inbound mapping in O(1) instead of scanning
   ({!matching}) per packet. *)
let find_key t key =
  let string_find () = Hashtbl.find_opt t.by_key (Hfl.to_string key) in
  match t.packed with
  | Some ftbl -> (
    match masked_of_key t key with
    | Some (pa, pb) -> Flat_table.find ftbl ~pa ~pb ~h:(Five_tuple.hash_words ~pa ~pb)
    | None -> string_find ())
  | None -> string_find ()

(* A request pinning the source to a single host can be served from the
   index; anything else falls back to the linear scan the paper's
   prototype performs. *)
let indexed_candidates t hfl =
  match t.by_src with
  | None -> None
  | Some idx ->
    List.find_map
      (fun f ->
        match f with
        | Hfl.Src_ip p when Addr.prefix_len p = 32 -> (
          match Hashtbl.find_opt idx (Addr.to_int (Addr.prefix_base p)) with
          | Some bucket -> Some (Hashtbl.fold (fun _ e acc -> e :: acc) bucket [])
          | None -> Some [])
        | Hfl.Src_ip _ | Hfl.Dst_ip _ | Hfl.Src_port _ | Hfl.Dst_port _ | Hfl.Proto _ ->
          None)
      hfl

let fold_entries t ~init ~f =
  let acc =
    match t.packed with
    | Some ftbl -> Flat_table.fold ftbl ~init ~f
    | None -> init
  in
  Hashtbl.fold (fun _ e acc -> f acc e) t.by_key acc

(* The entries [hfl] covers that [keep] accepts, in one pass. *)
let select t hfl keep =
  let hit e = keep e && Hfl.subsumes hfl e.key in
  match indexed_candidates t hfl with
  | Some candidates -> List.filter hit candidates
  | None -> fold_entries t ~init:[] ~f:(fun acc e -> if hit e then e :: acc else acc)

let matching t hfl = select t hfl (fun _ -> true)

(* Visit matching entries without materializing the hit list — the
   bulk-export path (a get streaming thousands of chunks) folds each
   entry straight into its batch instead of building and re-walking
   intermediate lists. *)
let iter_matching t hfl f =
  match indexed_candidates t hfl with
  | Some candidates -> List.iter (fun e -> if Hfl.subsumes hfl e.key then f e) candidates
  | None ->
    fold_entries t ~init:() ~f:(fun () e -> if Hfl.subsumes hfl e.key then f e)

let remove_entry t (e : 'a entry) =
  (match t.packed with
  | Some ftbl -> (
    match masked_of_key t e.key with
    | Some (pa, pb) ->
      ignore (Flat_table.remove ftbl ~pa ~pb ~h:(Five_tuple.hash_words ~pa ~pb) : bool)
    | None -> Hashtbl.remove t.by_key e.id)
  | None -> Hashtbl.remove t.by_key e.id);
  index_remove t e

let remove_matching t hfl =
  let hits = matching t hfl in
  List.iter (remove_entry t) hits;
  hits

(* The deferred delete that completes a move (Fig. 5) must only remove
   state that is still the exported copy: an entry whose [moved] flag
   was cleared by a later import belongs to a newer transfer and must
   survive — otherwise a move back to this instance races the delete
   and loses state. *)
let remove_moved_matching t hfl =
  let hits = select t hfl (fun e -> e.moved) in
  List.iter (remove_entry t) hits;
  hits

let add_move_filter t hfl = t.move_filters <- hfl :: t.move_filters

let remove_move_filter t hfl =
  t.move_filters <- List.filter (fun f -> not (Hfl.equal f hfl)) t.move_filters

let iter t f = fold_entries t ~init:() ~f:(fun () e -> f e)
let fold t ~init ~f = fold_entries t ~init ~f

let clear t =
  (match t.packed with Some ftbl -> Flat_table.clear ftbl | None -> ());
  Hashtbl.reset t.by_key;
  match t.by_src with Some idx -> Hashtbl.reset idx | None -> ()
