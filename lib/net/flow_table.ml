type action = Forward of string | Drop | To_controller

type rule = {
  cookie : int;
  priority : int;
  match_ : Hfl.t;
  action : action;
  mutable packets : int;
  mutable bytes : int;
}

let rule_order a b =
  let c = Int.compare b.priority a.priority in
  if c <> 0 then c else Int.compare a.cookie b.cookie

let proto_code = function Packet.Tcp -> 0 | Packet.Udp -> 1 | Packet.Icmp -> 2

let mask_of_len len = if len = 0 then 0 else 0xFFFFFFFF lsl (32 - len) land 0xFFFFFFFF

(* Wildcard rules compiled to struct-of-arrays integer mask/value rows,
   sorted like the old rule list (descending priority, then ascending
   cookie) so the first matching row wins.  The scan does no list
   walking, closure calls or tuple allocation; ports/proto use [-1] as
   the wildcard sentinel.  Rows whose HFL constrains a dimension twice
   cannot be expressed as one mask/value pair and fall back to the
   generic matcher ([generic] flag). *)
type wildset = {
  wrules : rule array;
  wprio : int array;
  wsmask : int array;
  wsbase : int array;
  wdmask : int array;
  wdbase : int array;
  wsport : int array;
  wdport : int array;
  wproto : int array;
  wgeneric : bool array;
}

let empty_wildset =
  {
    wrules = [||];
    wprio = [||];
    wsmask = [||];
    wsbase = [||];
    wdmask = [||];
    wdbase = [||];
    wsport = [||];
    wdport = [||];
    wproto = [||];
    wgeneric = [||];
  }

let compile_wildset rules =
  let rules = Array.of_list (List.sort rule_order rules) in
  let n = Array.length rules in
  let w =
    {
      wrules = rules;
      wprio = Array.make n 0;
      wsmask = Array.make n 0;
      wsbase = Array.make n 0;
      wdmask = Array.make n 0;
      wdbase = Array.make n 0;
      wsport = Array.make n (-1);
      wdport = Array.make n (-1);
      wproto = Array.make n (-1);
      wgeneric = Array.make n false;
    }
  in
  Array.iteri
    (fun i r ->
      w.wprio.(i) <- r.priority;
      let seen_s = ref false and seen_d = ref false in
      let ok = ref true in
      List.iter
        (fun f ->
          match f with
          | Hfl.Src_ip p ->
            if !seen_s then ok := false
            else begin
              seen_s := true;
              w.wsmask.(i) <- mask_of_len (Addr.prefix_len p);
              w.wsbase.(i) <- Addr.to_int (Addr.prefix_base p)
            end
          | Hfl.Dst_ip p ->
            if !seen_d then ok := false
            else begin
              seen_d := true;
              w.wdmask.(i) <- mask_of_len (Addr.prefix_len p);
              w.wdbase.(i) <- Addr.to_int (Addr.prefix_base p)
            end
          | Hfl.Src_port v ->
            if w.wsport.(i) >= 0 then ok := false else w.wsport.(i) <- v
          | Hfl.Dst_port v ->
            if w.wdport.(i) >= 0 then ok := false else w.wdport.(i) <- v
          | Hfl.Proto v ->
            if w.wproto.(i) >= 0 then ok := false else w.wproto.(i) <- proto_code v)
        r.match_;
      if not !ok then w.wgeneric.(i) <- true)
    rules;
  w

type t = {
  (* Full-five-tuple rules, probed by packed key words in O(1) through
     the flat open-addressing core ({!Flat_table}).  Each list is kept
     in [rule_order] so the head is the winning candidate; a list
     longer than one holds identical duplicate matches at different
     priorities or install times. *)
  exact : rule list Flat_table.t;
  mutable exact_count : int;
  mutable wild : wildset;
  mutable next_cookie : int;
}

let create () =
  {
    exact = Flat_table.create ~capacity:64 ();
    exact_count = 0;
    wild = empty_wildset;
    next_cookie = 0;
  }

let install t ~priority ~match_ ~action =
  let rule = { cookie = t.next_cookie; priority; match_; action; packets = 0; bytes = 0 } in
  t.next_cookie <- t.next_cookie + 1;
  (match Hfl.to_tuple match_ with
  | Some tup ->
    let pa = Five_tuple.word_a tup and pb = Five_tuple.word_b tup in
    let h = Five_tuple.hash_words ~pa ~pb in
    let existing =
      match Flat_table.find t.exact ~pa ~pb ~h with Some rs -> rs | None -> []
    in
    Flat_table.replace t.exact ~pa ~pb ~h (List.sort rule_order (rule :: existing));
    t.exact_count <- t.exact_count + 1
  | None -> t.wild <- compile_wildset (rule :: Array.to_list t.wild.wrules));
  rule

(* Remove every rule rejected by [keep]; returns how many went. *)
let filter_rules t keep =
  let removed = ref 0 in
  let victims = ref [] in
  Flat_table.iter t.exact (fun ~pa ~pb rs ->
      if not (List.for_all keep rs) then victims := (pa, pb, rs) :: !victims);
  List.iter
    (fun (pa, pb, rs) ->
      let h = Five_tuple.hash_words ~pa ~pb in
      let rs' = List.filter keep rs in
      removed := !removed + (List.length rs - List.length rs');
      match rs' with
      | [] -> ignore (Flat_table.remove t.exact ~pa ~pb ~h : bool)
      | rs' -> Flat_table.replace t.exact ~pa ~pb ~h rs')
    !victims;
  t.exact_count <- t.exact_count - !removed;
  if not (Array.for_all (fun r -> keep r) t.wild.wrules) then begin
    let kept = List.filter keep (Array.to_list t.wild.wrules) in
    removed := !removed + (Array.length t.wild.wrules - List.length kept);
    t.wild <- compile_wildset kept
  end;
  !removed

let remove t ~cookie = filter_rules t (fun r -> r.cookie <> cookie) > 0

let remove_matching t hfl = filter_rules t (fun r -> not (Hfl.equal r.match_ hfl))

(* Index of the first wildcard row at or after [j] that matches one
   packet's header ints, or [-1].  Rows below [cutoff] (the exact
   candidate's priority) cannot win, so the scan stops there (ties
   still need the cookie comparison in [classify]).  Generic rows —
   HFLs inexpressible as one mask/value per dimension — need the full
   packet record [p]; no other row dereferences it.  A top-level loop
   taking everything as arguments, like {!Flat_table}'s probe: an inner
   [let rec] would heap a closure per packet. *)
let rec scan_wild w ~src ~sp ~dst ~dp ~pr ~cutoff (p : Packet.t) j =
  if j >= Array.length w.wrules || Array.unsafe_get w.wprio j < cutoff then -1
  else
    let matched =
      if Array.unsafe_get w.wgeneric j then
        Hfl.matches_packet (Array.unsafe_get w.wrules j).match_ p
      else
        src land Array.unsafe_get w.wsmask j = Array.unsafe_get w.wsbase j
        && dst land Array.unsafe_get w.wdmask j = Array.unsafe_get w.wdbase j
        && (let x = Array.unsafe_get w.wsport j in
            x < 0 || x = sp)
        && (let x = Array.unsafe_get w.wdport j in
            x < 0 || x = dp)
        &&
        let x = Array.unsafe_get w.wproto j in
        x < 0 || x = pr
    in
    if matched then j else scan_wild w ~src ~sp ~dst ~dp ~pr ~cutoff p (j + 1)

(* Returned by [classify] on a table miss, so that neither lookup wraps
   its result in an option.  Never counted, never installed. *)
let no_rule =
  { cookie = -1; priority = min_int; match_ = Hfl.any; action = Drop; packets = 0; bytes = 0 }

(* The classification both lookups share, from the packet's packed key
   words ([h] is their hash; unused when the table has no exact rules):
   the exact candidate, then the wildcard rows that can still beat or
   tie it.  The header ints for the scan are decoded from the words;
   only generic rows read [p]. *)
let classify t ~pa ~pb ~h p =
  let exact =
    if t.exact_count = 0 then no_rule
    else
      match Flat_table.find t.exact ~pa ~pb ~h with
      | Some (r :: _) -> r
      | Some [] | None -> no_rule
  in
  let w = t.wild in
  if Array.length w.wrules = 0 then exact
  else
    let j =
      scan_wild w ~src:(pa lsr 16) ~sp:(pa land 0xFFFF) ~dst:(pb lsr 18)
        ~dp:((pb lsr 2) land 0xFFFF) ~pr:(pb land 3) ~cutoff:exact.priority p 0
    in
    if j < 0 then exact
    else
      let wild = Array.unsafe_get w.wrules j in
      if exact != no_rule && rule_order exact wild <= 0 then exact else wild

let lookup t p =
  let pa = Five_tuple.word_a_packet p and pb = Five_tuple.word_b_packet p in
  let h = if t.exact_count = 0 then 0 else Five_tuple.hash_words ~pa ~pb in
  let r = classify t ~pa ~pb ~h p in
  if r == no_rule then None
  else begin
    r.packets <- r.packets + 1;
    r.bytes <- r.bytes + Packet.wire_bytes p;
    Some r.action
  end

(* One classification pass over a whole batch, filling [actions.(i)] for
   each member straight from the batch's packed-key word columns.  A
   slot that already holds the winning action (the switch reuses one
   scratch array, and consecutive batches mostly hit the same rules) is
   left alone, so a steady stream allocates nothing per packet. *)
let lookup_batch t b actions =
  let n = Packet_batch.length b in
  if Array.length actions < n then
    invalid_arg "Flow_table.lookup_batch: actions array too small";
  let ka = Packet_batch.key_a b and kb = Packet_batch.key_b b in
  let kh = Packet_batch.key_hash b in
  let sizes = Packet_batch.sizes b in
  for i = 0 to n - 1 do
    let r =
      classify t ~pa:(Array.unsafe_get ka i) ~pb:(Array.unsafe_get kb i)
        ~h:(Array.unsafe_get kh i) (Packet_batch.get b i)
    in
    if r == no_rule then Array.unsafe_set actions i None
    else begin
      r.packets <- r.packets + 1;
      r.bytes <- r.bytes + Array.unsafe_get sizes i;
      match Array.unsafe_get actions i with
      | Some a when a == r.action -> ()
      | Some _ | None -> Array.unsafe_set actions i (Some r.action)
    end
  done

let rules t =
  let exact = Flat_table.fold t.exact ~init:[] ~f:(fun acc rs -> rs @ acc) in
  List.sort rule_order (exact @ Array.to_list t.wild.wrules)

let size t = t.exact_count + Array.length t.wild.wrules
