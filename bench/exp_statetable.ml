(* Flow-state core micro/macro benchmark: the flat open-addressing
   table (Flat_table, the structure behind State_table's packed fast
   path) against the Hashtbl it replaced (Five_tuple.Packed_table —
   bucket chains over boxed packed-key records), at a cache-resident
   population (10k entries) and a cache-hostile one (1M entries).

   Four steady-state ops per side, each cycling through the live keys
   in a shuffled order so the probe stream doesn't degenerate into a
   single hot line:

     find (hit)              probe a resident key
     find (miss)             probe an absent key (Robin Hood terminates
                             early on the displacement invariant; the
                             Hashtbl walks its whole bucket)
     insert (overwrite)      probe + store, no growth
     churn (delete+reinsert) backward-shift delete then re-insert — the
                             flow-expiry pattern; no tombstone build-up
                             on the flat side, cons-cell churn on the
                             Hashtbl side

   Rows are timed by the calibrated loop ([Util.measure]); each op's
   flat and Hashtbl rows run in interleaved rounds, so both sides of a
   ratio share every round's machine state.  Results are appended to
   BENCH_micro.json as "statetable-10k" / "statetable-1m".

   With --min-speedup S the run fails unless the find (hit) speedup of
   flat over Hashtbl at the largest population reaches S.  The floor
   deliberately sits on the 1M row: at 10k both structures are
   cache-resident and the Hashtbl's shorter load chain keeps it
   competitive on raw probes (the flat side's win there is the zero
   allocation); at 1M every bucket chase is a cache miss and the flat
   layout pulls ahead by design. *)

open Openmb_net

(* Set by the driver (bench statetable --min-speedup S). *)
let min_speedup : float option ref = ref None

let sizes = [ ("10k", 10_000); ("1m", 1_000_000) ]

(* Every key shares one destination word; sources are distinct
   10.x.y.z addresses with ports cycling under the address bits —
   distinct for 0 <= i < 2^24. *)
let dst_pb =
  Five_tuple.word_b
    {
      Five_tuple.src_ip = Addr.of_int 0;
      dst_ip = Addr.of_string "1.1.1.5";
      src_port = 0;
      dst_port = 443;
      proto = Packet.Tcp;
    }

let key_words i =
  (((0x0A000000 lor (i lsr 14)) lsl 16) lor (1024 + (i land 0x3FFF)), dst_pb)

type fixture = {
  n : int;
  ka : int array;  (* key word a, resident keys *)
  kb : int array;
  kh : int array;  (* precomputed hash *)
  packed : Five_tuple.packed array;  (* same keys, boxed for the Hashtbl *)
  order : int array;  (* shuffled probe order over 0..n-1 *)
  miss_ka : int array;  (* absent keys (disjoint address space) *)
  miss_kb : int array;
  miss_kh : int array;
  miss_packed : Five_tuple.packed array;
  flat : int Flat_table.t;
  htbl : int Five_tuple.Packed_table.t;
}

let build_fixture n =
  let ka = Array.make n 0 and kb = Array.make n 0 and kh = Array.make n 0 in
  let miss_ka = Array.make n 0 and miss_kb = Array.make n 0 and miss_kh = Array.make n 0 in
  for i = 0 to n - 1 do
    let pa, pb = key_words i in
    ka.(i) <- pa;
    kb.(i) <- pb;
    kh.(i) <- Five_tuple.hash_words ~pa ~pb;
    (* Absent keys: a disjoint source-address space (bit 25 of i). *)
    let mpa, mpb = key_words (i lor 0x1000000) in
    miss_ka.(i) <- mpa;
    miss_kb.(i) <- mpb;
    miss_kh.(i) <- Five_tuple.hash_words ~pa:mpa ~pb:mpb
  done;
  let packed = Array.init n (fun i -> Five_tuple.pack_words ~pa:ka.(i) ~pb:kb.(i)) in
  let miss_packed =
    Array.init n (fun i -> Five_tuple.pack_words ~pa:miss_ka.(i) ~pb:miss_kb.(i))
  in
  let flat = Flat_table.create ~capacity:n () in
  let htbl = Five_tuple.Packed_table.create n in
  for i = 0 to n - 1 do
    Flat_table.replace flat ~pa:ka.(i) ~pb:kb.(i) ~h:kh.(i) i;
    Five_tuple.Packed_table.replace htbl packed.(i) i
  done;
  (* Shuffled probe order: a full-period multiplicative walk (the
     stride is odd and coprime to 5, so coprime to both sizes). *)
  let order = Array.init n (fun i -> i * 2654435761 mod n) in
  { n; ka; kb; kh; packed; order; miss_ka; miss_kb; miss_kh; miss_packed; flat; htbl }

(* The cursor walk shared by every row: each op consumes the next index
   of the shuffled order.  Its cost (an array load and a mod) is part of
   every row on both sides, so ratios are unaffected. *)
let ops fx =
  let cursor = ref 0 in
  let next () =
    let i = fx.order.(!cursor) in
    cursor := (!cursor + 1) mod fx.n;
    i
  in
  [
    ( "find hit",
      (fun iters ->
        for _ = 1 to iters do
          let i = next () in
          ignore
            (Flat_table.find fx.flat ~pa:(Array.unsafe_get fx.ka i)
               ~pb:(Array.unsafe_get fx.kb i) ~h:(Array.unsafe_get fx.kh i))
        done),
      fun iters ->
        for _ = 1 to iters do
          let i = next () in
          ignore (Five_tuple.Packed_table.find_opt fx.htbl (Array.unsafe_get fx.packed i))
        done );
    ( "find miss",
      (fun iters ->
        for _ = 1 to iters do
          let i = next () in
          ignore
            (Flat_table.find fx.flat ~pa:(Array.unsafe_get fx.miss_ka i)
               ~pb:(Array.unsafe_get fx.miss_kb i) ~h:(Array.unsafe_get fx.miss_kh i))
        done),
      fun iters ->
        for _ = 1 to iters do
          let i = next () in
          ignore
            (Five_tuple.Packed_table.find_opt fx.htbl
               (Array.unsafe_get fx.miss_packed i))
        done );
    ( "insert",
      (fun iters ->
        for _ = 1 to iters do
          let i = next () in
          Flat_table.replace fx.flat ~pa:(Array.unsafe_get fx.ka i)
            ~pb:(Array.unsafe_get fx.kb i) ~h:(Array.unsafe_get fx.kh i) i
        done),
      fun iters ->
        for _ = 1 to iters do
          let i = next () in
          Five_tuple.Packed_table.replace fx.htbl (Array.unsafe_get fx.packed i) i
        done );
    ( "churn",
      (fun iters ->
        for _ = 1 to iters do
          let i = next () in
          let pa = Array.unsafe_get fx.ka i
          and pb = Array.unsafe_get fx.kb i
          and h = Array.unsafe_get fx.kh i in
          ignore (Flat_table.remove fx.flat ~pa ~pb ~h : bool);
          Flat_table.replace fx.flat ~pa ~pb ~h i
        done),
      fun iters ->
        for _ = 1 to iters do
          let i = next () in
          let k = Array.unsafe_get fx.packed i in
          Five_tuple.Packed_table.remove fx.htbl k;
          Five_tuple.Packed_table.replace fx.htbl k i
        done );
  ]

let run () =
  Util.banner
    "Flow-state core: flat open-addressing table vs. Hashtbl bucket chains";
  let gate_speedup = ref infinity in
  List.iter
    (fun (tag, n) ->
      let fx = build_fixture n in
      Gc.compact ();
      Util.row "  %-28s %12s %12s %9s %11s %11s\n"
        (Printf.sprintf "%s entries" tag) "flat(ns)" "htbl(ns)" "speedup"
        "flat mnw/op" "htbl mnw/op";
      let rows =
        List.map
          (fun (op, flat_op, htbl_op) ->
            match Util.measure [ flat_op; htbl_op ] with
            | [ (f : Util.timing); h ] ->
              let speedup = h.ns_min /. f.ns_min in
              if String.equal op "find hit" then gate_speedup := speedup;
              Util.row "  %-28s %12.1f %12.1f %8.2fx %11.2f %11.2f\n" op f.ns_min
                h.ns_min speedup f.minor_words h.minor_words;
              (op, f, h, speedup)
            | _ -> assert false)
          (ops fx)
      in
      let open Openmb_wire in
      Util.append_row
        (Printf.sprintf "statetable-%s" tag)
        (("entries", Json.Int n)
        :: List.concat_map
             (fun (op, (f : Util.timing), (h : Util.timing), speedup) ->
               let slug = String.map (fun c -> if c = ' ' then '_' else c) op in
               [
                 (slug ^ "_flat_ns", Json.Float f.ns_min);
                 (slug ^ "_hashtbl_ns", Json.Float h.ns_min);
                 (slug ^ "_speedup", Json.Float speedup);
                 (slug ^ "_flat_minor_words", Json.Float f.minor_words);
                 (slug ^ "_hashtbl_minor_words", Json.Float h.minor_words);
               ])
             rows))
    sizes;
  (* !gate_speedup is the find-hit ratio of the last (largest) size. *)
  match !min_speedup with
  | None -> ()
  | Some gate ->
    if !gate_speedup < gate then
      failwith
        (Printf.sprintf
           "statetable: 1M-entry find-hit speedup %.2fx below the --min-speedup %.2fx gate"
           !gate_speedup gate)
    else
      Util.row "  [gate] 1M-entry find-hit speedup %.2fx >= %.2fx\n" !gate_speedup gate
