(* Tests for the network substrate: addresses, header-field lists,
   flow tables, switches and the SDN controller. *)

open Openmb_sim
open Openmb_net

let addr = Alcotest.testable (Fmt.of_to_string Addr.to_string) Addr.equal

let mk_packet ?(id = 0) ?(ts = 0.0) ?(src = "10.0.0.1") ?(dst = "1.1.1.5") ?(sport = 1234)
    ?(dport = 80) ?(proto = Packet.Tcp) ?(flags = Packet.no_flags) () =
  Packet.make ~flags ~id ~ts:(Time.seconds ts) ~src_ip:(Addr.of_string src)
    ~dst_ip:(Addr.of_string dst) ~src_port:sport ~dst_port:dport ~proto ()

(* ------------------------------------------------------------------ *)
(* Addr                                                                *)
(* ------------------------------------------------------------------ *)

let test_addr_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Addr.to_string (Addr.of_string s)))
    [ "0.0.0.0"; "255.255.255.255"; "10.1.2.3"; "192.168.0.1" ]

let test_addr_bad_input () =
  List.iter
    (fun s ->
      match Addr.of_string s with
      | _ -> Alcotest.fail (Printf.sprintf "expected failure for %S" s)
      | exception Invalid_argument _ -> ())
    [ "1.2.3"; "1.2.3.4.5"; "256.0.0.1"; "a.b.c.d"; "" ]

let test_prefix_membership () =
  let p = Addr.prefix_of_string "10.1.0.0/16" in
  Alcotest.(check bool) "inside" true (Addr.in_prefix (Addr.of_string "10.1.255.3") p);
  Alcotest.(check bool) "outside" false (Addr.in_prefix (Addr.of_string "10.2.0.1") p);
  Alcotest.(check string) "host bits cleared" "10.1.0.0/16"
    (Addr.prefix_to_string (Addr.prefix (Addr.of_string "10.1.2.3") 16))

let test_prefix_subsumption () =
  let p16 = Addr.prefix_of_string "10.1.0.0/16" in
  let p24 = Addr.prefix_of_string "10.1.2.0/24" in
  let other = Addr.prefix_of_string "10.2.0.0/16" in
  Alcotest.(check bool) "coarser subsumes finer" true (Addr.prefix_subsumes p16 p24);
  Alcotest.(check bool) "finer does not subsume coarser" false (Addr.prefix_subsumes p24 p16);
  Alcotest.(check bool) "disjoint" false (Addr.prefix_subsumes other p24);
  Alcotest.(check bool) "reflexive" true (Addr.prefix_subsumes p16 p16)

let test_prefix_zero () =
  let p0 = Addr.prefix_of_string "0.0.0.0/0" in
  Alcotest.(check bool) "matches everything" true
    (Addr.in_prefix (Addr.of_string "255.1.2.3") p0)

let test_host_in_prefix () =
  let p = Addr.prefix_of_string "1.1.1.0/24" in
  Alcotest.check addr "offset 5" (Addr.of_string "1.1.1.5") (Addr.host_in_prefix p 5);
  Alcotest.check_raises "overflow" (Invalid_argument "Addr.host_in_prefix: offset out of range")
    (fun () -> ignore (Addr.host_in_prefix p 256))

(* ------------------------------------------------------------------ *)
(* Payload                                                             *)
(* ------------------------------------------------------------------ *)

let test_payload_sizes () =
  let p = Payload.of_tokens [| 1; 2; 3 |] in
  Alcotest.(check int) "bytes" (3 * Payload.token_bytes) (Payload.size_bytes p);
  Alcotest.(check int) "tokens" 3 (Payload.token_count p);
  let q = Payload.of_tokens_trailing [| 1 |] ~trailing:10 in
  Alcotest.(check int) "trailing" (Payload.token_bytes + 10) (Payload.size_bytes q)

let test_payload_sub_equal () =
  let p = Payload.of_tokens [| 1; 2; 3; 4; 5 |] in
  let s = Payload.sub p ~pos:1 ~len:3 in
  Alcotest.(check bool) "slice" true (Payload.equal s (Payload.of_tokens [| 2; 3; 4 |]));
  Alcotest.(check bool) "concat" true
    (Payload.equal p
       (Payload.concat [ Payload.sub p ~pos:0 ~len:2; Payload.sub p ~pos:2 ~len:3 ]))

(* ------------------------------------------------------------------ *)
(* Five-tuple                                                          *)
(* ------------------------------------------------------------------ *)

let test_five_tuple_reverse_canonical () =
  let t = Five_tuple.of_packet (mk_packet ()) in
  let r = Five_tuple.reverse t in
  Alcotest.(check bool) "reverse differs" false (Five_tuple.equal t r);
  Alcotest.(check bool) "double reverse" true (Five_tuple.equal t (Five_tuple.reverse r));
  Alcotest.(check bool) "canonical equal both directions" true
    (Five_tuple.equal (Five_tuple.canonical t) (Five_tuple.canonical r))

let test_packed_roundtrip () =
  let t = Five_tuple.of_packet (mk_packet ()) in
  let p = Five_tuple.pack t in
  Alcotest.(check bool) "unpack inverts pack" true (Five_tuple.equal t (Five_tuple.unpack p));
  Alcotest.(check bool) "pack_packet agrees with pack" true
    (Five_tuple.packed_equal p (Five_tuple.pack_packet (mk_packet ())));
  Alcotest.(check bool) "packed_reverse = pack of reverse" true
    (Five_tuple.packed_equal (Five_tuple.packed_reverse p)
       (Five_tuple.pack (Five_tuple.reverse t)));
  Alcotest.(check int) "hash is deterministic" (Five_tuple.packed_hash p)
    (Five_tuple.packed_hash (Five_tuple.pack_packet (mk_packet ())))

let tuple_gen =
  QCheck2.Gen.(
    map
      (fun ((sip, dip), (sp, dp), pr) ->
        {
          Five_tuple.src_ip = Addr.of_int sip;
          dst_ip = Addr.of_int dip;
          src_port = sp;
          dst_port = dp;
          proto = (match pr with 0 -> Packet.Tcp | 1 -> Packet.Udp | _ -> Packet.Icmp);
        })
      (triple
         (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
         (pair (int_bound 65535) (int_bound 65535))
         (int_bound 2)))

let prop_packed_roundtrip =
  QCheck2.Test.make ~name:"packed key round-trip" ~count:500 tuple_gen (fun t ->
      let p = Five_tuple.pack t in
      Five_tuple.equal (Five_tuple.unpack p) t
      && Five_tuple.packed_equal (Five_tuple.packed_reverse p)
           (Five_tuple.pack (Five_tuple.reverse t))
      && Five_tuple.equal
           (Five_tuple.unpack (Five_tuple.packed_reverse (Five_tuple.packed_reverse p)))
           t
      && Five_tuple.packed_hash p = Five_tuple.packed_hash (Five_tuple.pack t))

(* ------------------------------------------------------------------ *)
(* Flat_table                                                          *)
(* ------------------------------------------------------------------ *)

let fh pa pb = Five_tuple.hash_words ~pa ~pb

let test_flat_table_basics () =
  let t = Flat_table.create () in
  Alcotest.(check int) "empty" 0 (Flat_table.length t);
  for i = 0 to 99 do
    Flat_table.replace t ~pa:i ~pb:(i * 2) ~h:(fh i (i * 2)) (i * 10)
  done;
  Alcotest.(check int) "length" 100 (Flat_table.length t);
  Alcotest.(check bool) "grew" true (Flat_table.capacity t >= 128);
  for i = 0 to 99 do
    Alcotest.(check (option int))
      (Printf.sprintf "find %d" i)
      (Some (i * 10))
      (Flat_table.find t ~pa:i ~pb:(i * 2) ~h:(fh i (i * 2)))
  done;
  Alcotest.(check (option int)) "miss" None (Flat_table.find t ~pa:5 ~pb:11 ~h:(fh 5 11));
  Flat_table.replace t ~pa:7 ~pb:14 ~h:(fh 7 14) 999;
  Alcotest.(check (option int)) "overwrite" (Some 999)
    (Flat_table.find t ~pa:7 ~pb:14 ~h:(fh 7 14));
  Alcotest.(check int) "overwrite keeps length" 100 (Flat_table.length t);
  Alcotest.(check bool) "remove hit" true (Flat_table.remove t ~pa:7 ~pb:14 ~h:(fh 7 14));
  Alcotest.(check bool) "remove miss" false (Flat_table.remove t ~pa:7 ~pb:14 ~h:(fh 7 14));
  Alcotest.(check int) "length after remove" 99 (Flat_table.length t);
  Flat_table.clear t;
  Alcotest.(check int) "cleared" 0 (Flat_table.length t);
  Alcotest.(check (option int)) "find after clear" None
    (Flat_table.find t ~pa:3 ~pb:6 ~h:(fh 3 6))

let test_flat_table_collision_chain () =
  (* The hash is caller-supplied, so collisions can be forced: every key
     below shares home slot 5.  Robin Hood placement and backward-shift
     deletion must keep the whole chain findable through arbitrary
     middle deletions, with no tombstone residue. *)
  let t = Flat_table.create ~capacity:16 () in
  let h = 5 in
  for k = 0 to 5 do
    Flat_table.replace t ~pa:k ~pb:0 ~h k
  done;
  Alcotest.(check int) "chain placed" 6 (Flat_table.length t);
  Alcotest.(check bool) "probe chain length is the cluster" true (Flat_table.max_probe t >= 5);
  (* Delete from the middle, twice. *)
  Alcotest.(check bool) "del 2" true (Flat_table.remove t ~pa:2 ~pb:0 ~h);
  Alcotest.(check bool) "del 4" true (Flat_table.remove t ~pa:4 ~pb:0 ~h);
  List.iter
    (fun k ->
      Alcotest.(check (option int))
        (Printf.sprintf "survivor %d" k)
        (Some k)
        (Flat_table.find t ~pa:k ~pb:0 ~h))
    [ 0; 1; 3; 5 ];
  Alcotest.(check (option int)) "deleted gone" None (Flat_table.find t ~pa:2 ~pb:0 ~h);
  (* Backward shift compacted the chain: displacement shrank. *)
  Alcotest.(check bool) "chain compacted" true (Flat_table.max_probe t <= 3)

let test_flat_table_flags () =
  let t = Flat_table.create () in
  Flat_table.replace t ~pa:1 ~pb:2 ~h:(fh 1 2) "a";
  Alcotest.(check bool) "fresh insert unflagged" false (Flat_table.flag t ~pa:1 ~pb:2 ~h:(fh 1 2));
  Flat_table.set_flag t ~pa:1 ~pb:2 ~h:(fh 1 2) true;
  Alcotest.(check bool) "set" true (Flat_table.flag t ~pa:1 ~pb:2 ~h:(fh 1 2));
  Flat_table.replace t ~pa:1 ~pb:2 ~h:(fh 1 2) "b";
  Alcotest.(check bool) "overwrite keeps flag" true (Flat_table.flag t ~pa:1 ~pb:2 ~h:(fh 1 2));
  (* The flag must survive growth and ride displacement. *)
  for i = 10 to 300 do
    Flat_table.replace t ~pa:i ~pb:0 ~h:(fh i 0) "x"
  done;
  Alcotest.(check bool) "flag survives growth" true (Flat_table.flag t ~pa:1 ~pb:2 ~h:(fh 1 2));
  ignore (Flat_table.remove t ~pa:1 ~pb:2 ~h:(fh 1 2) : bool);
  Flat_table.replace t ~pa:1 ~pb:2 ~h:(fh 1 2) "c";
  Alcotest.(check bool) "reinsert after delete is unflagged" false
    (Flat_table.flag t ~pa:1 ~pb:2 ~h:(fh 1 2));
  Alcotest.(check bool) "flag of absent key" false (Flat_table.flag t ~pa:9 ~pb:9 ~h:(fh 9 9))

let test_flat_table_batch_probe () =
  let t = Flat_table.create () in
  let n = 64 in
  let ka = Array.init n (fun i -> i land 15)
  and kb = Array.init n (fun i -> i lsr 4) in
  let kh = Array.init n (fun i -> fh ka.(i) kb.(i)) in
  let out = Array.make n None in
  Flat_table.find_batch t ~ka ~kb ~kh ~n out;
  Alcotest.(check bool) "all miss on empty table" true (Array.for_all (( = ) None) out);
  Flat_table.find_or_create_batch t ~ka ~kb ~kh ~n ~default:(fun i -> i) out;
  Alcotest.(check bool) "every member resolved" true
    (Array.for_all (function Some _ -> true | None -> false) out);
  Alcotest.(check int) "distinct keys created once" 64 (Flat_table.length t);
  (* Second pass hits every slot and creates nothing. *)
  let out2 = Array.make n None in
  Flat_table.find_batch t ~ka ~kb ~kh ~n out2;
  for i = 0 to n - 1 do
    Alcotest.(check (option int)) (Printf.sprintf "member %d" i) (Some i) out2.(i)
  done

(* Model-equivalence over random op sequences: the flat table must agree
   with a reference Hashtbl at every step — through inserts, overwrites,
   deletes, flag traffic, growth and churn. *)
let prop_flat_table_model =
  let op_gen =
    (* (op kind, key within a small pool to force collisions/overwrites,
       payload) *)
    QCheck2.Gen.(triple (int_bound 5) (pair (int_bound 60) (int_bound 3)) (int_bound 1000))
  in
  QCheck2.Test.make ~name:"flat table agrees with Hashtbl model" ~count:200
    QCheck2.Gen.(list_size (int_range 0 500) op_gen)
    (fun ops ->
      let ft = Flat_table.create () in
      let model : (int * int, int * bool) Hashtbl.t = Hashtbl.create 16 in
      let ok = ref true in
      let check b = if not b then ok := false in
      List.iter
        (fun (op, (ka, kb), v) ->
          let h = fh ka kb in
          match op with
          | 0 ->
            Flat_table.replace ft ~pa:ka ~pb:kb ~h v;
            let flag =
              match Hashtbl.find_opt model (ka, kb) with Some (_, f) -> f | None -> false
            in
            Hashtbl.replace model (ka, kb) (v, flag)
          | 1 ->
            let removed = Flat_table.remove ft ~pa:ka ~pb:kb ~h in
            check (removed = Hashtbl.mem model (ka, kb));
            Hashtbl.remove model (ka, kb)
          | 2 ->
            check
              (Flat_table.find ft ~pa:ka ~pb:kb ~h
              = Option.map fst (Hashtbl.find_opt model (ka, kb)))
          | 3 | 4 ->
            let b = op = 3 in
            Flat_table.set_flag ft ~pa:ka ~pb:kb ~h b;
            (match Hashtbl.find_opt model (ka, kb) with
            | Some (v, _) -> Hashtbl.replace model (ka, kb) (v, b)
            | None -> ())
          | _ ->
            check
              (Flat_table.flag ft ~pa:ka ~pb:kb ~h
              = (match Hashtbl.find_opt model (ka, kb) with
                | Some (_, f) -> f
                | None -> false)))
        ops;
      check (Flat_table.length ft = Hashtbl.length model);
      (* Full traversal agrees, values and flags both. *)
      let seen = ref 0 in
      Flat_table.iter ft (fun ~pa ~pb v ->
          incr seen;
          match Hashtbl.find_opt model (pa, pb) with
          | Some (mv, mf) ->
            check (v = mv);
            check (Flat_table.flag ft ~pa ~pb ~h:(fh pa pb) = mf)
          | None -> check false);
      check (!seen = Hashtbl.length model);
      !ok)

(* Distribution quality of the packed-key mixer on adversarial patterns:
   sequential ports (one host scanning), same-subnet addresses
   (sequential IPs, fixed ports) and sequential flow ids must spread
   evenly over power-of-two slot masks — the regime the flat tables
   probe in.  With 2048 keys in 512 buckets (expected load 4), an
   avalanching hash keeps the max bucket under ~20 with overwhelming
   probability; the pre-mixer hashes concentrated thousands of such keys
   onto a handful of buckets. *)
let prop_hash_bucket_skew =
  let buckets = 512 and n = 2048 and bound = 26 in
  let max_load keys =
    let load = Array.make buckets 0 in
    List.iter
      (fun (pa, pb) ->
        let b = Five_tuple.hash_words ~pa ~pb land (buckets - 1) in
        load.(b) <- load.(b) + 1)
      keys;
    Array.fold_left max 0 load
  in
  QCheck2.Test.make ~name:"mixer bounds bucket skew on adversarial keys" ~count:40
    QCheck2.Gen.(triple (int_bound 0xFFFFFF) (int_bound 0xFFFF) (int_bound 2))
    (fun (base_ip, base_port, pattern) ->
      let tup ~sip ~sp =
        {
          Five_tuple.src_ip = Addr.of_int (sip land 0xFFFFFFFF);
          dst_ip = Addr.of_int 0x01010105;
          src_port = sp land 0xFFFF;
          dst_port = 80;
          proto = Packet.Tcp;
        }
      in
      let key t = (Five_tuple.word_a t, Five_tuple.word_b t) in
      let keys =
        List.init n (fun i ->
            match pattern with
            | 0 -> key (tup ~sip:base_ip ~sp:(base_port + i)) (* sequential ports *)
            | 1 -> key (tup ~sip:(base_ip + i) ~sp:base_port) (* same-subnet IPs *)
            | _ -> key (tup ~sip:(base_ip + (i lsr 8)) ~sp:(base_port + (i land 0xFF))))
      in
      max_load keys <= bound)

(* ------------------------------------------------------------------ *)
(* Header-field lists                                                  *)
(* ------------------------------------------------------------------ *)

let test_hfl_matching () =
  let p = mk_packet () in
  let hfl = Hfl.of_string "nw_src=10.0.0.0/8,tp_dst=80,proto=tcp" in
  Alcotest.(check bool) "matches" true (Hfl.matches_packet hfl p);
  Alcotest.(check bool) "port mismatch" false
    (Hfl.matches_packet (Hfl.of_string "tp_dst=443") p);
  Alcotest.(check bool) "empty matches all" true (Hfl.matches_packet Hfl.any p)

let test_hfl_bidir () =
  let t = Five_tuple.of_packet (mk_packet ()) in
  let hfl = Hfl.of_string "nw_src=1.1.1.5/32" in
  Alcotest.(check bool) "forward no" false (Hfl.matches_tuple hfl t);
  Alcotest.(check bool) "bidir yes" true (Hfl.matches_bidir hfl t)

let test_hfl_string_roundtrip () =
  let cases =
    [ "nw_src=10.0.0.0/8"; "nw_dst=1.1.1.0/24,tp_dst=80"; "proto=udp,tp_src=53"; "" ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Hfl.to_string (Hfl.of_string s)))
    cases

let test_hfl_subsumes () =
  let coarse = Hfl.of_string "nw_src=10.0.0.0/8" in
  let fine = Hfl.of_string "nw_src=10.1.0.0/16,tp_dst=80" in
  Alcotest.(check bool) "coarse subsumes fine" true (Hfl.subsumes coarse fine);
  Alcotest.(check bool) "fine does not subsume coarse" false (Hfl.subsumes fine coarse);
  Alcotest.(check bool) "any subsumes all" true (Hfl.subsumes Hfl.any fine);
  Alcotest.(check bool) "disjoint dims" false
    (Hfl.subsumes (Hfl.of_string "tp_src=9") fine)

let test_hfl_granularity () =
  (* The Balance example: per-flow state keyed on source IP/port only. *)
  let lb_gran = Hfl.[ Dim_src_ip; Dim_src_port ] in
  Alcotest.(check bool) "coarser ok" true
    (Hfl.compatible_with_granularity (Hfl.of_string "nw_src=10.0.0.0/8") lb_gran);
  Alcotest.(check bool) "exact ok" true
    (Hfl.compatible_with_granularity
       (Hfl.of_string "nw_src=10.0.0.1/32,tp_src=99")
       lb_gran);
  Alcotest.(check bool) "finer rejected" false
    (Hfl.compatible_with_granularity (Hfl.of_string "tp_dst=80") lb_gran)

let test_hfl_key_of_tuple () =
  let t = Five_tuple.of_packet (mk_packet ()) in
  let key = Hfl.key_of_tuple Hfl.[ Dim_src_ip; Dim_src_port ] t in
  Alcotest.(check string) "projected" "nw_src=10.0.0.1/32,tp_src=1234" (Hfl.to_string key);
  let full = Hfl.key_of_tuple Hfl.full_granularity t in
  Alcotest.(check bool) "full key matches own packet" true
    (Hfl.matches_packet full (mk_packet ()))

let test_hfl_equal_order_insensitive () =
  let a = Hfl.of_string "tp_dst=80,nw_src=10.0.0.0/8" in
  let b = Hfl.of_string "nw_src=10.0.0.0/8,tp_dst=80" in
  Alcotest.(check bool) "order-insensitive" true (Hfl.equal a b);
  Alcotest.(check bool) "distinct lists differ" false
    (Hfl.equal a (Hfl.of_string "tp_dst=80"));
  (* Regression: a repeated constraint must not absorb a different one
     on the same dimension, in either argument order. *)
  let dup = Hfl.of_string "tp_dst=80,tp_dst=80" in
  let two = Hfl.of_string "tp_dst=80,tp_dst=81" in
  Alcotest.(check bool) "dup vs distinct" false (Hfl.equal dup two);
  Alcotest.(check bool) "distinct vs dup" false (Hfl.equal two dup);
  Alcotest.(check bool) "dup equals itself" true (Hfl.equal dup dup)

let test_hfl_to_tuple () =
  let t = Five_tuple.of_packet (mk_packet ()) in
  let full = Hfl.key_of_tuple Hfl.full_granularity t in
  (match Hfl.to_tuple full with
  | Some t' ->
    Alcotest.(check bool) "inverts full projection" true (Five_tuple.equal t t')
  | None -> Alcotest.fail "full key should pin a tuple");
  Alcotest.(check bool) "partial key pins nothing" true
    (Hfl.to_tuple (Hfl.of_string "nw_src=10.0.0.1/32,tp_dst=80") = None);
  Alcotest.(check bool) "wide prefix pins nothing" true
    (Hfl.to_tuple
       (Hfl.of_string "nw_src=10.0.0.0/24,nw_dst=1.1.1.5/32,tp_src=1234,tp_dst=80,proto=tcp")
    = None);
  Alcotest.(check bool) "empty pins nothing" true (Hfl.to_tuple Hfl.any = None)

let test_hfl_well_formed () =
  Alcotest.(check bool) "dup dim" false
    (Hfl.well_formed (Hfl.of_string "tp_dst=80,tp_dst=81"));
  Alcotest.(check bool) "ok" true (Hfl.well_formed (Hfl.of_string "tp_dst=80,tp_src=1"))

(* The String.concat/Printf rendering that [Hfl.to_string] replaced,
   kept as the byte-for-byte reference for the text form. *)
let reference_hfl_text hfl =
  let prefix p =
    let a = Addr.to_int (Addr.prefix_base p) in
    Printf.sprintf "%d.%d.%d.%d/%d" ((a lsr 24) land 0xFF) ((a lsr 16) land 0xFF)
      ((a lsr 8) land 0xFF) (a land 0xFF) (Addr.prefix_len p)
  in
  String.concat ","
    (List.map
       (function
         | Hfl.Src_ip p -> "nw_src=" ^ prefix p
         | Hfl.Dst_ip p -> "nw_dst=" ^ prefix p
         | Hfl.Src_port v -> "tp_src=" ^ string_of_int v
         | Hfl.Dst_port v -> "tp_dst=" ^ string_of_int v
         | Hfl.Proto p -> "proto=" ^ Packet.proto_to_string p)
       hfl)

let prop_hfl_text =
  let gen =
    QCheck2.Gen.(
      let addr =
        frequency [ (1, oneofl [ 0; 0xFFFFFFFF; 0x0A000001 ]); (4, int_bound 0xFFFFFFFF) ]
      in
      let prefix = map2 (fun a len -> Addr.prefix (Addr.of_int a) len) addr (int_range 0 32) in
      let port =
        frequency
          [
            (1, oneofl [ min_int; max_int; min_int + 1; 0; -1; 9; 10; -10; 65535 ]);
            (3, int);
            (3, int_range (-100_000) 100_000);
          ]
      in
      let field =
        oneof
          [
            map (fun p -> Hfl.Src_ip p) prefix;
            map (fun p -> Hfl.Dst_ip p) prefix;
            map (fun v -> Hfl.Src_port v) port;
            map (fun v -> Hfl.Dst_port v) port;
            map (fun p -> Hfl.Proto p) (oneofl Packet.[ Tcp; Udp; Icmp ]);
          ]
      in
      frequency [ (1, return Hfl.any); (9, list_size (int_range 1 6) field) ])
  in
  QCheck2.Test.make ~name:"text form: reference bytes, length, inverse" ~count:1000
    ~print:reference_hfl_text gen (fun h ->
      let text = Hfl.to_string h in
      String.equal text (reference_hfl_text h)
      && Hfl.text_length h = String.length text
      && Hfl.of_string text = h)

let prop_hfl_subsumes_implies_match =
  (* If a subsumes b, any tuple matching b matches a. *)
  let gen =
    QCheck2.Gen.(
      let prefix = map2 (fun a len -> Addr.prefix (Addr.of_int a) len) (int_bound 0xFFFFFFF) (int_range 8 32) in
      let field =
        oneof
          [
            map (fun p -> Hfl.Src_ip p) prefix;
            map (fun p -> Hfl.Dst_ip p) prefix;
            map (fun p -> Hfl.Src_port p) (int_range 1 65535);
            map (fun p -> Hfl.Dst_port p) (int_range 1 65535);
            return (Hfl.Proto Packet.Tcp);
          ]
      in
      triple (list_size (int_range 0 3) field) (list_size (int_range 0 3) field)
        (pair (int_bound 0xFFFFFFF) (pair (int_range 1 65535) (int_range 1 65535))))
  in
  QCheck2.Test.make ~name:"subsumption is sound" ~count:500 gen
    (fun (a, b, (ip, (sp, dp))) ->
      let tup =
        {
          Five_tuple.src_ip = Addr.of_int ip;
          dst_ip = Addr.of_int (ip lxor 0xFF);
          src_port = sp;
          dst_port = dp;
          proto = Packet.Tcp;
        }
      in
      (not (Hfl.subsumes a b && Hfl.matches_tuple b tup)) || Hfl.matches_tuple a tup)

let prop_hfl_packet_matches_tuple =
  (* The zero-allocation packet fast path must agree with matching the
     packet's extracted five-tuple. *)
  let gen =
    QCheck2.Gen.(
      let prefix =
        map2 (fun a len -> Addr.prefix (Addr.of_int a) len) (int_bound 0xFFFFFFF)
          (int_range 0 32)
      in
      let field =
        oneof
          [
            map (fun p -> Hfl.Src_ip p) prefix;
            map (fun p -> Hfl.Dst_ip p) prefix;
            map (fun p -> Hfl.Src_port p) (int_range 1 65535);
            map (fun p -> Hfl.Dst_port p) (int_range 1 65535);
            map
              (fun b -> Hfl.Proto (if b then Packet.Tcp else Packet.Udp))
              bool;
          ]
      in
      pair
        (list_size (int_range 0 5) field)
        (triple (pair (int_bound 0xFFFFFFF) bool)
           (pair (int_range 1 65535) (int_range 1 65535))
           bool))
  in
  QCheck2.Test.make ~name:"matches_packet agrees with matches_tuple" ~count:500 gen
    (fun (hfl, ((ip, flip), (sp, dp), tcp)) ->
      let p =
        Packet.make ~id:1 ~ts:Openmb_sim.Time.zero ~src_ip:(Addr.of_int ip)
          ~dst_ip:(Addr.of_int (if flip then ip lxor 0xFF else ip))
          ~src_port:sp ~dst_port:dp
          ~proto:(if tcp then Packet.Tcp else Packet.Udp)
          ()
      in
      Hfl.matches_packet hfl p = Hfl.matches_tuple hfl (Five_tuple.of_packet p))

(* ------------------------------------------------------------------ *)
(* Flow table                                                          *)
(* ------------------------------------------------------------------ *)

let action =
  Alcotest.testable
    (fun fmt -> function
      | Flow_table.Forward p -> Format.fprintf fmt "forward:%s" p
      | Flow_table.Drop -> Format.fprintf fmt "drop"
      | Flow_table.To_controller -> Format.fprintf fmt "controller")
    ( = )

let test_flow_table_priority () =
  let t = Flow_table.create () in
  ignore (Flow_table.install t ~priority:10 ~match_:Hfl.any ~action:(Flow_table.Forward "default"));
  ignore
    (Flow_table.install t ~priority:100
       ~match_:(Hfl.of_string "tp_dst=80")
       ~action:(Flow_table.Forward "http"));
  Alcotest.(check (option action)) "http wins" (Some (Flow_table.Forward "http"))
    (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check (option action)) "default" (Some (Flow_table.Forward "default"))
    (Flow_table.lookup t (mk_packet ~dport:22 ()))

let test_flow_table_tie_break () =
  let t = Flow_table.create () in
  ignore (Flow_table.install t ~priority:5 ~match_:Hfl.any ~action:(Flow_table.Forward "first"));
  ignore (Flow_table.install t ~priority:5 ~match_:Hfl.any ~action:(Flow_table.Forward "second"));
  Alcotest.(check (option action)) "earlier install wins ties"
    (Some (Flow_table.Forward "first"))
    (Flow_table.lookup t (mk_packet ()))

let test_flow_table_remove_and_counters () =
  let t = Flow_table.create () in
  let r = Flow_table.install t ~priority:1 ~match_:Hfl.any ~action:Flow_table.Drop in
  ignore (Flow_table.lookup t (mk_packet ()));
  ignore (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check int) "packet counter" 2 r.Flow_table.packets;
  Alcotest.(check bool) "removed" true (Flow_table.remove t ~cookie:r.Flow_table.cookie);
  Alcotest.(check (option action)) "miss after removal" None (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check bool) "double remove" false (Flow_table.remove t ~cookie:r.Flow_table.cookie)

let test_flow_table_remove_matching () =
  let t = Flow_table.create () in
  let m = Hfl.of_string "tp_dst=80" in
  ignore (Flow_table.install t ~priority:1 ~match_:m ~action:Flow_table.Drop);
  ignore (Flow_table.install t ~priority:2 ~match_:m ~action:(Flow_table.Forward "x"));
  ignore (Flow_table.install t ~priority:1 ~match_:Hfl.any ~action:Flow_table.Drop);
  Alcotest.(check int) "removed both" 2 (Flow_table.remove_matching t m);
  Alcotest.(check int) "one left" 1 (Flow_table.size t)

(* Full five-tuple matches take the exact-match hash path; these tests
   pin its interaction with wildcard rules, priorities and removal. *)

let exact_hfl ?(sport = 1234) () =
  Hfl.of_string
    (Printf.sprintf "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=%d,tp_dst=80,proto=tcp"
       sport)

let test_flow_table_exact_vs_wildcard () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.install t ~priority:10 ~match_:(exact_hfl ())
       ~action:(Flow_table.Forward "exact"));
  ignore
    (Flow_table.install t ~priority:50
       ~match_:(Hfl.of_string "tp_dst=80")
       ~action:(Flow_table.Forward "wild"));
  Alcotest.(check (option action)) "higher-priority wildcard beats exact"
    (Some (Flow_table.Forward "wild"))
    (Flow_table.lookup t (mk_packet ()));
  ignore
    (Flow_table.install t ~priority:100 ~match_:(exact_hfl ())
       ~action:(Flow_table.Forward "exact-hi"));
  Alcotest.(check (option action)) "higher-priority exact wins"
    (Some (Flow_table.Forward "exact-hi"))
    (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check (option action)) "other flows fall through to wildcard"
    (Some (Flow_table.Forward "wild"))
    (Flow_table.lookup t (mk_packet ~sport:9999 ()))

let test_flow_table_exact_tie_break () =
  let t = Flow_table.create () in
  ignore
    (Flow_table.install t ~priority:5 ~match_:(exact_hfl ())
       ~action:(Flow_table.Forward "first"));
  ignore
    (Flow_table.install t ~priority:5 ~match_:(exact_hfl ())
       ~action:(Flow_table.Forward "second"));
  Alcotest.(check (option action)) "earlier exact install wins ties"
    (Some (Flow_table.Forward "first"))
    (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check int) "both rules kept" 2 (Flow_table.size t)

let test_flow_table_exact_remove () =
  let t = Flow_table.create () in
  let r = Flow_table.install t ~priority:5 ~match_:(exact_hfl ()) ~action:Flow_table.Drop in
  ignore
    (Flow_table.install t ~priority:5 ~match_:(exact_hfl ~sport:1111 ())
       ~action:Flow_table.Drop);
  Alcotest.(check bool) "remove by cookie" true
    (Flow_table.remove t ~cookie:r.Flow_table.cookie);
  Alcotest.(check (option action)) "removed rule no longer matches" None
    (Flow_table.lookup t (mk_packet ()));
  Alcotest.(check (option action)) "sibling exact rule intact" (Some Flow_table.Drop)
    (Flow_table.lookup t (mk_packet ~sport:1111 ()));
  Alcotest.(check int) "remove_matching drops exact rules" 1
    (Flow_table.remove_matching t (exact_hfl ~sport:1111 ()));
  Alcotest.(check int) "empty" 0 (Flow_table.size t)

let prop_flow_table_reference =
  (* The exact-hash + wildcard-scan lookup must behave exactly like a
     naive priority-then-insertion-order linear search. *)
  QCheck2.Gen.(
    QCheck2.Test.make ~name:"lookup equals linear reference" ~count:300
      (pair
         (list_size (int_range 0 20)
            (quad (int_bound 4) (int_range 0 3) (int_bound 4) (int_bound 4)))
         (pair (int_bound 4) (int_bound 4))))
    (fun (rules, (psrc, pdst)) ->
      let mk_hfl kind sp dp =
        match kind with
        | 0 -> Hfl.any
        | 1 -> Hfl.of_string (Printf.sprintf "tp_src=%d" (1000 + sp))
        | 2 -> Hfl.of_string (Printf.sprintf "tp_dst=%d" (80 + dp))
        | _ ->
          Hfl.of_string
            (Printf.sprintf
               "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=%d,tp_dst=%d,proto=tcp"
               (1000 + sp) (80 + dp))
      in
      let rules_l =
        List.mapi
          (fun i (prio, kind, sp, dp) ->
            (prio, i, mk_hfl kind sp dp, Flow_table.Forward (Printf.sprintf "p%d" i)))
          rules
      in
      let t = Flow_table.create () in
      List.iter
        (fun (prio, _, m, act) ->
          ignore (Flow_table.install t ~priority:prio ~match_:m ~action:act))
        rules_l;
      let pkt = mk_packet ~sport:(1000 + psrc) ~dport:(80 + pdst) () in
      let reference =
        List.fold_left
          (fun best (prio, i, m, act) ->
            if not (Hfl.matches_packet m pkt) then best
            else
              match best with
              | Some (bp, bi, _) when bp > prio || (bp = prio && bi < i) -> best
              | _ -> Some (prio, i, act))
          None rules_l
      in
      Flow_table.lookup t pkt = Option.map (fun (_, _, a) -> a) reference)

(* ------------------------------------------------------------------ *)
(* Switch + SDN controller                                             *)
(* ------------------------------------------------------------------ *)

let test_switch_forwarding () =
  let e = Engine.create () in
  let received = ref [] in
  let sw = Switch.create e ~name:"s1" () in
  let link =
    Link.create e ~name:"s1-out" ~dst:(fun p -> received := p :: !received) ()
  in
  Switch.attach_port sw ~port:"out" link;
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "out"));
  Switch.receive sw (mk_packet ());
  Engine.run e;
  Alcotest.(check int) "delivered" 1 (List.length !received);
  Alcotest.(check int) "rx count" 1 (Switch.packets_received sw)

let test_switch_miss_handler () =
  let e = Engine.create () in
  let punted = ref 0 in
  let sw = Switch.create e ~name:"s1" () in
  Switch.on_miss sw (fun _ -> incr punted);
  Switch.receive sw (mk_packet ());
  Engine.run e;
  Alcotest.(check int) "punted on miss" 1 !punted

let test_sdn_route_update_takes_time () =
  let e = Engine.create () in
  let to_a = ref 0 and to_b = ref 0 in
  let sw = Switch.create e ~name:"s1" () in
  let mk_counter_link name counter =
    Link.create e ~name ~dst:(fun _ -> incr counter) ()
  in
  Switch.attach_port sw ~port:"a" (mk_counter_link "la" to_a);
  Switch.attach_port sw ~port:"b" (mk_counter_link "lb" to_b);
  let ctrl = Sdn_controller.create e ~install_delay:(Time.ms 10.0) () in
  Sdn_controller.register_switch ctrl sw;
  (* Initial rule issued at t=0 is active at t=10 ms.  Traffic at 1 kHz
     over [20 ms, 70 ms); the reroute issued at t=40 ms takes effect at
     t=50 ms, so 30 packets go to port a and 20 to port b. *)
  Sdn_controller.install_rule ctrl ~switch:"s1" ~priority:1 ~match_:Hfl.any
    ~action:(Flow_table.Forward "a") ();
  for i = 0 to 49 do
    ignore
      (Engine.schedule_at e
         (Time.ms (20.0 +. float_of_int i))
         (fun () -> Switch.receive sw (mk_packet ~id:i ())))
  done;
  ignore
    (Engine.schedule_at e (Time.ms 40.0) (fun () ->
         Sdn_controller.update_route ctrl ~switch:"s1" ~match_:Hfl.any
           ~new_action:(Flow_table.Forward "b") ()));
  Engine.run e;
  Alcotest.(check int) "packets before flip" 30 !to_a;
  Alcotest.(check int) "packets after flip" 20 !to_b

let test_sdn_unknown_switch () =
  let e = Engine.create () in
  let ctrl = Sdn_controller.create e () in
  Alcotest.check_raises "unknown switch" (Failure "Sdn_controller: unknown switch nope")
    (fun () ->
      Sdn_controller.install_rule ctrl ~switch:"nope" ~priority:1 ~match_:Hfl.any
        ~action:Flow_table.Drop ())

let test_link_counters_and_order () =
  let e = Engine.create () in
  let got = ref [] in
  let link = Link.create e ~name:"l" ~dst:(fun p -> got := p.Packet.id :: !got) () in
  Link.send link (mk_packet ~id:1 ());
  Link.send link (mk_packet ~id:2 ());
  Engine.run e;
  Alcotest.(check (list int)) "FIFO delivery" [ 1; 2 ] (List.rev !got);
  Alcotest.(check int) "packets counted" 2 (Link.packets_sent link);
  Alcotest.(check bool) "bytes counted" true (Link.bytes_sent link >= 2 * Packet.header_bytes)

let test_switch_unknown_port_drops () =
  let e = Engine.create () in
  let sw = Switch.create e ~name:"s1" () in
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "nowhere"));
  Switch.receive sw (mk_packet ());
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Switch.packets_dropped sw)

let test_sdn_remove_rules () =
  let e = Engine.create () in
  let sw = Switch.create e ~name:"s1" () in
  let hits = ref 0 in
  Switch.attach_port sw ~port:"p" (Link.create e ~name:"lp" ~dst:(fun _ -> incr hits) ());
  let ctrl = Sdn_controller.create e ~install_delay:(Time.ms 1.0) () in
  Sdn_controller.register_switch ctrl sw;
  let m = Hfl.of_string "tp_dst=80" in
  Sdn_controller.install_rule ctrl ~switch:"s1" ~priority:5 ~match_:m
    ~action:(Flow_table.Forward "p") ();
  Engine.run e;
  Switch.receive sw (mk_packet ~id:1 ());
  Engine.run e;
  Sdn_controller.remove_rules ctrl ~switch:"s1" ~match_:m ();
  Engine.run e;
  Switch.receive sw (mk_packet ~id:2 ());
  Engine.run e;
  Alcotest.(check int) "only pre-removal packet forwarded" 1 !hits;
  Alcotest.(check int) "two rule operations issued" 2 (Sdn_controller.rule_operations ctrl)

let test_host_send_receive () =
  let h = Host.create ~name:"h1" () in
  Host.receive h (mk_packet ());
  Host.receive h (mk_packet ~id:2 ());
  Alcotest.(check int) "received" 2 (Host.packets_received h);
  Host.clear h;
  Alcotest.(check int) "cleared" 0 (Host.packets_received h)

(* ------------------------------------------------------------------ *)
(* Packet_batch                                                        *)
(* ------------------------------------------------------------------ *)

let batch_ids b =
  let ids = ref [] in
  Packet_batch.iter b (fun p -> ids := p.Packet.id :: !ids);
  List.rev !ids

let test_batch_columns () =
  let b = Packet_batch.create ~capacity:2 () in
  for i = 0 to 4 do
    Packet_batch.push b (mk_packet ~id:i ~ts:(float_of_int i *. 0.001) ~sport:(1000 + i) ())
  done;
  Alcotest.(check int) "length" 5 (Packet_batch.length b);
  Alcotest.(check bool) "grown past initial capacity" true (Packet_batch.capacity b >= 5);
  let check_member i =
    let p = Packet_batch.get b i in
    let packed = Five_tuple.pack_packet p in
    Alcotest.(check int) "key_a column" (Five_tuple.packed_pa packed) (Packet_batch.key_a b).(i);
    Alcotest.(check int) "key_b column" (Five_tuple.packed_pb packed) (Packet_batch.key_b b).(i);
    Alcotest.(check int) "hash column" (Five_tuple.packed_hash packed)
      (Packet_batch.key_hash b).(i);
    Alcotest.(check int) "size column" (Packet.wire_bytes p) (Packet_batch.sizes b).(i)
  in
  for i = 0 to 4 do
    check_member i;
    Alcotest.(check (float 1e-9)) "arrival"
      (float_of_int i *. 0.001)
      (Time.to_seconds (Packet_batch.arrival b i))
  done;
  (* A header rewrite (NAT) must refresh the key columns in place. *)
  Packet_batch.set b 2 (mk_packet ~id:2 ~src:"99.9.9.9" ~sport:777 ());
  check_member 2;
  let sum = Array.fold_left ( + ) 0 (Array.sub (Packet_batch.sizes b) 0 5) in
  Alcotest.(check int) "total_bytes is the size-column sum" sum (Packet_batch.total_bytes b)

let test_batch_drop_compact () =
  let b = Packet_batch.create () in
  for i = 0 to 9 do
    Packet_batch.push b (mk_packet ~id:i ~sport:(1000 + i) ())
  done;
  Packet_batch.drop b 0;
  Packet_batch.drop b 4;
  Packet_batch.drop b 9;
  Alcotest.(check bool) "marked" true (Packet_batch.is_dropped b 4);
  Alcotest.(check int) "removed" 3 (Packet_batch.compact b);
  Alcotest.(check int) "length" 7 (Packet_batch.length b);
  Alcotest.(check (list int)) "survivor order preserved" [ 1; 2; 3; 5; 6; 7; 8 ] (batch_ids b);
  Alcotest.(check bool) "marks cleared" false (Packet_batch.is_dropped b 0);
  (* Key columns must track the compacted payload slots. *)
  for i = 0 to 6 do
    Alcotest.(check int) "key follows survivor"
      (Five_tuple.packed_pa (Five_tuple.pack_packet (Packet_batch.get b i)))
      (Packet_batch.key_a b).(i)
  done;
  Alcotest.(check int) "compact with no marks" 0 (Packet_batch.compact b)

let test_batch_pool_reuse () =
  let pool = Packet_batch.pool () in
  let b1 = Packet_batch.alloc pool in
  Packet_batch.push b1 (mk_packet ());
  let b2 = Packet_batch.alloc pool in
  Alcotest.(check int) "created" 2 (Packet_batch.pool_created pool);
  Alcotest.(check int) "outstanding" 2 (Packet_batch.pool_outstanding pool);
  Alcotest.(check int) "high water" 2 (Packet_batch.pool_high_water pool);
  Packet_batch.release b1;
  Alcotest.(check int) "outstanding after release" 1 (Packet_batch.pool_outstanding pool);
  let b3 = Packet_batch.alloc pool in
  Alcotest.(check bool) "free-list reuse, no allocation" true (b3 == b1);
  Alcotest.(check int) "reuse creates nothing" 2 (Packet_batch.pool_created pool);
  Alcotest.(check int) "cleared on release" 0 (Packet_batch.length b3);
  (* A detached batch (cross-shard handoff) never returns to the pool. *)
  Packet_batch.detach b2;
  Packet_batch.release b2;
  let b4 = Packet_batch.alloc pool in
  Alcotest.(check bool) "detached batch not recycled" true (b4 != b2);
  Alcotest.(check int) "fresh batch created instead" 3 (Packet_batch.pool_created pool)

(* Install the same rules into two tables, classify [pkts] one by one
   in the first and as one batch in the second, and check that the
   actions and every rule counter agree; returns the batch's actions. *)
let batch_vs_scalar install_rules pkts =
  let ta = Flow_table.create () and tb = Flow_table.create () in
  install_rules ta;
  install_rules tb;
  let b = Packet_batch.create () in
  List.iter (Packet_batch.push b) pkts;
  let actions = Array.make (Packet_batch.length b) None in
  Flow_table.lookup_batch tb b actions;
  List.iteri
    (fun i p ->
      Alcotest.(check (option action))
        (Printf.sprintf "member %d action agrees" i)
        (Flow_table.lookup ta p) actions.(i))
    pkts;
  List.iter2
    (fun (ra : Flow_table.rule) (rb : Flow_table.rule) ->
      Alcotest.(check int) "rule packet counter agrees" ra.packets rb.packets;
      Alcotest.(check int) "rule byte counter agrees" ra.bytes rb.bytes)
    (Flow_table.rules ta) (Flow_table.rules tb);
  Array.to_list actions

let test_flow_table_batch_matches_scalar () =
  (* One classification pass over a batch must agree with per-packet
     lookups — same winning actions, same per-rule counters — across
     the exact fast path, the wildcard sidecar, their priority
     interplay, and misses. *)
  let exact sport =
    Hfl.of_string
      (Printf.sprintf "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=%d,tp_dst=80,proto=tcp" sport)
  in
  let install_rules t =
    ignore (Flow_table.install t ~priority:10 ~match_:(exact 1000) ~action:(Flow_table.Forward "exact"));
    ignore
      (Flow_table.install t ~priority:15 ~match_:(Hfl.of_string "tp_src=1001")
         ~action:(Flow_table.Forward "wild-wins"));
    ignore
      (Flow_table.install t ~priority:10 ~match_:(exact 1001)
         ~action:(Flow_table.Forward "exact-shadowed"));
    ignore
      (Flow_table.install t ~priority:20 ~match_:(Hfl.of_string "tp_dst=443")
         ~action:(Flow_table.Forward "wild"));
    ignore (Flow_table.install t ~priority:5 ~match_:(Hfl.of_string "tp_dst=22") ~action:Flow_table.Drop)
  in
  let pkts =
    [
      mk_packet ~id:0 ~sport:1000 ~dport:80 () (* exact fast path *);
      mk_packet ~id:1 ~sport:7 ~dport:443 () (* wildcard scan *);
      mk_packet ~id:2 ~sport:1001 ~dport:80 () (* wildcard outranks exact *);
      mk_packet ~id:3 ~sport:8 ~dport:22 () (* Drop rule *);
      mk_packet ~id:4 ~sport:9 ~dport:9999 () (* table miss *);
      mk_packet ~id:5 ~sport:1000 ~dport:80 ~proto:Packet.Udp () (* near-miss on proto *);
    ]
  in
  ignore (batch_vs_scalar install_rules pkts : Flow_table.action option list);
  (* An exact and a wildcard rule at equal priority: the lower cookie
     (earlier install) wins on both paths, whichever kind came first.
     The repeated members also revisit a slot that already holds its
     action. *)
  let tie_pkts =
    [
      mk_packet ~id:0 ~sport:1000 ~dport:80 ();
      mk_packet ~id:1 ~sport:1000 ~dport:80 ();
      mk_packet ~id:2 ~sport:1001 ~dport:80 ();
      mk_packet ~id:3 ~sport:1000 ~dport:80 ();
    ]
  in
  let fwd p = Some (Flow_table.Forward p) in
  Alcotest.(check (list (option action)))
    "exact installed first wins the tie"
    [ fwd "exact"; fwd "exact"; fwd "wild"; fwd "exact" ]
    (batch_vs_scalar
       (fun t ->
         ignore (Flow_table.install t ~priority:7 ~match_:(exact 1000) ~action:(Flow_table.Forward "exact"));
         ignore
           (Flow_table.install t ~priority:7 ~match_:(Hfl.of_string "tp_dst=80")
              ~action:(Flow_table.Forward "wild")))
       tie_pkts);
  Alcotest.(check (list (option action)))
    "wildcard installed first wins the tie"
    [ fwd "wild"; fwd "wild"; fwd "wild"; fwd "wild" ]
    (batch_vs_scalar
       (fun t ->
         ignore
           (Flow_table.install t ~priority:7 ~match_:(Hfl.of_string "tp_dst=80")
              ~action:(Flow_table.Forward "wild"));
         ignore (Flow_table.install t ~priority:7 ~match_:(exact 1000) ~action:(Flow_table.Forward "exact")))
       tie_pkts)

let test_switch_batch_uniform_fast_path () =
  let e = Engine.create () in
  let sw = Switch.create e ~name:"s1" () in
  let batch_lens = ref [] and scalar = ref 0 in
  let link = Link.create e ~name:"s1-out" ~dst:(fun _ -> incr scalar) () in
  Link.set_dst_batch link (fun b ->
      batch_lens := Packet_batch.length b :: !batch_lens;
      Packet_batch.release b);
  Switch.attach_port sw ~port:"out" link;
  ignore
    (Flow_table.install (Switch.table sw) ~priority:1 ~match_:Hfl.any
       ~action:(Flow_table.Forward "out"));
  let b = Packet_batch.alloc (Switch.batch_pool sw) in
  for i = 0 to 7 do
    Packet_batch.push b (mk_packet ~id:i ())
  done;
  Switch.receive_batch sw b;
  Engine.run e;
  Alcotest.(check (list int)) "delivered whole, as one batch" [ 8 ] !batch_lens;
  Alcotest.(check int) "no scalar fallback" 0 !scalar;
  Alcotest.(check int) "rx counter counts members" 8 (Switch.packets_received sw);
  Alcotest.(check int) "link counts members" 8 (Link.packets_sent link);
  Alcotest.(check int) "batch recycled to switch pool" 0
    (Packet_batch.pool_outstanding (Switch.batch_pool sw))

let test_switch_batch_split_fifo () =
  (* Satellite guarantee: when one batch splits between the exact fast
     path and the wildcard/miss sidecar, every destination — each output
     port, the controller punt queue, the drop counter — still sees its
     members in exact arrival order. *)
  let e = Engine.create () in
  let sw = Switch.create e ~name:"s1" () in
  let got_a = ref [] and got_b = ref [] and punted = ref [] in
  let mk_rec_link name cell =
    Link.create e ~name ~dst:(fun p -> cell := p.Packet.id :: !cell) ()
  in
  Switch.attach_port sw ~port:"a" (mk_rec_link "la" got_a);
  Switch.attach_port sw ~port:"b" (mk_rec_link "lb" got_b);
  Switch.on_miss sw (fun p -> punted := p.Packet.id :: !punted);
  let exact sport =
    Hfl.of_string
      (Printf.sprintf "nw_src=10.0.0.1/32,nw_dst=1.1.1.5/32,tp_src=%d,tp_dst=80,proto=tcp" sport)
  in
  let table = Switch.table sw in
  ignore (Flow_table.install table ~priority:10 ~match_:(exact 1000) ~action:(Flow_table.Forward "a"));
  ignore (Flow_table.install table ~priority:10 ~match_:(exact 1001) ~action:(Flow_table.Forward "a"));
  ignore
    (Flow_table.install table ~priority:10 ~match_:(Hfl.of_string "tp_dst=443")
       ~action:(Flow_table.Forward "b"));
  ignore (Flow_table.install table ~priority:10 ~match_:(Hfl.of_string "tp_dst=22") ~action:Flow_table.Drop);
  let b = Packet_batch.alloc (Switch.batch_pool sw) in
  List.iter
    (fun (id, sport, dport) -> Packet_batch.push b (mk_packet ~id ~sport ~dport ()))
    [
      (0, 1000, 80) (* exact -> a *);
      (1, 7, 443) (* wildcard -> b *);
      (2, 1001, 80) (* exact -> a *);
      (3, 9, 9999) (* miss -> punt *);
      (4, 8, 22) (* Drop *);
      (5, 7, 443) (* wildcard -> b *);
      (6, 1000, 80) (* exact -> a *);
      (7, 9, 9999) (* miss -> punt *);
    ];
  Switch.receive_batch sw b;
  Engine.run e;
  Alcotest.(check (list int)) "port a FIFO" [ 0; 2; 6 ] (List.rev !got_a);
  Alcotest.(check (list int)) "port b FIFO" [ 1; 5 ] (List.rev !got_b);
  Alcotest.(check (list int)) "punts in order" [ 3; 7 ] (List.rev !punted);
  Alcotest.(check int) "drop counted" 1 (Switch.packets_dropped sw);
  Alcotest.(check int) "rx counter" 8 (Switch.packets_received sw);
  Alcotest.(check int) "sub-batches recycled" 0
    (Packet_batch.pool_outstanding (Switch.batch_pool sw))

let test_link_batch_scalar_drain () =
  (* A batch sent over a link whose destination is batch-unaware drains
     member-by-member, in order, with member-granularity counters. *)
  let e = Engine.create () in
  let got = ref [] in
  let link = Link.create e ~name:"l" ~dst:(fun p -> got := p.Packet.id :: !got) () in
  let b = Packet_batch.create () in
  for i = 0 to 3 do
    Packet_batch.push b (mk_packet ~id:i ())
  done;
  let bytes = Packet_batch.total_bytes b in
  Link.send_batch link b;
  Engine.run e;
  Alcotest.(check (list int)) "drained in order" [ 0; 1; 2; 3 ] (List.rev !got);
  Alcotest.(check int) "packets counted per member" 4 (Link.packets_sent link);
  Alcotest.(check int) "bytes counted" bytes (Link.bytes_sent link)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_net"
    [
      ( "addr",
        [
          Alcotest.test_case "roundtrip" `Quick test_addr_roundtrip;
          Alcotest.test_case "bad input" `Quick test_addr_bad_input;
          Alcotest.test_case "prefix membership" `Quick test_prefix_membership;
          Alcotest.test_case "prefix subsumption" `Quick test_prefix_subsumption;
          Alcotest.test_case "zero prefix" `Quick test_prefix_zero;
          Alcotest.test_case "host in prefix" `Quick test_host_in_prefix;
        ] );
      ( "payload",
        [
          Alcotest.test_case "sizes" `Quick test_payload_sizes;
          Alcotest.test_case "sub/concat/equal" `Quick test_payload_sub_equal;
        ] );
      ( "five_tuple",
        [
          Alcotest.test_case "reverse and canonical" `Quick test_five_tuple_reverse_canonical;
          Alcotest.test_case "packed round-trip" `Quick test_packed_roundtrip;
        ]
        @ qcheck [ prop_packed_roundtrip; prop_hash_bucket_skew ] );
      ( "flat_table",
        [
          Alcotest.test_case "basics" `Quick test_flat_table_basics;
          Alcotest.test_case "forced collision chain" `Quick test_flat_table_collision_chain;
          Alcotest.test_case "flag column" `Quick test_flat_table_flags;
          Alcotest.test_case "batch probe" `Quick test_flat_table_batch_probe;
        ]
        @ qcheck [ prop_flat_table_model ] );
      ( "hfl",
        [
          Alcotest.test_case "matching" `Quick test_hfl_matching;
          Alcotest.test_case "bidirectional" `Quick test_hfl_bidir;
          Alcotest.test_case "string roundtrip" `Quick test_hfl_string_roundtrip;
          Alcotest.test_case "subsumption" `Quick test_hfl_subsumes;
          Alcotest.test_case "granularity" `Quick test_hfl_granularity;
          Alcotest.test_case "key projection" `Quick test_hfl_key_of_tuple;
          Alcotest.test_case "well-formedness" `Quick test_hfl_well_formed;
          Alcotest.test_case "equality" `Quick test_hfl_equal_order_insensitive;
          Alcotest.test_case "to_tuple" `Quick test_hfl_to_tuple;
        ]
        @ qcheck
            [ prop_hfl_subsumes_implies_match; prop_hfl_packet_matches_tuple; prop_hfl_text ] );
      ( "flow_table",
        [
          Alcotest.test_case "priority" `Quick test_flow_table_priority;
          Alcotest.test_case "tie break" `Quick test_flow_table_tie_break;
          Alcotest.test_case "remove and counters" `Quick test_flow_table_remove_and_counters;
          Alcotest.test_case "remove matching" `Quick test_flow_table_remove_matching;
          Alcotest.test_case "exact vs wildcard" `Quick test_flow_table_exact_vs_wildcard;
          Alcotest.test_case "exact tie break" `Quick test_flow_table_exact_tie_break;
          Alcotest.test_case "exact remove" `Quick test_flow_table_exact_remove;
        ]
        @ qcheck [ prop_flow_table_reference ] );
      ( "packet_batch",
        [
          Alcotest.test_case "columns track members" `Quick test_batch_columns;
          Alcotest.test_case "drop and compact" `Quick test_batch_drop_compact;
          Alcotest.test_case "pool reuse" `Quick test_batch_pool_reuse;
          Alcotest.test_case "lookup_batch matches scalar" `Quick
            test_flow_table_batch_matches_scalar;
        ] );
      ( "switch",
        [
          Alcotest.test_case "forwarding" `Quick test_switch_forwarding;
          Alcotest.test_case "miss handler" `Quick test_switch_miss_handler;
          Alcotest.test_case "unknown port drops" `Quick test_switch_unknown_port_drops;
          Alcotest.test_case "batch uniform fast path" `Quick test_switch_batch_uniform_fast_path;
          Alcotest.test_case "batch split preserves FIFO" `Quick test_switch_batch_split_fifo;
        ] );
      ( "link",
        [
          Alcotest.test_case "counters and order" `Quick test_link_counters_and_order;
          Alcotest.test_case "batch scalar drain" `Quick test_link_batch_scalar_drain;
        ] );
      ( "sdn",
        [
          Alcotest.test_case "route update delay" `Quick test_sdn_route_update_takes_time;
          Alcotest.test_case "unknown switch" `Quick test_sdn_unknown_switch;
          Alcotest.test_case "remove rules" `Quick test_sdn_remove_rules;
        ] );
      ("host", [ Alcotest.test_case "send/receive" `Quick test_host_send_receive ]);
    ]
