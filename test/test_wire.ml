(* Tests for the JSON codec and the LZSS compressor. *)

open Openmb_wire

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json = Alcotest.testable (fun fmt j -> Format.pp_print_string fmt (Json.to_string j)) Json.equal

let test_json_print_basics () =
  Alcotest.(check string) "null" "null" (Json.to_string Json.Null);
  Alcotest.(check string) "bool" "true" (Json.to_string (Json.Bool true));
  Alcotest.(check string) "int" "-42" (Json.to_string (Json.Int (-42)));
  Alcotest.(check string) "string" {|"hi"|} (Json.to_string (Json.String "hi"));
  Alcotest.(check string) "list" "[1,2]" (Json.to_string (Json.List [ Json.Int 1; Json.Int 2 ]));
  Alcotest.(check string) "assoc" {|{"a":1}|}
    (Json.to_string (Json.Assoc [ ("a", Json.Int 1) ]))

let test_json_escape_roundtrip () =
  let s = "line1\nline2\t\"quoted\"\\back\x01ctl" in
  let j = Json.String s in
  Alcotest.check json "escaped string round-trips" j (Json.of_string (Json.to_string j))

let test_json_parse_whitespace () =
  let j = Json.of_string "  { \"a\" : [ 1 , 2.5 , null ] , \"b\" : false }  " in
  Alcotest.check json "parsed"
    (Json.Assoc
       [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Null ]); ("b", Json.Bool false) ])
    j

let test_json_parse_nested () =
  let text = {|{"outer":{"inner":[{"x":1},{"y":[true,false]}]}}|} in
  let j = Json.of_string text in
  Alcotest.(check string) "reprint" text (Json.to_string j)

let test_json_numbers () =
  Alcotest.check json "negative float" (Json.Float (-3.25)) (Json.of_string "-3.25");
  Alcotest.check json "exponent" (Json.Float 1500.0) (Json.of_string "1.5e3");
  Alcotest.check json "int stays int" (Json.Int 7) (Json.of_string "7")

let test_json_unicode_escape () =
  let j = Json.of_string {|"Aé"|} in
  Alcotest.(check string) "utf8 decoded" "A\xc3\xa9" (Json.get_string j)

let test_json_errors () =
  let fails s =
    match Json.of_string s with
    | _ -> Alcotest.fail (Printf.sprintf "expected parse failure for %S" s)
    | exception Json.Parse_error _ -> ()
  in
  List.iter fails [ ""; "{"; "[1,"; "tru"; "{\"a\":}"; "1 2"; "\"unterminated" ]

let test_json_member () =
  let j = Json.Assoc [ ("a", Json.Int 1); ("b", Json.Null) ] in
  Alcotest.check json "present" (Json.Int 1) (Json.member "a" j);
  Alcotest.check json "absent is null" Json.Null (Json.member "zz" j);
  Alcotest.(check bool) "mem" true (Json.mem "b" j);
  Alcotest.(check bool) "not mem" false (Json.mem "zz" j)

let test_json_accessor_errors () =
  Alcotest.check_raises "get_int on string" (Invalid_argument "Json.get_int") (fun () ->
      ignore (Json.get_int (Json.String "x")));
  Alcotest.check_raises "member on list" (Invalid_argument "Json.member: not an object")
    (fun () -> ignore (Json.member "a" (Json.List [])))

let test_json_wire_size () =
  let j = Json.Assoc [ ("a", Json.Int 1) ] in
  Alcotest.(check int) "wire size matches encoding" (String.length (Json.to_string j))
    (Json.wire_size j)

let json_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [
            return Json.Null;
            map (fun b -> Json.Bool b) bool;
            map (fun i -> Json.Int i) (int_range (-1000000) 1000000);
            map (fun s -> Json.String s) (string_size (int_range 0 12));
          ]
      else
        oneof
          [
            map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
            map
              (fun fields -> Json.Assoc fields)
              (list_size (int_range 0 4)
                 (pair (string_size (int_range 1 6)) (self (n / 2))));
          ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"JSON print/parse round-trip" ~count:300 json_gen (fun j ->
      Json.equal j (Json.of_string (Json.to_string j)))

let prop_json_pretty_roundtrip =
  QCheck2.Test.make ~name:"pretty print/parse round-trip" ~count:150 json_gen (fun j ->
      Json.equal j (Json.of_string (Json.to_string_pretty j)))

(* ------------------------------------------------------------------ *)
(* Compression                                                         *)
(* ------------------------------------------------------------------ *)

let test_compress_roundtrip_basic () =
  let cases =
    [
      "";
      "a";
      "abcabcabcabcabcabc";
      String.make 1000 'x';
      "no repeats here at all!?";
      String.concat "" (List.init 50 (fun i -> Printf.sprintf "{\"field\":%d}" (i mod 3)));
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %d bytes" (String.length s))
        s
        (Compress.decompress (Compress.compress s)))
    cases

let test_compress_shrinks_redundant () =
  let s = String.concat "" (List.init 200 (fun _ -> "the same phrase again and again. ")) in
  Alcotest.(check bool) "redundant input shrinks" true
    (Compress.compressed_size s < String.length s / 2);
  Alcotest.(check bool) "ratio positive" true (Compress.ratio s > 0.5)

let test_compress_ratio_empty () =
  Alcotest.(check (float 1e-9)) "empty ratio" 0.0 (Compress.ratio "")

let prop_json_parse_total =
  (* Parsing arbitrary bytes either yields a value or raises
     Parse_error — never anything else. *)
  QCheck2.Test.make ~name:"JSON parser is total" ~count:500
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      match Json.of_string s with
      | _ -> true
      | exception Json.Parse_error _ -> true)

let prop_compress_roundtrip =
  QCheck2.Test.make ~name:"LZSS round-trip" ~count:300
    QCheck2.Gen.(string_size (int_range 0 2000))
    (fun s -> Compress.decompress (Compress.compress s) = s)

let prop_compress_roundtrip_redundant =
  (* Strings with long repeats exercise the back-reference paths. *)
  QCheck2.Test.make ~name:"LZSS round-trip on repetitive input" ~count:200
    QCheck2.Gen.(
      pair (string_size (int_range 1 40)) (int_range 2 100))
    (fun (unit_, reps) ->
      let s = String.concat "" (List.init reps (fun _ -> unit_)) in
      Compress.decompress (Compress.compress s) = s)

let prop_compress_workspace_equivalent =
  (* A long-lived workspace reused across many inputs (the controller's
     transfer pipeline) must behave exactly like compressing each input
     with a fresh workspace: identical bytes out, and every output
     round-trips through the one shared decompressor.  Mixes random and
     highly repetitive inputs so hash chains carry real state from one
     call into the next. *)
  QCheck2.Test.make ~name:"workspace reuse equals fresh compression" ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (oneof
           [
             string_size (int_range 0 400);
             map
               (fun (unit_, reps) -> String.concat "" (List.init reps (fun _ -> unit_)))
               (pair (string_size (int_range 1 24)) (int_range 2 50));
           ]))
    (fun inputs ->
      let shared = Compress.create_workspace () in
      List.for_all
        (fun s ->
          let reused = Compress.compress_with shared s in
          let fresh = Compress.compress_with (Compress.create_workspace ()) s in
          reused = fresh
          && reused = Compress.compress s
          && Compress.decompress reused = s)
        inputs)

(* ------------------------------------------------------------------ *)
(* Binary primitives                                                   *)
(* ------------------------------------------------------------------ *)

let encode f =
  let buf = Buffer.create 16 in
  f (Binary.buffer_sink buf);
  Buffer.contents buf

let test_binary_fixed_roundtrip () =
  List.iter
    (fun v ->
      let s = encode (fun k -> Binary.u8 k v) in
      Alcotest.(check int) "u8 is one byte" 1 (String.length s);
      Alcotest.(check int) "u8 value" v (Binary.get_u8 (Binary.reader s)))
    [ 0; 1; 127; 255 ];
  List.iter
    (fun v ->
      let s = encode (fun k -> Binary.u16 k v) in
      Alcotest.(check int) "u16 is two bytes" 2 (String.length s);
      Alcotest.(check int) "u16 value" v (Binary.get_u16 (Binary.reader s)))
    [ 0; 258; 65535 ];
  List.iter
    (fun v ->
      let s = encode (fun k -> Binary.u32 k v) in
      Alcotest.(check int) "u32 is four bytes" 4 (String.length s);
      Alcotest.(check int) "u32 value" v (Binary.get_u32 (Binary.reader s)))
    [ 0; 0xDEADBEEF; 0xFFFFFFFF ]

let test_binary_varint_sizes () =
  let len v = String.length (encode (fun k -> Binary.uvarint k v)) in
  Alcotest.(check int) "7 bits fit one byte" 1 (len 127);
  Alcotest.(check int) "8 bits need two" 2 (len 128);
  Alcotest.(check int) "max_int round-trips" max_int
    (Binary.get_uvarint (Binary.reader (encode (fun k -> Binary.uvarint k max_int))));
  (match Binary.uvarint (Binary.buffer_sink (Buffer.create 4)) (-1) with
  | () -> Alcotest.fail "negative uvarint accepted"
  | exception Invalid_argument _ -> ());
  (* Zigzag keeps small magnitudes small regardless of sign. *)
  let zlen v = String.length (encode (fun k -> Binary.varint k v)) in
  Alcotest.(check int) "-1 fits one byte" 1 (zlen (-1));
  Alcotest.(check int) "63 fits one byte" 1 (zlen 63);
  List.iter
    (fun v ->
      Alcotest.(check int) "varint value" v
        (Binary.get_varint (Binary.reader (encode (fun k -> Binary.varint k v)))))
    [ 0; 1; -1; 63; -64; 123456; -987654; max_int; min_int ]

let test_binary_f64_str () =
  List.iter
    (fun v ->
      let got = Binary.get_f64 (Binary.reader (encode (fun k -> Binary.f64 k v))) in
      Alcotest.(check bool) "f64 bit-exact" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float got)))
    [ 0.0; -0.0; 1.5; -3.25e17; 1e-300; infinity; neg_infinity ];
  List.iter
    (fun s ->
      Alcotest.(check string) "str round-trip" s
        (Binary.get_str (Binary.reader (encode (fun k -> Binary.str k s)))))
    [ ""; "x"; "some\x00binary\xffdata"; String.make 500 'q' ]

let test_binary_counting_sink () =
  let write k =
    Binary.u32 k 7;
    Binary.str k "abc";
    Binary.varint k (-5)
  in
  let k, count = Binary.counting_sink () in
  write k;
  Alcotest.(check int) "count matches materialized bytes"
    (String.length (encode write))
    (count ())

let test_binary_truncated () =
  let fails what f =
    match f () with
    | _ -> Alcotest.fail (what ^ ": expected Decode_error")
    | exception Binary.Decode_error _ -> ()
  in
  fails "u32 on two bytes" (fun () -> Binary.get_u32 (Binary.reader "\x00\x01"));
  fails "u8 at end" (fun () -> Binary.get_u8 (Binary.reader ""));
  fails "str length past end" (fun () -> Binary.get_str (Binary.reader "\x0axy"));
  fails "uvarint with dangling continuation" (fun () ->
      Binary.get_uvarint (Binary.reader "\x80"));
  fails "uvarint too wide" (fun () ->
      Binary.get_uvarint (Binary.reader "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"))

let prop_varint_roundtrip =
  QCheck2.Test.make ~name:"varint round-trip on full int range" ~count:500
    QCheck2.Gen.int
    (fun v -> Binary.get_varint (Binary.reader (encode (fun k -> Binary.varint k v))) = v)

let prop_uvarint_roundtrip =
  QCheck2.Test.make ~name:"uvarint round-trip" ~count:500
    QCheck2.Gen.(map (fun i -> i land max_int) int)
    (fun v -> Binary.get_uvarint (Binary.reader (encode (fun k -> Binary.uvarint k v))) = v)

let prop_str_roundtrip =
  QCheck2.Test.make ~name:"str round-trip on arbitrary bytes" ~count:300
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s -> Binary.get_str (Binary.reader (encode (fun k -> Binary.str k s))) = s)

let prop_f64_roundtrip =
  QCheck2.Test.make ~name:"f64 round-trip" ~count:300 QCheck2.Gen.float (fun v ->
      Int64.equal (Int64.bits_of_float v)
        (Int64.bits_of_float
           (Binary.get_f64 (Binary.reader (encode (fun k -> Binary.f64 k v))))))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "openmb_wire"
    [
      ( "json",
        [
          Alcotest.test_case "print basics" `Quick test_json_print_basics;
          Alcotest.test_case "escape roundtrip" `Quick test_json_escape_roundtrip;
          Alcotest.test_case "whitespace" `Quick test_json_parse_whitespace;
          Alcotest.test_case "nested" `Quick test_json_parse_nested;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escape;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "accessor errors" `Quick test_json_accessor_errors;
          Alcotest.test_case "wire size" `Quick test_json_wire_size;
        ]
        @ qcheck [ prop_json_roundtrip; prop_json_pretty_roundtrip; prop_json_parse_total ] );
      ( "compress",
        [
          Alcotest.test_case "roundtrip basics" `Quick test_compress_roundtrip_basic;
          Alcotest.test_case "shrinks redundant input" `Quick test_compress_shrinks_redundant;
          Alcotest.test_case "empty ratio" `Quick test_compress_ratio_empty;
        ]
        @ qcheck
            [
              prop_compress_roundtrip;
              prop_compress_roundtrip_redundant;
              prop_compress_workspace_equivalent;
            ] );
      ( "binary",
        [
          Alcotest.test_case "fixed-width round-trips" `Quick test_binary_fixed_roundtrip;
          Alcotest.test_case "varint sizes and values" `Quick test_binary_varint_sizes;
          Alcotest.test_case "f64/str" `Quick test_binary_f64_str;
          Alcotest.test_case "counting sink" `Quick test_binary_counting_sink;
          Alcotest.test_case "truncated input" `Quick test_binary_truncated;
        ]
        @ qcheck
            [
              prop_varint_roundtrip;
              prop_uvarint_roundtrip;
              prop_str_roundtrip;
              prop_f64_roundtrip;
            ] );
    ]
