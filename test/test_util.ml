open Rx_util

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Varint --- *)

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 8 in
      Varint.write buf n;
      let v, next = Varint.read (Buffer.contents buf) 0 in
      check Alcotest.int "value" n v;
      check Alcotest.int "size" (Varint.size n) next)
    [ 0; 1; 127; 128; 255; 16384; 1_000_000; max_int ]

let varint_prop =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(map abs small_int)
    (fun n ->
      let buf = Buffer.create 8 in
      Varint.write buf n;
      fst (Varint.read (Buffer.contents buf) 0) = n)

(* --- Bytes_io --- *)

let test_bytes_io_roundtrip () =
  let w = Bytes_io.Writer.create () in
  Bytes_io.Writer.u8 w 0xab;
  Bytes_io.Writer.u16 w 0xcdef;
  Bytes_io.Writer.u32 w 0x12345678;
  Bytes_io.Writer.u64 w 0x1122334455667788L;
  Bytes_io.Writer.varint w 300;
  Bytes_io.Writer.lstring w "hello\x00world";
  let r = Bytes_io.Reader.of_string (Bytes_io.Writer.contents w) in
  check Alcotest.int "u8" 0xab (Bytes_io.Reader.u8 r);
  check Alcotest.int "u16" 0xcdef (Bytes_io.Reader.u16 r);
  check Alcotest.int "u32" 0x12345678 (Bytes_io.Reader.u32 r);
  check Alcotest.int64 "u64" 0x1122334455667788L (Bytes_io.Reader.u64 r);
  check Alcotest.int "varint" 300 (Bytes_io.Reader.varint r);
  check Alcotest.string "lstring" "hello\x00world" (Bytes_io.Reader.lstring r);
  check Alcotest.bool "at_end" true (Bytes_io.Reader.at_end r)

(* --- Decimal --- *)

let dec = Decimal.of_string_exn

let test_decimal_parse () =
  List.iter
    (fun (input, expected) ->
      check Alcotest.string input expected (Decimal.to_string (dec input)))
    [
      ("0", "0");
      ("000", "0");
      ("-0", "0");
      ("42", "42");
      ("-12.5", "-12.5");
      ("0.001", "0.001");
      ("1e3", "1000");
      ("1.5e3", "1500");
      ("2.5e-3", "0.0025");
      ("12.340", "12.34");
      ("+7", "7");
      (".5", "0.5");
    ]

let test_decimal_parse_errors () =
  List.iter
    (fun s -> check Alcotest.bool s true (Decimal.of_string s = None))
    [ ""; "."; "abc"; "1e"; "--2"; "1.2.3"; "5 " ]

let test_decimal_compare () =
  let lt a b =
    check Alcotest.bool
      (Printf.sprintf "%s < %s" a b)
      true
      (Decimal.compare (dec a) (dec b) < 0)
  in
  lt "-3" "2";
  lt "-3" "-2";
  lt "0.5" "0.50001";
  lt "99" "100";
  lt "-100" "-99";
  lt "1e-10" "1";
  lt "1" "1e10";
  check Alcotest.bool "equal forms" true (Decimal.equal (dec "1.50") (dec "1.5"))

let test_decimal_arith () =
  let eq label a b =
    check Alcotest.string label b (Decimal.to_string a)
  in
  eq "add" (Decimal.add (dec "1.5") (dec "2.25")) "3.75";
  eq "add carry" (Decimal.add (dec "9.99") (dec "0.01")) "10";
  eq "sub" (Decimal.sub (dec "1") (dec "0.999")) "0.001";
  eq "sub to zero" (Decimal.sub (dec "5") (dec "5")) "0";
  eq "neg add" (Decimal.add (dec "-3") (dec "1")) "-2";
  eq "big" (Decimal.add (dec "123456789123456789") (dec "1")) "123456789123456790"

let decimal_gen =
  QCheck.Gen.(
    map2
      (fun mantissa exp -> Printf.sprintf "%de%d" mantissa exp)
      (int_range (-1_000_000) 1_000_000)
      (int_range (-20) 20))

let decimal_key_order_prop =
  QCheck.Test.make ~name:"decimal key encoding preserves order" ~count:2000
    QCheck.(pair (make decimal_gen) (make decimal_gen))
    (fun (a, b) ->
      let da = dec a and db = dec b in
      let ka = Decimal.encode_key da and kb = Decimal.encode_key db in
      compare (Decimal.compare da db) 0 = compare (String.compare ka kb) 0)

let decimal_key_roundtrip_prop =
  QCheck.Test.make ~name:"decimal key decode inverts encode" ~count:2000
    (QCheck.make decimal_gen) (fun s ->
      let d = dec s in
      let k = Decimal.encode_key d in
      let d', pos = Decimal.decode_key k 0 in
      Decimal.equal d d' && pos = String.length k)

let decimal_float_agreement_prop =
  QCheck.Test.make ~name:"decimal compare agrees with float on exact values"
    ~count:2000
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      let da = Decimal.of_int a and db = Decimal.of_int b in
      compare (Decimal.compare da db) 0 = compare (compare a b) 0)

let decimal_add_matches_int_prop =
  QCheck.Test.make ~name:"decimal add matches int add" ~count:2000
    QCheck.(pair (int_range (-100000) 100000) (int_range (-100000) 100000))
    (fun (a, b) ->
      Decimal.equal
        (Decimal.add (Decimal.of_int a) (Decimal.of_int b))
        (Decimal.of_int (a + b)))

(* --- Key_codec --- *)

let test_key_codec_roundtrip () =
  let buf = Buffer.create 64 in
  Key_codec.encode_string buf "a\x00b";
  Key_codec.encode_int64 buf (-42L);
  Key_codec.encode_float buf (-3.25);
  let s = Buffer.contents buf in
  let v1, p = Key_codec.decode_string s 0 in
  let v2, p = Key_codec.decode_int64 s p in
  let v3, p = Key_codec.decode_float s p in
  check Alcotest.string "string" "a\x00b" v1;
  check Alcotest.int64 "int64" (-42L) v2;
  check (Alcotest.float 0.0) "float" (-3.25) v3;
  check Alcotest.int "consumed" (String.length s) p

let encode1 f v =
  let buf = Buffer.create 16 in
  f buf v;
  Buffer.contents buf

let key_string_order_prop =
  QCheck.Test.make ~name:"string key encoding preserves order" ~count:2000
    QCheck.(pair string string)
    (fun (a, b) ->
      let ka = encode1 Key_codec.encode_string a
      and kb = encode1 Key_codec.encode_string b in
      compare (String.compare a b) 0 = compare (String.compare ka kb) 0)

let key_int_order_prop =
  QCheck.Test.make ~name:"int64 key encoding preserves order" ~count:2000
    QCheck.(pair int int)
    (fun (a, b) ->
      let ka = encode1 Key_codec.encode_int64 (Int64.of_int a)
      and kb = encode1 Key_codec.encode_int64 (Int64.of_int b) in
      compare (compare a b) 0 = compare (String.compare ka kb) 0)

let key_float_order_prop =
  QCheck.Test.make ~name:"float key encoding preserves order" ~count:2000
    QCheck.(pair float float)
    (fun (a, b) ->
      QCheck.assume (Float.is_finite a && Float.is_finite b);
      let ka = encode1 Key_codec.encode_float a
      and kb = encode1 Key_codec.encode_float b in
      compare (Float.compare a b) 0 = compare (String.compare ka kb) 0)

(* composite keys: string component must not bleed into the next *)
let key_composite_prop =
  QCheck.Test.make ~name:"composite (string,int) keys order lexicographically"
    ~count:2000
    QCheck.(pair (pair string int) (pair string int))
    (fun ((s1, n1), (s2, n2)) ->
      let enc (s, n) =
        let buf = Buffer.create 16 in
        Key_codec.encode_string buf s;
        Key_codec.encode_int64 buf (Int64.of_int n);
        Buffer.contents buf
      in
      let expected = compare (s1, n1) (s2, n2) in
      compare expected 0 = compare (String.compare (enc (s1, n1)) (enc (s2, n2))) 0)

(* --- Lru --- *)

let test_lru_eviction_order () =
  let lru = Lru.create ~capacity:2 in
  check Alcotest.bool "no evict 1" true (Lru.put lru 1 "a" = None);
  check Alcotest.bool "no evict 2" true (Lru.put lru 2 "b" = None);
  ignore (Lru.find lru 1);
  (* 2 is now LRU *)
  (match Lru.put lru 3 "c" with
  | Some (2, "b") -> ()
  | _ -> Alcotest.fail "expected eviction of key 2");
  check Alcotest.bool "1 kept" true (Lru.mem lru 1);
  check Alcotest.bool "3 kept" true (Lru.mem lru 3)

let test_lru_put_evict_if () =
  let lru = Lru.create ~capacity:2 in
  ignore (Lru.put lru 1 "pinned");
  ignore (Lru.put lru 2 "pinned");
  (* nothing evictable *)
  check Alcotest.bool "full of pins" true
    (Lru.put_evict_if lru ~can_evict:(fun _ _ -> false) 3 "c" = None);
  (* only key 1 evictable *)
  (match Lru.put_evict_if lru ~can_evict:(fun k _ -> k = 1) 3 "c" with
  | Some (Some (1, _)) -> ()
  | _ -> Alcotest.fail "expected eviction of key 1")

let test_lru_update_existing () =
  let lru = Lru.create ~capacity:2 in
  ignore (Lru.put lru 1 "a");
  ignore (Lru.put lru 1 "b");
  check Alcotest.int "length" 1 (Lru.length lru);
  check (Alcotest.option Alcotest.string) "value" (Some "b") (Lru.peek lru 1)

type lru_op =
  | Put of int * int
  | Find of int
  | Peek of int
  | Remove of int
  | Put_evict_if of int * int (* only even keys are evictable *)

(* Every operation against an association list kept most recently used
   first: results and the final order must agree. *)
let lru_model_prop =
  let capacity = 4 in
  let key = QCheck.Gen.(0 -- 7) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, map2 (fun k v -> Put (k, v)) key small_nat);
          (3, map (fun k -> Find k) key);
          (1, map (fun k -> Peek k) key);
          (1, map (fun k -> Remove k) key);
          (2, map2 (fun k v -> Put_evict_if (k, v)) key small_nat);
        ])
  in
  QCheck.Test.make ~name:"lru agrees with a list model" ~count:500
    (QCheck.make QCheck.Gen.(list_size (0 -- 60) op))
    (fun ops ->
      let lru = Lru.create ~capacity in
      let model = ref [] in
      let front k v = model := (k, v) :: List.remove_assoc k !model in
      let last () = List.nth !model (List.length !model - 1) in
      List.for_all
        (fun op ->
          match op with
          | Put (k, v) ->
              let want =
                if List.mem_assoc k !model || List.length !model < capacity
                then None
                else Some (last ())
              in
              (match want with
              | Some (vk, _) -> model := List.remove_assoc vk !model
              | None -> ());
              front k v;
              Lru.put lru k v = want
          | Find k ->
              let want = List.assoc_opt k !model in
              Option.iter (front k) want;
              Lru.find_opt lru k = want
          | Peek k -> Lru.peek lru k = List.assoc_opt k !model
          | Remove k ->
              model := List.remove_assoc k !model;
              Lru.remove lru k;
              true
          | Put_evict_if (k, v) ->
              let can_evict k _ = k mod 2 = 0 in
              let want =
                if List.mem_assoc k !model || List.length !model < capacity
                then Some None
                else
                  match
                    List.find_opt (fun (k, v) -> can_evict k v) (List.rev !model)
                  with
                  | None -> None
                  | Some victim -> Some (Some victim)
              in
              (match want with
              | Some (Some (vk, _)) -> model := List.remove_assoc vk !model
              | _ -> ());
              if want <> None then front k v;
              Lru.put_evict_if lru ~can_evict k v = want)
        ops
      && Lru.to_list lru = !model
      && Lru.length lru = List.length !model)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_bounds () =
  let r = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int r 10 in
    check Alcotest.bool "in range" true (v >= 0 && v < 10);
    let f = Prng.float r 2.0 in
    check Alcotest.bool "float in range" true (f >= 0.0 && f < 2.0);
    let w = Prng.int_range r 5 9 in
    check Alcotest.bool "int_range" true (w >= 5 && w <= 9)
  done

let () =
  Alcotest.run "rx_util"
    [
      ( "varint",
        [
          Alcotest.test_case "roundtrip examples" `Quick test_varint_roundtrip;
          qcheck varint_prop;
        ] );
      ("bytes_io", [ Alcotest.test_case "roundtrip" `Quick test_bytes_io_roundtrip ]);
      ( "decimal",
        [
          Alcotest.test_case "parse" `Quick test_decimal_parse;
          Alcotest.test_case "parse errors" `Quick test_decimal_parse_errors;
          Alcotest.test_case "compare" `Quick test_decimal_compare;
          Alcotest.test_case "arithmetic" `Quick test_decimal_arith;
          qcheck decimal_key_order_prop;
          qcheck decimal_key_roundtrip_prop;
          qcheck decimal_float_agreement_prop;
          qcheck decimal_add_matches_int_prop;
        ] );
      ( "key_codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_codec_roundtrip;
          qcheck key_string_order_prop;
          qcheck key_int_order_prop;
          qcheck key_float_order_prop;
          qcheck key_composite_prop;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "put_evict_if" `Quick test_lru_put_evict_if;
          Alcotest.test_case "update existing" `Quick test_lru_update_existing;
          qcheck lru_model_prop;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
        ] );
    ]
