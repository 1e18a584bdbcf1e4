open Rx_storage
open Rx_btree

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let make_tree ?(page_size = 512) ?(capacity = 256) () =
  let pool = Buffer_pool.create ~capacity (Pager.create_in_memory ~page_size ()) in
  (pool, Btree.create pool)

let test_empty () =
  let _, tree = make_tree () in
  check (Alcotest.option Alcotest.string) "find on empty" None (Btree.find tree "k");
  check Alcotest.int "count" 0 (Btree.entry_count tree);
  check Alcotest.bool "delete on empty" false (Btree.delete tree "k");
  Btree.check_invariants tree

let test_single_node_ops () =
  let _, tree = make_tree () in
  Btree.insert tree ~key:"b" ~value:"2";
  Btree.insert tree ~key:"a" ~value:"1";
  Btree.insert tree ~key:"c" ~value:"3";
  check (Alcotest.option Alcotest.string) "a" (Some "1") (Btree.find tree "a");
  check (Alcotest.option Alcotest.string) "b" (Some "2") (Btree.find tree "b");
  check (Alcotest.option Alcotest.string) "c" (Some "3") (Btree.find tree "c");
  check (Alcotest.option Alcotest.string) "missing" None (Btree.find tree "d");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "sorted"
    [ ("a", "1"); ("b", "2"); ("c", "3") ]
    (Btree.to_list tree)

let test_replace () =
  let _, tree = make_tree () in
  Btree.insert tree ~key:"k" ~value:"old";
  Btree.insert tree ~key:"k" ~value:"new-and-longer";
  check (Alcotest.option Alcotest.string) "replaced" (Some "new-and-longer")
    (Btree.find tree "k");
  check Alcotest.int "count unchanged" 1 (Btree.entry_count tree)

let test_split_growth () =
  let _, tree = make_tree ~page_size:512 () in
  let n = 2000 in
  for i = 0 to n - 1 do
    Btree.insert tree ~key:(Printf.sprintf "key%06d" i) ~value:(Printf.sprintf "val%d" i)
  done;
  Btree.check_invariants tree;
  check Alcotest.int "count" n (Btree.entry_count tree);
  check Alcotest.bool "grew levels" true (Btree.height tree >= 3);
  for i = 0 to n - 1 do
    match Btree.find tree (Printf.sprintf "key%06d" i) with
    | Some v ->
        if v <> Printf.sprintf "val%d" i then Alcotest.fail "wrong value"
    | None -> Alcotest.failf "missing key%06d" i
  done

let test_random_order_insert () =
  let _, tree = make_tree ~page_size:512 () in
  let rng = Rx_util.Prng.create ~seed:99 in
  let keys = Array.init 1500 (fun i -> Printf.sprintf "k%08d" i) in
  Rx_util.Prng.shuffle rng keys;
  Array.iter (fun k -> Btree.insert tree ~key:k ~value:k) keys;
  Btree.check_invariants tree;
  check Alcotest.int "count" 1500 (Btree.entry_count tree);
  let sorted = Array.to_list (Array.map (fun k -> (k, k)) keys) |> List.sort compare in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "in-order traversal" sorted (Btree.to_list tree)

let test_range_scan () =
  let _, tree = make_tree () in
  for i = 0 to 99 do
    Btree.insert tree ~key:(Printf.sprintf "%03d" i) ~value:(string_of_int i)
  done;
  let collect ?lo ?hi () =
    Btree.fold_range tree ?lo ?hi ~init:[] (fun acc k _ -> k :: acc) |> List.rev
  in
  check (Alcotest.list Alcotest.string) "closed-open range"
    [ "010"; "011"; "012" ]
    (collect ~lo:"010" ~hi:"013" ());
  check Alcotest.int "from lo" 90 (List.length (collect ~lo:"010" ()));
  check Alcotest.int "to hi" 10 (List.length (collect ~hi:"010" ()));
  check Alcotest.int "all" 100 (List.length (collect ()));
  check (Alcotest.list Alcotest.string) "empty range" [] (collect ~lo:"900" ());
  (* lo between keys *)
  check (Alcotest.list Alcotest.string) "lo not a key"
    [ "011"; "012" ]
    (collect ~lo:"010x" ~hi:"013" ())

let test_iter_stop () =
  let _, tree = make_tree () in
  for i = 0 to 99 do
    Btree.insert tree ~key:(Printf.sprintf "%03d" i) ~value:""
  done;
  let seen = ref 0 in
  Btree.iter_range tree (fun _ _ ->
      incr seen;
      if !seen >= 5 then `Stop else `Continue);
  check Alcotest.int "early stop" 5 !seen

let test_iter_prefix () =
  let _, tree = make_tree () in
  List.iter
    (fun k -> Btree.insert tree ~key:k ~value:"")
    [ "app"; "apple"; "apples"; "apricot"; "banana"; "ap" ];
  let seen = ref [] in
  Btree.iter_prefix tree ~prefix:"app" (fun k _ ->
      seen := k :: !seen;
      `Continue);
  check
    (Alcotest.slist Alcotest.string String.compare)
    "prefix matches" [ "app"; "apple"; "apples" ] !seen

let test_delete () =
  let _, tree = make_tree ~page_size:512 () in
  for i = 0 to 999 do
    Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  for i = 0 to 999 do
    if i mod 3 = 0 then
      check Alcotest.bool "delete present" true
        (Btree.delete tree (Printf.sprintf "key%04d" i))
  done;
  Btree.check_invariants tree;
  check Alcotest.bool "delete absent" false (Btree.delete tree "key0000");
  for i = 0 to 999 do
    let expected = if i mod 3 = 0 then None else Some (string_of_int i) in
    check (Alcotest.option Alcotest.string)
      (Printf.sprintf "key%04d" i)
      expected
      (Btree.find tree (Printf.sprintf "key%04d" i))
  done

let test_attach () =
  let pool, tree = make_tree () in
  for i = 0 to 500 do
    Btree.insert tree ~key:(Printf.sprintf "k%05d" i) ~value:(string_of_int i)
  done;
  let tree2 = Btree.attach pool ~meta_page:(Btree.meta_page tree) in
  check (Alcotest.option Alcotest.string) "find via attach" (Some "250")
    (Btree.find tree2 "k00250");
  check Alcotest.int "count via attach" 501 (Btree.entry_count tree2)

let test_large_entries () =
  let _, tree = make_tree ~page_size:4096 () in
  let big = String.make 500 'v' in
  for i = 0 to 50 do
    Btree.insert tree ~key:(Printf.sprintf "big%03d" i) ~value:big
  done;
  Btree.check_invariants tree;
  check (Alcotest.option Alcotest.string) "big value" (Some big) (Btree.find tree "big025");
  Alcotest.check_raises "oversized entry rejected"
    (Invalid_argument "Btree.insert: entry too large") (fun () ->
      Btree.insert tree ~key:"huge" ~value:(String.make 4000 'x'))

let test_binary_keys () =
  let _, tree = make_tree () in
  let keys = [ "\x00"; "\x00\x00"; "\x00\x01"; "\xff"; "\xfe\xff"; "" ] in
  List.iter (fun k -> Btree.insert tree ~key:k ~value:(String.escaped k)) keys;
  Btree.check_invariants tree;
  List.iter
    (fun k ->
      check (Alcotest.option Alcotest.string) (String.escaped k)
        (Some (String.escaped k)) (Btree.find tree k))
    keys;
  check
    (Alcotest.list Alcotest.string)
    "binary order"
    (List.sort String.compare keys)
    (List.map fst (Btree.to_list tree))

(* --- bottom-up bulk load --- *)

let kv i = (Printf.sprintf "key%06d" i, Printf.sprintf "val%d" i)

let bulk_tree ?page_size entries =
  let pool, tree = make_tree ?page_size () in
  let b = Btree.bulk_start tree in
  List.iter (fun (key, value) -> Btree.bulk_add b ~key ~value) entries;
  Btree.bulk_finish b;
  (pool, tree)

(* the same entries inserted one by one, in a shuffled order *)
let inserted_tree ?page_size entries =
  let _, tree = make_tree ?page_size () in
  let arr = Array.of_list entries in
  let rng = Rx_util.Prng.create ~seed:7 in
  for i = Array.length arr - 1 downto 1 do
    let j = Rx_util.Prng.int rng (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  Array.iter (fun (key, value) -> Btree.insert tree ~key ~value) arr;
  tree

let check_same_as_inserts name n =
  let entries = List.init n kv in
  let _, bulk = bulk_tree entries in
  let ins = inserted_tree entries in
  Btree.check_invariants bulk;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    (name ^ ": same entries") (Btree.to_list ins) (Btree.to_list bulk);
  check Alcotest.int (name ^ ": same count") (Btree.entry_count ins)
    (Btree.entry_count bulk);
  bulk

let test_bulk_matches_inserts () =
  ignore (check_same_as_inserts "n = 0" 0);
  ignore (check_same_as_inserts "n = 1" 1);
  (* the largest load that is still one leaf, and one entry more *)
  let rec one_leaf n =
    let _, t = bulk_tree (List.init (n + 1) kv) in
    if Btree.height t > 1 then n else one_leaf (n + 1)
  in
  let full = one_leaf 1 in
  let t = check_same_as_inserts "one full leaf" full in
  check Alcotest.int "one full leaf is the root" 1 (Btree.height t);
  let t = check_same_as_inserts "one full leaf + 1" (full + 1) in
  check Alcotest.int "the next entry opens a second leaf" 2 (Btree.height t);
  let t = check_same_as_inserts "three levels" 2000 in
  check Alcotest.bool "more than two levels" true (Btree.height t >= 3)

let test_bulk_then_mutate () =
  let n = 2000 in
  let pool, tree = bulk_tree (List.init n kv) in
  let module M = Map.Make (String) in
  let m = ref (M.of_seq (Seq.init n kv)) in
  (* inserts between, before and after the loaded keys, then deletes *)
  for i = 0 to 399 do
    let key = Printf.sprintf "key%06d+" (i * 5) in
    Btree.insert tree ~key ~value:"new";
    m := M.add key "new" !m
  done;
  Btree.insert tree ~key:"a" ~value:"first";
  Btree.insert tree ~key:"z" ~value:"last";
  m := M.add "a" "first" (M.add "z" "last" !m);
  for i = 0 to 299 do
    let key = fst (kv (i * 3)) in
    check Alcotest.bool "loaded key deleted" true (Btree.delete tree key);
    m := M.remove key !m
  done;
  Btree.check_invariants tree;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "mutations after a bulk load" (M.bindings !m) (Btree.to_list tree);
  check Alcotest.int "count" (M.cardinal !m) (Btree.entry_count tree);
  let again = Btree.attach pool ~meta_page:(Btree.meta_page tree) in
  check Alcotest.int "count via attach" (M.cardinal !m)
    (Btree.entry_count again)

let test_bulk_fill () =
  (* nodes close about two-thirds full, like the average node random
     inserts leave, so the page count stays near an insert-built tree's *)
  let entries = List.init 5000 kv in
  let _, bulk = bulk_tree entries in
  let ins = inserted_tree entries in
  let ratio =
    float_of_int (Btree.page_count bulk) /. float_of_int (Btree.page_count ins)
  in
  if ratio < 0.9 || ratio > 1.1 then
    Alcotest.failf "bulk %d pages vs inserted %d" (Btree.page_count bulk)
      (Btree.page_count ins)

let test_bulk_rejects () =
  let _, tree = make_tree () in
  let b = Btree.bulk_start tree in
  Btree.bulk_add b ~key:"b" ~value:"";
  Alcotest.check_raises "unsorted input"
    (Invalid_argument "Btree.bulk_add: keys must be strictly ascending")
    (fun () -> Btree.bulk_add b ~key:"a" ~value:"");
  Alcotest.check_raises "duplicate key"
    (Invalid_argument "Btree.bulk_add: keys must be strictly ascending")
    (fun () -> Btree.bulk_add b ~key:"b" ~value:"");
  Alcotest.check_raises "oversized entry"
    (Invalid_argument "Btree.bulk_add: entry too large") (fun () ->
      Btree.bulk_add b ~key:"c" ~value:(String.make 4000 'x'));
  Btree.bulk_finish b;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "rejected entries left no trace" [ ("b", "") ] (Btree.to_list tree);
  Alcotest.check_raises "non-empty tree"
    (Invalid_argument "Btree.bulk_start: tree is not empty") (fun () ->
      ignore (Btree.bulk_start tree))

(* model-based property: random interleaved insert/delete/replace vs Map *)
let btree_model_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map2 (fun k v -> `Insert (k, v)) (int_bound 400) small_nat);
          (2, map (fun k -> `Delete k) (int_bound 400));
          (2, map (fun k -> `Find k) (int_bound 400));
        ])
  in
  QCheck.Test.make ~name:"btree matches Map model" ~count:60
    (QCheck.make QCheck.Gen.(list_size (int_range 50 400) op_gen))
    (fun ops ->
      let _, tree = make_tree ~page_size:512 () in
      let key k = Printf.sprintf "key-%06d" k in
      let module M = Map.Make (String) in
      let m = ref M.empty in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | `Insert (k, v) ->
              Btree.insert tree ~key:(key k) ~value:(string_of_int v);
              m := M.add (key k) (string_of_int v) !m
          | `Delete k ->
              let deleted = Btree.delete tree (key k) in
              if deleted <> M.mem (key k) !m then ok := false;
              m := M.remove (key k) !m
          | `Find k ->
              if Btree.find tree (key k) <> M.find_opt (key k) !m then ok := false)
        ops;
      Btree.check_invariants tree;
      !ok
      && Btree.to_list tree = M.bindings !m
      && Btree.entry_count tree = M.cardinal !m)

let btree_range_model_prop =
  QCheck.Test.make ~name:"range scans match model" ~count:60
    QCheck.(
      triple
        (list_of_size (Gen.int_range 10 200) (int_bound 500))
        (int_bound 500) (int_bound 500))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let _, tree = make_tree ~page_size:512 () in
      let key k = Printf.sprintf "%06d" k in
      List.iter (fun k -> Btree.insert tree ~key:(key k) ~value:"") keys;
      let expected =
        List.sort_uniq compare keys
        |> List.filter (fun k -> k >= lo && k < hi)
        |> List.map key
      in
      let actual =
        Btree.fold_range tree ~lo:(key lo) ~hi:(key hi) ~init:[] (fun acc k _ ->
            k :: acc)
        |> List.rev
      in
      expected = actual)

(* Keys that stress an in-place byte comparison: shared prefixes, keys
   that are prefixes of others, the empty key, NUL and 0xff bytes, and
   keys of 128+ bytes (a two-byte length varint). *)
let tricky_key_gen =
  QCheck.Gen.(
    let short = string_size ~gen:(oneofl [ '\000'; 'a'; 'b'; '\xff' ]) (int_bound 5) in
    frequency
      [ (6, short); (2, map (fun s -> String.make 130 'a' ^ s) short);
        (1, map (fun s -> String.make 127 '\xff' ^ s) short) ])

let node_search_prop =
  QCheck.Test.make ~name:"in-place node search agrees with String.compare"
    ~count:300
    QCheck.(pair (make QCheck.Gen.(list_size (int_range 0 30) tricky_key_gen))
              (make tricky_key_gen))
    (fun (keys, probe) ->
      let keys = List.sort_uniq String.compare keys in
      let leaf = Bytes.make 16384 '\000' and internal = Bytes.make 16384 '\000' in
      Node.init leaf ~level:0;
      Node.init internal ~level:1;
      List.iteri
        (fun i key ->
          assert (Node.leaf_insert_at leaf i ~key ~value:("v" ^ key));
          assert (Node.internal_insert_at internal i ~key ~child:(i + 7)))
        keys;
      let below = List.length (List.filter (fun k -> String.compare k probe < 0) keys) in
      let found = List.mem probe keys in
      List.for_all
        (fun page ->
          Node.lower_bound page probe = below
          && Node.search page probe = (found, below)
          && List.for_all (fun k -> Node.search page k = (true, List.length
               (List.filter (fun x -> String.compare x k < 0) keys))) keys)
        [ leaf; internal ]
      && List.for_all
           (fun (i, key) -> Node.leaf_key leaf i = key && Node.leaf_value leaf i = "v" ^ key
                            && Node.key_at internal i = key && Node.child_at internal i = i + 7)
           (List.mapi (fun i k -> (i, k)) keys))

(* lo, hi and a stop after [take] deliveries, within a leaf or across a
   leaf boundary, against a sorted list *)
let iter_range_stop_prop =
  QCheck.Test.make ~name:"iter_range bounds and stops match a sorted list" ~count:100
    QCheck.(
      quad
        (list_of_size (Gen.int_range 0 300) (int_bound 600))
        (option (int_bound 600)) (option (int_bound 600)) (int_bound 80))
    (fun (keys, lo, hi, take) ->
      let _, tree = make_tree ~page_size:512 () in
      let key k = Printf.sprintf "%05d" k in
      List.iter (fun k -> Btree.insert tree ~key:(key k) ~value:(string_of_int k)) keys;
      let expected =
        List.sort_uniq compare keys
        |> List.filter (fun k ->
               Option.fold ~none:true ~some:(fun l -> k >= l) lo
               && Option.fold ~none:true ~some:(fun h -> k < h) hi)
        |> List.filteri (fun i _ -> i < take)
        |> List.map (fun k -> (key k, string_of_int k))
      in
      let got = ref [] in
      if take > 0 then
        Btree.iter_range tree ?lo:(Option.map key lo) ?hi:(Option.map key hi) (fun k v ->
            got := (k, v) :: !got;
            if List.length !got >= take then `Stop else `Continue);
      expected = List.rev !got)

let () =
  Alcotest.run "rx_btree"
    [
      ( "btree",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single node" `Quick test_single_node_ops;
          Alcotest.test_case "replace" `Quick test_replace;
          Alcotest.test_case "splits and growth" `Quick test_split_growth;
          Alcotest.test_case "random insert order" `Quick test_random_order_insert;
          Alcotest.test_case "range scan" `Quick test_range_scan;
          Alcotest.test_case "iterator early stop" `Quick test_iter_stop;
          Alcotest.test_case "prefix iteration" `Quick test_iter_prefix;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "attach" `Quick test_attach;
          Alcotest.test_case "large entries" `Quick test_large_entries;
          Alcotest.test_case "binary keys" `Quick test_binary_keys;
          Alcotest.test_case "bulk load equals inserts" `Quick
            test_bulk_matches_inserts;
          Alcotest.test_case "bulk load, then mutate" `Quick test_bulk_then_mutate;
          Alcotest.test_case "bulk load fill" `Quick test_bulk_fill;
          Alcotest.test_case "bulk load rejects bad input" `Quick
            test_bulk_rejects;
          qcheck btree_model_prop;
          qcheck node_search_prop;
          qcheck iter_range_stop_prop;
          qcheck btree_range_model_prop;
        ] );
    ]
