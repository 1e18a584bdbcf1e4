(* Observability layer: registry invariants, trace nesting, JSON round-trips,
   and the unified query/stats surface (Database.run profile, rx CLI). *)

open Rx_obs

let check = Alcotest.check

(* --- metrics registry --- *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.b" in
  Metrics.incr c;
  Metrics.add c 4;
  check Alcotest.int "value" 5 (Metrics.value c);
  (* registration is idempotent: same handle by name *)
  Metrics.incr (Metrics.counter m "a.b");
  check Alcotest.int "shared" 6 (Metrics.value c);
  Alcotest.check_raises "monotonic" (Invalid_argument "Metrics: counter a.b is monotonic")
    (fun () -> Metrics.add c (-1));
  Alcotest.check_raises "kind mismatch" (Invalid_argument "Metrics: a.b is not a gauge")
    (fun () -> ignore (Metrics.gauge m "a.b"))

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "open" in
  check Alcotest.int "initial" 0 (Metrics.get g);
  Metrics.set g 7;
  Metrics.set g (-3);
  check Alcotest.int "signed" (-3) (Metrics.get g)

let test_histogram_invariants () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "scan" in
  let samples = [ 0; 1; 2; 3; 4; 7; 8; 100; 5000 ] in
  List.iter (Metrics.observe h) samples;
  check Alcotest.int "count" (List.length samples) (Metrics.histogram_count h);
  check Alcotest.int "sum" (List.fold_left ( + ) 0 samples) (Metrics.histogram_sum h);
  let buckets = Metrics.histogram_buckets h in
  (* per-bucket counts must re-add to the total *)
  check Alcotest.int "buckets sum to count" (Metrics.histogram_count h)
    (Array.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  (* bucket placement: 0 | [1,2) | [2,4) | [4,8) | [8,16) ... *)
  let count_le le =
    Array.to_list buckets
    |> List.filter_map (fun (u, c) -> if u = le then Some c else None)
    |> function [ c ] -> c | _ -> Alcotest.failf "no unique bucket le=%d" le
  in
  check Alcotest.int "bucket 0" 1 (count_le 0);
  check Alcotest.int "bucket [1,2)" 1 (count_le 1);
  check Alcotest.int "bucket [2,4)" 2 (count_le 3);
  check Alcotest.int "bucket [4,8)" 2 (count_le 7);
  check Alcotest.int "bucket [8,16)" 1 (count_le 15)

let test_diff () =
  let m = Metrics.create () in
  let busy = Metrics.counter m "busy" in
  let idle = Metrics.counter m "idle" in
  Metrics.incr idle;
  let h = Metrics.histogram m "h" in
  let before = Metrics.snapshot m in
  Metrics.add busy 5;
  Metrics.observe h 9;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  (* zero-delta instruments (idle) are dropped; histograms expand *)
  check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int)) "deltas"
    [ ("busy", 5); ("h.count", 1); ("h.sum", 9) ]
    (List.sort compare d)

(* [since] a mark is [diff] of snapshots taken at the same two moments,
   order included, across instruments registered in between *)
let since_is_diff_prop =
  let op = QCheck.Gen.(pair (int_bound 5) (int_bound 40)) in
  QCheck.Test.make ~name:"since equals diff" ~count:200
    (QCheck.make QCheck.Gen.(pair (list_size (int_bound 6) op) (list_size (int_bound 12) op)))
    (fun (setup, ops) ->
      let m = Metrics.create () in
      (* instrument [i]'s kind is fixed by [i], as the registry demands *)
      let apply (i, v) =
        let name = Printf.sprintf "m%d" i in
        match i / 2 with
        | 0 -> Metrics.add (Metrics.counter m name) v
        | 1 -> Metrics.set (Metrics.gauge m name) (v - 20)
        | _ -> Metrics.observe (Metrics.histogram m name) v
      in
      List.iter apply setup;
      let before = Metrics.snapshot m and mark = Metrics.mark m in
      List.iter apply ops;
      Metrics.since m mark = Metrics.diff ~before ~after:(Metrics.snapshot m))

(* --- trace spans --- *)

let test_trace_nesting () =
  let tr = Trace.create () in
  let inside =
    Trace.with_span tr "outer" (fun () ->
        Trace.with_span tr "inner" (fun () -> Trace.open_spans tr))
  in
  check Alcotest.int "open inside" 2 inside;
  check Alcotest.int "balanced after" 0 (Trace.open_spans tr);
  (match Trace.finished tr with
  | [ outer; inner ] ->
      check Alcotest.string "outer name" "outer" outer.Trace.name;
      check Alcotest.int "outer depth" 0 outer.Trace.depth;
      check Alcotest.string "inner name" "inner" inner.Trace.name;
      check Alcotest.int "inner depth" 1 inner.Trace.depth;
      check Alcotest.bool "outer spans inner" true
        (outer.Trace.dur_s >= inner.Trace.dur_s)
  | spans -> Alcotest.failf "expected 2 finished spans, got %d" (List.length spans))

let test_trace_exception_rebalances () =
  let tr = Trace.create () in
  (try Trace.with_span tr "boom" (fun () -> failwith "x") with Failure _ -> ());
  check Alcotest.int "rebalanced" 0 (Trace.open_spans tr);
  check Alcotest.int "span still recorded" 1 (Trace.finished_count tr);
  (* nesting depth resumes correctly after the exception *)
  Trace.with_span tr "next" (fun () -> ());
  match Trace.finished tr with
  | next :: _ -> check Alcotest.int "depth back to 0" 0 next.Trace.depth
  | [] -> Alcotest.fail "no spans"

(* --- JSON --- *)

let test_json_parse () =
  check Alcotest.bool "escapes" true
    (Json.equal (Json.of_string {|"A\n\"\\"|}) (Json.Str "A\n\"\\"));
  check Alcotest.bool "nested" true
    (Json.equal
       (Json.of_string {|{"a":[1,2.5,null,true],"b":{"c":"d"}}|})
       (Json.Obj
          [
            ("a", Json.Arr [ Json.Num 1.; Json.Num 2.5; Json.Null; Json.Bool true ]);
            ("b", Json.Obj [ ("c", Json.Str "d") ]);
          ]));
  match Json.of_string "null x" with
  | exception Failure msg ->
      check Alcotest.bool "trailing garbage rejected" true
        (String.length msg >= 5 && String.sub msg 0 5 = "Json:")
  | _ -> Alcotest.fail "trailing input accepted"

let test_metrics_json_roundtrip () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "a.count") 3;
  Metrics.set (Metrics.gauge m "b.gauge") (-2);
  let h = Metrics.histogram m "c.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 5; 100 ];
  let j = Metrics.to_json m in
  check Alcotest.bool "round-trips" true (Json.equal j (Json.of_string (Json.to_string j)));
  match Json.member "a.count" j with
  | Some sub ->
      check Alcotest.bool "counter value" true
        (Json.member "value" sub = Some (Json.Num 3.))
  | None -> Alcotest.fail "a.count missing"

(* --- buffer pool accounting --- *)

let test_bufpool_hits_plus_misses () =
  let open Rx_storage in
  let metrics = Metrics.create () in
  let pool =
    Buffer_pool.create ~metrics ~capacity:2 (Pager.create_in_memory ~metrics ~page_size:512 ())
  in
  let pages = List.init 4 (fun _ -> Buffer_pool.alloc pool Page.Heap) in
  let hits = Metrics.counter metrics "bufpool.hits" in
  let misses = Metrics.counter metrics "bufpool.misses" in
  let h0 = Metrics.value hits and m0 = Metrics.value misses in
  let accesses = ref 0 in
  List.iter
    (fun p ->
      for _ = 1 to 3 do
        incr accesses;
        ignore (Buffer_pool.with_page pool p (fun page -> Bytes.get page 0))
      done)
    pages;
  check Alcotest.int "hits + misses = accesses" !accesses
    (Metrics.value hits - h0 + (Metrics.value misses - m0));
  (* the immutable snapshot agrees with the registry view *)
  let s = Buffer_pool.snapshot pool in
  check Alcotest.int "snapshot totals" (Metrics.value hits + Metrics.value misses)
    (s.Buffer_pool.hits + s.Buffer_pool.misses)

let test_snapshot_diff () =
  let open Rx_storage in
  let pool = Buffer_pool.create ~capacity:2 (Pager.create_in_memory ~page_size:512 ()) in
  let p = Buffer_pool.alloc pool Page.Heap in
  (* warm the frame so the measured window is all hits *)
  ignore (Buffer_pool.with_page pool p (fun page -> Bytes.get page 0));
  let before = Buffer_pool.snapshot pool in
  for _ = 1 to 5 do
    ignore (Buffer_pool.with_page pool p (fun page -> Bytes.get page 0))
  done;
  let d = Buffer_pool.diff ~before ~after:(Buffer_pool.snapshot pool) in
  check Alcotest.int "window hits" 5 d.Buffer_pool.hits;
  check Alcotest.int "window misses" 0 d.Buffer_pool.misses

(* --- unified query surface --- *)

let layer_of name = List.hd (String.split_on_char '.' name)

let make_books_db () =
  let open Systemrx in
  let db = Database.create_in_memory () in
  ignore
    (Database.create_table db ~name:"books"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"price"
    ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double));
  List.iter
    (fun (title, price) ->
      ignore
        (Database.insert db ~table:"books"
           ~xml:
             [
               ( "doc",
                 Printf.sprintf "<book><title>%s</title><price>%g</price></book>"
                   title price );
             ]
           ()))
    [ ("Native XML", 25.5); ("Pure SQL", 99.) ];
  db

let test_run_profile_layers () =
  let open Systemrx in
  let db = make_books_db () in
  let r = Database.run db ~table:"books" ~column:"doc" ~xpath:"/book[price < 50]/title" in
  check Alcotest.int "matches" 1 (List.length r.Database.matches);
  check Alcotest.bool "indexed plan" true r.Database.plan.Database.uses_index;
  check Alcotest.string "serialize" "<title>Native XML</title>"
    (r.Database.serialize (List.hd r.Database.matches));
  let layers =
    List.sort_uniq compare
      (List.filter_map
         (fun (name, delta) -> if delta > 0 then Some (layer_of name) else None)
         r.Database.profile)
  in
  List.iter
    (fun l ->
      check Alcotest.bool (Printf.sprintf "layer %s profiled" l) true
        (List.mem l layers))
    [ "bufpool"; "btree"; "xindex"; "qxs" ];
  check Alcotest.bool "at least 4 layers" true (List.length layers >= 4)

let test_per_database_registry_isolated () =
  let open Systemrx in
  let db1 = make_books_db () in
  let db2 = Database.create_in_memory () in
  let activity db =
    let m = Database.metrics db in
    Metrics.(value (counter m "bufpool.hits") + value (counter m "bufpool.misses"))
  in
  check Alcotest.bool "db1 touched pages" true (activity db1 > 0);
  (* db1's query traffic must not leak into db2's registry *)
  let db2_before = activity db2 in
  ignore (Database.run db1 ~table:"books" ~column:"doc" ~xpath:"/book/title");
  check Alcotest.int "db2 unaffected by db1 query" db2_before (activity db2)

let test_run_records_trace_span () =
  let open Systemrx in
  let db = make_books_db () in
  ignore (Database.run db ~table:"books" ~column:"doc" ~xpath:"/book/title");
  match Trace.finished (Database.tracer db) with
  | span :: _ ->
      check Alcotest.string "span name" "db.query" span.Trace.name;
      check Alcotest.bool "xpath attr" true
        (List.assoc_opt "xpath" span.Trace.attrs = Some "/book/title")
  | [] -> Alcotest.fail "no span recorded"

(* --- CLI surface (separate processes, like test_cli) --- *)

let rx_binary =
  let candidates = [ "../bin/rx.exe"; "_build/default/bin/rx.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "rx.exe not found; build bin/ first"

let run_cli args =
  let out = Filename.temp_file "rxobs" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" rx_binary
      (String.concat " " (List.map Filename.quote args))
      out
  in
  let status = Sys.command cmd in
  let ic = open_in_bin out in
  let output = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  (status, String.trim output)

let expect_ok args =
  let status, output = run_cli args in
  if status <> 0 then Alcotest.failf "command failed (%d): %s" status output;
  output

let with_temp_db f =
  let dir = Filename.temp_file "rxobsdb" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let setup_cli_db db =
  ignore (expect_ok [ "init"; "--db"; db ]);
  ignore
    (expect_ok
       [ "create-table"; "--db"; db; "--table"; "books"; "--columns";
         "isbn:varchar,info:xml" ]);
  ignore
    (expect_ok
       [ "index"; "build"; "--db"; db; "--table"; "books"; "--column"; "info";
         "--name"; "price"; "--path"; "/book/price"; "--type"; "double" ]);
  ignore
    (expect_ok
       [ "insert"; "--db"; db; "--table"; "books"; "--value"; "isbn=111"; "--xml";
         "info=<book><title>Native XML</title><price>25.5</price></book>" ]);
  ignore
    (expect_ok
       [ "insert"; "--db"; db; "--table"; "books"; "--value"; "isbn=222"; "--xml";
         "info=<book><title>Pure SQL</title><price>99</price></book>" ])

let test_cli_query_profile () =
  with_temp_db (fun db ->
      setup_cli_db db;
      let out =
        expect_ok
          [ "query"; "--db"; db; "--table"; "books"; "--column"; "info";
            "--xpath"; "/book[price < 50]/title"; "--profile" ]
      in
      (* "profile <counter> <delta>" lines, non-zero, from >= 4 layers *)
      let layers =
        String.split_on_char '\n' out
        |> List.filter_map (fun line ->
               match String.split_on_char ' ' (String.trim line) with
               | [ "profile"; name; delta ] when int_of_string delta > 0 ->
                   Some (layer_of name)
               | _ -> None)
        |> List.sort_uniq compare
      in
      List.iter
        (fun l ->
          check Alcotest.bool (Printf.sprintf "CLI layer %s" l) true
            (List.mem l layers))
        [ "bufpool"; "btree"; "xindex"; "qxs" ];
      check Alcotest.bool "CLI >= 4 layers" true (List.length layers >= 4))

let test_cli_stats_json () =
  with_temp_db (fun db ->
      setup_cli_db db;
      let out = expect_ok [ "stats"; "--db"; db; "--json" ] in
      let j = Json.of_string out in
      check Alcotest.bool "documents" true
        (Json.member "documents" j = Some (Json.Num 2.));
      check Alcotest.bool "tables" true (Json.member "tables" j = Some (Json.Num 1.));
      match Json.member "counters" j with
      | Some (Json.Obj fields) ->
          check Alcotest.bool "registry serialized" true
            (List.mem_assoc "pager.reads" fields);
          let gc name =
            match List.assoc_opt ("gc." ^ name) fields with
            | Some gauge -> (
                match Json.member "value" gauge with
                | Some (Json.Num v) -> v
                | _ -> Alcotest.failf "gc.%s has no value" name)
            | None -> Alcotest.failf "gc.%s gauge missing" name
          in
          List.iter
            (fun n -> ignore (gc n))
            [ "promoted_words"; "minor_collections"; "major_collections" ];
          check Alcotest.bool "gc.minor_words counts this run" true
            (gc "minor_words" > 0.);
          check Alcotest.bool "gc.top_heap_words >= gc.heap_words" true
            (gc "top_heap_words" >= gc "heap_words")
      | _ -> Alcotest.fail "counters object missing")

let test_cli_unknown_exception_exit_2 () =
  (* --db pointing at a regular file: open fails with a system error, which
     must map to the catch-all path (exit 2), not success *)
  let file = Filename.temp_file "rxobsfile" ".txt" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists file then Sys.remove file)
    (fun () ->
      let status, output = run_cli [ "stats"; "--db"; file ] in
      check Alcotest.int "exit 2" 2 status;
      check Alcotest.bool "error printed" true
        (String.length output > 0 && String.sub output 0 6 = "error:"))

let () =
  Alcotest.run "rx_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram invariants" `Quick test_histogram_invariants;
          Alcotest.test_case "diff" `Quick test_diff;
          QCheck_alcotest.to_alcotest since_is_diff_prop;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting" `Quick test_trace_nesting;
          Alcotest.test_case "exception rebalances" `Quick
            test_trace_exception_rebalances;
        ] );
      ( "json",
        [
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "metrics round-trip" `Quick test_metrics_json_roundtrip;
        ] );
      ( "storage",
        [
          Alcotest.test_case "hits+misses" `Quick test_bufpool_hits_plus_misses;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
        ] );
      ( "database",
        [
          Alcotest.test_case "run profile layers" `Quick test_run_profile_layers;
          Alcotest.test_case "per-db registry" `Quick
            test_per_database_registry_isolated;
          Alcotest.test_case "trace span" `Quick test_run_records_trace_span;
        ] );
      ( "cli",
        [
          Alcotest.test_case "query --profile" `Quick test_cli_query_profile;
          Alcotest.test_case "stats --json" `Quick test_cli_stats_json;
          Alcotest.test_case "unknown error exits 2" `Quick
            test_cli_unknown_exception_exit_2;
        ] );
    ]
