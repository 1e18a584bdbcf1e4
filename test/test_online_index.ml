(* Online generational index builds: concurrent DML lands exactly once,
   rollback restores the prior generation without downtime, and a crash
   mid-build leaves only an orphan the next open discards.

   The builds here are driven through [?on_slice], which the engine calls
   after every scan slice *outside* its lock — so the DML and queries the
   hook performs interleave with the build exactly as a concurrent
   session's would, deterministically. *)

open Systemrx

let check = Alcotest.check

let book ~price ~title =
  Printf.sprintf "<book><price>%g</price><title>%s</title></book>" price title

let make_db ?config ?(n = 40) () =
  let db = Database.create_in_memory ?config () in
  ignore
    (Database.create_table db ~name:"books"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
  for i = 1 to n do
    ignore
      (Database.insert db ~table:"books"
         ~xml:[ ("doc", book ~price:(float_of_int i) ~title:(Printf.sprintf "b%d" i)) ]
         ())
  done;
  db

let build ?on_slice db ~name =
  Database.Index.await
    (Database.Index.build ?on_slice db ~table:"books" ~column:"doc" ~name
       ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double)

(* serialized probe results — the byte-level answer a client would see *)
let probe db xpath =
  let r = Database.run db ~table:"books" ~column:"doc" ~xpath in
  List.map
    (fun m -> (m.Database.docid, r.Database.serialize m))
    r.Database.matches

let probe_xpath = "/book[price > 10]/title"

(* --- concurrent DML lands exactly once --- *)

let test_concurrent_dml_exactly_once () =
  let db = make_db () in
  (* deterministic "concurrent" workload: fired between scan slices *)
  let fired = ref false in
  let on_slice _ =
    if not !fired then begin
      fired := true;
      (* inserts the scan has already passed *)
      for i = 1 to 5 do
        ignore
          (Database.insert db ~table:"books"
             ~xml:
               [ ("doc", book ~price:(100. +. float_of_int i) ~title:"late") ]
             ())
      done;
      (* delete a doc the snapshot captured *)
      Database.delete db ~table:"books" ~docid:3;
      (* update = delete + reinsert with a new value *)
      Database.delete db ~table:"books" ~docid:7;
      ignore
        (Database.insert db ~table:"books"
           ~xml:[ ("doc", book ~price:77.5 ~title:"updated") ]
           ());
      (* an aborted transaction must leave no trace *)
      let txn = Database.begin_txn db in
      ignore
        (Database.insert ~txn db ~table:"books"
           ~xml:[ ("doc", book ~price:999. ~title:"phantom") ]
           ());
      Database.rollback db txn
    end
  in
  let info = build ~on_slice db ~name:"by_price" in
  check Alcotest.bool "DML actually interleaved" true !fired;
  check Alcotest.bool "live" true (info.Database.Index.ix_state = Database.Index.Live);
  let online = probe db probe_xpath in
  let plan = Database.explain db ~table:"books" ~column:"doc" ~xpath:probe_xpath in
  check Alcotest.bool "probe used the index" true plan.Database.uses_index;
  (* no phantom from the aborted txn, no resurrected deletes *)
  check Alcotest.bool "aborted insert invisible" true
    (List.for_all (fun (_, s) -> s <> "<title>phantom</title>") online);
  (* ground truth: rebuild quiescently (no concurrent DML) over the final
     table state, then byte-compare the probe results *)
  let offline_info = build db ~name:"by_price" in
  check Alcotest.int "offline rebuild is generation 2" 2
    offline_info.Database.Index.ix_generation;
  let offline = probe db probe_xpath in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "online-built index answers byte-identically to an offline build" offline
    online;
  check Alcotest.int "entry counts agree" offline_info.Database.Index.ix_entries
    info.Database.Index.ix_entries

(* the same workload with parallel key extraction enabled *)
let test_concurrent_dml_parallel_extract () =
  let config = { Database.default_config with Database.parallelism = 4 } in
  let db = make_db ~config ~n:600 () in
  let deleted = ref 0 in
  let on_slice k =
    if k < 3 then begin
      Database.delete db ~table:"books" ~docid:(k + 1);
      incr deleted;
      ignore
        (Database.insert db ~table:"books"
           ~xml:[ ("doc", book ~price:(200. +. float_of_int k) ~title:"x") ]
           ())
    end
  in
  let info = build ~on_slice db ~name:"by_price" in
  check Alcotest.bool "slices interleaved DML" true (!deleted >= 1);
  let online = probe db probe_xpath in
  ignore (build db ~name:"by_price");
  let offline = probe db probe_xpath in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "parallel-extract build matches offline" offline online;
  check Alcotest.bool "scan covered the table" true
    (info.Database.Index.ix_entries >= 590)

(* A document the scan has already collected is deleted and re-inserted
   under the same docid with a new price before the tree is loaded: the
   load holds its stale entry, and the side-log replay that follows must
   remove it and add the new one. *)
let test_rescanned_doc_changes_before_load () =
  let db = make_db ~n:600 () in
  let fired = ref false in
  let on_slice k =
    if k = 0 then begin
      (match
         Database.Index.status db ~table:"books" ~column:"doc" ~name:"by_price"
       with
      | { Database.Index.ix_state = Database.Index.Building { scanned; total; _ }; _ }
        ->
          check Alcotest.bool "docid 1 scanned, the load still ahead" true
            (scanned > 0 && scanned < total)
      | _ -> Alcotest.fail "build not in flight after its first slice");
      Database.delete db ~table:"books" ~docid:1;
      ignore
        (Database.insert_many ~docids:[ 1 ] db ~table:"books" ~column:"doc"
           [ book ~price:5555. ~title:"moved" ]);
      fired := true
    end
  in
  let info = build ~on_slice db ~name:"by_price" in
  check Alcotest.bool "DML interleaved" true !fired;
  let moved = probe db "/book[price = 5555]/title" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "new price indexed" [ (1, "<title>moved</title>") ] moved;
  check Alcotest.bool "old price gone" true
    (probe db "/book[price = 1]/title" = []);
  let online = probe db probe_xpath in
  let offline_info = build db ~name:"by_price" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "matches an offline rebuild" (probe db probe_xpath) online;
  check Alcotest.int "entry counts agree" offline_info.Database.Index.ix_entries
    info.Database.Index.ix_entries

(* Two attributes of one element with equal values ("x" and "x", or 1 and
   1.0 as doubles) give an [@*] index two equal keys: same value, docid
   and node. One-by-one maintenance stores the key once (insert replaces);
   the bottom-up build must do the same rather than reject the input. *)
let test_equal_attribute_keys () =
  List.iter
    (fun (key_type, xpath) ->
      let db = Database.create_in_memory () in
      ignore
        (Database.create_table db ~name:"books"
           ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
      let build () =
        Database.Index.await
          (Database.Index.build db ~table:"books" ~column:"doc" ~name:"attrs"
             ~path:"/book/@*" ~key_type)
      in
      (* generation 1 is built empty; the documents then go through the
         same maintenance path any later insert takes *)
      ignore (build ());
      List.iter
        (fun (a, b, title) ->
          ignore
            (Database.insert db ~table:"books"
               ~xml:
                 [
                   ( "doc",
                     Printf.sprintf
                       "<book a=\"%s\" b=\"%s\"><title>%s</title></book>" a b
                       title );
                 ]
               ()))
        [ ("x", "x", "t1"); ("1", "1.0", "t2"); ("2", "3", "t3"); ("x", "y", "t4") ];
      let entries_of info = info.Database.Index.ix_entries in
      let maintained =
        entries_of
          (Database.Index.status db ~table:"books" ~column:"doc" ~name:"attrs")
      in
      let answers = probe db xpath in
      check Alcotest.bool "the probe has answers" true (answers <> []);
      check Alcotest.bool "the probe uses the index" true
        (Database.explain db ~table:"books" ~column:"doc" ~xpath)
          .Database.uses_index;
      let rebuilt = build () in
      check Alcotest.bool "bulk-built generation is live" true
        (rebuilt.Database.Index.ix_state = Database.Index.Live);
      check Alcotest.int "entry count matches one-by-one maintenance"
        maintained (entries_of rebuilt);
      check
        (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
        "probe answers unchanged" answers (probe db xpath))
    [
      (Rx_xindex.Index_def.K_string, "/book[@* = \"x\"]/title");
      (Rx_xindex.Index_def.K_double, "/book[@* = 1]/title");
    ]

(* --- progress and no-downtime visibility during the build --- *)

let test_status_and_queries_during_build () =
  let db = make_db ~n:300 () in
  ignore (build db ~name:"by_price") (* generation 1, serving while gen 2 builds *);
  let saw_building = ref false and queried = ref 0 in
  let on_slice _ =
    (match Database.Index.status db ~table:"books" ~column:"doc" ~name:"by_price" with
    | { Database.Index.ix_state = Database.Index.Building { scanned; total; _ }; _ } ->
        saw_building := true;
        check Alcotest.bool "progress bounded" true (scanned <= total)
    | _ -> () (* the status-visible build may already have swapped *));
    (* mid-build queries keep being served — by the live generation 1 *)
    let plan =
      Database.explain db ~table:"books" ~column:"doc" ~xpath:probe_xpath
    in
    check Alcotest.bool "old generation still planned mid-build" true
      plan.Database.uses_index;
    incr queried
  in
  let info = build ~on_slice db ~name:"by_price" in
  check Alcotest.bool "queries ran during the build" true (!queried > 0);
  check Alcotest.bool "status reported the in-flight build" true !saw_building;
  check Alcotest.int "rebuild became generation 2" 2
    info.Database.Index.ix_generation;
  check (Alcotest.option Alcotest.int) "generation 1 retained" (Some 1)
    info.Database.Index.ix_prior_generation

(* --- rollback restores the prior generation, and is itself undoable --- *)

let test_rollback () =
  let db = make_db () in
  ignore (build db ~name:"by_price");
  (* DML between the generations: both must absorb it (both stay hooked) *)
  Database.delete db ~table:"books" ~docid:11;
  ignore
    (Database.insert db ~table:"books"
       ~xml:[ ("doc", book ~price:50.5 ~title:"between") ]
       ());
  let g2 = build db ~name:"by_price" in
  check Alcotest.int "generation 2 live" 2 g2.Database.Index.ix_generation;
  let before = probe db probe_xpath in
  let g1 = Database.Index.rollback db ~table:"books" ~column:"doc" ~name:"by_price" in
  check Alcotest.int "generation 1 restored" 1 g1.Database.Index.ix_generation;
  check (Alcotest.option Alcotest.int) "generation 2 retained in turn" (Some 2)
    g1.Database.Index.ix_prior_generation;
  let plan = Database.explain db ~table:"books" ~column:"doc" ~xpath:probe_xpath in
  check Alcotest.bool "restored generation serves queries" true
    plan.Database.uses_index;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.string))
    "restored generation is current, not stale" before (probe db probe_xpath);
  (* a rollback can be undone by another rollback *)
  let g2' = Database.Index.rollback db ~table:"books" ~column:"doc" ~name:"by_price" in
  check Alcotest.int "rolled forward again" 2 g2'.Database.Index.ix_generation;
  (* with no prior ever built, rollback refuses *)
  ignore (build db ~name:"other");
  Alcotest.check_raises "no prior generation"
    (Invalid_argument
       "Database: index other has no prior generation to roll back to")
    (fun () ->
      ignore (Database.Index.rollback db ~table:"books" ~column:"doc" ~name:"other"))

let test_rollback_survives_reopen () =
  let dir = Filename.temp_file "rxdb_gen" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let db = Database.open_dir dir in
      ignore
        (Database.create_table db ~name:"books"
           ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
      for i = 1 to 20 do
        ignore
          (Database.insert db ~table:"books"
             ~xml:[ ("doc", book ~price:(float_of_int i) ~title:"t") ]
             ())
      done;
      ignore (build db ~name:"by_price");
      ignore (build db ~name:"by_price") (* generation 2 + retained 1 *);
      Database.close db;
      let db2 = Database.open_dir dir in
      let i = Database.Index.status db2 ~table:"books" ~column:"doc" ~name:"by_price" in
      check Alcotest.int "generation survives reopen" 2
        i.Database.Index.ix_generation;
      check (Alcotest.option Alcotest.int) "retained prior survives reopen"
        (Some 1) i.Database.Index.ix_prior_generation;
      (* the retained generation is attachable and rollback still works *)
      let r = Database.Index.rollback db2 ~table:"books" ~column:"doc" ~name:"by_price" in
      check Alcotest.int "rollback after reopen" 1 r.Database.Index.ix_generation;
      let plan =
        Database.explain db2 ~table:"books" ~column:"doc" ~xpath:probe_xpath
      in
      check Alcotest.bool "restored index planned" true plan.Database.uses_index;
      check Alcotest.int "restored index answers" 10
        (List.length (probe db2 probe_xpath));
      Database.close db2)

(* --- crash mid-build: recovery discards the orphan generation --- *)

let test_crash_mid_build () =
  let dir = Filename.temp_file "rxdb_crash" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let db = Database.open_dir dir in
      ignore
        (Database.create_table db ~name:"books"
           ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
      for i = 1 to 400 do
        ignore
          (Database.insert db ~table:"books"
             ~xml:[ ("doc", book ~price:(float_of_int i) ~title:"t") ]
             ())
      done;
      ignore (build db ~name:"by_price") (* generation 1, durable *);
      Database.checkpoint db;
      (* rebuild, but the process "dies" after the first scan slice — the
         catalog never records generation 2, so its pages are orphans *)
      let crashed = ref false in
      (match
         build
           ~on_slice:(fun _ ->
             if not !crashed then begin
               crashed := true;
               Database.crash db
             end)
           db ~name:"by_price"
       with
      | _ -> Alcotest.fail "build survived a crashed engine"
      | exception _ -> ());
      check Alcotest.bool "crash fired mid-build" true !crashed;
      let db2 = Database.open_dir dir in
      let i = Database.Index.status db2 ~table:"books" ~column:"doc" ~name:"by_price" in
      check Alcotest.int "recovery keeps generation 1" 1
        i.Database.Index.ix_generation;
      check Alcotest.bool "live after recovery" true
        (i.Database.Index.ix_state = Database.Index.Live);
      check (Alcotest.option Alcotest.int) "orphan generation discarded" None
        i.Database.Index.ix_prior_generation;
      let plan =
        Database.explain db2 ~table:"books" ~column:"doc" ~xpath:probe_xpath
      in
      check Alcotest.bool "index planned after recovery" true
        plan.Database.uses_index;
      check Alcotest.int "index answers after recovery" 390
        (List.length (probe db2 probe_xpath));
      Database.close db2)

(* --- lifecycle odds and ends --- *)

let test_list_and_in_flight_guards () =
  let db = make_db () in
  check Alcotest.int "empty to start" 0
    (List.length (Database.Index.list db ~table:"books" ~column:"doc"));
  ignore (build db ~name:"by_price");
  let infos = Database.Index.list db ~table:"books" ~column:"doc" in
  check
    (Alcotest.list Alcotest.string)
    "listed" [ "by_price" ]
    (List.map (fun i -> i.Database.Index.ix_name) infos);
  (* a build in flight refuses rollback, drop, and a second build; the
     guard is checked from the on_slice hook, i.e. genuinely mid-build *)
  let guards = ref 0 in
  let on_slice _ =
    if !guards = 0 then begin
      (try
         ignore
           (Database.Index.rollback db ~table:"books" ~column:"doc"
              ~name:"by_price")
       with Invalid_argument _ -> incr guards);
      try
        Database.Index.drop db ~table:"books" ~column:"doc" ~name:"by_price"
      with Invalid_argument _ -> incr guards
    end
  in
  ignore (build ~on_slice db ~name:"by_price");
  check Alcotest.int "mid-build rollback and drop refused" 2 !guards;
  Database.Index.drop db ~table:"books" ~column:"doc" ~name:"by_price";
  check Alcotest.int "dropped" 0
    (List.length (Database.Index.list db ~table:"books" ~column:"doc"))

(* The multi-value statistic is not idempotent the way tree replays are:
   a record the scan counted must not be counted again when its logged
   insert drains, and a logged delete of a document the scan never saw
   must not be subtracted. Every second book has two prices (depth 1);
   DML between slices touches scanned and not-yet-scanned documents, and
   the stored counts must equal a recount afterwards. *)
let test_statistic_counts_once () =
  let two_prices i =
    Printf.sprintf "<book><price>%d</price><title>t%d</title><price>%d</price></book>"
      i i (i + 1000)
  in
  let db = Database.create_in_memory () in
  ignore
    (Database.create_table db ~name:"books"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
  for i = 1 to 600 do
    ignore
      (Database.insert db ~table:"books"
         ~xml:[ ("doc", if i mod 2 = 0 then two_prices i else book ~price:(float_of_int i) ~title:"one") ]
         ())
  done;
  let on_slice k =
    if k = 0 then begin
      (* scanned already: its delete drains into the counts *)
      Database.delete db ~table:"books" ~docid:2;
      (* not scanned yet: the scan finds it gone, so its delete must not *)
      Database.delete db ~table:"books" ~docid:500;
      (* logged before the scan reaches it: counted by the scan only *)
      Database.delete db ~table:"books" ~docid:550;
      ignore
        (Database.insert_many ~docids:[ 550 ] db ~table:"books" ~column:"doc"
           [ two_prices 550 ]);
      (* new documents: counted by the drain *)
      for i = 1 to 3 do
        ignore (Database.insert db ~table:"books" ~xml:[ ("doc", two_prices (700 + i)) ] ())
      done
    end
  in
  ignore (build ~on_slice db ~name:"by_price");
  check Alcotest.(list string) "stored counts equal a recount" []
    (Database.verify db).Database.stale_index_stats;
  check Alcotest.(list (pair int string)) "existential answer = scan"
    (probe db "/book[(price >= 600 and price < 601) or title = \"none\"]/title")
    (probe db "/book[price >= 600 and price < 601]/title")

let () =
  Alcotest.run "online_index"
    [
      ( "exactly-once",
        [
          Alcotest.test_case "concurrent DML lands exactly once" `Quick
            test_concurrent_dml_exactly_once;
          Alcotest.test_case "parallel extraction, same guarantee" `Quick
            test_concurrent_dml_parallel_extract;
          Alcotest.test_case "equal attribute keys load once" `Quick
            test_equal_attribute_keys;
          Alcotest.test_case "scanned doc changes before the load" `Quick
            test_rescanned_doc_changes_before_load;
          Alcotest.test_case "statistic counts each record once" `Quick
            test_statistic_counts_once;
        ] );
      ( "online",
        [
          Alcotest.test_case "status + queries during build" `Quick
            test_status_and_queries_during_build;
        ] );
      ( "generations",
        [
          Alcotest.test_case "rollback restores the prior" `Quick test_rollback;
          Alcotest.test_case "generations survive reopen" `Quick
            test_rollback_survives_reopen;
          Alcotest.test_case "crash mid-build discards the orphan" `Quick
            test_crash_mid_build;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "list and in-flight guards" `Quick
            test_list_and_in_flight_guards;
        ] );
    ]
