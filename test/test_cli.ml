(* End-to-end test of the rx command-line shell: each command is a separate
   process, so this also exercises durable open/close on every step. *)

let check = Alcotest.check

let rx_binary =
  (* tests run in _build/default/test *)
  let candidates = [ "../bin/rx.exe"; "_build/default/bin/rx.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "rx.exe not found; build bin/ first"

let run args =
  let out = Filename.temp_file "rxcli" ".out" in
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
  let status, output = run args in
  if status <> 0 then Alcotest.failf "command failed (%d): %s" status output;
  output

let with_temp_db f =
  let dir = Filename.temp_file "rxclidb" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_full_session () =
  with_temp_db (fun db ->
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
           [ "create-text-index"; "--db"; db; "--table"; "books"; "--column";
             "info"; "--name"; "ft" ]);
      let out =
        expect_ok
          [ "insert"; "--db"; db; "--table"; "books"; "--value"; "isbn=111";
            "--xml"; "info=<book><title>Native XML</title><price>25.5</price></book>" ]
      in
      check Alcotest.bool "docid reported" true (contains ~needle:"DocID 1" out);
      ignore
        (expect_ok
           [ "insert"; "--db"; db; "--table"; "books"; "--value"; "isbn=222";
             "--xml"; "info=<book><title>Pure SQL</title><price>99</price></book>" ]);
      let out =
        expect_ok
          [ "query"; "--db"; db; "--table"; "books"; "--column"; "info";
            "--xpath"; "/book[price < 50]/title"; "--explain" ]
      in
      check Alcotest.bool "plan shown" true (contains ~needle:"NODEID-LIST(price)" out);
      check Alcotest.bool "match shown" true
        (contains ~needle:"<title>Native XML</title>" out);
      check Alcotest.bool "other title filtered" false
        (contains ~needle:"Pure SQL" out);
      let out =
        expect_ok
          [ "search"; "--db"; db; "--table"; "books"; "--column"; "info";
            "--terms"; "native xml" ]
      in
      check Alcotest.bool "fulltext finds doc 1" true (contains ~needle:"DocID 1" out);
      let out = expect_ok [ "get"; "--db"; db; "--table"; "books"; "--column"; "info"; "--docid"; "2" ] in
      check Alcotest.string "get document"
        "<book><title>Pure SQL</title><price>99</price></book>" out;
      let out = expect_ok [ "stats"; "--db"; db ] in
      check Alcotest.bool "stats" true (contains ~needle:"documents: 2" out))

(* --- rx index: the online lifecycle group --- *)

let test_index_lifecycle_session () =
  with_temp_db (fun db ->
      ignore (expect_ok [ "init"; "--db"; db ]);
      ignore
        (expect_ok
           [ "create-table"; "--db"; db; "--table"; "books"; "--columns";
             "info:xml" ]);
      ignore
        (expect_ok
           [ "insert"; "--db"; db; "--table"; "books"; "--xml";
             "info=<book><title>a</title><price>10</price></book>" ]);
      ignore
        (expect_ok
           [ "insert"; "--db"; db; "--table"; "books"; "--xml";
             "info=<book><title>b</title><price>90</price></book>" ]);
      let out =
        expect_ok
          [ "index"; "build"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "price"; "--path"; "/book/price"; "--type";
            "double" ]
      in
      check Alcotest.bool "built live" true (contains ~needle:"live" out);
      check Alcotest.bool "generation 1" true (contains ~needle:"gen 1" out);
      (* rebuild: a second generation, the first retained *)
      let out =
        expect_ok
          [ "index"; "build"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "price"; "--path"; "/book/price"; "--type";
            "double" ]
      in
      check Alcotest.bool "generation 2" true (contains ~needle:"gen 2" out);
      check Alcotest.bool "prior retained" true
        (contains ~needle:"prior gen 1 retained" out);
      let out =
        expect_ok
          [ "index"; "status"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "price" ]
      in
      check Alcotest.bool "status shows entries" true
        (contains ~needle:"entries 2" out);
      (* the index actually plans across processes *)
      let out =
        expect_ok
          [ "query"; "--db"; db; "--table"; "books"; "--column"; "info";
            "--xpath"; "/book[price < 50]/title"; "--explain" ]
      in
      check Alcotest.bool "planned with the index" true
        (contains ~needle:"(price)" out);
      let out =
        expect_ok
          [ "index"; "rollback"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "price" ]
      in
      check Alcotest.bool "rolled back" true
        (contains ~needle:"rolled back to generation 1" out);
      let out =
        expect_ok
          [ "index"; "list"; "--db"; db; "--table"; "books"; "--column";
            "info" ]
      in
      check Alcotest.bool "listed" true (contains ~needle:"price ON /book/price" out);
      ignore
        (expect_ok
           [ "index"; "drop"; "--db"; db; "--table"; "books"; "--column";
             "info"; "--name"; "price" ]);
      let out =
        expect_ok
          [ "index"; "list"; "--db"; db; "--table"; "books"; "--column";
            "info" ]
      in
      check Alcotest.string "empty after drop" "no indexes" out)

let test_index_exit_codes () =
  with_temp_db (fun db ->
      ignore (expect_ok [ "init"; "--db"; db ]);
      ignore
        (expect_ok
           [ "create-table"; "--db"; db; "--table"; "books"; "--columns";
             "info:xml" ]);
      (* unknown table/column/index all map to the stable application
         exit code 1 with an "unknown ..." message *)
      let status, output =
        run
          [ "index"; "status"; "--db"; db; "--table"; "nosuch"; "--column";
            "info"; "--name"; "x" ]
      in
      check Alcotest.int "unknown table exit" 1 status;
      check Alcotest.bool "unknown table message" true
        (contains ~needle:"unknown table: nosuch" output);
      let status, output =
        run
          [ "index"; "status"; "--db"; db; "--table"; "books"; "--column";
            "nocol"; "--name"; "x" ]
      in
      check Alcotest.int "unknown column exit" 1 status;
      check Alcotest.bool "unknown column message" true
        (contains ~needle:"unknown column: nocol" output);
      let status, output =
        run
          [ "index"; "drop"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "ghost" ]
      in
      check Alcotest.int "unknown index exit" 1 status;
      check Alcotest.bool "unknown index message" true
        (contains ~needle:"unknown index: ghost" output);
      let status, _ =
        run
          [ "index"; "rollback"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "ghost" ]
      in
      check Alcotest.int "rollback unknown index exit" 1 status;
      let status, output =
        run
          [ "index"; "build"; "--db"; db; "--table"; "books"; "--column";
            "info"; "--name"; "x"; "--path"; "/b/p"; "--type"; "quux" ]
      in
      check Alcotest.int "bad key type exit" 1 status;
      check Alcotest.bool "bad key type message" true
        (contains ~needle:"unknown key type" output))

let test_error_reporting () =
  with_temp_db (fun db ->
      ignore (expect_ok [ "init"; "--db"; db ]);
      let status, output =
        run [ "query"; "--db"; db; "--table"; "nope"; "--column"; "c"; "--xpath"; "/x" ]
      in
      check Alcotest.int "nonzero exit" 1 status;
      check Alcotest.bool "message" true (contains ~needle:"no table nope" output);
      let status, output =
        run
          [ "insert"; "--db"; db; "--table"; "t"; "--xml"; "doc=<unclosed>" ]
      in
      check Alcotest.bool "parse/table error reported" true
        (status = 1 && String.length output > 0))

let write_script lines =
  let path = Filename.temp_file "rxscript" ".rx" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let test_exec_transactions () =
  with_temp_db (fun db ->
      ignore (expect_ok [ "init"; "--db"; db ]);
      ignore
        (expect_ok
           [ "create-table"; "--db"; db; "--table"; "books"; "--columns";
             "info:xml" ]);
      (* a committed batch followed by a rolled-back one *)
      let script =
        write_script
          [
            "# transactional batch";
            "BEGIN";
            "INSERT books info=<book><title>Kept</title></book>";
            "INSERT books info=<book><title>Kept too</title></book>";
            "COMMIT";
            "BEGIN";
            "INSERT books info=<book><title>Gone</title></book>";
            "DELETE books 1";
            "QUERY books info /book/title";
            "ROLLBACK";
          ]
      in
      let out =
        Fun.protect
          ~finally:(fun () -> Sys.remove script)
          (fun () -> expect_ok [ "exec"; "--db"; db; "--file"; script ])
      in
      check Alcotest.bool "commit echoed" true (contains ~needle:"COMMIT txn" out);
      check Alcotest.bool "rollback echoed" true
        (contains ~needle:"ROLLBACK txn" out);
      (* the in-transaction query saw its own staged writes *)
      check Alcotest.bool "staged title visible inside txn" true
        (contains ~needle:"<title>Gone</title>" out);
      check Alcotest.bool "staged delete hid doc 1 inside txn" false
        (contains ~needle:"<title>Kept</title>" out);
      (* after the script only the committed batch survives *)
      let out = expect_ok [ "stats"; "--db"; db ] in
      check Alcotest.bool "two committed documents" true
        (contains ~needle:"documents: 2" out);
      let out =
        expect_ok
          [ "get"; "--db"; db; "--table"; "books"; "--column"; "info";
            "--docid"; "1" ]
      in
      check Alcotest.string "rolled-back delete undone"
        "<book><title>Kept</title></book>" out;
      (* an unterminated transaction is rolled back with a warning *)
      let script = write_script [ "BEGIN"; "INSERT books info=<b>x</b>" ] in
      let status, out =
        Fun.protect
          ~finally:(fun () -> Sys.remove script)
          (fun () -> run [ "exec"; "--db"; db; "--file"; script ])
      in
      check Alcotest.int "open txn at EOF still exits 0" 0 status;
      check Alcotest.bool "warning printed" true
        (contains ~needle:"rolled back" out);
      let out = expect_ok [ "stats"; "--db"; db ] in
      check Alcotest.bool "abandoned insert discarded" true
        (contains ~needle:"documents: 2" out))

let () =
  Alcotest.run "rx_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "full session" `Quick test_full_session;
          Alcotest.test_case "index lifecycle session" `Quick
            test_index_lifecycle_session;
          Alcotest.test_case "index exit codes" `Quick test_index_exit_codes;
          Alcotest.test_case "error reporting" `Quick test_error_reporting;
          Alcotest.test_case "exec transactions" `Quick test_exec_transactions;
        ] );
    ]
