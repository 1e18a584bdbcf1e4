(* WAL-shipping replication and point-in-time restore: leader→replica
   convergence (live WAL and archive fallback), crash/reattach
   idempotence, read-only enforcement, promotion, cursor-marked
   directory protection, and [Database.restore] exactness. *)

open Systemrx
module Value = Rx_relational.Value

let check = Alcotest.check

let with_temp_dirs n f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh i =
    let dir =
      Filename.concat base (Printf.sprintf "rx_repl_%d_%d" (Unix.getpid ()) i)
    in
    if Sys.file_exists dir then fresh (i + 1) else dir
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  let dirs = List.init n (fun _ -> let d = fresh 0 in Unix.mkdir d 0o755; d) in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun d -> if Sys.file_exists d then rm_rf d) dirs)
    (fun () -> f dirs)

(* a leader with WAL archiving on (replication catch-up from LSN 0 and
   restore both need the full history) *)
let open_leader dir =
  Unix.mkdir (Database.archive_path dir) 0o755;
  let db = Database.open_dir ~page_size:1024 dir in
  ignore (Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]);
  db

let doc i = Printf.sprintf "<d><k>%d</k><v>payload %d</v></d>" i i

let insert_docs db lo hi =
  List.map
    (fun i -> (Database.insert db ~table:"t" ~xml:[ ("doc", doc i) ] (), doc i))
    (List.init (hi - lo + 1) (fun k -> lo + k))

let fetch_of leader ~from_lsn ~max_bytes =
  Database.repl_fetch leader ~from_lsn ~max_bytes

let pull_until_caught_up ?(max_bytes = 4096) repl =
  let rec go n =
    if n > 100_000 then Alcotest.fail "replica never caught up";
    let r = Replica.pull ~max_bytes repl in
    if not r.Replica.caught_up then go (n + 1)
  in
  go 0

let check_docs name db committed =
  List.iter
    (fun (docid, xml) ->
      check Alcotest.string
        (Printf.sprintf "%s: doc %d" name docid)
        xml
        (Database.document db ~table:"t" ~column:"doc" ~docid))
    committed;
  check Alcotest.int
    (Printf.sprintf "%s: row count" name)
    (List.length committed)
    (Database.row_count db ~table:"t")

(* --- live-WAL convergence and read-only enforcement --- *)

let test_basic_convergence () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      let committed = insert_docs leader 1 20 in
      let repl =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl;
      let rdb = Replica.db repl in
      check_docs "replica" rdb committed;
      check Alcotest.bool "marked replica" true (Database.is_replica rdb);
      check Alcotest.int "no lag once caught up" 0 (Replica.lag repl);
      (* a query through the normal planner works on the replica *)
      let r = Database.run rdb ~table:"t" ~column:"doc" ~xpath:"/d/k" in
      check Alcotest.int "query matches every doc" 20
        (List.length r.Database.matches);
      (* mutations are refused *)
      (match Database.insert rdb ~table:"t" ~xml:[ ("doc", doc 99) ] () with
      | _ -> Alcotest.fail "insert on a replica must raise Read_only"
      | exception Database.Read_only _ -> ());
      Replica.close repl;
      Database.close leader)

(* --- catch-up through the archive after the leader truncated its WAL --- *)

let test_archive_fallback () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      let first = insert_docs leader 1 10 in
      (* checkpoint truncates the live WAL; with archiving on the span
         moves into a generation file rather than vanishing *)
      Database.checkpoint leader;
      let second = insert_docs leader 11 15 in
      check Alcotest.bool "live WAL no longer starts at 0" true
        (Database.wal_base_lsn leader > 0L);
      let st = Database.repl_state leader in
      check Alcotest.bool "archive has at least one generation" true
        (st.Database.r_generations >= 1);
      (* a fresh replica starts at LSN 0 — below the live base — so its
         first fetches must be served from the archive *)
      let repl =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl;
      check_docs "replica" (Replica.db repl) (first @ second);
      Replica.close repl;
      Database.close leader)

(* --- replica crash, stale cursor, idempotent reapply --- *)

let test_crash_reattach_idempotent () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      let first = insert_docs leader 1 10 in
      let repl =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl;
      (* persist the restart point, then apply more WITHOUT checkpointing:
         the cursor is now stale, so the next attach re-fetches an overlap
         that page LSNs must absorb *)
      Replica.checkpoint repl;
      let second = insert_docs leader 11 20 in
      pull_until_caught_up repl;
      Database.crash (Replica.db repl);
      let repl2 =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl2;
      check_docs "reattached replica" (Replica.db repl2) (first @ second);
      let vr =
        let rdb = Replica.db repl2 in
        let vr, wait = Database.exclusively rdb (fun () -> Database.verify rdb) in
        wait ();
        vr
      in
      check Alcotest.bool "replica verifies clean after reapply" true
        (vr.Database.corrupt_pages = []);
      Replica.close repl2;
      Database.close leader)

(* --- a replica directory must not be opened writable by accident --- *)

let test_cursor_marks_directory () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      let committed = insert_docs leader 1 5 in
      let repl =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl;
      Replica.close repl;
      check Alcotest.bool "cursor file exists" true
        (Sys.file_exists (Database.replica_cursor_path rdir));
      (* plain open_dir sees the cursor and degrades: reads work,
         writes are refused with a message pointing at promote *)
      let db = Database.open_dir rdir in
      check_docs "degraded read" db committed;
      (match Database.insert db ~table:"t" ~xml:[ ("doc", doc 99) ] () with
      | _ -> Alcotest.fail "write to a replica directory must be refused"
      | exception Database.Read_only { reason } ->
          let contains hay needle =
            let nl = String.length needle and hl = String.length hay in
            let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
            at 0
          in
          check Alcotest.bool "reason mentions promote" true
            (contains reason "promote"));
      Database.close db;
      Database.close leader)

(* --- promotion: the replica becomes a writable leader --- *)

let test_promote () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      let committed = insert_docs leader 1 10 in
      let repl =
        Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir
      in
      pull_until_caught_up repl;
      let horizon = Replica.horizon repl in
      let base = Replica.promote repl in
      check Alcotest.bool "new timeline starts at or above the horizon" true
        (base >= horizon);
      check Alcotest.bool "cursor removed" false
        (Sys.file_exists (Database.replica_cursor_path rdir));
      let db = Replica.db repl in
      check Alcotest.bool "no longer a replica" false (Database.is_replica db);
      (* writable now, across a clean close/reopen too *)
      let d = Database.insert db ~table:"t" ~xml:[ ("doc", doc 11) ] () in
      Database.close db;
      let db2 = Database.open_dir rdir in
      check_docs "promoted leader" db2 (committed @ [ (d, doc 11) ]);
      Database.close db2;
      Database.close leader)

(* --- point-in-time restore --- *)

let test_restore_to_lsn () =
  with_temp_dirs 3 (fun dirs ->
      let ldir = List.nth dirs 0 in
      let mid_dir = List.nth dirs 1 in
      let full_dir = List.nth dirs 2 in
      (* restore needs a non-existent or empty target *)
      Unix.rmdir mid_dir;
      Unix.rmdir full_dir;
      let leader = open_leader ldir in
      let first = insert_docs leader 1 10 in
      (* a checkpoint in the middle proves restore stitches the archived
         generation to the live WAL *)
      Database.checkpoint leader;
      let cut = Database.durable_lsn leader in
      let second = insert_docs leader 11 20 in
      Database.close leader;
      (* restore to the captured cut: only the first batch exists *)
      let r1 = Database.restore ~source:ldir ~target:mid_dir ~to_lsn:cut () in
      check Alcotest.(list int) "no losers at a quiescent cut" []
        r1.Database.rst_losers;
      let db_mid = Database.open_dir mid_dir in
      check_docs "restore --to-lsn" db_mid first;
      let vr = Database.verify db_mid in
      check Alcotest.bool "restored db verifies clean" true
        (vr.Database.corrupt_pages = []);
      (* the restored copy is a normal writable database *)
      ignore (Database.insert db_mid ~table:"t" ~xml:[ ("doc", doc 99) ] ());
      Database.close db_mid;
      (* restore with no cut: the full history, byte-for-byte state *)
      let r2 = Database.restore ~source:ldir ~target:full_dir () in
      check Alcotest.bool "full restore replays past the cut" true
        (r2.Database.rst_stop_lsn >= cut);
      let db_full = Database.open_dir full_dir in
      check_docs "full restore" db_full (first @ second);
      Database.close db_full;
      (* a cut beyond history is refused *)
      (match
         Database.restore ~source:ldir ~target:(ldir ^ "_x")
           ~to_lsn:Int64.max_int ()
       with
      | _ -> Alcotest.fail "restore past the end of history must fail"
      | exception Failure _ -> ()))

(* --- restore rolls back a transaction still open at the cut --- *)

let test_restore_undoes_open_txn () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, tdir = (List.nth dirs 0, List.nth dirs 1) in
      Unix.rmdir tdir;
      let leader = open_leader ldir in
      let committed = insert_docs leader 1 5 in
      let txn = Database.begin_txn leader in
      ignore
        (Database.insert ~txn leader ~table:"t" ~xml:[ ("doc", doc 50) ] ());
      (* the staged insert's WAL is forced durable by a later commit *)
      let committed = committed @ insert_docs leader 6 8 in
      let cut = Database.durable_lsn leader in
      Database.rollback leader txn;
      Database.close leader;
      let r = Database.restore ~source:ldir ~target:tdir ~to_lsn:cut () in
      check Alcotest.bool "the open transaction is a loser" true
        (r.Database.rst_losers <> []);
      let db = Database.open_dir tdir in
      check_docs "losers rolled back" db committed;
      Database.close db)

(* --- the index's multi-value statistic ships with the pages --- *)

let test_replica_range_merge () =
  with_temp_dirs 2 (fun dirs ->
      let ldir, rdir = (List.nth dirs 0, List.nth dirs 1) in
      let leader = open_leader ldir in
      ignore
        (Database.Index.await
           (Database.Index.build leader ~table:"t" ~column:"doc" ~name:"k"
              ~path:"/d/k" ~key_type:Rx_xindex.Index_def.K_integer));
      ignore (insert_docs leader 1 10);
      (* a second <k> in one <d>: level 1 is multi-valued, so [k >= 5 and
         k < 6] must answer existentially (3 and 500 straddle the range) *)
      ignore
        (Database.insert leader ~table:"t"
           ~xml:[ ("doc", "<d><k>3</k><v>two</v><k>500</k></d>") ] ());
      let repl = Replica.attach ~page_size:1024 ~fetch:(fetch_of leader) rdir in
      pull_until_caught_up repl;
      let rdb = Replica.db repl in
      let answer db xpath =
        let r = Database.run db ~table:"t" ~column:"doc" ~xpath in
        ( List.map r.Database.serialize r.Database.matches,
          Option.value ~default:0
            (List.assoc_opt "xindex.range_merge_fallbacks" r.Database.profile) )
      in
      let q = "/d[k >= 5 and k < 6]/v" in
      let leader_rows, leader_fallbacks = answer leader q in
      let replica_rows, replica_fallbacks = answer rdb q in
      check Alcotest.(list string) "replica answers as the leader" leader_rows
        replica_rows;
      check Alcotest.(list string) "both Products" [ "<v>payload 5</v>"; "<v>two</v>" ]
        leader_rows;
      check Alcotest.(pair int int) "both fall back" (1, 1)
        (leader_fallbacks, replica_fallbacks);
      let vr, wait = Database.exclusively rdb (fun () -> Database.verify rdb) in
      wait ();
      check Alcotest.(list string) "replica statistic verifies" []
        vr.Database.stale_index_stats;
      Replica.close repl;
      Database.close leader)

let () =
  Alcotest.run "replication"
    [
      ( "replication",
        [
          Alcotest.test_case "replica range merge follows the leader" `Quick
            test_replica_range_merge;
          Alcotest.test_case "leader to replica convergence" `Quick
            test_basic_convergence;
          Alcotest.test_case "catch-up through the archive" `Quick
            test_archive_fallback;
          Alcotest.test_case "crash, stale cursor, idempotent reapply" `Quick
            test_crash_reattach_idempotent;
          Alcotest.test_case "cursor-marked directory refuses writes" `Quick
            test_cursor_marks_directory;
          Alcotest.test_case "promote makes the replica writable" `Quick
            test_promote;
        ] );
      ( "restore",
        [
          Alcotest.test_case "restore --to-lsn exactness" `Quick
            test_restore_to_lsn;
          Alcotest.test_case "restore undoes transactions open at the cut"
            `Quick test_restore_undoes_open_txn;
        ] );
    ]
