open Rx_storage
open Rx_wal

let check = Alcotest.check

(* A tiny "database": one heap file over an in-memory pager that plays the
   role of the disk; the buffer pool is volatile memory. *)
type db = {
  pool : Buffer_pool.t;
  log : Log_manager.t;
  mutable txid : int;
}

let make_db () =
  let pool = Buffer_pool.create ~capacity:64 (Pager.create_in_memory ~page_size:512 ()) in
  let log = Log_manager.create_in_memory () in
  let db = { pool; log; txid = 0 } in
  Journal.install pool log ~current_txid:(fun () -> db.txid);
  db

let commit db =
  ignore (Log_manager.append db.log (Log_record.Commit { txid = db.txid }));
  Log_manager.flush db.log

let crash db = Buffer_pool.drop_cache db.pool
let recover db = Recovery.run db.log db.pool

(* --- log manager --- *)

let test_log_roundtrip () =
  let log = Log_manager.create_in_memory () in
  let records =
    [
      Log_record.Update { txid = 1; page_no = 2; off = 30; before = "aa"; after = "bb" };
      Log_record.Clr { txid = 1; page_no = 2; off = 30; after = "aa" };
      Log_record.Commit { txid = 1 };
      Log_record.Abort { txid = 2 };
      Log_record.Checkpoint;
    ]
  in
  let lsns = List.map (Log_manager.append log) records in
  check Alcotest.bool "lsns increase" true
    (List.sort compare lsns = lsns && List.sort_uniq compare lsns = lsns);
  let seen = ref [] in
  Log_manager.iter log (fun _ r -> seen := r :: !seen);
  check Alcotest.int "all records read back" (List.length records) (List.length !seen);
  check Alcotest.bool "same contents" true (List.rev !seen = records)

let test_log_file_backend () =
  let path = Filename.temp_file "rxlog" ".wal" in
  let log = Log_manager.open_file path in
  ignore (Log_manager.append log (Log_record.Commit { txid = 7 }));
  Log_manager.flush log;
  let log2 = Log_manager.open_file path in
  let seen = ref [] in
  Log_manager.iter log2 (fun _ r -> seen := r :: !seen);
  check Alcotest.bool "record survived reopen" true
    (!seen = [ Log_record.Commit { txid = 7 } ]);
  Sys.remove path

(* --- frame decoder fuzz --- *)

let record_gen =
  QCheck.Gen.(
    let txid = int_bound 1000 and page_no = int_bound 500 in
    let off = int_bound 4000 and image = string_size (int_bound 24) in
    frequency
      [
        ( 3,
          map3
            (fun (txid, page_no) off (before, after) ->
              Log_record.Update { txid; page_no; off; before; after })
            (pair txid page_no) off (pair image image) );
        ( 2,
          map3
            (fun (txid, page_no) off after ->
              Log_record.Clr { txid; page_no; off; after })
            (pair txid page_no) off image );
        (2, map (fun txid -> Log_record.Commit { txid }) txid);
        (1, map (fun txid -> Log_record.Abort { txid }) txid);
        (1, return Log_record.Checkpoint);
      ])

(* one damage to a frame stream; positions are reduced modulo its length *)
type damage = Flip of int * int | Insert of int * char | Drop of int | Cut of int

let damage_gen =
  QCheck.Gen.(
    let pos = int_bound 100_000 in
    oneof
      [
        map2 (fun p x -> Flip (p, 1 + x)) pos (int_bound 254);
        map2 (fun p c -> Insert (p, c)) pos char;
        map (fun p -> Drop p) pos;
        map (fun p -> Cut p) pos;
      ])

let apply_damage s = function
  | Flip (p, x) ->
      let b = Bytes.of_string s and p = p mod String.length s in
      Bytes.set b p (Char.chr (Char.code s.[p] lxor x));
      Bytes.to_string b
  | Insert (p, c) ->
      let p = p mod (String.length s + 1) in
      String.sub s 0 p ^ String.make 1 c ^ String.sub s p (String.length s - p)
  | Drop p ->
      let p = p mod String.length s in
      String.sub s 0 p ^ String.sub s (p + 1) (String.length s - p - 1)
  | Cut p -> String.sub s 0 (p mod String.length s)

let print_damage = function
  | Flip (p, x) -> Printf.sprintf "flip byte %d with 0x%02x" p x
  | Insert (p, c) -> Printf.sprintf "insert %C at %d" c p
  | Drop p -> Printf.sprintf "drop byte %d" p
  | Cut p -> Printf.sprintf "cut at %d" p

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

(* Frames a batch through a file-backed log, damages the frame bytes once,
   then reads them back two ways: strictly ([decode_frames] may only raise
   [Corrupt_record]) and as a crashed log behind its intact header
   ([open_file] keeps a prefix of what was written). Neither may return a
   record that was not appended. *)
let frame_fuzz_prop =
  QCheck.Test.make ~name:"damaged frames decode to a prefix"
    ~count:3000
    (QCheck.make
       ~print:(fun (records, d) ->
         Printf.sprintf "%d records, %s" (List.length records) (print_damage d))
       QCheck.Gen.(pair (list_size (int_range 1 8) record_gen) damage_gen))
    (fun (records, damage) ->
      let metrics = Rx_obs.Metrics.create () in
      let path = Filename.temp_file "rxfuzz" ".wal" in
      Sys.remove path;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let log = Log_manager.open_file ~metrics path in
          let base = Log_manager.base_lsn log in
          List.iter (fun r -> ignore (Log_manager.append log r)) records;
          Log_manager.flush log;
          let _, frames = Log_manager.raw_since log base in
          Log_manager.close log;
          let file = In_channel.with_open_bin path In_channel.input_all in
          let header =
            String.sub file 0 (String.length file - String.length frames)
          in
          let original = Log_manager.decode_frames ~base frames in
          let damaged = apply_damage frames damage in
          let strict =
            match Log_manager.decode_frames ~base damaged with
            | decoded -> is_prefix decoded original
            | exception Log_manager.Corrupt_record _ -> true
          in
          Out_channel.with_open_bin path (fun oc ->
              output_string oc header;
              output_string oc damaged);
          let log = Log_manager.open_file ~metrics path in
          let kept = ref [] in
          Log_manager.iter log (fun lsn r -> kept := (lsn, r) :: !kept);
          Log_manager.close log;
          List.map snd original = records
          && strict
          && is_prefix (List.rev !kept) original))

(* --- recovery --- *)

let test_recover_committed () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "durable" in
  commit db;
  crash db;
  let report = recover db in
  check Alcotest.bool "redo happened" true (report.Recovery.redone > 0);
  check Alcotest.int "no losers" 0 (List.length report.Recovery.losers);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "committed data recovered" "durable" (Heap_file.read heap2 rid)

let test_recover_uncommitted_rolled_back () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid1 = Heap_file.insert heap "keep" in
  commit db;
  db.txid <- 2;
  let _rid2 = Heap_file.insert heap "lose" in
  (* no commit for tx 2; some of its pages may even be on disk *)
  Buffer_pool.flush_all db.pool;
  crash db;
  let report = recover db in
  check (Alcotest.list Alcotest.int) "tx2 is a loser" [ 2 ] report.Recovery.losers;
  check Alcotest.bool "undo happened" true (report.Recovery.undone > 0);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "tx1 data intact" "keep" (Heap_file.read heap2 rid1);
  check Alcotest.int "tx2 insert rolled back" 1 (Heap_file.record_count heap2)

let test_recovery_idempotent () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "again" in
  commit db;
  crash db;
  ignore (recover db);
  crash db;
  ignore (recover db);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "double recovery ok" "again" (Heap_file.read heap2 rid)

let test_online_rollback () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let _ = Heap_file.insert heap "committed" in
  commit db;
  db.txid <- 2;
  let _ = Heap_file.insert heap "doomed-1" in
  let _ = Heap_file.insert heap "doomed-2" in
  let undone = Recovery.rollback db.log db.pool ~txid:2 in
  ignore (Log_manager.append db.log (Log_record.Abort { txid = 2 }));
  check Alcotest.bool "updates undone" true (undone > 0);
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.int "only committed row remains" 1 (Heap_file.record_count heap2);
  (* crash + recover after the rollback must not resurrect anything *)
  crash db;
  ignore (recover db);
  let heap3 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.int "still one row after recovery" 1 (Heap_file.record_count heap3)

let test_checkpoint_truncates () =
  let db = make_db () in
  db.txid <- 1;
  let heap = Heap_file.create db.pool in
  let rid = Heap_file.insert heap "checkpointed" in
  commit db;
  Recovery.checkpoint db.log db.pool;
  check Alcotest.int "log truncated" 0 (Log_manager.record_count db.log);
  check Alcotest.bool "LSNs stay monotonic across truncation" true
    (Int64.compare (Log_manager.tail_lsn db.log) 0L > 0);
  crash db;
  let report = recover db in
  check Alcotest.int "nothing to redo" 0 report.Recovery.redone;
  let heap2 = Heap_file.attach db.pool ~header_page:(Heap_file.header_page heap) in
  check Alcotest.string "data persisted by checkpoint" "checkpointed"
    (Heap_file.read heap2 rid)

let test_wal_rule_on_eviction () =
  (* with a tiny pool, evictions force page writes, which must force the log
     first; after a crash the log must contain enough to redo *)
  let pool = Buffer_pool.create ~capacity:3 (Pager.create_in_memory ~page_size:512 ()) in
  let log = Log_manager.create_in_memory () in
  let txid = ref 1 in
  Journal.install pool log ~current_txid:(fun () -> !txid);
  let heap = Heap_file.create pool in
  let rids = List.init 60 (fun i -> (i, Heap_file.insert heap (Printf.sprintf "row%03d" i))) in
  ignore (Log_manager.append log (Log_record.Commit { txid = 1 }));
  Log_manager.flush log;
  Buffer_pool.drop_cache pool;
  ignore (Recovery.run log pool);
  let heap2 = Heap_file.attach pool ~header_page:(Heap_file.header_page heap) in
  List.iter
    (fun (i, rid) ->
      check Alcotest.string "row recovered" (Printf.sprintf "row%03d" i)
        (Heap_file.read heap2 rid))
    rids

let test_recover_btree () =
  let db = make_db () in
  db.txid <- 1;
  let tree = Rx_btree.Btree.create db.pool in
  for i = 0 to 199 do
    Rx_btree.Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  commit db;
  db.txid <- 2;
  for i = 200 to 249 do
    Rx_btree.Btree.insert tree ~key:(Printf.sprintf "key%04d" i) ~value:(string_of_int i)
  done;
  crash db;
  ignore (recover db);
  let tree2 = Rx_btree.Btree.attach db.pool ~meta_page:(Rx_btree.Btree.meta_page tree) in
  Rx_btree.Btree.check_invariants tree2;
  check Alcotest.int "only committed keys" 200 (Rx_btree.Btree.entry_count tree2);
  check (Alcotest.option Alcotest.string) "committed key present" (Some "150")
    (Rx_btree.Btree.find tree2 "key0150");
  check (Alcotest.option Alcotest.string) "uncommitted key gone" None
    (Rx_btree.Btree.find tree2 "key0220")

(* --- one page mutation, several changed runs --- *)

(* The page body after the header (LSN, kind, checksum): what a mutation,
   its redo and its undo must agree on byte for byte. *)
let body db p =
  Buffer_pool.with_page db.pool p (fun page ->
      Bytes.sub_string page Page.header_size (Bytes.length page - Page.header_size))

(* (page, offset, length) of each Update the transaction logged, oldest
   first *)
let updates_of db txid =
  List.filter_map
    (fun (_, r) ->
      match r with
      | Log_record.Update { txid = t; page_no; off; after; _ } when t = txid ->
          Some (page_no, off, String.length after)
      | _ -> None)
    (List.rev (Log_manager.records_rev db.log))

(* two edits 356 bytes apart: far more than the equal gap the pool logs
   through rather than splitting around *)
let two_runs stamp page =
  Bytes.blit_string stamp 0 page 40 4;
  Bytes.blit_string stamp 0 page 400 4

let test_multi_run_update () =
  let db = make_db () in
  db.txid <- 1;
  let p = Buffer_pool.alloc db.pool Page.Heap in
  commit db;
  Buffer_pool.flush_all db.pool;
  let original = body db p in
  (* committed, never flushed: redo rebuilds it from the two records *)
  db.txid <- 2;
  Buffer_pool.update db.pool p (two_runs "AAAA");
  check
    Alcotest.(list (triple int int int))
    "one Update per run" [ (p, 40, 4); (p, 400, 4) ] (updates_of db 2);
  let committed = body db p in
  check Alcotest.bool "the mutation changed the page" true (committed <> original);
  commit db;
  crash db;
  ignore (recover db);
  check Alcotest.string "redo rebuilds the page byte for byte" committed
    (body db p);
  (* edits separated by a short equal gap stay one run *)
  db.txid <- 3;
  Buffer_pool.update db.pool p (fun page ->
      Bytes.set page 60 'x';
      Bytes.set page 70 'y');
  check
    Alcotest.(list (triple int int int))
    "a short gap is logged through" [ (p, 60, 11) ] (updates_of db 3);
  commit db;
  let committed = body db p in
  (* uncommitted, even flushed: undo restores both runs *)
  db.txid <- 4;
  Buffer_pool.update db.pool p (two_runs "BBBB");
  Buffer_pool.flush_all db.pool;
  crash db;
  let report = recover db in
  check Alcotest.(list int) "the mutation's txn is a loser" [ 4 ]
    report.Recovery.losers;
  check Alcotest.int "both runs undone" 2 report.Recovery.undone;
  check Alcotest.string "undo restores the page byte for byte" committed
    (body db p);
  (* a rollback that dies between the two runs' compensations: recovery
     skips the run its CLR already covers and undoes the other *)
  db.txid <- 5;
  Buffer_pool.update db.pool p (two_runs "CCCC");
  (match List.rev (updates_of db 5) with
  | (page_no, off, len) :: _ ->
      let before = String.sub committed (off - Page.header_size) len in
      let lsn =
        Log_manager.append db.log
          (Log_record.Clr { txid = 5; page_no; off; after = before })
      in
      Recovery.apply_image db.pool ~page_no ~lsn ~off ~image:before
  | [] -> Alcotest.fail "no Update logged");
  Log_manager.flush db.log;
  crash db;
  let report = recover db in
  check Alcotest.(list int) "half-rolled-back txn is a loser" [ 5 ]
    report.Recovery.losers;
  check Alcotest.int "only the uncompensated run undone" 1
    report.Recovery.undone;
  check Alcotest.string "resumed rollback restores the page" committed
    (body db p)

(* --- group commit and write batching --- *)

let cval metrics name = Rx_obs.Metrics.(value (counter metrics name))

let test_group_commit_single () =
  let path = Filename.temp_file "rx_wal_gc" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  let lsns =
    List.init 5 (fun i -> Log_manager.append log (Log_record.Commit { txid = i }))
  in
  let last = List.nth lsns 4 in
  Log_manager.group_commit log ~wait:false last;
  check Alcotest.bool "all records durable" true
    (Int64.compare (Log_manager.durable_lsn log) last >= 0);
  check Alcotest.int "one group, one fsync" 1
    (cval metrics "wal.group_commit.fsyncs");
  (* an already-durable target neither leads a group nor fsyncs again *)
  Log_manager.group_commit log ~wait:false last;
  check Alcotest.int "no extra fsync for durable lsn" 1
    (cval metrics "wal.group_commit.fsyncs");
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" 5 (Log_manager.record_count log2);
  Sys.remove path

let test_group_commit_absorbs () =
  let path = Filename.temp_file "rx_wal_gc" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  Log_manager.set_commit_window log 5000;
  let committers = 8 in
  let threads =
    List.init committers (fun i ->
        Thread.create
          (fun () ->
            let lsn = Log_manager.append log (Log_record.Commit { txid = i }) in
            Log_manager.group_commit log lsn)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "every record durable" committers
    (Log_manager.record_count log);
  let groups = cval metrics "wal.group_commit.groups" in
  let absorbed = cval metrics "wal.group_commit.absorbed" in
  check Alcotest.bool "followers absorbed into a leader's flush" true
    (absorbed >= 1 && groups + absorbed = committers);
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" committers
    (Log_manager.record_count log2);
  Sys.remove path

(* A Commit record that starts exactly where the durable point ends is not
   yet on disk: the commit must wait past its first byte, not just reach
   its start LSN. *)
let test_commit_waits_for_its_record () =
  let path = Filename.temp_file "rx_wal_commit" ".log" in
  let log = Log_manager.open_file path in
  ignore (Log_manager.append log (Log_record.Commit { txid = 0 }));
  Log_manager.flush log;
  let mgr = Rx_txn.Transaction.create_manager ~log () in
  ignore (Rx_txn.Transaction.commit (Rx_txn.Transaction.begin_txn mgr));
  let log2 = Log_manager.open_file path in
  check Alcotest.int "both commits survive reopen" 2 (Log_manager.record_count log2);
  Sys.remove path

(* The same at the log itself: [group_commit] and [flush_to] take the LSN
   [append] returned and make that whole record durable, even when the
   durable point ends exactly where it starts. *)
let test_durable_through_record () =
  List.iter
    (fun (name, force) ->
      let path = Filename.temp_file "rx_wal_through" ".log" in
      let log = Log_manager.open_file path in
      ignore (Log_manager.append log (Log_record.Commit { txid = 1 }));
      Log_manager.flush log;
      force log (Log_manager.append log (Log_record.Commit { txid = 2 }));
      let log2 = Log_manager.open_file path in
      check Alcotest.int (name ^ ": both records survive reopen") 2
        (Log_manager.record_count log2);
      Sys.remove path)
    [
      ("group_commit", fun log lsn -> Log_manager.group_commit log ~wait:false lsn);
      ("flush_to", Log_manager.flush_to);
    ]

let test_write_buffer_spills_without_fsync () =
  let path = Filename.temp_file "rx_wal_spill" ".log" in
  let metrics = Rx_obs.Metrics.create () in
  let log = Log_manager.open_file ~metrics path in
  Log_manager.set_buffer_limit log 64;
  let big = String.make 200 'x' in
  let lsns =
    List.init 4 (fun i ->
        Log_manager.append log
          (Log_record.Update
             { txid = i; page_no = i; off = 0; before = big; after = big }))
  in
  (* staged bytes exceeded the limit, so appends wrote to the file... *)
  check Alcotest.bool "spill wrote to the file" true
    ((Unix.stat path).Unix.st_size > 200);
  (* ...but without forcing durability: no fsync yet *)
  check Alcotest.int "no fsync before flush" 0 (cval metrics "wal.forced_syncs");
  check Alcotest.bool "spilled records not yet durable" true
    (Int64.compare (Log_manager.durable_lsn log) (List.nth lsns 3) < 0);
  Log_manager.flush log;
  check Alcotest.int "flush forces one fsync" 1
    (cval metrics "wal.forced_syncs");
  check Alcotest.bool "everything durable after flush" true
    (Int64.compare (Log_manager.durable_lsn log) (List.nth lsns 3) >= 0);
  let log2 = Log_manager.open_file path in
  check Alcotest.int "records survive reopen" 4 (Log_manager.record_count log2);
  Sys.remove path

let () =
  Alcotest.run "rx_wal"
    [
      ( "log_manager",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "file backend" `Quick test_log_file_backend;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 33 |])
            frame_fuzz_prop;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "single committer" `Quick test_group_commit_single;
          Alcotest.test_case "concurrent committers absorb" `Quick
            test_group_commit_absorbs;
          Alcotest.test_case "commit waits for its own record" `Quick
            test_commit_waits_for_its_record;
          Alcotest.test_case "durable through the appended record" `Quick
            test_durable_through_record;
          Alcotest.test_case "write buffer spills without fsync" `Quick
            test_write_buffer_spills_without_fsync;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "committed survives crash" `Quick test_recover_committed;
          Alcotest.test_case "uncommitted rolled back" `Quick test_recover_uncommitted_rolled_back;
          Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "online rollback" `Quick test_online_rollback;
          Alcotest.test_case "checkpoint truncates log" `Quick test_checkpoint_truncates;
          Alcotest.test_case "WAL rule on eviction" `Quick test_wal_rule_on_eviction;
          Alcotest.test_case "btree splits recover" `Quick test_recover_btree;
          Alcotest.test_case "one mutation, two runs: redo and undo" `Quick
            test_multi_run_update;
        ] );
    ]
