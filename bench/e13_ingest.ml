(* E13 — write-path throughput: what the bulk-load API and WAL group
   commit buy on ingest-heavy workloads.

   Part A (bulk load): the same document set ingested into an on-disk
   database (a) with a per-insert loop — every document pays transaction
   setup, its own lock, per-document index maintenance and a WAL
   flush+fsync — and (b) with [Database.insert_many] — one transaction,
   one table-level lock, batched heap placement and index maintenance,
   and a single WAL flush at commit. Gate: >= 3x documents/sec.

   Part B (group commit): rounds of 8 transactions staged on the main
   thread and committed from 8 concurrent threads with a commit window
   open. One leader per group performs the fsync; the rest absorb into
   it. Gate: >= 4 commits per group-commit fsync.

   Emits BENCH_E13.json in the working directory and exits non-zero if a
   gate fails, so CI can use it as a perf-regression smoke.

     RX_E13_DOCS    Part A document count (default 1000)
     RX_E13_ROUNDS  Part B rounds of 8 concurrent commits (default 25) *)

open Systemrx
open Rx_relational

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_n i =
    let dir =
      Filename.concat base (Printf.sprintf "rx_e13_%d_%d" (Unix.getpid ()) i)
    in
    if Sys.file_exists dir then try_n (i + 1) else dir
  in
  try_n 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_fresh_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () ->
      try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () -> f dir

(* small documents so per-document fixed costs (transaction, commit
   fsync, lock, free-space probe) dominate over parsing *)
let doc i =
  Printf.sprintf "<book><title>Book %d</title><price>%d.5</price></book>" i
    (i mod 100)

let cval db name =
  Rx_obs.Metrics.(value (counter (Database.metrics db) name))

(* --- Part A: per-insert loop vs insert_many --- *)

(* both paths maintain an XPath value index, so the comparison includes
   index maintenance — fired per document vs batched per index *)
let setup_schema db =
  ignore
    (Database.create_table db ~name:"books" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"by_price"
          ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double))

let bench_load ndocs =
  let docs = List.init ndocs (fun i -> doc (i + 1)) in
  let ingest name f =
    with_fresh_dir @@ fun dir ->
    let db = Database.open_dir dir in
    setup_schema db;
    let syncs0 = cval db "wal.forced_syncs" in
    let t0 = Unix.gettimeofday () in
    f db;
    let elapsed = Unix.gettimeofday () -. t0 in
    let syncs = cval db "wal.forced_syncs" - syncs0 in
    let stats = Database.stats db in
    Database.close db;
    if stats.Database.documents <> ndocs then begin
      Printf.eprintf "E13: %s stored %d documents, expected %d\n" name
        stats.Database.documents ndocs;
      exit 1
    end;
    (elapsed *. 1000., syncs, stats.Database.value_index_entries)
  in
  let loop_ms, loop_syncs, loop_entries =
    ingest "per-insert loop" (fun db ->
        List.iter
          (fun d ->
            ignore (Database.insert db ~table:"books" ~xml:[ ("doc", d) ] ()))
          docs)
  in
  let bulk_ms, bulk_syncs, bulk_entries =
    ingest "insert_many" (fun db ->
        ignore (Database.insert_many db ~table:"books" ~column:"doc" docs))
  in
  if loop_entries <> bulk_entries then begin
    Printf.eprintf "E13: index entries differ (%d loop vs %d bulk)\n"
      loop_entries bulk_entries;
    exit 1
  end;
  let tput ms = float_of_int ndocs /. (ms /. 1000.) in
  let speedup = loop_ms /. bulk_ms in
  Report.print_table
    ~columns:[ "ingest mode"; "total"; "docs/sec"; "wal fsyncs" ]
    [
      [ "per-insert loop"; Report.fmt_ms loop_ms;
        Printf.sprintf "%.0f" (tput loop_ms); string_of_int loop_syncs ];
      [ "insert_many (bulk)"; Report.fmt_ms bulk_ms;
        Printf.sprintf "%.0f" (tput bulk_ms); string_of_int bulk_syncs ];
    ];
  Report.print_note "  bulk speedup %s (gate: >= 3x); %d value-index entries both ways"
    (Report.fmt_ratio speedup) bulk_entries;
  (loop_ms, bulk_ms, speedup, loop_syncs, bulk_syncs)

(* --- Part B: group commit under concurrent committers --- *)

let committers = 8

let bench_group_commit rounds =
  with_fresh_dir @@ fun dir ->
  let db = Database.open_dir dir in
  ignore
    (Database.create_table db ~name:"events" ~columns:[ ("doc", Value.T_xml) ]);
  Database.set_config db
    { (Database.config db) with commit_window_us = 2500 };
  let groups0 = cval db "wal.group_commit.groups" in
  let fsyncs0 = cval db "wal.group_commit.fsyncs" in
  let absorbed0 = cval db "wal.group_commit.absorbed" in
  let t0 = Unix.gettimeofday () in
  for round = 1 to rounds do
    (* stage on the main thread: begin + one insert per transaction;
       the committer threads serialize [commit] under the engine lock and
       wait for durability outside it, sharing group-commit fsyncs *)
    let txns =
      List.init committers (fun i ->
          let txn = Database.begin_txn db in
          ignore
            (Database.insert db ~txn ~table:"events"
               ~xml:[ ("doc", doc ((round * committers) + i)) ]
               ());
          txn)
    in
    let threads =
      List.map
        (fun txn ->
          Thread.create
            (fun () ->
              let (), wait =
                Database.exclusively db (fun () -> Database.commit db txn)
              in
              wait ())
            ())
        txns
    in
    List.iter Thread.join threads
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let commits = rounds * committers in
  let fsyncs = cval db "wal.group_commit.fsyncs" - fsyncs0 in
  let groups = cval db "wal.group_commit.groups" - groups0 in
  let absorbed = cval db "wal.group_commit.absorbed" - absorbed0 in
  let stats = Database.stats db in
  Database.close db;
  if stats.Database.documents <> commits then begin
    Printf.eprintf "E13: group commit stored %d documents, expected %d\n"
      stats.Database.documents commits;
    exit 1
  end;
  let per_fsync =
    if fsyncs = 0 then float_of_int commits
    else float_of_int commits /. float_of_int fsyncs
  in
  Report.print_table
    ~columns:[ "group commit"; "count" ]
    [
      [ "commits"; string_of_int commits ];
      [ "group-commit fsyncs"; string_of_int fsyncs ];
      [ "groups led"; string_of_int groups ];
      [ "commits absorbed"; string_of_int absorbed ];
    ];
  Report.print_note
    "  %.1f commits/fsync (gate: >= 4) with %d committers, window 2500us, %.0f commits/sec"
    per_fsync committers
    (float_of_int commits /. elapsed);
  (commits, fsyncs, absorbed, per_fsync)

let write_json path ~ndocs ~rounds ~loop_ms ~bulk_ms ~speedup ~loop_syncs
    ~bulk_syncs ~commits ~fsyncs ~absorbed ~per_fsync ~pass =
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "experiment": "e13_ingest",
  %s,
  "bulk_load": {
    "docs": %d,
    "loop_ms": %.3f,
    "bulk_ms": %.3f,
    "loop_docs_per_sec": %.1f,
    "bulk_docs_per_sec": %.1f,
    "speedup": %.2f,
    "loop_wal_fsyncs": %d,
    "bulk_wal_fsyncs": %d,
    "gate": 3.0
  },
  "group_commit": {
    "rounds": %d,
    "committers": %d,
    "commits": %d,
    "group_commit_fsyncs": %d,
    "absorbed": %d,
    "commits_per_fsync": %.2f,
    "gate": 4.0
  },
  "pass": %b
}
|}
    (Report.json_meta ()) ndocs loop_ms bulk_ms
    (float_of_int ndocs /. (loop_ms /. 1000.))
    (float_of_int ndocs /. (bulk_ms /. 1000.))
    speedup loop_syncs bulk_syncs rounds committers commits fsyncs absorbed
    per_fsync pass;
  close_out oc

let run () =
  Report.print_header "E13: write path (bulk load + group commit)";
  let ndocs = getenv_int "RX_E13_DOCS" 1000 in
  let rounds = getenv_int "RX_E13_ROUNDS" 25 in
  let loop_ms, bulk_ms, speedup, loop_syncs, bulk_syncs = bench_load ndocs in
  let commits, fsyncs, absorbed, per_fsync = bench_group_commit rounds in
  let pass = speedup >= 3.0 && per_fsync >= 4.0 in
  write_json "BENCH_E13.json" ~ndocs ~rounds ~loop_ms ~bulk_ms ~speedup
    ~loop_syncs ~bulk_syncs ~commits ~fsyncs ~absorbed ~per_fsync ~pass;
  Report.print_note "  wrote BENCH_E13.json (pass=%b)" pass;
  if not pass then begin
    if speedup < 3.0 then
      Printf.eprintf "E13 GATE FAILED: bulk-load speedup %.2fx < 3x\n" speedup;
    if per_fsync < 4.0 then
      Printf.eprintf "E13 GATE FAILED: %.2f commits per fsync < 4\n" per_fsync;
    exit 1
  end
