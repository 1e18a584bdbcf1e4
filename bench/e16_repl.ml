(* E16 — replication convergence under crash injection, plus point-in-time
   restore exactness.

   The E11 crash harness runs its seeded fault/crash/recover loop on a
   leader database (with WAL archiving on). A replica attaches over the
   in-process fetch path and, at every harness cycle — i.e. between leader
   crashes — pulls the leader's durable WAL in small batches until caught
   up, while a concurrent reader thread serves snapshot queries from it
   the whole run. After each catch-up the replica must hold exactly the
   committed documents, byte-for-byte, and verify clean. The replica
   itself is periodically hard-crashed and re-attached from its cursor,
   exercising idempotent reapply.

   Mid-run the bench captures a durable LSN and the committed state at
   that moment; after the harness finishes, [rx restore --to-lsn] (the
   library call under it) must reproduce that exact state in a fresh
   directory.

     RX_E16_ITERS  crash/reopen cycles (default 200)
     RX_E16_SEED   PRNG seed (default 42)
     RX_E16_BATCH  replication fetch size in bytes (default 8192) *)

open Systemrx

let table = "t"
let column = "doc"

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let fresh_dir tag =
  let base = Filename.get_temp_dir_name () in
  let rec try_n i =
    let dir =
      Filename.concat base (Printf.sprintf "rx_e16_%s_%d_%d" tag (Unix.getpid ()) i)
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

(* compare a database's live documents against an exact committed set *)
let docs_match db committed violation ctx =
  let ok = ref true in
  List.iter
    (fun (docid, xml) ->
      match Database.document db ~table ~column ~docid with
      | got when got = xml -> ()
      | got ->
          ok := false;
          violation
            (Printf.sprintf "%s: doc %d differs: expected %S, got %S" ctx docid
               xml got)
      | exception _ ->
          ok := false;
          violation (Printf.sprintf "%s: committed doc %d missing" ctx docid))
    committed;
  let rc = Database.row_count db ~table in
  if rc <> List.length committed then begin
    ok := false;
    violation
      (Printf.sprintf "%s: row_count %d, committed set has %d" ctx rc
         (List.length committed))
  end;
  !ok

let run () =
  Report.print_header "E16: WAL-shipping replication under crash injection";
  let iters = getenv_int "RX_E16_ITERS" 200 in
  let seed = getenv_int "RX_E16_SEED" 42 in
  let batch = getenv_int "RX_E16_BATCH" 8192 in
  let leader_dir = fresh_dir "leader" in
  let replica_dir = fresh_dir "replica" in
  let restore_dir = fresh_dir "restore" in
  (* archiving must be on from the leader's very first checkpoint, or
     replication catch-up and restore lose the early history *)
  Unix.mkdir leader_dir 0o755;
  Unix.mkdir (Database.archive_path leader_dir) 0o755;

  (* the harness reopens the leader every cycle; the fetch closure always
     reads through the current handle *)
  let leader = ref None in
  let fetch ~from_lsn ~max_bytes =
    match !leader with
    | Some db -> Database.repl_fetch db ~from_lsn ~max_bytes
    | None -> failwith "E16: no leader open"
  in
  (* the crash harness opens its leader at page_size 1024; physical
     replication requires the replica to match that geometry *)
  let attach_replica () = Replica.attach ~page_size:1024 ~fetch replica_dir in
  let repl = ref (attach_replica ()) in
  (* the reader thread and the main loop swap/crash the replica handle
     under this lock; engine-level serialization is Database.exclusively *)
  let rlock = Mutex.create () in
  let stop_reads = Atomic.make false in
  let reads_served = Atomic.make 0 in
  let reader =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_reads) do
          Mutex.protect rlock (fun () ->
              let db = Replica.db !repl in
              try
                let (), wait =
                  Database.exclusively db (fun () ->
                      ignore (Database.run db ~table ~column ~xpath:"/d/k"))
                in
                wait ();
                Atomic.incr reads_served
              with _ -> ());
          Thread.delay 0.0005
        done)
      ()
  in

  let cycle = ref 0 in
  let replica_crashes = ref 0 in
  let bytes_pulled = ref 0 in
  let pull_seconds = ref 0. in
  let max_lag = ref 0 in
  let converged = ref true in
  let capture = ref None in
  (* mid-run restore point: durable LSN + the exact committed state then *)
  let capture_at = max 1 (iters / 2) in

  let on_cycle ~db ~committed ~violation =
    incr cycle;
    leader := Some db;
    max_lag :=
      max !max_lag
        (Int64.to_int (Int64.sub (Database.durable_lsn db) (Replica.horizon !repl)));
    (* periodic replica hard-crash: next attach resumes from the cursor
       and reapplies idempotently (sometimes with a stale cursor — no
       checkpoint since the last one) *)
    if !cycle mod 17 = 0 then
      Mutex.protect rlock (fun () ->
          if !cycle mod 34 = 0 then Replica.checkpoint !repl;
          Database.crash (Replica.db !repl);
          incr replica_crashes;
          repl := attach_replica ());
    let t0 = Unix.gettimeofday () in
    let rec catch_up n =
      if n > 1_000_000 then violation "E16: replica never caught up"
      else begin
        let r = Replica.pull ~max_bytes:batch !repl in
        bytes_pulled := !bytes_pulled + r.Replica.pulled_bytes;
        if not r.Replica.caught_up then catch_up (n + 1)
      end
    in
    (match catch_up 0 with
    | () -> ()
    | exception e ->
        converged := false;
        violation (Printf.sprintf "E16: pull failed: %s" (Printexc.to_string e)));
    pull_seconds := !pull_seconds +. (Unix.gettimeofday () -. t0);
    (* converged: the replica holds exactly the committed state *)
    let rdb = Replica.db !repl in
    if not (docs_match rdb committed violation "replica") then converged := false;
    let vr, wait = Database.exclusively rdb (fun () -> Database.verify rdb) in
    wait ();
    if vr.Database.corrupt_pages <> [] then begin
      converged := false;
      violation
        (Printf.sprintf "E16: replica corrupt pages: %s"
           (String.concat ","
              (List.map string_of_int vr.Database.corrupt_pages)))
    end;
    if vr.Database.stale_index_stats <> [] then begin
      converged := false;
      violation
        (Printf.sprintf "E16: replica index statistic stale: %s"
           (String.concat "," vr.Database.stale_index_stats))
    end;
    if !cycle = capture_at then
      capture := Some (Database.durable_lsn db, committed)
  in

  let t0 = Unix.gettimeofday () in
  let o = Crash_harness.run ~iters ~seed ~on_cycle ~dir:leader_dir () in
  let total_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Atomic.set stop_reads true;
  Thread.join reader;
  leader := None;
  Replica.close !repl;

  (* point-in-time restore back to the captured moment *)
  let restore_violations = ref [] in
  let restore_exact =
    match !capture with
    | None ->
        restore_violations := [ "E16: no capture point recorded" ];
        false
    | Some (lsn, docs) -> (
        match Database.restore ~source:leader_dir ~target:restore_dir ~to_lsn:lsn () with
        | report ->
            let db = Database.open_dir restore_dir in
            let ok =
              docs_match db docs
                (fun m -> restore_violations := m :: !restore_violations)
                "restore"
            in
            let vr = Database.verify db in
            let clean =
              vr.Database.corrupt_pages = [] && vr.Database.stale_index_stats = []
            in
            if not clean then
              restore_violations :=
                "E16: restored database has corrupt pages" :: !restore_violations;
            Database.close db;
            ignore report;
            ok && clean
        | exception e ->
            restore_violations :=
              [ Printf.sprintf "E16: restore failed: %s" (Printexc.to_string e) ];
            false)
  in

  let violations = o.Crash_harness.violations @ List.rev !restore_violations in
  let catchup_mb_s =
    if !pull_seconds > 0. then
      float_of_int !bytes_pulled /. 1e6 /. !pull_seconds
    else 0.
  in
  let pass =
    !converged && restore_exact && violations = [] && Atomic.get reads_served > 0
  in
  Report.print_table
    ~columns:[ "metric"; "value" ]
    [
      [ "seed"; string_of_int seed ];
      [ "leader crash/reopen cycles"; string_of_int o.Crash_harness.iterations ];
      [ "leader faults fired"; string_of_int o.Crash_harness.crashes ];
      [ "replica hard crashes"; string_of_int !replica_crashes ];
      [ "WAL bytes shipped"; Report.fmt_bytes !bytes_pulled ];
      [ "catch-up throughput"; Printf.sprintf "%.1f MB/s" catchup_mb_s ];
      [ "max observed lag"; Report.fmt_bytes !max_lag ];
      [ "snapshot reads served"; string_of_int (Atomic.get reads_served) ];
      [ "committed docs at end"; string_of_int o.Crash_harness.survivors ];
      [ "violations"; string_of_int (List.length violations) ];
      [ "total"; Report.fmt_ms total_ms ];
    ];
  Report.print_gate ~name:"replica converged every cycle"
    (if !converged then `Passed else `Failed);
  Report.print_gate ~name:"restore --to-lsn exact"
    (if restore_exact then `Passed else `Failed);
  Report.print_gate ~name:"no durability violations"
    (if violations = [] then `Passed else `Failed);
  let oc = open_out "BENCH_E16.json" in
  Printf.fprintf oc
    {|{
  %s,
  "iters": %d,
  "seed": %d,
  "leader_crashes": %d,
  "replica_crashes": %d,
  "bytes_shipped": %d,
  "catchup_mb_s": %.2f,
  "max_lag_bytes": %d,
  "reads_served": %d,
  "survivors": %d,
  "converged": %b,
  "restore_exact": %b,
  "violations": %d,
  "total_ms": %.0f,
  "pass": %b
}
|}
    (Report.json_meta ()) iters seed o.Crash_harness.crashes !replica_crashes
    !bytes_pulled catchup_mb_s !max_lag
    (Atomic.get reads_served)
    o.Crash_harness.survivors !converged restore_exact
    (List.length violations) total_ms pass;
  close_out oc;
  Report.print_note "  wrote BENCH_E16.json (pass=%b)" pass;
  List.iter
    (fun d -> try rm_rf d with Sys_error _ | Unix.Unix_error _ -> ())
    [ leader_dir; replica_dir; restore_dir ];
  if not pass then begin
    List.iter (fun v -> Printf.eprintf "E16 GATE FAILED: %s\n" v) violations;
    if Atomic.get reads_served = 0 then
      Printf.eprintf "E16 GATE FAILED: reader thread served no queries\n";
    exit 1
  end
