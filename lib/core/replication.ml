(* Replication and restore: the leader ships durable WAL frames, a
   replica applies them through the redo path and can be promoted, and a
   past state is rebuilt from the WAL archive. *)

open Rx_storage
open Engine

let durable_lsn t = Rx_wal.Log_manager.durable_lsn t.log
let wal_base_lsn t = Rx_wal.Log_manager.base_lsn t.log

type repl_state = {
  r_base_lsn : int64;
  r_durable_lsn : int64;
  r_generations : int;
  r_page_size : int;
}

let repl_state t =
  {
    r_base_lsn = wal_base_lsn t;
    r_durable_lsn = durable_lsn t;
    r_generations =
      (match archive_dir t with
      | Some dir -> List.length (Rx_wal.Archive.generations dir)
      | None -> 0);
    r_page_size = Pager.page_size (Buffer_pool.pager t.pool);
  }

(* One replication pull: durable frames from [from_lsn], served from the
   live log when the position is still inside it, from the archive when a
   checkpoint has truncated past it. Returns (start, frames, durable) —
   [start] always equals [from_lsn] unless the history below it is gone
   (no archive), which is unrecoverable without rebuilding the replica. *)
let repl_fetch t ~from_lsn ~max_bytes =
  let missing () =
    failwith
      (Printf.sprintf
         "replication: WAL history before LSN %Ld is gone — enable \
          archiving (create %s) before the first checkpoint, or rebuild \
          the replica from scratch"
         from_lsn
         (match t.dir with
         | Some dir -> archive_path dir
         | None -> "<dir>/archive"))
  in
  let start, frames = Rx_wal.Log_manager.raw_since t.log ~max_bytes from_lsn in
  let start, frames =
    if Int64.compare start from_lsn <= 0 then (from_lsn, frames)
    else
      (* the position fell below the live base: a checkpoint truncated it
         away. Serve the span from the archive instead. *)
      match archive_dir t with
      | None -> missing ()
      | Some dir -> (
          match Rx_wal.Archive.read_from ~dir ~lsn:from_lsn with
          | Rx_wal.Archive.Frames frames -> (from_lsn, frames)
          | Rx_wal.Archive.Not_archived | Rx_wal.Archive.Missing_history ->
              missing ())
  in
  Rx_obs.Metrics.(incr (counter t.metrics "repl.fetches"));
  Rx_obs.Metrics.(add (counter t.metrics "repl.bytes_shipped") (String.length frames));
  (start, frames, durable_lsn t)

(* --- replication (replica side): physical redo + promotion --- *)

(* Replicated updates may touch pages this replica has never materialized
   (the leader allocated them after the replica's last page); extend the
   data file with stamped zero pages so redo can pin them. *)
let grow_pages t page_no =
  let pager = Buffer_pool.pager t.pool in
  while Pager.page_count pager <= page_no do
    ignore (Pager.alloc pager)
  done

(* Apply one replicated after-image through the shared redo primitive,
   honouring page-LSN idempotence (a page flushed past the restart cursor
   skips records it already carries — exactly ARIES repeat-history). *)
let apply_redo t ~page_no ~lsn ~off ~image =
  grow_pages t page_no;
  let page_lsn = Buffer_pool.with_page t.pool page_no Page.get_lsn in
  if Int64.compare lsn page_lsn >= 0 then begin
    Rx_wal.Recovery.apply_image t.pool ~page_no ~lsn ~off ~image;
    true
  end
  else false

(* Promotion: the replica stops applying and becomes a writable primary.
   All applied state is flushed, then the (empty, never-appended-to) local
   WAL restarts at [lsn] — the applied horizon — so new records continue
   the leader's LSN timeline above every replicated page LSN. *)
let promote_replica t ~lsn =
  if not t.replica then invalid_arg "Database.promote_replica: not a replica";
  Buffer_pool.flush_all t.pool;
  (* belt and braces for promotion after a replica crash: the disk may
     hold pages flushed past the persisted cursor, so start the new
     timeline above every page LSN actually present, not just [lsn] —
     otherwise a future record could be skipped by a stale page LSN *)
  let pager = Buffer_pool.pager t.pool in
  let base = ref lsn in
  for p = 1 to Pager.page_count pager - 1 do
    let plsn = Buffer_pool.with_page t.pool p Page.get_lsn in
    if Int64.compare plsn !base > 0 then base := plsn
  done;
  Rx_wal.Log_manager.truncate t.log;
  Rx_wal.Log_manager.reset_base t.log !base;
  t.replica <- false;
  (match t.dir with
  | Some dir ->
      let cursor = replica_cursor_path dir in
      if Sys.file_exists cursor then Sys.remove cursor
  | None -> ());
  Rx_obs.Metrics.(incr (counter t.metrics "repl.promotions"));
  !base

(* --- point-in-time restore --- *)

type restore_report = {
  rst_records : int; (* records replayed (LSN below the cut) *)
  rst_undone : int; (* loser updates rolled back at the cut *)
  rst_losers : int list; (* transactions still open at the cut *)
  rst_stop_lsn : int64; (* the requested cut *)
  rst_new_base : int64; (* the restored database's WAL base *)
}

(* Rebuild the database state as of [to_lsn] (exclusive — pass a durable
   LSN observed earlier; the full history end is the default) into a fresh
   [target] directory, from [source]'s archive generations plus its live
   WAL. The stream is replayed through the normal recovery path, so
   transactions still open at the cut are rolled back exactly as a crash
   at that moment would have. Offline: run against a stopped database (or
   a file-level copy of one). *)
let restore ?page_size ?to_lsn ~source ~target () =
  let source_wal = Filename.concat source "wal.rxlog" in
  if not (Sys.file_exists source_wal) then
    failwith (Printf.sprintf "restore: %s has no WAL" source);
  let metrics = Rx_obs.Metrics.create () in
  let log = Rx_wal.Log_manager.open_file ~metrics source_wal in
  let live_base = Rx_wal.Log_manager.base_lsn log in
  let live_tail = Rx_wal.Log_manager.tail_lsn log in
  let live_records = List.rev (Rx_wal.Log_manager.records_rev log) in
  Rx_wal.Log_manager.close log;
  let to_lsn = Option.value to_lsn ~default:live_tail in
  if Int64.compare to_lsn 0L < 0 || Int64.compare to_lsn live_tail > 0 then
    failwith
      (Printf.sprintf "restore: --to-lsn %Ld is outside the history [0, %Ld]"
         to_lsn live_tail);
  (* stitch the archived generations: they must chain contiguously from
     LSN 0 up to the live WAL's base, or part of the history is gone *)
  let gens = Rx_wal.Archive.generations (archive_path source) in
  let chain =
    List.map (fun (start, path) -> (start, Rx_wal.Archive.load (start, path))) gens
  in
  let archive_end =
    List.fold_left
      (fun at (start, frames) ->
        if Int64.compare start at <> 0 then
          failwith
            (Printf.sprintf
               "restore: archive gap — history ends at LSN %Ld but the next \
                generation starts at %Ld"
               at start);
        Int64.add at (Int64.of_int (String.length frames)))
      0L chain
  in
  if Int64.compare archive_end live_base <> 0 then
    failwith
      (Printf.sprintf
         "restore: incomplete history — the archive ends at LSN %Ld but the \
          live WAL starts at %Ld (was archiving enabled before the first \
          checkpoint?)"
         archive_end live_base);
  let records =
    List.concat_map
      (fun (start, frames) -> Rx_wal.Log_manager.decode_frames ~base:start frames)
      chain
    @ live_records
  in
  let cut = List.filter (fun (lsn, _) -> Int64.compare lsn to_lsn < 0) records in
  (* fresh target: pages materialize from the replayed history alone *)
  let page_size =
    match page_size with
    | Some ps -> ps
    | None ->
        let src_data = Filename.concat source "data.rxdb" in
        if Sys.file_exists src_data then Pager.stored_page_size src_data
        else Pager.default_page_size
  in
  if not (Sys.file_exists target) then Unix.mkdir target 0o755;
  let tgt_data = Filename.concat target "data.rxdb" in
  if Sys.file_exists tgt_data then
    failwith (Printf.sprintf "restore: %s already holds a database" target);
  let tmetrics = Rx_obs.Metrics.create () in
  let pool =
    Buffer_pool.create ~metrics:tmetrics ~capacity:2048
      (Pager.open_file ~metrics:tmetrics ~page_size tgt_data)
  in
  let pager = Buffer_pool.pager pool in
  let max_page =
    List.fold_left
      (fun acc (_, r) ->
        match r with
        | Rx_wal.Log_record.Update { page_no; _ }
        | Rx_wal.Log_record.Clr { page_no; _ } ->
            max acc page_no
        | _ -> acc)
      0 cut
  in
  while Pager.page_count pager <= max_page do
    ignore (Pager.alloc pager)
  done;
  (* Rebuild the history in an in-memory log: the genesis base is 0 and
     LSNs are byte offsets, so re-appending the same records reproduces the
     original LSNs exactly; [Recovery.run] then redoes committed history
     and undoes the transactions the cut left open, exactly as if the
     process had crashed at [to_lsn]. *)
  let mem = Rx_wal.Log_manager.create_in_memory ~metrics:tmetrics () in
  List.iter
    (fun (lsn, r) ->
      let rebuilt = Rx_wal.Log_manager.append mem r in
      if Int64.compare rebuilt lsn <> 0 then
        failwith
          (Printf.sprintf
             "restore: LSN drift at %Ld (rebuilt as %Ld) — frame stream is \
              not the original history"
             lsn rebuilt))
    cut;
  let report = Rx_wal.Recovery.run mem pool in
  Buffer_pool.flush_all pool;
  (* the undo pass appended CLRs/Aborts past the cut, stamping pages with
     LSNs above [to_lsn]; the restored timeline must start above them all
     so future records can never be skipped by a stale page LSN *)
  let new_base = Rx_wal.Log_manager.tail_lsn mem in
  let tgt_log =
    Rx_wal.Log_manager.open_file ~metrics:tmetrics (Filename.concat target "wal.rxlog")
  in
  Rx_wal.Log_manager.reset_base tgt_log new_base;
  Rx_wal.Log_manager.close tgt_log;
  Pager.close pager;
  {
    rst_records = List.length cut;
    rst_undone = report.Rx_wal.Recovery.undone;
    rst_losers = report.Rx_wal.Recovery.losers;
    rst_stop_lsn = to_lsn;
    rst_new_base = new_base;
  }
