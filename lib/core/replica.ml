(* Pull-based WAL-shipping replica: fetches durable frames from a leader,
   applies them through the redo path at transaction-consistent horizons,
   and persists a resume cursor so a restarted replica re-fetches only what
   it may not have flushed. *)

open Rx_storage

type fetch = from_lsn:int64 -> max_bytes:int -> int64 * string * int64

let no_fetch ~from_lsn:_ ~max_bytes:_ =
  failwith "replica: no leader configured"

type t = {
  db : Database.t;
  dir : string;
  fetch : fetch;
  mutable received_to : int64; (* end of everything fetched and decoded *)
  mutable horizon : int64; (* all records below are applied; txn-consistent *)
  mutable tail : (int64 * Rx_wal.Log_record.t) list;
      (* records in [horizon, received_to): buffered until every
         transaction seen in them has ended, oldest first *)
  mutable leader_durable : int64;
  mutable cursor : int64; (* last persisted restart point *)
}

type pull_report = {
  pulled_bytes : int;
  applied_records : int;
  caught_up : bool; (* horizon has reached the leader's durable LSN *)
}

let cursor_magic = "RXCUR001"

let read_cursor path =
  if not (Sys.file_exists path) then 0L
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let s = really_input_string ic 16 in
        if String.sub s 0 8 <> cursor_magic then
          failwith (Printf.sprintf "replica: %s is not a cursor file" path);
        String.get_int64_be s 8)
  end

let write_cursor path lsn =
  let b = Bytes.create 16 in
  Bytes.blit_string cursor_magic 0 b 0 8;
  Bytes.set_int64_be b 8 lsn;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let rec w off =
        if off < 16 then w (off + Unix.write fd b off (16 - off))
      in
      w 0;
      Unix.fsync fd);
  Unix.rename tmp path;
  (* persist the rename itself *)
  let dfd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  (try Unix.fsync dfd with Unix.Unix_error _ -> ());
  Unix.close dfd

let attach ?page_size ?record_threshold ?config ~fetch dir =
  let db = Database.open_replica ?page_size ?record_threshold ?config dir in
  let cursor = read_cursor (Database.replica_cursor_path dir) in
  {
    db;
    dir;
    fetch;
    received_to = cursor;
    horizon = cursor;
    tail = [];
    leader_durable = 0L;
    cursor;
  }

let db t = t.db
let horizon t = t.horizon
let leader_durable t = t.leader_durable

let lag t =
  Int64.to_int (Int64.sub (max t.leader_durable t.horizon) t.horizon)

(* The furthest frame boundary in [records] (which start at [from], each
   record's end being the next one's LSN, the last ending at [upto]) at
   which no transaction is mid-flight. Records below an already-applied
   horizon never reach here, so every Update's transaction either ends in
   the buffered span or is still open on the leader. *)
let consistent_horizon ~from ~upto records =
  let open_txids = Hashtbl.create 8 in
  let best = ref from in
  let rec walk = function
    | [] -> ()
    | (_, record) :: rest ->
        (match record with
        | Rx_wal.Log_record.Update { txid; _ } | Rx_wal.Log_record.Clr { txid; _ }
          ->
            Hashtbl.replace open_txids txid ()
        | Rx_wal.Log_record.Commit { txid } | Rx_wal.Log_record.Abort { txid } ->
            Hashtbl.remove open_txids txid
        | Rx_wal.Log_record.Checkpoint -> ());
        let end_lsn = match rest with (l, _) :: _ -> l | [] -> upto in
        if Hashtbl.length open_txids = 0 then best := end_lsn;
        walk rest
  in
  walk records;
  !best

let apply_records t records =
  let applied = ref 0 in
  List.iter
    (fun (lsn, record) ->
      match record with
      | Rx_wal.Log_record.Update { page_no; off; after; _ }
      | Rx_wal.Log_record.Clr { page_no; off; after; _ } ->
          if Database.apply_redo t.db ~page_no ~lsn ~off ~image:after then
            incr applied
      | Rx_wal.Log_record.Commit _ | Rx_wal.Log_record.Abort _
      | Rx_wal.Log_record.Checkpoint ->
          ())
    records;
  !applied

(* engine work under the handle's lock; any commit it made is durable
   before returning *)
let locked db f =
  let v, wait = Database.exclusively db f in
  wait ();
  v

let pull ?(max_bytes = 1 lsl 20) t =
  (* network I/O happens outside the engine lock *)
  let start_lsn, frames, durable = t.fetch ~from_lsn:t.received_to ~max_bytes in
  locked t.db (fun () ->
      t.leader_durable <- durable;
      if Int64.compare start_lsn t.received_to > 0 then
        failwith
          (Printf.sprintf
             "replica: leader history gap — asked for LSN %Ld, got %Ld \
              (rebuild the replica from scratch)"
             t.received_to start_lsn);
      let records =
        if String.length frames = 0 then []
        else
          Rx_wal.Log_manager.decode_frames ~base:start_lsn frames
          |> List.filter (fun (lsn, _) -> Int64.compare lsn t.received_to >= 0)
      in
      let batch_end = Int64.add start_lsn (Int64.of_int (String.length frames)) in
      if Int64.compare batch_end t.received_to > 0 then t.received_to <- batch_end;
      t.tail <- t.tail @ records;
      let new_horizon =
        consistent_horizon ~from:t.horizon ~upto:t.received_to t.tail
      in
      let applied = ref 0 in
      if Int64.compare new_horizon t.horizon > 0 then begin
        let ready, rest =
          List.partition (fun (lsn, _) -> Int64.compare lsn new_horizon < 0) t.tail
        in
        applied := apply_records t ready;
        t.tail <- rest;
        t.horizon <- new_horizon;
        (* the batch may have carried DDL or a checkpointed catalog *)
        Database.refresh_replica t.db
      end;
      let m = Database.metrics t.db in
      Rx_obs.Metrics.(incr (counter m "repl.pulls"));
      Rx_obs.Metrics.(add (counter m "repl.bytes_applied") (String.length frames));
      Rx_obs.Metrics.(add (counter m "repl.records_applied") !applied);
      Rx_obs.Metrics.(set (gauge m "repl.lag_bytes") (lag t));
      {
        pulled_bytes = String.length frames;
        applied_records = !applied;
        caught_up =
          Int64.compare t.horizon t.leader_durable >= 0
          && String.length frames = 0;
      })

let checkpoint t =
  locked t.db (fun () ->
      (* cursor rule: only ever persist a restart point whose pages are all
         durably flushed — the cursor must never run ahead of the data *)
      Buffer_pool.flush_all (Database.buffer_pool t.db);
      write_cursor (Database.replica_cursor_path t.dir) t.horizon;
      t.cursor <- t.horizon)

let promote t =
  locked t.db (fun () ->
      (* anything buffered past the horizon is mid-transaction on the old
         leader — discarded, exactly like a leader crash at this LSN *)
      t.tail <- [];
      t.received_to <- t.horizon;
      Database.promote_replica t.db ~lsn:t.horizon)

let close t =
  checkpoint t;
  Database.close t.db
