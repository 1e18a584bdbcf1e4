(* The database facade (database.mli). Each decision lives in its own
   module, re-exported here (DESIGN.md, "lib/core module map"): [Engine]
   the handle and the auto-commit rule, [Versions] snapshot visibility,
   [Attach] opening, [Ddl], [Session] explicit transactions, [Dml],
   [Index] the value-index lifecycle, [Replication] and [Queries]. Close,
   crash, verify, the error surface and stats stay here. *)

open Rx_storage
open Rx_xmlstore
open Rx_xindex
include Engine
include Attach
include Ddl
include Session
include Dml
include Replication
include Queries
module Index = Index

let close t =
  (* a handle abandoned mid-transaction rolls back, like a dropped session *)
  List.iter (rollback t) t.active_txns;
  (* a degraded handle must not checkpoint: saving the catalog would
     overwrite durable state with a partial in-memory view. A replica must
     not either — its durable state is exactly the leader's pages, and its
     restart point is persisted by [Replica.close] instead. *)
  (match t.degraded with
  | None when not t.replica -> do_checkpoint t ~counter_name:"ckpt.manual"
  | _ -> ());
  Pager.close (Buffer_pool.pager t.pool);
  Rx_wal.Log_manager.close t.log

(* simulate the process dying: release the file descriptors with no
   rollback, no checkpoint and no flush — recovery runs at the next open *)
let crash t =
  Pager.close (Buffer_pool.pager t.pool);
  Rx_wal.Log_manager.close t.log

let set_fault ?(scope = `All) t fault =
  Rx_wal.Log_manager.set_fault t.log fault;
  match scope with
  | `All -> Pager.set_fault (Buffer_pool.pager t.pool) fault
  | `Wal_only -> Pager.set_fault (Buffer_pool.pager t.pool) None

type verify_report = {
  pages_checked : int;
  corrupt_pages : int list;
  wal_records : int;
  wal_torn_bytes : int;
  stale_index_stats : string list;
  column_docid_mismatch : string list;
}

(* Offline-style integrity sweep over the physical pages (bypassing the
   buffer pool, so cached copies cannot mask on-disk damage) plus the WAL
   bookkeeping gathered at open. *)
let verify t =
  let pager = Buffer_pool.pager t.pool in
  let buf = Bytes.create (Pager.page_size pager) in
  let corrupt = ref [] in
  (* every XML column with the docids its rows reference, in docid order *)
  let rows tbl column =
    let open Rx_relational in
    let ci = Option.get (Base_table.column_index tbl.base column) and acc = ref [] in
    let add _ r = match r.(ci) with Value.Xml_ref d -> acc := d :: !acc | _ -> () in
    Base_table.iter add tbl.base;
    List.rev !acc
  in
  let columns =
    List.concat_map
      (fun (table, tbl) -> List.map (fun (c, xc) -> (table, c, xc, rows tbl c)) tbl.xml_columns)
      t.tables
  in
  let count = Pager.page_count pager in
  for page_no = 1 to count - 1 do
    match Pager.read pager page_no buf with
    | () -> ()
    | exception Pager.Corrupt_page _ -> corrupt := page_no :: !corrupt
  done;
  {
    pages_checked = max 0 (count - 1);
    corrupt_pages = List.rev !corrupt;
    wal_records = Rx_wal.Log_manager.record_count t.log;
    wal_torn_bytes = Rx_wal.Log_manager.torn_tail_bytes t.log;
    stale_index_stats =
      List.concat_map
        (fun (_, _, xc, rows) ->
          let docids = List.filter (fun docid -> Doc_store.mem xc.store ~docid) rows in
          List.filter_map
            (fun idx ->
              match Value_index.level_counts idx with
              | Some stored when stored <> Value_index.recount idx xc.store ~docids ->
                  Some (Value_index.def idx).Index_def.name
              | _ -> None)
            xc.indexes)
        columns;
    column_docid_mismatch =
      List.filter_map
        (fun (table, column, xc, rows) ->
          if List.map fst (Doc_store.roots xc.store) = rows then None
          else Some (table ^ "." ^ column))
        columns;
  }

(* --- error surface --- *)

let error_to_string = function
  | Busy { txid; blockers } ->
      Some
        (Printf.sprintf "busy: transaction %d blocked by [%s]" txid
           (String.concat "; " (List.map string_of_int blockers)))
  | Read_only { reason } -> Some (Printf.sprintf "read-only: %s" reason)
  | Unknown_index { kind; name } ->
      Some
        (Printf.sprintf "unknown %s: %s"
           (match kind with
           | `Table -> "table"
           | `Column -> "column"
           | `Index -> "index")
           name)
  | Rx_txn.Lock_manager.Deadlock { victim; cycle } ->
      Some
        (Printf.sprintf "deadlock: victim %d in cycle [%s]" victim
           (String.concat " -> " (List.map string_of_int cycle)))
  | Pager.Corrupt_page { page_no; _ } ->
      Some (Printf.sprintf "corrupt page %d (checksum mismatch)" page_no)
  | Rx_wal.Log_manager.Corrupt_record { lsn } ->
      Some (Printf.sprintf "corrupt WAL record at LSN %Ld" lsn)
  | _ -> None

(* One classification shared by the [rx] exit codes and the rxd wire
   status codes (the stable error table in DESIGN.md):
     1 application error  2 unexpected  3 busy  4 deadlock
     5 read-only          6 corruption *)
let error_code = function
  | Busy _ -> 3
  | Rx_txn.Lock_manager.Deadlock _ -> 4
  | Read_only _ -> 5
  | Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _ -> 6
  | Invalid_argument _ | Failure _ | Unknown_index _ -> 1
  | Rx_xml.Parser.Parse_error _ | Rx_schema.Validator.Validation_error _ -> 1
  | _ -> 2

let error_message e =
  match error_to_string e with
  | Some msg -> msg
  | None -> (
      match e with
      | Invalid_argument msg | Failure msg -> msg
      | Rx_xml.Parser.Parse_error _ ->
          Option.get (Rx_xml.Parser.error_message e)
      | Rx_schema.Validator.Validation_error _ ->
          Option.get (Rx_schema.Validator.error_message e)
      | e -> Printexc.to_string e)

(* --- stats --- *)

type stats = {
  tables : int;
  documents : int;
  xml_records : int;
  node_index_entries : int;
  value_index_entries : int;
  data_pages : int;
  log_bytes : int;
}

let stats (t : t) =
  let documents = ref 0
  and xml_records = ref 0
  and node_entries = ref 0
  and value_entries = ref 0
  and data_pages = ref 0 in
  List.iter
    (fun (_, tbl) ->
      List.iter
        (fun (_, xc) ->
          let s = Doc_store.stats xc.store in
          documents := !documents + s.Doc_store.documents;
          xml_records := !xml_records + s.Doc_store.records;
          node_entries := !node_entries + s.Doc_store.index_entries;
          data_pages := !data_pages + s.Doc_store.data_pages;
          List.iter
            (fun idx -> value_entries := !value_entries + Value_index.entry_count idx)
            xc.indexes)
        tbl.xml_columns)
    t.tables;
  let s =
    {
      tables = List.length t.tables;
      documents = !documents;
      xml_records = !xml_records;
      node_index_entries = !node_entries;
      value_index_entries = !value_entries;
      data_pages = !data_pages;
      log_bytes = Rx_wal.Log_manager.appended_bytes t.log;
    }
  in
  (* mirror the structural numbers as registry gauges so [rx stats] and the
     JSON renderer expose one unified surface *)
  let g name v = Rx_obs.Metrics.(set (gauge t.metrics name) v) in
  g "db.tables" s.tables;
  g "db.documents" s.documents;
  g "db.xml_records" s.xml_records;
  g "db.node_index_entries" s.node_index_entries;
  g "db.value_index_entries" s.value_index_entries;
  g "db.data_pages" s.data_pages;
  g "db.log_bytes" s.log_bytes;
  s

let column_store t ~table ~column =
  (xml_column_exn (table_exn t table) column).store
