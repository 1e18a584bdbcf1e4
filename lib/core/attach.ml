(* Opening a database: storage and crash recovery, then the logical state
   (dictionary, schemas, tables, indexes) rebuilt from the persisted
   catalog — at open and after every replica refresh. *)

open Rx_storage
open Rx_xml
open Rx_xmlstore
open Rx_relational
open Rx_xindex
open Engine

let create_in_memory ?page_size ?(record_threshold = 2048)
    ?(config = default_config) () =
  let metrics = Rx_obs.Metrics.create () in
  let pool =
    Buffer_pool.create ~metrics ~capacity:2048
      (Pager.create_in_memory ~metrics ?page_size ())
  in
  let log = Rx_wal.Log_manager.create_in_memory ~metrics () in
  let txn_mgr = install_txn pool log in
  let t =
    handle ~dir:None ~replica:false ~record_threshold ~config ~metrics ~pool
      ~log ~txn_mgr ~catalog:(Catalog.create pool)
  in
  apply_config t;
  t

(* (Re)build the in-memory logical state — dictionary, schemas, tables,
   value/text indexes, schema bindings and the next_docid high-water —
   from the persistent catalog entries. Corruption goes to [degrade]; a
   damaged table is skipped so the rest stays readable. *)
let attach_logical t entries =
  let degrade = degrade t in
  let record_threshold = t.record_threshold in
  t.dict <-
    (match
       List.find_map
         (function Catalog.Dictionary d -> Some d | _ -> None)
         entries
     with
    | Some d -> Name_dict.restore d
    | None -> Name_dict.create ());
  t.dict_persisted <- Name_dict.size t.dict;
  t.schemas <-
    List.filter_map
      (function
        | Catalog.Schema { name; binary } ->
            Some (name, Rx_schema.Compiled.decode binary)
        | _ -> None)
      entries;
  let dict = t.dict in
  let pool = t.pool in
  (* rebuild tables *)
  let next_tid = ref 0 in
  let tables =
    List.filter_map
      (function
        | Catalog.Table { name; columns; heap_header; docid_index_meta; next_docid }
          -> (
          try
            let base =
              Base_table.attach pool ~columns:(Array.of_list columns) ~heap_header
                ~docid_index_meta
            in
            let xml_columns =
              List.filter_map
                (function
                  | Catalog.Xml_column
                      { table; column; heap_header; node_index_meta }
                    when table = name ->
                      let store =
                        Doc_store.attach ~record_threshold pool dict
                          ~heap_header ~index_meta:node_index_meta
                      in
                      Some (column, new_column store)
                  | _ -> None)
                entries
            in
            incr next_tid;
            Some (name, { tname = name; tid = !next_tid; base; xml_columns; next_docid })
          with
          | (Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _) as e ->
              (* skip the damaged table; the rest of the catalog stays
                 readable through the degraded handle *)
              degrade e;
              None)
        | _ -> None)
      entries
  in
  t.tables <- tables;
  (* value indexes and schema bindings *)
  List.iter
    (fun entry ->
      try
        match entry with
      | Catalog.Xml_index { table; column; name; path; key_type; tree_meta } -> (
          match find_table t table with
          | Some tbl ->
              let xc = xml_column_exn tbl column in
              let key_type =
                match Index_def.key_type_of_string key_type with
                | Some kt -> kt
                | None -> invalid_arg "Database: bad key type in catalog"
              in
              let def = Index_def.make ~name ~path ~key_type in
              let idx = Value_index.attach pool dict def ~meta_page:tree_meta in
              Value_index.hook idx xc.store;
              xc.indexes <- xc.indexes @ [ idx ]
          | None -> ())
      | Catalog.Index_generation { table; column; name; generation; build_ms; prior }
        -> (
          match find_table t table with
          | Some tbl -> (
              let xc = xml_column_exn tbl column in
              match
                List.find_opt
                  (fun idx -> (Value_index.def idx).Index_def.name = name)
                  xc.indexes
              with
              | Some idx ->
                  Value_index.set_generation idx generation;
                  let g_prior =
                    match prior with
                    | None -> None
                    | Some (pg, meta) ->
                        (* the retained prior stays hooked so it keeps
                           absorbing DML while rollback is possible *)
                        let p =
                          Value_index.attach pool dict (Value_index.def idx)
                            ~meta_page:meta
                        in
                        Value_index.set_generation p pg;
                        Value_index.hook p xc.store;
                        Some p
                  in
                  xc.gens <-
                    (name, { g_build_ms = build_ms; g_prior })
                    :: List.remove_assoc name xc.gens
              | None -> ())
          | None -> ())
      | Catalog.Text_index { table; column; name; tree_meta } -> (
          match find_table t table with
          | Some tbl ->
              let xc = xml_column_exn tbl column in
              let ti = Rx_fulltext.Text_index.attach pool ~meta_page:tree_meta in
              Rx_fulltext.Text_index.hook ti xc.store;
              xc.text_indexes <- xc.text_indexes @ [ (name, ti) ]
          | None -> ())
      | Catalog.Schema_binding { table; column; schema } -> (
          match (find_table t table, List.assoc_opt schema t.schemas) with
          | Some tbl, Some compiled ->
              let xc = xml_column_exn tbl column in
              xc.schema <- Some compiled;
              xc.schema_name <- Some schema
          | _ -> ())
      | _ -> ()
      with (Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _) as e ->
        degrade e)
    entries;
  (* [next_docid] is only persisted at checkpoints, so after a crash the
     catalog copy may lag behind docids already durable in base tables;
     reissuing one would alias two documents. Re-derive the high-water
     mark from the data itself. *)
  if t.degraded = None then
    try
      List.iter
        (fun (_, tbl) ->
          let maxd = ref 0 in
          Base_table.iter
            (fun docid _ -> if docid > !maxd then maxd := docid)
            tbl.base;
          if !maxd + 1 > tbl.next_docid then tbl.next_docid <- !maxd + 1)
        t.tables
    with (Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _) as e ->
      degrade e

(* throwaway in-memory catalog for handles whose real catalog is
   unreadable (corrupt) or does not exist yet (fresh database or replica) *)
let placeholder_catalog () =
  Catalog.create (Buffer_pool.create ~capacity:4 (Pager.create_in_memory ()))

(* Attach the persistent catalog and rebuild the logical state from it.
   The catalog heap is always the first structure created: its header
   page is page 1. A replica reopened before its first applied batch ever
   flushed may not have a page 1 yet — its catalog arrives from the
   leader later, via [refresh_replica]. An unreadable catalog degrades the
   handle and keeps the current one: a degraded handle never saves, so
   nothing is lost. *)
let attach_catalog t =
  if (not t.replica) || Pager.page_count (Buffer_pool.pager t.pool) > 1 then
    match
      let c = Catalog.attach t.pool ~header_page:1 in
      (c, Catalog.entries c)
    with
    | c, entries ->
        t.catalog <- c;
        attach_logical t entries
    | exception ((Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _) as e)
      ->
        degrade t e

let open_dir_impl ~replica ?page_size ?(record_threshold = 2048)
    ?(config = default_config) dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let data = Filename.concat dir "data.rxdb" in
  let wal = Filename.concat dir "wal.rxlog" in
  let fresh = not (Sys.file_exists data) in
  (* an unspecified page size adopts an existing file's geometry rather
     than failing on a mismatch with the default — a database created at
     1024 (or restored/replicated at the source's size) reopens plainly *)
  let page_size =
    match page_size with
    | Some _ -> page_size
    | None -> if fresh then None else Some (Pager.stored_page_size data)
  in
  let metrics = Rx_obs.Metrics.create () in
  let pool =
    Buffer_pool.create ~metrics ~capacity:2048 (Pager.open_file ~metrics ?page_size data)
  in
  let log =
    try Rx_wal.Log_manager.open_file ~metrics wal
    with e ->
      Pager.close (Buffer_pool.pager pool);
      raise e
  in
  let recovery =
    if fresh then Ok None
    else
      match Rx_wal.Recovery.run log pool with
      | report -> Ok (Some report)
      | exception ((Pager.Corrupt_page _ | Rx_wal.Log_manager.Corrupt_record _) as e)
        ->
          (* partial redo may sit in the cache; reads must see the disk
             truth, not a half-recovered image *)
          (try Buffer_pool.drop_cache pool with _ -> ());
          Error e
  in
  let txn_mgr = install_txn pool log in
  let t =
    handle ~dir:(Some dir) ~replica ~record_threshold ~config ~metrics ~pool
      ~log ~txn_mgr ~catalog:(placeholder_catalog ())
  in
  (match recovery with
  | Ok report ->
      t.last_recovery <- report;
      (* the surviving WAL span may already contain transactions (recovery
         keys loser detection on txids) — new ids must not collide with
         them *)
      Option.iter
        (fun r -> Rx_txn.Transaction.seed_txids txn_mgr r.Rx_wal.Recovery.max_txid)
        report
  | Error e -> degrade t e);
  if not fresh then attach_catalog t
  else if not replica then
    (* bootstrap inside a committed transaction: the catalog heap's pages
       must not look like loser updates (txid 0) to a later recovery. A
       fresh replica instead starts truly empty: the catalog (page 1) and
       every other page arrive through the leader's WAL stream; a local
       bootstrap would stamp pages with home-grown LSNs that alias the
       leader's. *)
    t.catalog <- in_txn t (fun () -> Catalog.create pool);
  apply_config t;
  t

let open_dir ?page_size ?record_threshold ?config dir =
  let t = open_dir_impl ~replica:false ?page_size ?record_threshold ?config dir in
  (* a directory with a replication cursor belongs to a replica: writing to
     it would fork the timeline the cursor points into. [rxd promote]
     removes the cursor and makes the directory a normal database. *)
  if Sys.file_exists (replica_cursor_path dir) && t.degraded = None then
    t.degraded <-
      Some "replica directory (run [rxd promote] to make it writable)";
  t

let open_replica ?page_size ?record_threshold ?config dir =
  open_dir_impl ~replica:true ?page_size ?record_threshold ?config dir

(* Re-read the physically-replicated catalog and swap the in-memory
   logical state under it. Called (with the engine lock held) after a
   replica applies a batch: any DDL or checkpoint the leader performed
   lives in the replicated catalog pages. *)
let refresh_replica t =
  if not t.replica then invalid_arg "Database.refresh_replica: not a replica";
  attach_catalog t;
  invalidate_plans t;
  apply_config t

