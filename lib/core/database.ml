open Rx_storage
open Rx_xml
open Rx_xmlstore
open Rx_relational
open Rx_xindex

(* Generational metadata for one named value index. The prior generation
   is retained after an online rebuild: it stays hooked to the store's
   observers (so it keeps absorbing DML and a later [Index.rollback]
   restores a *correct* index) but leaves [indexes], so the planner never
   sees it. Dropped priors leak their pages — reclamation is lazy
   engine-wide, same as [drop]. *)
type gen_state = {
  mutable g_build_ms : int; (* wall-clock of the last completed build *)
  mutable g_prior : Value_index.t option;
}

type xml_column = {
  store : Doc_store.t;
  mutable indexes : Value_index.t list;
  mutable gens : (string * gen_state) list; (* per index name *)
  mutable side_logs : (string * Index_build.t) list; (* in-flight builds *)
  mutable text_indexes : (string * Rx_fulltext.Text_index.t) list;
  mutable schema : Rx_schema.Compiled.t option;
  mutable schema_name : string option;
  (* MVCC overlay: [store] always holds the current committed version;
     [mvcc] stages uncommitted writes and retains pre-images for active
     snapshots; [created] maps docid -> commit timestamp at which the
     current version in [store] became current (absent = "since forever").
     Both are populated only while explicit transactions are active and
     purged when the last one ends. *)
  mutable mvcc : Rx_txn.Mvcc_store.t option;
  created : (int, int) Hashtbl.t;
}

type table = {
  tname : string;
  tid : int; (* lock-resource table id, stable for this process *)
  base : Base_table.t;
  xml_columns : (string * xml_column) list;
  mutable next_docid : int;
}

(* a transaction's private view of one (table, column, docid) *)
type local_state =
  | L_staged of {
      m : Rx_txn.Mvcc_store.t;
      s : Rx_txn.Mvcc_store.staged;
      replay : bool; (* working copy of an existing doc: replay ops at commit *)
    }
  | L_deleted

type pending =
  | P_insert of {
      p_table : string;
      p_docid : int;
      p_row : Value.t array;
      p_xml : (string * Rx_txn.Mvcc_store.staged) list;
    }
  | P_delete of { p_table : string; p_docid : int }
  | P_update_text of {
      p_table : string;
      p_column : string;
      p_docid : int;
      p_node : Node_id.t;
      p_content : string;
    }
  | P_insert_fragment of {
      p_table : string;
      p_column : string;
      p_docid : int;
      p_pos : Doc_store.position;
      p_tokens : Token.t list;
    }
  | P_delete_node of {
      p_table : string;
      p_column : string;
      p_docid : int;
      p_node : Node_id.t;
    }
  | P_drop_index of { p_table : string; p_column : string; p_name : string }

type txn = {
  tx : Rx_txn.Transaction.t;
  snapshot : int; (* commit timestamp visible to this transaction's reads *)
  mutable pending : pending list; (* newest first; replayed in order at commit *)
  locals : (string * string * int, local_state) Hashtbl.t;
  mutable txn_open : bool;
}

exception Busy of { txid : int; blockers : int list }
exception Read_only of { reason : string }

exception
  Unknown_index of { kind : [ `Table | `Column | `Index ]; name : string }

let () =
  Printexc.register_printer (function
    | Read_only { reason } ->
        Some (Printf.sprintf "Database.Read_only(%s)" reason)
    | Unknown_index { kind; name } ->
        let k =
          match kind with
          | `Table -> "table"
          | `Column -> "column"
          | `Index -> "index"
        in
        Some (Printf.sprintf "Database.Unknown_index(%s %s)" k name)
    | _ -> None)

(* progress of one in-flight online index build (see [Index]); successful
   builds remove their entry, failed ones leave it for [Index.status] *)
type build_progress = {
  b_table : string;
  b_column : string;
  b_name : string;
  b_path : string;
  b_key_type : Index_def.key_type;
  mutable b_generation : int; (* the generation under construction *)
  mutable b_total : int;
  mutable b_scanned : int;
  mutable b_pending : int; (* side-log backlog at the last slice *)
  mutable b_state : [ `Scanning | `Live | `Failed of string ];
}

type config = {
  auto_checkpoint : bool;
  checkpoint_wal_bytes : int;
  checkpoint_wal_records : int;
  readahead : int;
  plan_cache_capacity : int;
  commit_window_us : int;
  wal_buffer_bytes : int;
  parallelism : int;
  parallel_scan_min_pages : int;
}

let default_config =
  {
    auto_checkpoint = true;
    checkpoint_wal_bytes = 4 * 1024 * 1024;
    checkpoint_wal_records = 50_000;
    readahead = 8;
    plan_cache_capacity = 128;
    commit_window_us = 0;
    wal_buffer_bytes = 256 * 1024;
    (* 0 = auto (one worker per core); RX_PARALLELISM seeds the default so
       test/CI runs can force multi-domain execution engine-wide *)
    parallelism =
      (match Sys.getenv_opt "RX_PARALLELISM" with
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some n when n >= 0 -> n
          | _ -> 0)
      | None -> 0);
    parallel_scan_min_pages = 64;
  }

type plan_info = { description : string; uses_index : bool; exact : bool }

(* a compiled query bound to the catalog state that compiled it; [p_epoch]
   must match the database's [ddl_epoch] for the plan to be servable *)
type prepared = {
  p_table : string;
  p_column : string;
  p_xpath : string;
  p_ns_env : (string * string) list; (* canonical: deduped, sorted *)
  p_query : Rx_quickxscan.Query.t;
  p_plan : Planner.t;
  p_info : plan_info;
  p_epoch : int;
  (* the QuickXScan machine, built once and reset between documents; lives
     on the handle so repeated executions skip engine construction *)
  mutable p_ev : Executor.evaluator option;
}

type t = {
  pool : Buffer_pool.t;
  log : Rx_wal.Log_manager.t;
  mutable dict : Name_dict.t; (* swapped on replica refresh *)
  txn_mgr : Rx_txn.Transaction.manager;
  mutable catalog : Catalog.t; (* re-attached on replica refresh *)
  dir : string option; (* on-disk home; None for in-memory *)
  mutable replica : bool; (* applying a leader's WAL: reads only *)
  record_threshold : int;
  metrics : Rx_obs.Metrics.t;
  tracer : Rx_obs.Trace.t;
  mutable tables : (string * table) list;
  mutable schemas : (string * Rx_schema.Compiled.t) list;
  mutable commit_ts : int; (* advances on every versioned commit *)
  mutable active_txns : txn list;
  mutable config : config;
  mutable checkpointing : bool; (* re-entrancy guard: checkpoint runs in_txn *)
  mutable ckpt_mark : int; (* appended_bytes at the last checkpoint *)
  mutable degraded : string option; (* corruption found at open: read-only *)
  mutable last_recovery : Rx_wal.Recovery.report option;
  mutable ddl_epoch : int; (* bumped on any DDL; stale plans recompile *)
  mutable dict_persisted : int; (* dict size at the last catalog save *)
  mutable plan_cache :
    (string * string * string * (string * string) list, prepared) Rx_util.Lru.t;
  mutable builds : build_progress list; (* in-flight/failed online builds *)
  (* the engine lock [exclusively] takes; commits made under it leave
     their durability waits in [deferred] (see [finish_commit]) *)
  write_lock : Mutex.t;
  mutable deferred : (unit -> unit) list option;
}

type match_ = { docid : int; node : Node_id.t }

type result = {
  matches : match_ list;
  plan : plan_info;
  serialize : match_ -> string;
  profile : (string * int) list;
}

(* --- lifecycle --- *)

let install_txn pool log =
  let mgr = Rx_txn.Transaction.create_manager ~log ~pool () in
  Rx_txn.Transaction.install_journal mgr;
  (* register session counters eagerly so they are visible in [rx stats]
     even before the first explicit transaction *)
  let metrics = Buffer_pool.metrics pool in
  List.iter
    (fun n -> ignore (Rx_obs.Metrics.counter metrics n))
    [
      "txn.begin";
      "txn.commit";
      "txn.abort";
      "plancache.hits";
      "plancache.misses";
      "plancache.invalidations";
      "exec.parallel_scans";
      "exec.parallel_chunks";
      "exec.parallel_parses";
      "xindex.range_merges";
      "xindex.range_merge_fallbacks";
      "repl.fetches";
      "repl.bytes_shipped";
    ];
  mgr

(* push the config's tuning knobs down to the layers that own them: scan
   readahead to every column store, the commit window and write-buffer
   limit to the WAL *)
let apply_config t =
  List.iter
    (fun (_, tbl) ->
      List.iter
        (fun (_, xc) -> Doc_store.set_readahead xc.store t.config.readahead)
        tbl.xml_columns)
    t.tables;
  Rx_wal.Log_manager.set_commit_window t.log t.config.commit_window_us;
  Rx_wal.Log_manager.set_buffer_limit t.log t.config.wal_buffer_bytes

let config t = t.config

(* resolved worker count for parallel operators: the explicit knob, or one
   per core when the knob is 0 (auto) *)
let effective_parallelism t =
  match t.config.parallelism with
  | 0 -> Domain.recommended_domain_count ()
  | n -> max 1 n

let set_config t config =
  let resize = config.plan_cache_capacity <> t.config.plan_cache_capacity in
  t.config <- config;
  (* the LRU has no resize: recreate it (dropping cached plans) when the
     capacity actually changed *)
  if resize then
    t.plan_cache <- Rx_util.Lru.create ~capacity:config.plan_cache_capacity;
  apply_config t

(* the one handle constructor: an empty logical state over opened storage *)
let handle ~dir ~replica ~record_threshold ~config ~metrics ~pool ~log ~txn_mgr
    ~catalog =
  {
    pool;
    log;
    dict = Name_dict.create ();
    txn_mgr;
    catalog;
    dir;
    replica;
    record_threshold;
    metrics;
    tracer = Rx_obs.Trace.create ();
    tables = [];
    schemas = [];
    commit_ts = 0;
    active_txns = [];
    config;
    checkpointing = false;
    ckpt_mark = 0;
    degraded = None;
    last_recovery = None;
    ddl_epoch = 0;
    dict_persisted = 0;
    plan_cache = Rx_util.Lru.create ~capacity:config.plan_cache_capacity;
    builds = [];
    write_lock = Mutex.create ();
    deferred = None;
  }

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

let ensure_writable t =
  if t.replica then
    raise
      (Read_only
         { reason = "replica: serving snapshots (promote to enable writes)" });
  match t.degraded with
  | Some reason -> raise (Read_only { reason })
  | None -> ()

let health t =
  match t.degraded with None -> `Healthy | Some reason -> `Degraded reason

let last_recovery t = t.last_recovery
let is_replica t = t.replica
let replica_cursor_path dir = Filename.concat dir "replica.lsn"

(* WAL archiving is switched on by the presence of the archive directory
   next to the data files ([rx init --archive], or a mkdir at any time);
   consulted at every checkpoint, so enabling it needs no reopen. *)
let archive_path dir = Filename.concat dir "archive"

let archive_dir t =
  match t.dir with
  | Some dir ->
      let a = archive_path dir in
      if Rx_wal.Archive.enabled a then Some a else None
  | None -> None

let dict t = t.dict
let buffer_pool t = t.pool
let metrics t = t.metrics
let tracer t = t.tracer

let find_table t name = List.assoc_opt name t.tables

let table_exn t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> invalid_arg (Printf.sprintf "Database: no table %s" name)

let xml_column_exn tbl column =
  match List.assoc_opt column tbl.xml_columns with
  | Some xc -> xc
  | None ->
      invalid_arg (Printf.sprintf "Database: %s has no XML column %s" tbl.tname column)

(* --- catalog persistence --- *)

let catalog_entries t =
  let dict_entry = Catalog.Dictionary (Name_dict.to_list t.dict) in
  let table_entries =
    List.concat_map
      (fun (name, tbl) ->
        Catalog.Table
          {
            name;
            columns = Array.to_list (Base_table.columns tbl.base);
            heap_header = Base_table.heap_header tbl.base;
            docid_index_meta = Base_table.docid_index_meta tbl.base;
            next_docid = tbl.next_docid;
          }
        :: List.concat_map
             (fun (cname, xc) ->
               Catalog.Xml_column
                 {
                   table = name;
                   column = cname;
                   heap_header = Doc_store.heap_header xc.store;
                   node_index_meta = Doc_store.index_meta xc.store;
                 }
               :: (match xc.schema_name with
                  | Some schema ->
                      [ Catalog.Schema_binding { table = name; column = cname; schema } ]
                  | None -> [])
               @ List.map
                   (fun idx ->
                     let def = Value_index.def idx in
                     Catalog.Xml_index
                       {
                         table = name;
                         column = cname;
                         name = def.Index_def.name;
                         path = Rx_xpath.Ast.to_string def.Index_def.path;
                         key_type =
                           Index_def.key_type_to_string def.Index_def.key_type;
                         tree_meta = Value_index.meta_page idx;
                       })
                   xc.indexes
               @ List.map
                   (fun (iname, ti) ->
                     Catalog.Text_index
                       {
                         table = name;
                         column = cname;
                         name = iname;
                         tree_meta = Rx_fulltext.Text_index.meta_page ti;
                       })
                   xc.text_indexes
               (* generation metadata rides after the [Xml_index] entries
                  it annotates ([attach_logical] is one ordered pass) *)
               @ List.filter_map
                   (fun idx ->
                     let iname = (Value_index.def idx).Index_def.name in
                     match List.assoc_opt iname xc.gens with
                     | None -> None
                     | Some gs ->
                         Some
                           (Catalog.Index_generation
                              {
                                table = name;
                                column = cname;
                                name = iname;
                                generation = Value_index.generation idx;
                                build_ms = gs.g_build_ms;
                                prior =
                                  Option.map
                                    (fun p ->
                                      ( Value_index.generation p,
                                        Value_index.meta_page p ))
                                    gs.g_prior;
                              }))
                   xc.indexes)
             tbl.xml_columns)
      t.tables
  in
  let schema_entries =
    List.map
      (fun (name, compiled) ->
        Catalog.Schema { name; binary = Rx_schema.Compiled.encode compiled })
      t.schemas
  in
  (dict_entry :: schema_entries) @ table_entries

(* The one commit rule, shared by [in_txn_as] and [commit]: append the
   Commit record and release locks, then hand the durability wait to the
   enclosing [exclusively] — which runs it after releasing the engine
   lock, so concurrent committers share group-commit fsyncs — or, outside
   one, wait now. Releasing locks before the wait is sound because any
   later flush covers this record's LSN. *)
let finish_commit t tx =
  let _, await = Rx_txn.Transaction.precommit tx in
  Rx_obs.Metrics.(incr (counter t.metrics "txn.commit"));
  match t.deferred with
  | Some waits -> t.deferred <- Some (await :: waits)
  | None -> await ()

(* The auto-commit wrapper: [f] runs as one committed micro-transaction.
   Every embedded auto-commit operation, catalog save and checkpoint goes
   through here. After the commit it persists a grown name dictionary and
   evaluates the auto-checkpoint trigger — which is why the four
   functions are one recursive group. *)
let rec in_txn_as : 'a. t -> (Rx_txn.Transaction.t -> 'a) -> 'a =
 fun t f ->
  let txn = Rx_txn.Transaction.begin_txn t.txn_mgr in
  match Rx_txn.Transaction.run_as txn (fun () -> f txn) with
  | result ->
      finish_commit t txn;
      (* A transaction that interned new element/attribute names leaves
         documents on disk whose qname ids only the in-memory dictionary
         can resolve; persist the catalog right after such a commit, or a
         crash — or a replica applying that very commit — holds unreadable
         documents. Interning happens once per distinct name over the
         database's lifetime, so steady-state commits skip this. *)
      if Name_dict.size t.dict > t.dict_persisted then save_catalog t;
      maybe_auto_checkpoint t;
      result
  | exception e ->
      ignore (Rx_txn.Transaction.abort txn);
      raise e

and save_catalog t =
  (* set the mark first: the save itself runs [in_txn_as], whose
     post-commit dictionary check must not re-enter here *)
  t.dict_persisted <- Name_dict.size t.dict;
  in_txn_as t (fun _ -> Catalog.save t.catalog (catalog_entries t))

and do_checkpoint t ~counter_name =
  t.checkpointing <- true;
  Fun.protect
    ~finally:(fun () -> t.checkpointing <- false)
    (fun () ->
      Rx_obs.Trace.with_span t.tracer "db.checkpoint" (fun () ->
          save_catalog t;
          Rx_wal.Recovery.checkpoint ?archive:(archive_dir t) t.log t.pool;
          t.ckpt_mark <- Rx_wal.Log_manager.appended_bytes t.log;
          Rx_obs.Metrics.(incr (counter t.metrics counter_name))))

(* Fires after every auto-commit operation, embedded or served (not after
   an explicit [commit]): checkpoint once the log has grown past the
   configured thresholds, provided no transaction is in flight (a
   checkpoint truncates the log, so losers must not have live records
   there). *)
and maybe_auto_checkpoint t =
  if
    t.config.auto_checkpoint && (not t.checkpointing) && t.degraded = None
    && (not t.replica)
    && t.active_txns = []
    && (Rx_wal.Log_manager.appended_bytes t.log - t.ckpt_mark
        >= t.config.checkpoint_wal_bytes
       || Rx_wal.Log_manager.record_count t.log >= t.config.checkpoint_wal_records
       )
  then do_checkpoint t ~counter_name:"ckpt.auto"

let in_txn t f = in_txn_as t (fun _ -> f ())

(* every DDL change goes through here: cached plans compiled before the
   bump no longer match [ddl_epoch] and recompile on next use *)
let invalidate_plans t = t.ddl_epoch <- t.ddl_epoch + 1

let checkpoint t =
  ensure_writable t;
  do_checkpoint t ~counter_name:"ckpt.manual"

(* [close] lives below the session machinery: it rolls back any
   transaction still open *)

(* corruption found at open or on replica refresh degrades the handle to
   read-only instead of failing: the data is damaged, but the surviving
   parts stay readable and [verify] can localize the problem *)
let degrade t e =
  if t.degraded = None then t.degraded <- Some (Printexc.to_string e)

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
                      Some
                        ( column,
                          {
                            store;
                            indexes = [];
                            gens = [];
                            side_logs = [];
                            text_indexes = [];
                            schema = None;
                            schema_name = None;
                            mvcc = None;
                            created = Hashtbl.create 16;
                          } )
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
  let log = Rx_wal.Log_manager.open_file ~metrics wal in
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

(* --- DDL --- *)

let create_table t ~name ~columns =
  ensure_writable t;
  if find_table t name <> None then
    invalid_arg (Printf.sprintf "Database: table %s already exists" name);
  if columns = [] then invalid_arg "Database: a table needs at least one column";
  in_txn t (fun () ->
      let base = Base_table.create t.pool ~columns:(Array.of_list columns) in
      let xml_columns =
        List.filter_map
          (fun (cname, ty) ->
            if ty = Value.T_xml then
              Some
                ( cname,
                  {
                    store =
                      Doc_store.create ~record_threshold:t.record_threshold t.pool
                        t.dict;
                    indexes = [];
                    gens = [];
                    side_logs = [];
                    text_indexes = [];
                    schema = None;
                    schema_name = None;
                    mvcc = None;
                    created = Hashtbl.create 16;
                  } )
            else None)
          columns
      in
      let tbl =
        { tname = name; tid = List.length t.tables + 1; base; xml_columns; next_docid = 1 }
      in
      List.iter
        (fun (_, xc) -> Doc_store.set_readahead xc.store t.config.readahead)
        xml_columns;
      t.tables <- t.tables @ [ (name, tbl) ];
      tbl)
  |> fun tbl ->
  invalidate_plans t;
  (* DDL is durable immediately: the catalog rewrite is WAL-logged, so a
     crash before the next checkpoint still replays the new table *)
  save_catalog t;
  tbl

let table = find_table
let list_tables t = List.map fst t.tables

let register_schema t ~name ~xsd =
  ensure_writable t;
  let model = Rx_schema.Schema_model.parse_xsd t.dict xsd in
  let compiled = Rx_schema.Compiled.compile t.dict model in
  t.schemas <- (name, compiled) :: List.remove_assoc name t.schemas;
  invalidate_plans t;
  save_catalog t

let bind_schema t ~table ~column ~schema =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match List.assoc_opt schema t.schemas with
  | Some compiled ->
      xc.schema <- Some compiled;
      xc.schema_name <- Some schema;
      invalidate_plans t;
      save_catalog t
  | None -> invalid_arg (Printf.sprintf "Database: no schema %s" schema)

(* XPath value-index DDL lives in the [Index] lifecycle module below the
   session machinery: every build is online (side-log absorbed, swapped in
   at a quiesce point) and generational. *)

let create_text_index t ~table ~column ~name =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  if List.mem_assoc name xc.text_indexes then
    invalid_arg (Printf.sprintf "Database: text index %s already exists" name);
  in_txn t (fun () ->
      let ti = Rx_fulltext.Text_index.create t.pool in
      Base_table.iter
        (fun docid _ ->
          if Doc_store.mem xc.store ~docid then
            Doc_store.iter_records xc.store ~docid (fun ~rid ~record ->
                Rx_fulltext.Text_index.index_record ti ~docid ~rid ~record))
        tbl.base;
      Rx_fulltext.Text_index.hook ti xc.store;
      xc.text_indexes <- xc.text_indexes @ [ (name, ti) ]);
  invalidate_plans t;
  save_catalog t

let text_index_exn xc =
  match xc.text_indexes with
  | (_, ti) :: _ -> ti
  | [] -> invalid_arg "Database: column has no text index"

let text_search t ~table ~column ?(mode = `All) query =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let ti = text_index_exn xc in
  let terms = Rx_fulltext.Text_index.tokenize query in
  match mode with
  | `All -> Rx_fulltext.Text_index.docs_with_all ti ~terms
  | `Any -> Rx_fulltext.Text_index.docs_with_any ti ~terms

let text_score t ~table ~column ~docid query =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let ti = text_index_exn xc in
  List.fold_left
    (fun acc term -> acc + Rx_fulltext.Text_index.doc_term_count ti ~term ~docid)
    0
    (List.sort_uniq compare (Rx_fulltext.Text_index.tokenize query))

(* --- sessions, locking and the MVCC overlay --- *)

let doc_resource tbl docid = Rx_txn.Resource.Document { table = tbl.tid; docid }

let node_resource tbl docid node =
  Rx_txn.Resource.Node { table = tbl.tid; docid; node }

let ensure_mvcc t xc =
  match xc.mvcc with
  | Some m -> m
  | None ->
      (* created under its own (immediately committed) transaction so the
         staging store's header pages never belong to an explicit
         transaction's rollback *)
      let m =
        in_txn t (fun () ->
            Rx_txn.Mvcc_store.create ~record_threshold:t.record_threshold t.pool
              t.dict)
      in
      xc.mvcc <- Some m;
      m

let find_active t txid =
  List.find_opt (fun x -> Rx_txn.Transaction.txid x.tx = txid) t.active_txns

(* once the last explicit transaction ends nothing can read an old
   version anymore: drop retained versions and creation timestamps *)
let maybe_purge t =
  if t.active_txns = [] then
    List.iter
      (fun (_, tbl) ->
        List.iter
          (fun (_, xc) ->
            (match xc.mvcc with
            | Some m -> Rx_txn.Mvcc_store.clear m
            | None -> ());
            Hashtbl.reset xc.created)
          tbl.xml_columns)
      t.tables

let begin_txn t =
  ensure_writable t;
  let tx = Rx_txn.Transaction.begin_txn t.txn_mgr in
  let txn =
    { tx; snapshot = t.commit_ts; pending = []; locals = Hashtbl.create 16; txn_open = true }
  in
  t.active_txns <- txn :: t.active_txns;
  Rx_obs.Metrics.(incr (counter t.metrics "txn.begin"));
  txn

let txn_id txn = Rx_txn.Transaction.txid txn.tx
let txn_active txn = txn.txn_open

let ensure_txn_open txn =
  if not txn.txn_open then invalid_arg "Database: transaction is not open"

(* --- DROP XML INDEX --- *)

let has_index xc name =
  List.exists (fun idx -> (Value_index.def idx).Index_def.name = name) xc.indexes

let do_drop_index t xc name =
  let dropped, kept =
    List.partition
      (fun idx -> (Value_index.def idx).Index_def.name = name)
      xc.indexes
  in
  (* detach maintenance observers; B+tree pages are not reclaimed
     (deletion is lazy engine-wide) *)
  List.iter (fun idx -> Value_index.unhook idx xc.store) dropped;
  (* a retained prior generation goes with its name *)
  (match List.assoc_opt name xc.gens with
  | Some { g_prior = Some p; _ } -> Value_index.unhook p xc.store
  | _ -> ());
  xc.gens <- List.remove_assoc name xc.gens;
  xc.indexes <- kept;
  invalidate_plans t

(* does [txn] hold a staged index drop for (table, column)? *)
let txn_staged_drop txn ~table ~column =
  List.exists
    (function
      | P_drop_index { p_table; p_column; _ } ->
          p_table = table && p_column = column
      | _ -> false)
    txn.pending

let rollback t txn =
  if txn.txn_open then begin
    txn.txn_open <- false;
    t.active_txns <- List.filter (fun x -> x != txn) t.active_txns;
    (* logical rollback: staged versions live only in the staging store, so
       compensating deletes (attributed to this transaction in the WAL)
       restore the exact pre-transaction state without desyncing any
       store's in-memory bookkeeping *)
    ignore
      (Rx_txn.Transaction.abort
         ~undo:(fun () ->
           Hashtbl.iter
             (fun _ st ->
               match st with
               | L_staged { m; s; _ } -> Rx_txn.Mvcc_store.abort m [ s ]
               | L_deleted -> ())
             txn.locals)
         txn.tx);
    Rx_obs.Metrics.(incr (counter t.metrics "txn.abort"));
    maybe_purge t
  end

(* Acquire [mode] on [resource] for [tx]. A blocked request stays queued
   (its waits-for edges feed deadlock detection) and surfaces as [Busy];
   a waits-for cycle designates a victim: another session transaction is
   wounded (rolled back) and the request retried, otherwise the requester
   itself must abort ([on_self]) and the deadlock is re-raised. *)
let rec acquire_resource t ~on_self tx resource mode =
  match Rx_txn.Transaction.lock_detect tx resource mode with
  | `Granted -> ()
  | `Blocked blockers ->
      raise (Busy { txid = Rx_txn.Transaction.txid tx; blockers })
  | `Deadlock (victim, cycle) ->
      let self = Rx_txn.Transaction.txid tx in
      let wounded =
        victim <> self
        &&
        match find_active t victim with
        | Some v ->
            rollback t v;
            true
        | None -> false
      in
      if wounded then acquire_resource t ~on_self tx resource mode
      else begin
        on_self ();
        raise (Rx_txn.Lock_manager.Deadlock { victim = self; cycle })
      end

let acquire t txn resource mode =
  acquire_resource t ~on_self:(fun () -> rollback t txn) txn.tx resource mode

(* Before the current committed version of [docid] is overwritten or
   deleted at timestamp [new_ts], retain a copy readable by the snapshots
   that could still need it. Published at the timestamp the current
   version became current, so visibility is unchanged for every older
   snapshot. *)
let retain_before_change t xc ~docid ~new_ts =
  if
    t.active_txns <> []
    && Doc_store.mem xc.store ~docid
    && Hashtbl.find_opt xc.created docid <> Some new_ts
  then begin
    let m = ensure_mvcc t xc in
    let old_ts = Option.value ~default:0 (Hashtbl.find_opt xc.created docid) in
    let tokens = Doc_store.tokens xc.store ~docid in
    ignore
      (Rx_txn.Mvcc_store.commit ~at:old_ts m
         [ Rx_txn.Mvcc_store.stage_write m ~docid tokens ])
  end

(* after a delete: older snapshots may still read a retained version, so a
   non-empty chain needs an explicit tombstone at the deletion timestamp *)
let tombstone_after_delete xc ~docid ~ts =
  match xc.mvcc with
  | Some m when Rx_txn.Mvcc_store.tracked m ~docid ->
      ignore
        (Rx_txn.Mvcc_store.commit ~at:ts m [ Rx_txn.Mvcc_store.stage_delete m ~docid ])
  | _ -> ()

let parse_column_doc t xc src =
  match xc.schema with
  | Some compiled -> Rx_schema.Validator.validate_document compiled t.dict src
  | None -> Parser.parse t.dict src

let build_row tbl ~values ~xml docid =
  Array.map
    (fun (cname, ty) ->
      if ty = Value.T_xml then
        if List.mem_assoc cname xml then Value.Xml_ref docid else Value.Null
      else
        match List.assoc_opt cname values with
        | Some v -> v
        | None -> Value.Null)
    (Base_table.columns tbl.base)

(* delete of the committed document [d] in column [cname]: retain the
   pre-image for live snapshots, drop the current version, tombstone the
   chain *)
let delete_column_doc t tbl cname ~d ~ts ~versioned =
  let xc = xml_column_exn tbl cname in
  if versioned then retain_before_change t xc ~docid:d ~new_ts:ts;
  Doc_store.delete_document xc.store ~docid:d;
  Hashtbl.remove xc.created d;
  if versioned then tombstone_after_delete xc ~docid:d ~ts

let delete_row t tbl ~docid ~ts ~versioned =
  match Base_table.fetch_by_docid tbl.base docid with
  | None -> invalid_arg (Printf.sprintf "Database: no row with DocID %d" docid)
  | Some row ->
      Array.iteri
        (fun i v ->
          match v with
          | Value.Xml_ref d ->
              let cname, _ = (Base_table.columns tbl.base).(i) in
              delete_column_doc t tbl cname ~d ~ts ~versioned
          | _ -> ())
        row;
      ignore (Base_table.delete_by_docid tbl.base docid)

(* [update_xml_text] accepts the text node itself or an element node; for
   an element the update targets its first text-node child. Resolution
   happens against the store actually being written (main or staged
   working copy), where the node ids coincide. *)
let text_target ds ~docid node =
  match Doc_store.Cursor.find ds ~docid node with
  | None -> node (* let Doc_store report the missing node *)
  | Some c -> (
      match Doc_store.Cursor.entry c with
      | Record_format.Text _ -> node
      | _ ->
          let rec scan = function
            | None -> node
            | Some ch -> (
                match Doc_store.Cursor.entry ch with
                | Record_format.Text _ -> Doc_store.Cursor.node_id ch
                | _ -> scan (Doc_store.Cursor.next_sibling ds ch))
          in
          scan (Doc_store.Cursor.first_child ds c))

(* replay one staged statement against the current committed state; runs
   inside the committing transaction, so index/full-text observers fire
   here — index maintenance is deferred to commit *)
let apply_pending t ts op =
  let versioned = t.active_txns <> [] in
  match op with
  | P_insert { p_table; p_docid; p_row; p_xml } ->
      let tbl = table_exn t p_table in
      List.iter
        (fun (column, s) ->
          let xc = xml_column_exn tbl column in
          (match (Rx_txn.Mvcc_store.staged_internal s, xc.mvcc) with
          | Some internal, Some m ->
              let tokens =
                Doc_store.tokens (Rx_txn.Mvcc_store.store m) ~docid:internal
              in
              Doc_store.insert_tokens xc.store ~docid:p_docid tokens
          | _ -> ());
          if versioned then Hashtbl.replace xc.created p_docid ts)
        p_xml;
      ignore (Base_table.insert tbl.base ~docid:p_docid p_row)
  | P_delete { p_table; p_docid } ->
      let tbl = table_exn t p_table in
      delete_row t tbl ~docid:p_docid ~ts ~versioned
  | P_update_text { p_table; p_column; p_docid; p_node; p_content } ->
      let tbl = table_exn t p_table in
      let xc = xml_column_exn tbl p_column in
      if versioned then retain_before_change t xc ~docid:p_docid ~new_ts:ts;
      Doc_store.update_text xc.store ~docid:p_docid
        (text_target xc.store ~docid:p_docid p_node)
        p_content;
      if versioned then Hashtbl.replace xc.created p_docid ts
  | P_insert_fragment { p_table; p_column; p_docid; p_pos; p_tokens } ->
      let tbl = table_exn t p_table in
      let xc = xml_column_exn tbl p_column in
      if versioned then retain_before_change t xc ~docid:p_docid ~new_ts:ts;
      ignore (Doc_store.insert_fragment xc.store ~docid:p_docid p_pos p_tokens);
      if versioned then Hashtbl.replace xc.created p_docid ts
  | P_delete_node { p_table; p_column; p_docid; p_node } ->
      let tbl = table_exn t p_table in
      let xc = xml_column_exn tbl p_column in
      if versioned then retain_before_change t xc ~docid:p_docid ~new_ts:ts;
      Doc_store.delete_subtree xc.store ~docid:p_docid p_node;
      if versioned then Hashtbl.replace xc.created p_docid ts
  | P_drop_index { p_table; p_column; p_name } ->
      let tbl = table_exn t p_table in
      let xc = xml_column_exn tbl p_column in
      (* tolerate a concurrent immediate drop between staging and commit *)
      if has_index xc p_name then do_drop_index t xc p_name

(* Replay the staged statements, then commit under [finish_commit]'s
   rule: inside [exclusively] the durability wait runs after the engine
   lock is released, so N committers in flight share ~1 fsync. *)
let commit t txn =
  ensure_txn_open txn;
  txn.txn_open <- false;
  t.active_txns <- List.filter (fun x -> x != txn) t.active_txns;
  let ops = List.rev txn.pending in
  match
    Rx_txn.Transaction.run_as txn.tx (fun () ->
        let ts = t.commit_ts + 1 in
        List.iter (apply_pending t ts) ops;
        (* reclaim staged working storage: every staged handle in
           [locals] is either a consumed insert image or a private
           working copy *)
        Hashtbl.iter
          (fun _ st ->
            match st with
            | L_staged { m; s; _ } -> Rx_txn.Mvcc_store.abort m [ s ]
            | L_deleted -> ())
          txn.locals;
        t.commit_ts <- ts)
  with
  | () ->
      finish_commit t txn.tx;
      (* staged DDL became effective above; make it durable like
         immediate DDL. Likewise a dictionary that grew while this
         transaction's documents were parsed: names live only in the
         catalog, so without a save here a crash — or a replica applying
         this very commit — would hold documents whose qname ids nothing
         can resolve. Interning is once-per-distinct-name over the
         database's lifetime, so steady-state commits skip this. *)
      if
        List.exists (function P_drop_index _ -> true | _ -> false) ops
        || Name_dict.size t.dict > t.dict_persisted
      then save_catalog t;
      maybe_purge t
  | exception e ->
      (* commit replay failed: physically roll back this transaction's
         page updates; the durable state is consistent after reopen
         (recovery treats it as a loser), but this in-memory handle may
         be stale *)
      ignore (Rx_txn.Transaction.abort txn.tx);
      Rx_obs.Metrics.(incr (counter t.metrics "txn.abort"));
      maybe_purge t;
      raise e

let exclusively t f =
  let outcome, waits =
    Mutex.protect t.write_lock (fun () ->
        t.deferred <- Some [];
        let outcome =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        let waits = Option.value t.deferred ~default:[] in
        t.deferred <- None;
        (outcome, List.rev waits))
  in
  let wait () = List.iter (fun w -> w ()) waits in
  match outcome with
  | Ok v -> (v, wait)
  | Error (e, bt) ->
      wait ();
      Printexc.raise_with_backtrace e bt

(* [exclusively] for the handle's self-locking operations, which return
   only once their commits are durable *)
let locked t f =
  let v, wait = exclusively t f in
  wait ();
  v

(* --- online, generational index lifecycle --- *)

(* index DDL resolves names through typed errors (the "small fix" of the
   stable error table: unknown targets are application errors with a
   recognizable shape, not generic failures) *)
let index_table_exn t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> raise (Unknown_index { kind = `Table; name })

let index_column_exn tbl column =
  match List.assoc_opt column tbl.xml_columns with
  | Some xc -> xc
  | None -> raise (Unknown_index { kind = `Column; name = column })

let find_value_index xc name =
  List.find_opt
    (fun idx -> (Value_index.def idx).Index_def.name = name)
    xc.indexes

let gen_state_of xc name =
  match List.assoc_opt name xc.gens with
  | Some gs -> gs
  | None ->
      let gs = { g_build_ms = 0; g_prior = None } in
      xc.gens <- xc.gens @ [ (name, gs) ];
      gs

let find_build t ~table ~column ~name =
  List.find_opt
    (fun b -> b.b_table = table && b.b_column = column && b.b_name = name)
    t.builds

let build_in_flight t ~table ~column ~name =
  match find_build t ~table ~column ~name with
  | Some { b_state = `Scanning; _ } -> true
  | _ -> false

module Index = struct
  type state =
    | Building of { scanned : int; total : int; side_log : int }
    | Live
    | Failed of string

  type info = {
    ix_name : string;
    ix_path : string;
    ix_key_type : Index_def.key_type;
    ix_generation : int;
    ix_state : state;
    ix_entries : int;
    ix_build_ms : int;
    ix_prior_generation : int option;
  }

  type handle = {
    h_progress : build_progress;
    h_result : (info, exn) Stdlib.result option ref;
        (* parked by the build thread *)
    h_thread : Thread.t;
  }

  let live_info xc idx =
    let def = Value_index.def idx in
    let iname = def.Index_def.name in
    let gs = List.assoc_opt iname xc.gens in
    {
      ix_name = iname;
      ix_path = Rx_xpath.Ast.to_string def.Index_def.path;
      ix_key_type = def.Index_def.key_type;
      ix_generation = Value_index.generation idx;
      ix_state = Live;
      ix_entries = Value_index.entry_count idx;
      ix_build_ms = (match gs with Some g -> g.g_build_ms | None -> 0);
      ix_prior_generation =
        (match gs with
        | Some { g_prior = Some p; _ } -> Some (Value_index.generation p)
        | _ -> None);
    }

  let progress_info xc bp =
    {
      ix_name = bp.b_name;
      ix_path = bp.b_path;
      ix_key_type = bp.b_key_type;
      ix_generation = bp.b_generation;
      ix_state =
        (match bp.b_state with
        | `Scanning ->
            Building
              {
                scanned = bp.b_scanned;
                total = bp.b_total;
                side_log = bp.b_pending;
              }
        | `Failed msg -> Failed msg
        | `Live -> Live);
      ix_entries = 0;
      ix_build_ms = 0;
      (* for a rebuild, the generation that will become prior at swap *)
      ix_prior_generation =
        Option.map Value_index.generation (find_value_index xc bp.b_name);
    }

  (* Documents per scan slice and side-log events per drain slice; a load
     slice appends [16 * build_slice] sorted entries, about what a scan
     slice of eight-entry documents yields. Each slice is one critical
     section, so a concurrent write waits out at most one. *)
  let build_slice = 256

  (* The build proper; runs on its own thread. Four phases:
     1. registration (one short critical section): create the new
        generation's empty tree, hook the side log, capture the docid
        snapshot — the side log is live *before* the snapshot is taken, so
        no DML can fall between them;
     2. scan: slices of up to 256 documents, each its own critical section
        — read the records, then extract and encode their entries in
        parallel on the domain pool. Nothing is written; each slice's
        entries are kept as one array;
     3. load ([Index_build.sort_entries], [Index_build.load]): sort the
        entries and fill the empty tree bottom-up, then replay the side log (every DML since registration, in order) —
        both in slices, each its own critical section and micro-
        transaction, so every page is WAL-logged. Replaying the whole log
        over the scanned state is exact: per key the last logged operation
        wins, and a document's scanned state already reflects everything
        logged before its scan. Between slices of every phase the engine
        is free: concurrent queries and writers proceed against the old
        generation;
     4. quiesce (one short critical section): final drain, stop the log,
        swap the new generation into the planner's view, retire the old
        one for rollback, bump the DDL epoch and save the catalog — the
        WAL-logged save is the swap's durability point, so a crash at any
        earlier moment recovers to the old generation and the new tree's
        pages are mere orphans (reclamation is lazy engine-wide). *)
  let run_build ?on_slice t tbl xc ~name ~def bp started =
    let idx, side_log, docids =
      locked t (fun () ->
          in_txn t (fun () ->
              let idx = Value_index.create t.pool t.dict def in
              Value_index.set_generation idx bp.b_generation;
              let sl = Index_build.start idx xc.store in
              xc.side_logs <- xc.side_logs @ [ (name, sl) ];
              let docids = ref [] in
              Base_table.iter
                (fun docid _ ->
                  if Doc_store.mem xc.store ~docid then
                    docids := docid :: !docids)
                tbl.base;
              (idx, sl, List.rev !docids)))
    in
    bp.b_total <- List.length docids;
    let par = effective_parallelism t in
    let dpool = Rx_util.Domain_pool.shared () in
    let slice_no = ref 0 in
    let slice f =
      locked t f;
      bp.b_pending <- Index_build.pending side_log;
      (match on_slice with Some f -> f !slice_no | None -> ());
      incr slice_no
    in
    let rec chunks n = function
      | [] -> []
      | l ->
          let rec take n acc = function
            | rest when n = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | d :: rest -> take (n - 1) (d :: acc) rest
          in
          let chunk, rest = take n [] l in
          chunk :: chunks n rest
    in
    let slices = ref [] in
    List.iter
      (fun ids ->
        slice (fun () ->
            let triples = ref [] in
            List.iter
              (fun docid ->
                Index_build.scanned side_log ~docid;
                (* deleted since the snapshot: the side log recorded it *)
                if Doc_store.mem xc.store ~docid then
                  Doc_store.iter_records xc.store ~docid
                    (fun ~rid ~record ->
                      triples := (docid, rid, record) :: !triples))
              ids;
            let arr = Array.of_list (List.rev !triples) in
            let entries = Array.make (Array.length arr) [] in
            ignore
              (Rx_util.Domain_pool.run_ranges dpool ~parallelism:par
                 (Array.length arr) (fun ~lo ~hi ->
                   for i = lo to hi - 1 do
                     let docid, rid, record = arr.(i) in
                     entries.(i) <-
                       Index_build.entries side_log ~docid ~rid ~record
                   done));
            slices :=
              Array.of_list (List.concat (Array.to_list entries)) :: !slices;
            bp.b_scanned <- bp.b_scanned + List.length ids))
      (chunks build_slice docids);
    let sorted = Index_build.sort_entries (List.rev !slices) in
    slices := [];
    let n = Array.length sorted and per_slice = 16 * build_slice in
    let rec load lo =
      let hi = min n (lo + per_slice) in
      slice (fun () ->
          in_txn t (fun () -> Index_build.load side_log sorted ~lo ~hi));
      if hi < n then load hi
    in
    load 0;
    while Index_build.pending side_log > build_slice do
      slice (fun () ->
          in_txn t (fun () ->
              ignore (Index_build.drain ~max:build_slice side_log)))
    done;
    (* quiesce: the swap itself *)
    locked t (fun () ->
        in_txn t (fun () -> ignore (Index_build.drain side_log));
        Index_build.stop side_log;
        xc.side_logs <- List.filter (fun (n, _) -> n <> name) xc.side_logs;
        bp.b_pending <- 0;
        let gs = gen_state_of xc name in
        (match find_value_index xc name with
        | Some old ->
            (* retire the old generation: it stays hooked (so DML keeps it
               correct for rollback) but leaves the planner's view; the
               generation it displaces leaks its pages, like a drop *)
            (match gs.g_prior with
            | Some dead -> Value_index.unhook dead xc.store
            | None -> ());
            gs.g_prior <- Some old;
            xc.indexes <-
              List.map (fun i -> if i == old then idx else i) xc.indexes
        | None -> xc.indexes <- xc.indexes @ [ idx ]);
        Value_index.hook idx xc.store;
        gs.g_build_ms <-
          int_of_float ((Unix.gettimeofday () -. started) *. 1000.);
        bp.b_state <- `Live;
        t.builds <- List.filter (fun b -> b != bp) t.builds;
        invalidate_plans t;
        (* the WAL-logged catalog save is the durability point of the swap *)
        save_catalog t;
        live_info xc idx)

  let build ?on_slice t ~table ~column ~name ~path ~key_type =
    ensure_writable t;
    let tbl = index_table_exn t table in
    let xc = index_column_exn tbl column in
    let def = Index_def.make ~name ~path ~key_type in
    let bp =
      {
        b_table = table;
        b_column = column;
        b_name = name;
        b_path = Rx_xpath.Ast.to_string def.Index_def.path;
        b_key_type = key_type;
        b_generation = 1;
        b_total = 0;
        b_scanned = 0;
        b_pending = 0;
        b_state = `Scanning;
      }
    in
    locked t (fun () ->
        if build_in_flight t ~table ~column ~name then
          invalid_arg
            (Printf.sprintf "Database: index %s is already being built" name);
        bp.b_generation <-
          (match find_value_index xc name with
          | Some live -> Value_index.generation live + 1
          | None -> 1);
        (* replace a stale failed entry for the same name *)
        t.builds <-
          bp
          :: List.filter
               (fun b ->
                 not
                   (b.b_table = table && b.b_column = column
                  && b.b_name = name))
               t.builds);
    let started = Unix.gettimeofday () in
    let result = ref None in
    let thread =
      Thread.create
        (fun () ->
          match run_build ?on_slice t tbl xc ~name ~def bp started with
          | info -> result := Some (Ok info)
          | exception e ->
              bp.b_state <- `Failed (Printexc.to_string e);
              (* detach the orphan generation's side log; its tree pages
                 are unreferenced and reclaim lazily *)
              (try
                 locked t (fun () ->
                     match List.assoc_opt name xc.side_logs with
                     | Some sl ->
                         Index_build.stop sl;
                         xc.side_logs <-
                           List.filter (fun (n, _) -> n <> name) xc.side_logs
                     | None -> ())
               with _ -> ());
              result := Some (Error e))
        ()
    in
    { h_progress = bp; h_result = result; h_thread = thread }

  let await h =
    Thread.join h.h_thread;
    match !(h.h_result) with
    | Some (Ok info) -> info
    | Some (Error e) -> raise e
    | None -> failwith "Database.Index.await: build thread left no result"

  let status t ~table ~column ~name =
    let tbl = index_table_exn t table in
    let xc = index_column_exn tbl column in
    match find_build t ~table ~column ~name with
    | Some ({ b_state = `Scanning | `Failed _; _ } as bp) ->
        progress_info xc bp
    | _ -> (
        match find_value_index xc name with
        | Some idx -> live_info xc idx
        | None -> raise (Unknown_index { kind = `Index; name }))

  let list t ~table ~column =
    let tbl = index_table_exn t table in
    let xc = index_column_exn tbl column in
    let live = List.map (live_info xc) xc.indexes in
    let pending =
      List.filter_map
        (fun bp ->
          if
            bp.b_table = table && bp.b_column = column
            && not (List.exists (fun i -> i.ix_name = bp.b_name) live)
          then Some (progress_info xc bp)
          else None)
        t.builds
    in
    live @ pending

  let rollback t ~table ~column ~name =
    ensure_writable t;
    let tbl = index_table_exn t table in
    let xc = index_column_exn tbl column in
    if build_in_flight t ~table ~column ~name then
      invalid_arg
        (Printf.sprintf "Database: index %s is being built (rollback later)"
           name);
    locked t (fun () ->
        match find_value_index xc name with
        | None -> raise (Unknown_index { kind = `Index; name })
        | Some live -> (
            match List.assoc_opt name xc.gens with
            | Some ({ g_prior = Some prior; _ } as gs) ->
                (* symmetric swap — the rolled-back generation is retained
                   in turn, so a rollback can itself be rolled back; both
                   trees are hooked throughout, so neither goes stale *)
                gs.g_prior <- Some live;
                xc.indexes <-
                  List.map (fun i -> if i == live then prior else i) xc.indexes;
                invalidate_plans t;
                save_catalog t;
                live_info xc prior
            | _ ->
                invalid_arg
                  (Printf.sprintf
                     "Database: index %s has no prior generation to roll back \
                      to"
                     name)))

  let drop ?txn t ~table ~column ~name =
    ensure_writable t;
    let tbl = index_table_exn t table in
    let xc = index_column_exn tbl column in
    if build_in_flight t ~table ~column ~name then
      invalid_arg
        (Printf.sprintf "Database: index %s is being built (drop later)" name);
    if not (has_index xc name) then
      raise (Unknown_index { kind = `Index; name });
    match txn with
    | Some txn ->
        ensure_txn_open txn;
        (* staged DDL: applied at commit; until then the index keeps
           maintaining itself, but this transaction's own queries must not
           plan against it (see [txn_staged_drop]) *)
        txn.pending <-
          P_drop_index { p_table = table; p_column = column; p_name = name }
          :: txn.pending
    | None ->
        (* immediate drop: self-locking, like [rollback] — callers must
           not already hold the engine lock *)
        locked t (fun () ->
            do_drop_index t xc name;
            save_catalog t)
end

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

let column_docids tbl column =
  let ci =
    match Base_table.column_index tbl.base column with
    | Some i -> i
    | None -> invalid_arg (Printf.sprintf "Database: no column %s" column)
  in
  let acc = ref [] in
  Base_table.iter
    (fun _ row ->
      match row.(ci) with Value.Xml_ref d -> acc := d :: !acc | _ -> ())
    tbl.base;
  List.rev !acc

type verify_report = {
  pages_checked : int;
  corrupt_pages : int list;
  wal_records : int;
  wal_torn_bytes : int;
  stale_index_stats : string list;
}

(* Offline-style integrity sweep over the physical pages (bypassing the
   buffer pool, so cached copies cannot mask on-disk damage) plus the WAL
   bookkeeping gathered at open. *)
let verify t =
  let pager = Buffer_pool.pager t.pool in
  let buf = Bytes.create (Pager.page_size pager) in
  let corrupt = ref [] in
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
        (fun (_, tbl) ->
          List.concat_map
            (fun (column, xc) ->
              let docids =
                List.filter
                  (fun docid -> Doc_store.mem xc.store ~docid)
                  (column_docids tbl column)
              in
              List.filter_map
                (fun idx ->
                  match Value_index.level_counts idx with
                  | Some stored
                    when stored <> Value_index.recount idx xc.store ~docids ->
                      Some (Value_index.def idx).Index_def.name
                  | _ -> None)
                xc.indexes)
            tbl.xml_columns)
        t.tables;
  }

(* --- replication (leader side) --- *)

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

(* visibility of (table, column, docid) for an optional transaction:
   own staged state first, then the created-timestamp / version-chain
   rule. Returns where to read the document from. *)
let resolve t txn_opt tbl xc ~column ~docid =
  let local =
    match txn_opt with
    | Some txn -> Hashtbl.find_opt txn.locals (tbl.tname, column, docid)
    | None -> None
  in
  match local with
  | Some L_deleted -> `Absent
  | Some (L_staged { m; s; _ }) -> (
      match Rx_txn.Mvcc_store.staged_internal s with
      | Some i -> `Internal (Rx_txn.Mvcc_store.store m, i)
      | None -> `Absent)
  | None -> (
      let snapshot =
        match txn_opt with Some txn -> txn.snapshot | None -> t.commit_ts
      in
      let current_visible =
        Doc_store.mem xc.store ~docid
        &&
        match Hashtbl.find_opt xc.created docid with
        | Some ts -> ts <= snapshot
        | None -> true
      in
      if current_visible then `Main
      else
        match xc.mvcc with
        | None -> `Absent
        | Some m -> (
            match Rx_txn.Mvcc_store.lookup_at m ~snapshot ~docid with
            | `Version i -> `Internal (Rx_txn.Mvcc_store.store m, i)
            | `Tombstone | `Invisible | `Untracked -> `Absent))

(* --- DML --- *)

let insert ?txn t ~table ?(values = []) ?(xml = []) () =
  ensure_writable t;
  let tbl = table_exn t table in
  match txn with
  | None ->
      in_txn t (fun () ->
          let docid = tbl.next_docid in
          tbl.next_docid <- docid + 1;
          (* store the XML column documents first (validated if bound) *)
          List.iter
            (fun (column, src) ->
              let xc = xml_column_exn tbl column in
              Doc_store.insert_tokens xc.store ~docid (parse_column_doc t xc src))
            xml;
          ignore (Base_table.insert tbl.base ~docid (build_row tbl ~values ~xml docid));
          (* a fresh docid cannot conflict with any lock, but concurrent
             snapshots must not see it *)
          if t.active_txns <> [] then begin
            let ts = t.commit_ts + 1 in
            List.iter
              (fun (column, _) ->
                Hashtbl.replace (xml_column_exn tbl column).created docid ts)
              xml;
            t.commit_ts <- ts
          end;
          docid)
  | Some txn ->
      ensure_txn_open txn;
      Rx_txn.Transaction.run_as txn.tx (fun () ->
          let docid = tbl.next_docid in
          tbl.next_docid <- docid + 1;
          acquire t txn (doc_resource tbl docid) Rx_txn.Lock_modes.X;
          let staged_cols =
            List.map
              (fun (column, src) ->
                let xc = xml_column_exn tbl column in
                let tokens = parse_column_doc t xc src in
                let m = ensure_mvcc t xc in
                let s = Rx_txn.Mvcc_store.stage_write m ~docid tokens in
                Hashtbl.replace txn.locals (table, column, docid)
                  (L_staged { m; s; replay = false });
                (column, s))
              xml
          in
          txn.pending <-
            P_insert
              {
                p_table = table;
                p_docid = docid;
                p_row = build_row tbl ~values ~xml docid;
                p_xml = staged_cols;
              }
            :: txn.pending;
          docid)

(* Bulk load: one auto-committed transaction for the whole batch. Cost
   model vs a per-[insert] loop: one table-level X lock instead of one
   document lock each, heap placement that probes the free-space map per
   page instead of per record, index maintenance batched per index, and a
   single WAL flush (one fsync) at commit. *)
let insert_many ?docids t ~table ~column docs =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match docs with
  | [] -> []
  | _ ->
      let n = List.length docs in
      (* parse (and validate, when a schema is bound) every document before
         any write, so bad input rejects the batch with nothing staged; the
         phase is embarrassingly parallel — each document parses
         independently against the (mutex-interning) shared dictionary —
         and the domain pool raises the lowest-index failure, matching the
         error a sequential pass would report *)
      let parsed =
        let par = effective_parallelism t in
        if par > 1 && n >= 4 then begin
          let arr = Array.of_list docs in
          let out = Array.make n [] in
          Rx_obs.Metrics.add
            (Rx_obs.Metrics.counter t.metrics "exec.parallel_parses") n;
          ignore
            (Rx_util.Domain_pool.run_ranges
               (Rx_util.Domain_pool.shared ())
               ~parallelism:par n
               (fun ~lo ~hi ->
                 for i = lo to hi - 1 do
                   out.(i) <- parse_column_doc t xc arr.(i)
                 done));
          Array.to_list out
        end
        else List.map (fun src -> parse_column_doc t xc src) docs
      in
      let ids =
        match docids with
        | None -> List.init n (fun i -> tbl.next_docid + i)
        | Some ids ->
            if List.length ids <> n then
              invalid_arg
                "Database.insert_many: docids/documents length mismatch";
            let seen = Hashtbl.create n in
            List.iter
              (fun d ->
                if Hashtbl.mem seen d then
                  invalid_arg
                    (Printf.sprintf "Database.insert_many: duplicate DocID %d"
                       d);
                Hashtbl.add seen d ();
                if
                  Base_table.fetch_by_docid tbl.base d <> None
                  || Doc_store.mem xc.store ~docid:d
                then
                  invalid_arg
                    (Printf.sprintf
                       "Database.insert_many: DocID %d already exists" d))
              ids;
            ids
      in
      in_txn_as t (fun atx ->
          (* one lock escalation: table-level X instead of per-document *)
          acquire_resource t ~on_self:ignore atx (Rx_txn.Resource.Table tbl.tid)
            Rx_txn.Lock_modes.X;
          let triples =
            Doc_store.insert_tokens_bulk xc.store (List.combine ids parsed)
          in
          (* maintenance batched per observer (none was fired): live
             indexes, retained prior generations (maintained while a
             rollback to them is possible), in-flight online builds' side
             logs, then text indexes *)
          let index idx ~docid ~rid ~record =
            Value_index.index_record idx ~docid ~rid ~record
              ~store:(Some xc.store)
          in
          List.iter
            (fun observe ->
              List.iter
                (fun (docid, rid, record) -> observe ~docid ~rid ~record)
                triples)
            (List.map index xc.indexes
            @ List.filter_map (fun (_, gs) -> Option.map index gs.g_prior) xc.gens
            @ List.map (fun (_, sl) -> Index_build.absorb sl) xc.side_logs
            @ List.map
                (fun (_, ti) -> Rx_fulltext.Text_index.index_record ti)
                xc.text_indexes);
          ignore
            (Base_table.insert_many tbl.base
               (List.map
                  (fun docid ->
                    (docid, build_row tbl ~values:[] ~xml:[ (column, "") ] docid))
                  ids));
          let maxid = List.fold_left max 0 ids in
          if maxid + 1 > tbl.next_docid then tbl.next_docid <- maxid + 1;
          (* concurrent snapshots must not see the batch *)
          if t.active_txns <> [] then begin
            let ts = t.commit_ts + 1 in
            List.iter (fun docid -> Hashtbl.replace xc.created docid ts) ids;
            t.commit_ts <- ts
          end;
          ids)

let delete ?txn t ~table ~docid =
  ensure_writable t;
  let tbl = table_exn t table in
  match txn with
  | None ->
      in_txn_as t (fun atx ->
          let versioned = t.active_txns <> [] in
          let ts = t.commit_ts + 1 in
          if versioned then
            acquire_resource t ~on_self:ignore atx (doc_resource tbl docid)
              Rx_txn.Lock_modes.X;
          delete_row t tbl ~docid ~ts ~versioned;
          if versioned then t.commit_ts <- ts)
  | Some txn ->
      ensure_txn_open txn;
      Rx_txn.Transaction.run_as txn.tx (fun () ->
          acquire t txn (doc_resource tbl docid) Rx_txn.Lock_modes.X;
          (* deleting a document inserted by this same transaction just
             cancels the staged insert *)
          let own_insert =
            List.exists
              (function
                | P_insert { p_docid; p_table; _ } ->
                    p_docid = docid && p_table = table
                | _ -> false)
              txn.pending
          in
          if own_insert then begin
            txn.pending <-
              List.filter
                (function
                  | P_insert { p_docid; p_table; _ } ->
                      not (p_docid = docid && p_table = table)
                  | _ -> true)
                txn.pending;
            Hashtbl.iter
              (fun (tb, _, d) st ->
                if tb = table && d = docid then
                  match st with
                  | L_staged { m; s; _ } -> Rx_txn.Mvcc_store.abort m [ s ]
                  | L_deleted -> ())
              txn.locals;
            List.iter
              (fun (cname, _) ->
                Hashtbl.replace txn.locals (table, cname, docid) L_deleted)
              tbl.xml_columns
          end
          else begin
            if Base_table.fetch_by_docid tbl.base docid = None then
              invalid_arg (Printf.sprintf "Database: no row with DocID %d" docid);
            (* first-updater-wins: the row's documents must not have been
               replaced since this transaction's snapshot *)
            List.iter
              (fun (_, xc) ->
                match Hashtbl.find_opt xc.created docid with
                | Some ts when ts > txn.snapshot ->
                    failwith
                      (Printf.sprintf
                         "Database: write-write conflict on DocID %d (updated \
                          since transaction began)"
                         docid)
                | _ -> ())
              tbl.xml_columns;
            txn.pending <- P_delete { p_table = table; p_docid = docid } :: txn.pending;
            List.iter
              (fun (cname, _) ->
                Hashtbl.replace txn.locals (table, cname, docid) L_deleted)
              tbl.xml_columns
          end)

let fetch_row t ~table ~docid =
  Base_table.fetch_by_docid (table_exn t table).base docid

let row_count t ~table = Base_table.row_count (table_exn t table).base

let document ?txn t ~table ~column ~docid =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  (match txn with Some txn -> ensure_txn_open txn | None -> ());
  match resolve t txn tbl xc ~column ~docid with
  | `Main -> Doc_store.serialize xc.store ~docid
  | `Internal (ds, i) -> Doc_store.serialize ds ~docid:i
  | `Absent ->
      invalid_arg (Printf.sprintf "Database: no document %d in %s.%s" docid table column)

(* Stage a sub-document statement: lock the node's subtree (which takes IX
   on the document and table), then apply the statement to this
   transaction's private working copy — creating it from the current
   committed version on first touch — and remember it for replay at
   commit. Statements against a document inserted by this same transaction
   edit the staged insert image directly; no replay needed. *)
let stage_subdoc t txn tbl ~table ~column ~docid ~lock_node ~op apply =
  ensure_txn_open txn;
  Rx_txn.Transaction.run_as txn.tx (fun () ->
      let xc = xml_column_exn tbl column in
      acquire t txn (node_resource tbl docid lock_node) Rx_txn.Lock_modes.X;
      match Hashtbl.find_opt txn.locals (table, column, docid) with
      | Some L_deleted ->
          invalid_arg
            (Printf.sprintf "Database: document %d deleted in this transaction" docid)
      | Some (L_staged { m; s; replay }) ->
          let internal =
            match Rx_txn.Mvcc_store.staged_internal s with
            | Some i -> i
            | None -> assert false
          in
          let result = apply (Rx_txn.Mvcc_store.store m) internal in
          if replay then txn.pending <- op :: txn.pending;
          result
      | None ->
          if not (Doc_store.mem xc.store ~docid) then
            invalid_arg
              (Printf.sprintf "Database: no document %d in %s.%s" docid table column);
          (* first-updater-wins: refuse to edit a document whose current
             version postdates this transaction's snapshot *)
          (match Hashtbl.find_opt xc.created docid with
          | Some ts when ts > txn.snapshot ->
              failwith
                (Printf.sprintf
                   "Database: write-write conflict on DocID %d (updated since \
                    transaction began)"
                   docid)
          | _ -> ());
          let m = ensure_mvcc t xc in
          let s =
            Rx_txn.Mvcc_store.stage_write m ~docid (Doc_store.tokens xc.store ~docid)
          in
          Hashtbl.replace txn.locals (table, column, docid)
            (L_staged { m; s; replay = true });
          let internal =
            match Rx_txn.Mvcc_store.staged_internal s with
            | Some i -> i
            | None -> assert false
          in
          let result = apply (Rx_txn.Mvcc_store.store m) internal in
          txn.pending <- op :: txn.pending;
          result)

let subdoc_auto t tbl xc ~docid ~lock_node apply =
  in_txn_as t (fun atx ->
      let versioned = t.active_txns <> [] in
      let ts = t.commit_ts + 1 in
      if versioned then begin
        acquire_resource t ~on_self:ignore atx (node_resource tbl docid lock_node)
          Rx_txn.Lock_modes.X;
        retain_before_change t xc ~docid ~new_ts:ts
      end;
      let result = apply xc.store docid in
      if versioned then begin
        Hashtbl.replace xc.created docid ts;
        t.commit_ts <- ts
      end;
      result)

let update_xml_text ?txn t ~table ~column ~docid node content =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match txn with
  | None ->
      subdoc_auto t tbl xc ~docid ~lock_node:node (fun ds d ->
          Doc_store.update_text ds ~docid:d (text_target ds ~docid:d node) content)
  | Some txn ->
      stage_subdoc t txn tbl ~table ~column ~docid ~lock_node:node
        ~op:
          (P_update_text
             {
               p_table = table;
               p_column = column;
               p_docid = docid;
               p_node = node;
               p_content = content;
             })
        (fun ds d ->
          Doc_store.update_text ds ~docid:d (text_target ds ~docid:d node) content)

let parse_fragment t fragment =
  (* parse the fragment with a synthetic wrapper, then strip it *)
  let tokens = Parser.parse t.dict ("<rx-fragment>" ^ fragment ^ "</rx-fragment>") in
  match tokens with
  | Token.Start_document :: Token.Start_element _ :: rest ->
      let rec strip acc = function
        | [ Token.End_element; Token.End_document ] -> List.rev acc
        | tok :: rest -> strip (tok :: acc) rest
        | [] -> invalid_arg "Database.insert_xml_fragment: bad fragment"
      in
      strip [] rest
  | _ -> invalid_arg "Database.insert_xml_fragment: bad fragment"

let position_anchor = function
  | Doc_store.Before n | Doc_store.After n | Doc_store.Last_child_of n -> n

let insert_xml_fragment ?txn t ~table ~column ~docid position fragment =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let inner = parse_fragment t fragment in
  match txn with
  | None ->
      subdoc_auto t tbl xc ~docid ~lock_node:(position_anchor position)
        (fun ds d -> Doc_store.insert_fragment ds ~docid:d position inner)
  | Some txn ->
      stage_subdoc t txn tbl ~table ~column ~docid
        ~lock_node:(position_anchor position)
        ~op:
          (P_insert_fragment
             {
               p_table = table;
               p_column = column;
               p_docid = docid;
               p_pos = position;
               p_tokens = inner;
             })
        (fun ds d -> Doc_store.insert_fragment ds ~docid:d position inner)

let delete_xml_node ?txn t ~table ~column ~docid node =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match txn with
  | None ->
      subdoc_auto t tbl xc ~docid ~lock_node:node (fun ds d ->
          Doc_store.delete_subtree ds ~docid:d node)
  | Some txn ->
      stage_subdoc t txn tbl ~table ~column ~docid ~lock_node:node
        ~op:
          (P_delete_node
             { p_table = table; p_column = column; p_docid = docid; p_node = node })
        (fun ds d -> Doc_store.delete_subtree ds ~docid:d node)

let xml_handle t ~table ~column ~docid =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  Rx_xqueryrt.Xml_handle.of_stored xc.store ~docid

(* --- queries --- *)

let compile_query ?ns_env t xpath =
  let path = Rx_xpath.Rewrite.simplify (Rx_xpath.Xpath_parser.parse xpath) in
  let query = Rx_quickxscan.Query.compile ?ns_env t.dict path in
  (path, query)

let plan_for ?ns_env t xc xpath =
  let path, query = compile_query ?ns_env t xpath in
  let plan = Planner.plan ~indexes:xc.indexes ~query:path in
  let kind =
    match plan with
    | Planner.Full_scan -> "planner.plans_fullscan"
    | Planner.Index_access { granularity = Planner.Docid_level; _ } ->
        "planner.plans_docid"
    | Planner.Index_access { granularity = Planner.Nodeid_level _; _ } ->
        "planner.plans_nodeid"
  in
  Rx_obs.Metrics.(incr (counter t.metrics kind));
  (path, query, plan)

let plan_info_of plan =
  {
    description = Planner.describe plan;
    uses_index = (match plan with Planner.Full_scan -> false | _ -> true);
    exact = (match plan with Planner.Index_access { exact; _ } -> exact | _ -> false);
  }

let explain ?ns_env t ~table ~column ~xpath =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let _, _, plan = plan_for ?ns_env t xc xpath in
  plan_info_of plan

(* --- prepared queries and the plan cache --- *)

(* cache keys must not depend on binding order or shadowed (repeated)
   prefixes: keep the first binding of each prefix, then sort *)
let canonical_ns ns_env =
  let seen = Hashtbl.create 8 in
  List.sort compare
    (List.filter
       (fun (prefix, _) ->
         if Hashtbl.mem seen prefix then false
         else begin
           Hashtbl.add seen prefix ();
           true
         end)
       ns_env)

let prepare ?(ns_env = []) t ~table ~column ~xpath =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let ns = canonical_ns ns_env in
  let key = (table, column, xpath, ns) in
  match Rx_util.Lru.find t.plan_cache key with
  | Some p when p.p_epoch = t.ddl_epoch ->
      Rx_obs.Metrics.(incr (counter t.metrics "plancache.hits"));
      p
  | found ->
      Rx_obs.Metrics.(
        incr
          (counter t.metrics
             (match found with
             | None -> "plancache.misses"
             | Some _ -> "plancache.invalidations")));
      Rx_obs.Trace.with_span t.tracer "db.prepare"
        ~attrs:[ ("table", table); ("column", column); ("xpath", xpath) ]
        (fun () ->
          let _, query, plan = plan_for ~ns_env:ns t xc xpath in
          let p =
            {
              p_table = table;
              p_column = column;
              p_xpath = xpath;
              p_ns_env = ns;
              p_query = query;
              p_plan = plan;
              p_info = plan_info_of plan;
              p_epoch = t.ddl_epoch;
              p_ev = None;
            }
          in
          ignore (Rx_util.Lru.put t.plan_cache key p);
          p)

module Prepared = struct
  let table p = p.p_table
  let column p = p.p_column
  let xpath p = p.p_xpath
  let ns_env p = p.p_ns_env
  let plan p = p.p_info
end

let serialize_from t ds ~docid node =
  let tokens = ref [] in
  Doc_store.subtree_events ds ~docid node (fun e ->
      tokens := e.Doc_store.token :: !tokens);
  Serializer.to_string t.dict (List.rev !tokens)

let serialize_match t xc m = serialize_from t xc.store ~docid:m.docid m.node

(* candidate docids for a snapshot read: current rows, version-tracked
   documents (which may be deleted from the base table but still visible
   to this snapshot), and this transaction's own staged writes *)
let txn_candidate_docids txn tbl ~column xc =
  let seen = Hashtbl.create 64 in
  let add d = if not (Hashtbl.mem seen d) then Hashtbl.replace seen d () in
  let ci = Base_table.column_index tbl.base column in
  (match ci with
  | None -> invalid_arg (Printf.sprintf "Database: no column %s" column)
  | Some ci ->
      Base_table.iter
        (fun _ row ->
          match row.(ci) with Value.Xml_ref d -> add d | _ -> ())
        tbl.base);
  (match xc.mvcc with
  | Some m -> Rx_txn.Mvcc_store.iter_tracked m add
  | None -> ());
  Hashtbl.iter
    (fun (tb, col, d) _ -> if tb = tbl.tname && col = column then add d)
    txn.locals;
  List.sort compare (Hashtbl.fold (fun d () acc -> d :: acc) seen [])

(* The scan driver of every query: evaluate [query] over
   [(docid, store, scan_docid)] triples, matches in triple order. A
   column big enough to pay for domains fans out over contiguous chunks
   and splices the per-document results back in order (chunks are
   contiguous, so this IS document order); smaller scans and single
   documents run [eval] on the caller. *)
let scan_docs t xc query ~eval triples =
  let par = effective_parallelism t in
  let matches docid nodes = List.map (fun node -> { docid; node }) nodes in
  match triples with
  | _ :: _ :: _
    when par > 1
         && Doc_store.data_page_count xc.store
            >= t.config.parallel_scan_min_pages ->
      let arr = Array.of_list triples in
      Rx_obs.Metrics.incr (Rx_obs.Metrics.counter t.metrics "exec.parallel_scans");
      Rx_obs.Metrics.add
        (Rx_obs.Metrics.counter t.metrics "exec.parallel_chunks")
        (min par (Array.length arr));
      let per_doc =
        Executor.eval_partitioned
          ~pool:(Rx_util.Domain_pool.shared ())
          ~parallelism:par query
          (Array.map (fun (_, store, d) -> (store, d)) arr)
      in
      List.concat
        (List.mapi
           (fun i (docid, _, _) -> matches docid per_doc.(i))
           triples)
  | _ ->
      List.concat_map
        (fun (docid, store, scan_docid) -> matches docid (eval store scan_docid))
        triples

(* a transaction's reads bypass the planner: value indexes describe the
   current committed state, not this snapshot, so every query scans the
   snapshot-visible document set with QuickXScan *)
let run_in_txn ?ns_env t txn ~table ~column ~xpath =
  ensure_txn_open txn;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let before = Rx_obs.Metrics.snapshot t.metrics in
  let query =
    (* the plan cache only holds the compiled query here (snapshot reads
       never use indexes), but a plan compiled while a staged [DROP XML
       INDEX] is pending in this very transaction must not be cached or
       served: compile fresh instead *)
    if txn_staged_drop txn ~table ~column then snd (compile_query ?ns_env t xpath)
    else (prepare ?ns_env t ~table ~column ~xpath).p_query
  in
  let matches =
    Rx_obs.Trace.with_span t.tracer "db.query"
      ~attrs:[ ("table", table); ("column", column); ("xpath", xpath) ]
      (fun () ->
        (* snapshot resolution touches txn-local state (staged writes, MVCC
           chains), so it happens here on the caller; only the pure
           QuickXScan evaluation fans out to domains *)
        scan_docs t xc query
          ~eval:(fun store docid ->
            Executor.eval_with (Executor.evaluator store query) ~docid)
          (List.filter_map
             (fun docid ->
               match resolve t (Some txn) tbl xc ~column ~docid with
               | `Main -> Some (docid, xc.store, docid)
               | `Internal (ds, i) -> Some (docid, ds, i)
               | `Absent -> None)
             (txn_candidate_docids txn tbl ~column xc)))
  in
  let after = Rx_obs.Metrics.snapshot t.metrics in
  {
    matches;
    plan =
      { description = "SNAPSHOT-SCAN(QuickXScan)"; uses_index = false; exact = false };
    serialize =
      (fun m ->
        match resolve t (Some txn) tbl xc ~column ~docid:m.docid with
        | `Main -> serialize_match t xc m
        | `Internal (ds, i) -> serialize_from t ds ~docid:i m.node
        | `Absent ->
            invalid_arg
              (Printf.sprintf "Database: no document %d in %s.%s" m.docid table column));
    profile = Rx_obs.Metrics.diff ~before ~after;
  }

(* execute a prepared query's stored plan; the QuickXScan machine is built
   once and reset between documents, so the scan loop allocates per match,
   not per node *)
let exec_prepared t (p : prepared) =
  let table = p.p_table and column = p.p_column in
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let before = Rx_obs.Metrics.snapshot t.metrics in
  let plan = p.p_plan in
  let c_candidates = Rx_obs.Metrics.counter t.metrics "exec.index_candidates" in
  let c_filtered = Rx_obs.Metrics.counter t.metrics "exec.reeval_filtered" in
  let ev =
    match p.p_ev with
    | Some ev -> ev
    | None ->
        let ev = Executor.evaluator xc.store p.p_query in
        p.p_ev <- Some ev;
        ev
  in
  let scan docids =
    scan_docs t xc p.p_query
      ~eval:(fun _ docid -> Executor.eval_with ev ~docid)
      (List.map (fun d -> (d, xc.store, d)) docids)
  in
  let matches =
    Rx_obs.Trace.with_span t.tracer "db.query"
      ~attrs:[ ("table", table); ("column", column); ("xpath", p.p_xpath) ]
      (fun () ->
        match plan with
        | Planner.Full_scan -> scan (column_docids tbl column)
        | Planner.Index_access { exact; _ } -> (
            match Planner.execute_candidates ~indexes:xc.indexes plan with
            | `All -> scan (column_docids tbl column)
            | `Docids docids ->
                Rx_obs.Metrics.add c_candidates (List.length docids);
                let ms = scan docids in
                let surviving =
                  List.sort_uniq compare (List.map (fun m -> m.docid) ms)
                in
                Rx_obs.Metrics.add c_filtered
                  (max 0 (List.length docids - List.length surviving));
                ms
            | `Anchors anchors ->
                Rx_obs.Metrics.add c_candidates (List.length anchors);
                if exact then
                  List.map (fun (docid, node) -> { docid; node }) anchors
                else begin
                  let ms =
                    scan
                      (List.sort_uniq compare (List.map fst anchors))
                  in
                  Rx_obs.Metrics.add c_filtered
                    (max 0 (List.length anchors - List.length ms));
                  ms
                end))
  in
  let after = Rx_obs.Metrics.snapshot t.metrics in
  {
    matches;
    plan = p.p_info;
    serialize = serialize_match t xc;
    profile = Rx_obs.Metrics.diff ~before ~after;
  }

(* a read that exhausts the buffer pool (every frame pinned) surfaces as
   [Busy] — retryable backpressure, not an engine failure *)
let pool_guard f =
  try f ()
  with Buffer_pool.Pool_exhausted _ -> raise (Busy { txid = 0; blockers = [] })

let run ?ns_env ?txn t ~table ~column ~xpath =
  pool_guard (fun () ->
      match txn with
      | Some txn -> run_in_txn ?ns_env t txn ~table ~column ~xpath
      | None -> exec_prepared t (prepare ?ns_env t ~table ~column ~xpath))

let run_prepared ?txn t p =
  pool_guard (fun () ->
      match txn with
      | Some txn ->
          run_in_txn ~ns_env:p.p_ns_env t txn ~table:p.p_table ~column:p.p_column
            ~xpath:p.p_xpath
      | None ->
          (* a handle compiled before a DDL change transparently re-prepares
             (cheap when the cache already holds the recompiled plan) *)
          let p =
            if p.p_epoch = t.ddl_epoch then p
            else
              prepare ~ns_env:p.p_ns_env t ~table:p.p_table ~column:p.p_column
                ~xpath:p.p_xpath
          in
          exec_prepared t p)

(* --- streamed result cursors --- *)

(* A cursor is the lazy half of a [result] kept alive across calls: the
   match list (docid + node id per match — small) is computed eagerly by
   the underlying query, but serialization — the part that turns a match
   into an arbitrarily large XML string — is deferred and paid chunk by
   chunk in [cursor_next]. A result set whose serialized form is hundreds
   of megabytes therefore crosses any consumer (the rxd wire protocol in
   particular) in bounded-memory chunks. *)
type cursor = {
  cur_plan : plan_info;
  cur_serialize : match_ -> string;
  mutable cur_rest : match_ list;
  mutable cur_peek : (int * string) option;
      (* a serialized row that did not fit its chunk's budget, carried
         over so it is not serialized twice *)
  mutable cur_open : bool;
}

let cursor_of_result (r : result) =
  {
    cur_plan = r.plan;
    cur_serialize = r.serialize;
    cur_rest = r.matches;
    cur_peek = None;
    cur_open = true;
  }

let cursor_plan c = c.cur_plan

let cursor_next ?(max_bytes = 256 * 1024) c =
  if not c.cur_open then invalid_arg "Database: cursor is closed";
  if max_bytes <= 0 then invalid_arg "Database: cursor max_bytes must be positive";
  pool_guard (fun () ->
      let next_row () =
        match c.cur_peek with
        | Some row ->
            c.cur_peek <- None;
            Some row
        | None -> (
            match c.cur_rest with
            | [] -> None
            | m :: rest ->
                c.cur_rest <- rest;
                Some (m.docid, c.cur_serialize m))
      in
      (* at least one row per chunk — a single oversized document still
         streams, as one chunk of its own size — but a later row that
         would overshoot the budget is carried to the next chunk, so a
         chunk never exceeds [max_bytes] by more than its last in-budget
         row's slack *)
      let rec take acc bytes =
        match next_row () with
        | None -> List.rev acc
        | Some ((_, s) as row) ->
            let bytes = bytes + String.length s + 16 in
            if acc <> [] && bytes > max_bytes then begin
              c.cur_peek <- Some row;
              List.rev acc
            end
            else if bytes >= max_bytes then List.rev (row :: acc)
            else take (row :: acc) bytes
      in
      take [] 0)

let cursor_close c =
  c.cur_open <- false;
  c.cur_peek <- None;
  c.cur_rest <- []

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
