(* Engine state shared by every part of the database facade: the handle
   and its tables, the transaction and query records, the catalog save and
   the auto-commit rule every embedded operation commits through. The
   public contract is database.mli. *)

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
  history : Versions.column; (* what each snapshot sees of [store] *)
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
      s : Versions.staged;
      replay : bool; (* working copy of an existing doc: replay ops at commit *)
    }
  | L_deleted

(* a sub-document statement: applied to a working copy when staged, and
   replayed against the current version at commit *)
type edit =
  | Update_text of { node : Node_id.t; content : string }
  | Insert_fragment of { pos : Doc_store.position; tokens : Token.t list }
  | Delete_node of Node_id.t

type pending =
  | P_insert of {
      p_table : string;
      p_docid : int;
      p_row : Value.t array;
      p_xml : (string * Versions.staged) list;
    }
  | P_delete of { p_table : string; p_docid : int }
  | P_edit of {
      p_table : string;
      p_column : string;
      p_docid : int;
      p_edit : edit;
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
  (* the plan's anchored tail compiled, for an anchor-exact plan with steps
     below the anchor (see [Planner.t]) *)
  p_tail : Rx_quickxscan.Query.t option;
  (* the QuickXScan machines of [p_query] and [p_tail], built once and reset
     between documents. They live on the handle, so repeated executions skip
     engine construction and the plan cache's LRU bounds them: a side table
     keyed by XPath would grow with every distinct literal *)
  mutable p_ev : Executor.evaluator option;
  mutable p_tail_ev : Executor.evaluator option;
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
  versions : Versions.t; (* the commit clock and open snapshots *)
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
    versions = Versions.create ~page_size:(Buffer_pool.page_size pool) ~record_threshold;
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

let ensure_txn_open txn =
  if not txn.txn_open then invalid_arg "Database: transaction is not open"

(* a new or re-attached XML column over [store], no indexes yet *)
let new_column store =
  {
    store;
    indexes = [];
    gens = [];
    side_logs = [];
    text_indexes = [];
    schema = None;
    schema_name = None;
    history = Versions.column store;
  }

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

(* Fires after every commit, auto-commit or explicit, embedded or served:
   checkpoint once the log has grown past the configured thresholds. Open
   explicit transactions do not hold it off: they stage in [Versions]'
   scratch pool and have no record in the log it truncates. *)
and maybe_auto_checkpoint t =
  if
    t.config.auto_checkpoint && (not t.checkpointing) && t.degraded = None
    && (not t.replica)
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

(* corruption found at open or on replica refresh degrades the handle to
   read-only instead of failing: the data is damaged, but the surviving
   parts stay readable and [verify] can localize the problem *)
let degrade t e =
  if t.degraded = None then t.degraded <- Some (Printexc.to_string e)

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
