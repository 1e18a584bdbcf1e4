(** System R/X database facade: base tables with XML columns stored
    natively (Figure 2), schema registration and validation at insert,
    XPath value indexes, and XPath queries with Table-2 access-path
    selection. All manipulation goes through this API, mirroring the
    paper's "all the manipulation and querying of XML data are through SQL
    and SQL/XML" — the SQL surface itself is out of scope (§2).

    Sessions: every mutating call without an explicit transaction runs as
    its own WAL-backed auto-commit transaction, exactly as before. An
    explicit transaction ({!begin_txn} / {!commit} / {!rollback}, passed as
    [?txn] to DML and queries) gives multi-statement atomicity with
    snapshot-isolated reads: reads see the database as of [begin_txn]
    (plus the transaction's own writes) and never block; writes acquire
    document-level — and, for sub-document updates, NodeID-subtree —
    locks through the multiple-granularity protocol and are staged in a
    versioned side store until commit, when they are replayed (and
    indexed) against the current state. [checkpoint] makes state durable
    and truncatable; a database opened on existing files recovers —
    discarding transactions that never committed — and reloads the
    catalog. *)

type t
type table

type txn
(** An explicit transaction (session) on one database handle. *)

exception Busy of { txid : int; blockers : int list }
(** A lock request conflicted with locks held by other live transactions
    and no deadlock was found: the statement did not execute; the
    transaction stays open (retry, or {!rollback}). Deadlocks raise
    {!Rx_txn.Lock_manager.Deadlock} instead, after rolling the victim
    back. Also raised — with [txid = 0] and no blockers — when a query
    cannot pin a page because every buffer-pool frame is pinned
    ({!Rx_storage.Buffer_pool.Pool_exhausted}): retryable backpressure,
    not data damage. *)

exception Read_only of { reason : string }
(** Raised by every mutating call (DDL, DML, {!begin_txn}, {!checkpoint})
    on a handle that opened in degraded read-only mode after detecting
    corruption — see {!health}. *)

type match_ = { docid : int; node : Rx_xmlstore.Node_id.t }

type plan_info = {
  description : string; (** e.g. "NODEID-ANDING(i1,i2)+FILTER" *)
  uses_index : bool;
  exact : bool;
}

type result = {
  matches : match_ list;
      (** matching nodes across all documents of the column, in (DocID,
          document order) *)
  plan : plan_info;  (** the access path that was executed *)
  serialize : match_ -> string;
      (** lazy per-match subtree serialization (no work until called) *)
  profile : (string * int) list;
      (** runtime-counter deltas attributable to this query: what the
          buffer pool, B+trees, indexes, QuickXScan and executor did while
          it ran, as [(counter name, delta)] pairs sorted by name *)
}

type config = {
  auto_checkpoint : bool;  (** fire checkpoints automatically (default on) *)
  checkpoint_wal_bytes : int;
      (** checkpoint once this many WAL bytes accumulate since the last one *)
  checkpoint_wal_records : int;
      (** ... or this many WAL records, whichever comes first *)
  readahead : int;
      (** sequential-readahead window (pages per batched read) on every XML
          column store — heap-chain scans and node-index leaf walks
          prefetch upcoming pages in one pager read. [<= 1] disables;
          default 8. Effectiveness shows in the
          [bufpool.readahead.{batches,pages,wasted}] counters. *)
  plan_cache_capacity : int;
      (** entries in the LRU prepared-plan cache (default 128); see
          {!prepare}. Changing it via {!set_config} recreates the cache,
          dropping cached plans. *)
  commit_window_us : int;
      (** microseconds a group-commit leader holds its window open so
          concurrent committers can share its fsync (default 0 = flush
          immediately); see {!commit}. Only consulted when other
          transactions are active. *)
  wal_buffer_bytes : int;
      (** staged-but-unwritten WAL bytes beyond which an append spills the
          write buffer to the file, without fsync (default 256 KiB) —
          bounds the size of the write a commit's flush performs. *)
  parallelism : int;
      (** worker domains for parallel operators — partitioned QuickXScan,
          bulk-load parse+validate, index-build key extraction. [0] (the
          default) means auto: one per core
          ([Domain.recommended_domain_count]); [1] forces sequential
          execution. The [RX_PARALLELISM] environment variable seeds
          {!default_config}'s value. *)
  parallel_scan_min_pages : int;
      (** a query fans out across domains only when its column store holds
          at least this many heap data pages (default 64) — below that the
          per-domain setup costs more than the scan. *)
}
(** Engine tuning in one record: automatic-checkpoint policy, the read
    path's readahead and plan-cache knobs, the write path's
    group-commit and WAL-buffer knobs, and the parallel-execution knobs.
    The checkpoint trigger is evaluated after every auto-commit operation
    (a DML or DDL call made without [?txn]), embedded or served by rxd —
    not after an explicit {!commit}; it fires only when no transaction is
    in flight (checkpointing truncates the log, so in-flight transactions
    must not have records there).
    Checkpoints are counted in the [ckpt.auto] / [ckpt.manual] metrics and
    traced as [db.checkpoint] spans. *)

val default_config : config
(** [auto_checkpoint = true], 4 MiB, 50k records; [readahead = 8],
    [plan_cache_capacity = 128], [commit_window_us = 0],
    [wal_buffer_bytes = 256 KiB]; [parallelism] from [RX_PARALLELISM] or 0
    (auto), [parallel_scan_min_pages = 64]. *)

val config : t -> config
(** The handle's current configuration (starts as the [?config] passed at
    open, or {!default_config}). *)

val set_config : t -> config -> unit
(** Replaces the configuration and pushes the tuning knobs down to the
    layers that own them (column stores, WAL). Takes effect immediately;
    not thread-safe with concurrent operations. *)

val create_in_memory :
  ?page_size:int ->
  ?record_threshold:int ->
  ?config:config ->
  unit ->
  t
(** A database on an in-memory pager and WAL (nothing survives the
    process); [config] defaults to {!default_config}. *)

val open_dir :
  ?page_size:int ->
  ?record_threshold:int ->
  ?config:config ->
  string ->
  t
(** Opens (creating if needed) a database in a directory: [data.rxdb] pages
    and [wal.rxlog]. Runs crash recovery — replaying committed work,
    rolling back losers, and treating a checksum-invalid WAL tail as a torn
    write (replay stops at the last intact record) — then reloads the
    catalog. If mid-file corruption is detected (a page or WAL record whose
    checksum fails), the handle opens {e degraded}: intact data stays
    readable, every mutating call raises {!Read_only}, and {!health} /
    {!verify} expose the damage. *)

val checkpoint : t -> unit
(** Persists the catalog, flushes all dirty pages, forces the log, and
    truncates it. Durable state is complete as of the call; must not run
    concurrently with an explicit transaction.
    @raise Read_only on a degraded handle. *)

val health : t -> [ `Healthy | `Degraded of string ]
(** [`Degraded reason] when corruption was detected while opening: the
    handle serves reads from intact data but refuses all mutations. *)

type verify_report = {
  pages_checked : int;
  corrupt_pages : int list;  (** page numbers whose checksum fails *)
  wal_records : int;  (** records in the log since the last truncation *)
  wal_torn_bytes : int;
      (** bytes cut from the WAL tail as a torn write at open *)
  stale_index_stats : string list;
      (** value indexes whose stored multi-value statistic
          ({!Rx_xindex.Value_index.level_counts}) differs from a recount
          over the column's stored records *)
}

val verify : t -> verify_report
(** Reads every physical page directly from the pager (bypassing cached
    copies) and checks its checksum; never raises on corruption — damaged
    pages are listed in the report. Also recounts every live value index's
    multi-value statistic from the stored records and names the indexes
    whose stored counts disagree. *)

val last_recovery : t -> Rx_wal.Recovery.report option
(** What crash recovery did when this handle was opened; [None] for a
    fresh database or an in-memory one. *)

val close : t -> unit
(** Rolls back any still-open transaction, checkpoints (skipped on a
    degraded handle: its partial in-memory view must not overwrite durable
    state), and closes the pager and log. *)

val crash : t -> unit
(** Hard-stops the handle as if the process died: closes the file
    descriptors with no rollback, no checkpoint and no flush. The next
    {!open_dir} runs recovery. Crash-testing only. *)

val set_fault : ?scope:[ `All | `Wal_only ] -> t -> Rx_storage.Fault.t option -> unit
(** Installs a fault-injection handle on the pager and WAL ([`All]) or the
    WAL alone ([`Wal_only] — used for torn-write faults, which only the
    log tolerates by design). Crash-testing only. *)

val dict : t -> Rx_xml.Name_dict.t

(** {1 Replication & point-in-time restore}

    A leader ships durable WAL frames ({!repl_fetch}); a replica opened
    with {!open_replica} applies them through the redo path
    ({!apply_redo}) while serving read-only snapshot queries, and can be
    promoted to a writable leader ({!promote_replica}). The higher-level
    pull/apply/cursor machinery lives in {!Replica}; these are the
    engine primitives it builds on. {!restore} rebuilds a past state
    from the WAL archive. *)

val open_replica :
  ?page_size:int ->
  ?record_threshold:int ->
  ?config:config ->
  string ->
  t
(** Opens a directory as a {e replica}: no bootstrap is performed on a
    fresh directory (the catalog and every page arrive by replication,
    preserving the leader's LSNs exactly), recovery replays any pages
    flushed before the last cursor write, auto-checkpointing is off, and
    every mutating call raises {!Read_only} until {!promote_replica}.
    Use {!Replica.attach} rather than calling this directly. *)

val is_replica : t -> bool

val replica_cursor_path : string -> string
(** [dir/replica.lsn] — where a replica persists its resume position.
    Its presence marks the directory as a replica: a plain {!open_dir}
    of such a directory opens degraded (the pages may be mid-apply;
    only [rxd promote] makes it a writable database again). *)

val archive_path : string -> string
(** [dir/archive] — the WAL archive directory. Creating it (e.g.
    [rx init --archive]) turns on archiving: every checkpoint captures
    the WAL span it is about to truncate as a generation file, so the
    archive plus the live WAL cover the full history from LSN 0 —
    what replication catch-up from any LSN and {!restore} require. *)

val refresh_replica : t -> unit
(** Re-reads the catalog heap from the replicated pages and rebuilds the
    logical layer (tables, indexes, schemas, name dictionary) from it.
    Call after applying a batch that may have included DDL or a
    checkpoint; cheap when nothing changed structurally. *)

val durable_lsn : t -> int64
(** The LSN up to which this handle's WAL is known fsynced — the ship
    horizon: a leader never sends bytes that could vanish in its own
    crash. *)

val wal_base_lsn : t -> int64
(** Where the live WAL starts; frames below it are only in the archive. *)

type repl_state = {
  r_base_lsn : int64;
  r_durable_lsn : int64;
  r_generations : int;  (** archived WAL generations available *)
  r_page_size : int;
      (** physical page images only make sense at the leader's geometry:
          a fresh replica must be created with this page size *)
}

val repl_state : t -> repl_state
(** Where this leader's history starts and ends right now — what a
    replica (or [rxd serve --replicate-from]) needs to decide where to
    fetch from and whether it can catch up at all. *)

val repl_fetch : t -> from_lsn:int64 -> max_bytes:int -> int64 * string * int64
(** [(start_lsn, frames, durable_lsn)]: raw CRC-framed WAL bytes from
    [from_lsn] (a frame-boundary LSN), cut at a frame boundary within
    [max_bytes] (the first frame always ships whole). Positions below
    the live base are served from the archive.
    @raise Failure if the history at [from_lsn] is gone (no archive):
    the replica must be rebuilt from scratch. *)

val apply_redo :
  t -> page_no:int -> lsn:int64 -> off:int -> image:string -> bool
(** Applies one logged after-image on a replica, allocating pages as
    needed and honouring the page-LSN idempotence rule ([false] when the
    page is already at or past [lsn]). Caller must hold {!exclusively}. *)

val promote_replica : t -> lsn:int64 -> int64
(** Makes a replica writable: flushes everything it applied, resets the
    (empty) local WAL's base to the maximum of [lsn] — the apply horizon
    — and every page LSN on disk (pages may have been flushed past the
    cursor before a replica crash), and removes the cursor file. Returns
    the base chosen, where the new timeline begins. Irreversible; the
    old leader must never ship to this directory again. *)

type restore_report = {
  rst_records : int;  (** records replayed (LSN below the cut) *)
  rst_undone : int;  (** loser updates rolled back at the cut *)
  rst_losers : int list;  (** transactions still open at the cut *)
  rst_stop_lsn : int64;  (** the requested cut *)
  rst_new_base : int64;  (** the restored database's WAL base *)
}

val restore :
  ?page_size:int ->
  ?to_lsn:int64 ->
  source:string ->
  target:string ->
  unit ->
  restore_report
(** Point-in-time restore: rebuilds into fresh directory [target] the
    exact state [source] had at [to_lsn] (exclusive; default: the end of
    its history) by replaying archived WAL generations plus the live WAL
    through normal recovery — transactions still open at the cut are
    rolled back, exactly as a crash there would have. Requires an
    unbroken archive chain from LSN 0 ([rx init --archive]). Offline
    operation: [source] must be a stopped database or a file-level copy.
    @raise Failure on incomplete history, a bad [to_lsn], or a non-empty
    [target]. *)

(** {1 Transactions}

    Writers follow strict two-phase locking from the moment a statement is
    staged; readers run against the begin-time snapshot without locking.
    Conflicting writes by a transaction that committed after this
    transaction began are refused (first-updater-wins,
    [Failure "... write-write conflict ..."]). *)

val begin_txn : t -> txn
(** Starts a transaction whose reads see the database as of now. *)

val commit : t -> txn -> unit
(** Atomically applies the transaction's staged statements to the current
    state (value/text indexes are maintained here — index maintenance is
    deferred to commit), appends the Commit record and releases locks.
    Outside {!exclusively} it then waits for the Commit record to reach
    stable storage; inside, the wait joins the one {!exclusively} hands
    back. Like every other handle operation it is caller-serialized:
    committers on several threads wrap it in {!exclusively} and run the
    returned wait outside, so concurrent commits share one group-commit
    fsync (a leader flushes for the group, optionally holding the window
    open for [config.commit_window_us]). Counted in [txn.commit].
    @raise Invalid_argument if the transaction is not open. *)

val exclusively : t -> (unit -> 'a) -> 'a * (unit -> unit)
(** [exclusively t f] runs [f] holding the handle's engine lock and
    returns its value with one durability wait. Every commit made inside
    [f] — auto-commit DML and DDL, {!commit}, catalog saves, index-build
    slices — appends its Commit record and releases its locks, but leaves
    its wait to the returned thunk; run it after [exclusively] returns,
    from any thread, before treating those commits as durable. Concurrent
    callers thus serialize their engine work but overlap their waits and
    share group-commit fsyncs (the rxd server runs a pipelined batch's
    waits together). If [f] raises, the waits of the commits it already
    made run before the exception is re-raised. Outside [exclusively]
    every commit waits before it returns. A multi-threaded host (one
    thread per client session, say) that wraps every handle operation in
    [exclusively] may issue them from any thread. Not reentrant: [f] must
    not call [exclusively] on the same handle, nor the self-locking
    {!Index.build}, {!Index.rollback} or immediate {!Index.drop}. *)

val rollback : t -> txn -> unit
(** Discards every staged statement — stats, value indexes and query
    results are exactly as before the transaction began — and releases
    locks. No-op on an already-finished transaction. *)

val txn_id : txn -> int
val txn_active : txn -> bool

(** {1 DDL} *)

val create_table :
  t -> name:string -> columns:(string * Rx_relational.Value.col_type) list -> table
(** @raise Invalid_argument if the table exists or no column is given. *)

val table : t -> string -> table option
val list_tables : t -> string list
(** Table names in creation order. *)

val register_schema : t -> name:string -> xsd:string -> unit
(** Compiles the XSD to its binary form and stores it in the catalog
    (Figure 4). @raise Rx_schema.Schema_model.Schema_error *)

val bind_schema : t -> table:string -> column:string -> schema:string -> unit
(** Documents inserted into the column are validated (and type-annotated)
    from then on. *)

exception
  Unknown_index of { kind : [ `Table | `Column | `Index ]; name : string }
(** An index-lifecycle operation named a table, XML column or index that
    does not exist. Maps to the stable application-error code (1) in the
    exit-code/wire table, but with a recognizable shape so callers can
    distinguish "no such index" from arbitrary argument errors. *)

(** Online, generational XPath value-index lifecycle.

    {!Index.build} constructs an index {e without} stopping the world: a
    side log (registered before the snapshot is taken) absorbs concurrent
    DML while the table is scanned in short slices, each slice its own
    critical section and micro-transaction, so queries and writers keep
    running against the current generation throughout. At a short quiesce
    point the side log is drained and the new generation is atomically
    swapped into planning (cached plans recompile via the DDL epoch); the
    WAL-logged catalog save makes the swap durable — a crash mid-build
    recovers to the old generation and the half-built tree's pages are
    unreferenced orphans (page reclamation is lazy engine-wide).

    Rebuilding an existing name bumps the generation and {e retains} the
    displaced generation, still observer-maintained, so {!Index.rollback}
    can swap it back in without downtime — and without serving stale
    entries. *)
module Index : sig
  (** Where an index (or an in-flight build) stands. *)
  type state =
    | Building of { scanned : int; total : int; side_log : int }
        (** scan progress in documents, plus the side-log backlog *)
    | Live  (** serving queries *)
    | Failed of string  (** the build died; the target is untouched *)

  type info = {
    ix_name : string;
    ix_path : string;  (** the indexed XPath, normalized *)
    ix_key_type : Rx_xindex.Index_def.key_type;
    ix_generation : int;  (** 1 for a first build; rebuilds increment *)
    ix_state : state;
    ix_entries : int;  (** key count (0 while building) *)
    ix_build_ms : int;  (** duration of the last completed build *)
    ix_prior_generation : int option;
        (** retained generation a {!rollback} would restore *)
  }
  (** Typed description of one index — what {!list} and {!status} return
      instead of bare names. *)

  type handle
  (** A running build, returned by {!build}; join it with {!await}. *)

  val build :
    ?on_slice:(int -> unit) ->
    t ->
    table:string ->
    column:string ->
    name:string ->
    path:string ->
    key_type:Rx_xindex.Index_def.key_type ->
    handle
  (** Starts an online build (or, if [name] is already live, an online
      generational rebuild) on a background thread and returns
      immediately. Progress is visible through {!status}; the engine stays
      fully available while it runs. [?on_slice] is called after each
      slice (scan, bulk load and side-log drain), outside the engine
      lock — a test/throttling hook.
      @raise Unknown_index on an unknown table or column.
      @raise Invalid_argument on an invalid path or if the same name is
      already being built.
      @raise Read_only on replicas and degraded handles. *)

  val await : handle -> info
  (** Blocks until the build finishes and returns the live generation's
      info; re-raises the build's failure if it died. *)

  val status : t -> table:string -> column:string -> name:string -> info
  (** The index's current state: an in-flight build reports
      [Building {scanned; total; side_log}], a dead one reports [Failed]
      until the next successful rebuild, otherwise the live generation.
      @raise Unknown_index if nothing by that name exists. *)

  val rollback : t -> table:string -> column:string -> name:string -> info
  (** Swaps the retained prior generation back into planning, atomically
      and without downtime, and retains the displaced generation in turn
      (so a rollback can be undone by another rollback). Both generations
      were observer-maintained while retained, so the restored index is
      current, not stale.
      @raise Unknown_index if no index by that name is live.
      @raise Invalid_argument if there is no prior generation, or the name
      is mid-build. *)

  val drop : ?txn:txn -> t -> table:string -> column:string -> name:string -> unit
  (** Drops an index and its retained prior generation: detaches their
      maintenance observers, removes the name from planning, invalidates
      cached plans (B+tree pages are not reclaimed — deletion is lazy
      engine-wide). With [?txn] the drop is staged and becomes effective
      (and durable) at {!commit}; until then other sessions keep planning
      with the index, while the staging transaction's own queries refuse
      plans that use it.
      @raise Unknown_index if the index does not exist. *)

  val list : t -> table:string -> column:string -> info list
  (** Every live index on the column, plus in-flight first builds (a
      rebuild is listed as its live generation; see {!status} for its
      progress).
      @raise Unknown_index on an unknown table or column. *)
end

val create_text_index : t -> table:string -> column:string -> name:string -> unit
(** Full-text inverted index over the column's text and attribute values
    (the §6 future-work extension); backfills existing documents. *)

val text_search :
  t ->
  table:string ->
  column:string ->
  ?mode:[ `All | `Any ] ->
  string ->
  int list
(** DocIDs whose documents contain all (default) or any of the query's
    terms. *)

val text_score : t -> table:string -> column:string -> docid:int -> string -> int
(** Total occurrences of the query's terms in the document. *)

(** {1 DML} *)

val insert :
  ?txn:txn ->
  t ->
  table:string ->
  ?values:(string * Rx_relational.Value.t) list ->
  ?xml:(string * string) list ->
  unit ->
  int
(** Inserts a row; returns its DocID. XML documents are parsed (validated
    when a schema is bound), packed and indexed. With [?txn] the row is
    staged (invisible to other sessions) until {!commit}.
    @raise Rx_xml.Parser.Parse_error / Rx_schema.Validator.Validation_error *)

val insert_many :
  ?docids:int list -> t -> table:string -> column:string -> string list -> int list
(** Bulk load: inserts every document into [column] (one row each) as a
    {e single} auto-committed transaction — all documents become visible
    and durable together, or none do. The batch takes one table-level X
    lock instead of a lock per document, places records through the heap
    file's batch path (free-space map probed per page, not per record),
    runs value/text index maintenance batched per index, and pays one WAL
    flush (one fsync) at commit. Every document is parsed (and validated,
    when a schema is bound) before anything is written, so a bad document
    or a duplicate [docids] entry rejects the whole batch with the
    database unchanged. DocIDs are allocated consecutively unless [docids]
    provides them (same length as the batch, all unused). Returns the
    batch's DocIDs in order. Concurrent snapshots opened before the call
    do not see the batch.
    @raise Invalid_argument on a docid collision or length mismatch.
    @raise Rx_xml.Parser.Parse_error / Rx_schema.Validator.Validation_error *)

val delete : ?txn:txn -> t -> table:string -> docid:int -> unit
(** Deletes the row (and its XML documents, with pre-images retained for
    live snapshots). With [?txn] the delete is staged until {!commit}. *)

val fetch_row : t -> table:string -> docid:int -> Rx_relational.Value.t array option
(** The base-table row for a DocID, if present. *)

val row_count : t -> table:string -> int
(** Rows currently in the table's base table. *)

val document : ?txn:txn -> t -> table:string -> column:string -> docid:int -> string
(** Serialized XML column value (at the transaction's snapshot when [?txn]
    is given). *)

(** {2 Sub-document updates}

    Node IDs come from {!query} results; existing IDs are stable across
    these operations (§3.1) and all indexes are maintained. Updates on a
    schema-bound column are {e not} re-validated (matching the paper's
    sub-document update story, where validation happens at full-document
    insertion). *)

val update_xml_text :
  ?txn:txn ->
  t -> table:string -> column:string -> docid:int -> Rx_xmlstore.Node_id.t ->
  string -> unit
(** Replaces the content of a text node. The node may also be an element
    (e.g. straight from a query match), in which case its first text-node
    child is updated. *)

val insert_xml_fragment :
  ?txn:txn ->
  t ->
  table:string ->
  column:string ->
  docid:int ->
  Rx_xmlstore.Doc_store.position ->
  string ->
  Rx_xmlstore.Node_id.t list
(** The string is a balanced XML fragment (possibly several top-level
    nodes). *)

val delete_xml_node :
  ?txn:txn ->
  t -> table:string -> column:string -> docid:int -> Rx_xmlstore.Node_id.t -> unit

val xml_handle :
  t -> table:string -> column:string -> docid:int -> Rx_xqueryrt.Xml_handle.t
(** Deferred-fetch handle (§4.4). *)

(** {1 Queries} *)

val explain :
  ?ns_env:(string * string) list ->
  t -> table:string -> column:string -> xpath:string -> plan_info

type prepared
(** A query compiled once — parsed, rewritten, planned, and its QuickXScan
    machine built — and reusable across executions. A handle never goes
    stale: it remembers the catalog epoch it was compiled under and
    transparently recompiles if DDL has happened since. *)

module Prepared : sig
  val table : prepared -> string
  val column : prepared -> string
  val xpath : prepared -> string

  val ns_env : prepared -> (string * string) list
  (** Canonical form: first binding per prefix kept, sorted. *)

  val plan : prepared -> plan_info
  (** The access path chosen at preparation time. *)
end

val prepare :
  ?ns_env:(string * string) list ->
  t -> table:string -> column:string -> xpath:string -> prepared
(** Compiles (or fetches from the plan cache) the query. Results are
    cached in a per-database LRU keyed by
    [(table, column, xpath, canonical ns_env)] and invalidated by any DDL
    — {!run} consults the same cache, so repeated ad-hoc queries skip
    compilation too. Cache traffic shows up in the [plancache.hits] /
    [plancache.misses] / [plancache.invalidations] counters and
    compilations are traced as [db.prepare] spans.
    @raise Invalid_argument on an unknown table or column. *)

val run_prepared : ?txn:txn -> t -> prepared -> result
(** Executes a prepared query: {!run} minus parsing, planning and
    QuickXScan construction. With [?txn] it behaves exactly like {!run}
    with [?txn] (snapshot scan; the stored plan is not used). *)

val invalidate_plans : t -> unit
(** Drops every cached plan (bumps the catalog epoch). DDL does this
    automatically; explicit use is for benchmarks and tests. *)

val run :
  ?ns_env:(string * string) list ->
  ?txn:txn ->
  t -> table:string -> column:string -> xpath:string -> result
(** Plans and executes an XPath query, returning matches, the executed
    plan and a per-query runtime-counter profile in one bundle. [ns_env]
    binds the query's namespace prefixes to URIs. With [?txn] the query
    evaluates against the transaction's begin-time snapshot plus its own
    staged writes; since value indexes describe the current committed
    state, such reads always scan ([plan.description] =
    ["SNAPSHOT-SCAN(QuickXScan)"]). *)

(** {2 Streamed result cursors}

    A cursor is the lazy half of a {!result} kept alive across calls: the
    match list (docid + node id per match — small) is computed eagerly by
    the underlying query, but serialization — the part that turns a match
    into an arbitrarily large XML string — is deferred and paid chunk by
    chunk. A result set whose serialized form is hundreds of megabytes
    therefore crosses any consumer (the rxd wire protocol's
    [Open_cursor]/[Fetch] opcodes in particular) in bounded-memory chunks
    instead of materializing at once. A cursor is as thread-safe as the
    handle operations it wraps: callers serialize {!cursor_next} under
    {!exclusively}, as the rxd server does. *)

type cursor
(** An open streamed-result handle; see {!cursor_of_result}. *)

val cursor_of_result : result -> cursor
(** Wraps an already-executed {!result} as a cursor: [cursor_of_result
    (run ...)] streams a query's result with the same plan choice and
    [?txn] snapshot semantics as {!run}. A cursor over a [?txn] result is
    only valid while that transaction stays open. *)

val cursor_plan : cursor -> plan_info
(** The access path the cursor's query executed. *)

val cursor_next : ?max_bytes:int -> cursor -> (int * string) list
(** The next chunk of [(docid, serialized subtree)] rows in (DocID,
    document order): matches are serialized until the chunk reaches
    [max_bytes] (default 256 KiB) — always at least one row, so a single
    oversized document still streams as a chunk of its own size, but a
    {e later} row that would overshoot the budget is carried (already
    serialized) to the next chunk, so only a chunk's {e first} row can
    ever exceed [max_bytes]. An empty list means the cursor is exhausted.
    Serialization reads pages, so the usual {!Busy} backpressure applies.
    @raise Invalid_argument on a closed cursor or [max_bytes <= 0]. *)

val cursor_close : cursor -> unit
(** Releases the cursor's remaining matches; further {!cursor_next} calls
    raise. Idempotent — closing an exhausted or never-read cursor is
    fine. *)

(** {1 Introspection} *)

type stats = {
  tables : int;
  documents : int;
  xml_records : int;
  node_index_entries : int;
  value_index_entries : int;
  data_pages : int;
  log_bytes : int;
}

val stats : t -> stats
(** Structural totals across all tables (documents, records, index
    entries, pages, log bytes); also mirrored as [db.*] registry gauges. *)

val error_code : exn -> int
(** The stable error table (DESIGN.md) in one place, shared by the [rx]
    exit codes and the rxd wire-protocol status codes: 3 {!Busy},
    4 deadlock, 5 {!Read_only}, 6 corruption (page checksum or WAL CRC),
    1 application error ([Invalid_argument], [Failure], XML parse or
    schema validation), 2 anything else. *)

val error_message : exn -> string
(** Total one-line rendering of any exception: a one-line summary of the
    engine's public failure exceptions — {!Busy}, {!Read_only},
    {!Rx_txn.Lock_manager.Deadlock}, {!Rx_storage.Pager.Corrupt_page} and
    {!Rx_wal.Log_manager.Corrupt_record} — the parser/validator message
    for XML errors, the payload of [Invalid_argument]/[Failure],
    [Printexc.to_string] otherwise. *)

val column_store : t -> table:string -> column:string -> Rx_xmlstore.Doc_store.t
(** Direct access to a column's document store (benchmarks). *)

val buffer_pool : t -> Rx_storage.Buffer_pool.t

val metrics : t -> Rx_obs.Metrics.t
(** This database's private registry: every layer underneath (pager,
    buffer pool, WAL, locks, B+trees, QuickXScan, planner, executor)
    reports here, isolated from other database instances. *)

val tracer : t -> Rx_obs.Trace.t
(** Trace spans recorded around query execution. *)
