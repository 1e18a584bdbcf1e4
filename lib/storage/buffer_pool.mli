(** The buffer manager: a fixed set of in-memory frames over a {!Pager},
    with LRU replacement, pin counts, and write-ahead-logging hooks.

    All page modifications by higher components (heap files, B+trees) go
    through {!update}, which diffs the page image around the callback and
    reports each changed byte run to the journal; the last returned LSN is
    stamped into the page header. This gives every component physiological
    redo/undo logging for free — the paper's point that packed XML records
    "look like rows" to logging and recovery.

    Concurrency: the pool is latch-striped into power-of-two {!shards},
    pages assigned by [page_no land (shards - 1)]. Each shard owns a mutex,
    an LRU of its frames and its activity tallies, so reader domains
    scanning different page ranges contend on different latches; a shard's
    lock is held across a miss's physical read, making a cold demand read
    single-flight per page. Read access ({!with_page}, {!prefetch},
    {!cached}, {!snapshot}) is safe from any number of domains. Mutating
    entry points ({!update}, {!modify_unlogged}, {!alloc}, {!flush_all},
    {!drop_cache}, {!set_journal}) keep the engine's single-writer rule:
    callers serialize them behind the database write lock. Lock order is
    shard latch, then WAL/pager locks; lower layers never call back into
    the pool. *)

type t

exception Pool_exhausted of { page_no : int; capacity : int }
(** Raised when a frame is needed for [page_no] but every frame in its
    shard is pinned (no eviction candidate), or by {!drop_cache} when a
    page is still pinned; [capacity] is the shard's frame count. The
    database layer surfaces this as [Database.Busy] so a pin-heavy query
    degrades gracefully instead of killing the process. *)

(** Write-ahead-log hooks installed by the transaction layer. *)
type journal = {
  log_update :
    page_no:int -> off:int -> before:string -> after:string -> int64;
      (** Must append a redo/undo record and return its LSN. *)
  ensure_durable : int64 -> unit;
      (** Called with a page's LSN before that page is written back. *)
}

(** Immutable point-in-time view of the pool's activity counters. *)
type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  page_flushes : int;
}

val create :
  ?metrics:Rx_obs.Metrics.t -> ?capacity:int -> ?shards:int -> Pager.t -> t
(** [capacity] is the total number of frames (default 256), divided evenly
    among [shards] latch-striped partitions. [shards] must be a power of
    two no larger than [capacity]; the default is 16 for engine-sized
    pools ([capacity >= 1024]) and 1 otherwise, so small test pools keep
    exact single-LRU semantics. [metrics] receives the [bufpool.*]
    counters and the [bufpool.shards] gauge (default: the global
    registry); storage-side components built over this pool
    ({!Rx_btree.Btree}, heap files, stores) resolve their own instruments
    from {!metrics}. *)

val shards : t -> int
(** Number of latch-striped partitions. *)

val pager : t -> Pager.t
(** The underlying pager (shared; do not close it while the pool is live). *)

val page_size : t -> int
(** Page size of the underlying pager, in bytes. *)

val set_journal : t -> journal option -> unit
(** Installs (or removes, with [None]) the WAL hooks. While a journal is
    installed, every {!update} is logged before the frame can be written
    back, and {!flush_all} honours the WAL rule via [ensure_durable]. *)

val with_page : t -> int -> (bytes -> 'a) -> 'a
(** Read-only access; the page is pinned for the duration of the callback.
    The callback must not retain the bytes.
    @raise Pool_exhausted if every frame is pinned. *)

val cached : t -> int -> bool
(** Whether the page is resident in a frame right now (does not touch LRU
    recency). Scans use this to decide when to issue a readahead batch. *)

val prefetch : t -> int list -> unit
(** Readahead: load the listed pages into unpinned frames ahead of demand.
    Pages already cached or out of range are skipped; the rest are grouped
    into maximal runs of consecutive page numbers, each fetched from the
    pager in one batched read ({!Pager.read_run}). Purely advisory: it stops
    quietly when no evictable frame remains and leaves corrupt pages for the
    demand read to report. Instrumented as [bufpool.readahead.batches] (runs
    issued), [bufpool.readahead.pages] (pages fetched), and
    [bufpool.readahead.wasted] (prefetched frames evicted untouched). *)

val update : t -> int -> (bytes -> 'a) -> 'a
(** Mutating access: diffs the image, journals each changed run of bytes
    as its own [log_update] (runs separated by more than about 20 equal
    bytes are logged apart, so a slotted-page insert logs its pointer and
    its cell, not the free gap between them), stamps the last LSN and
    marks the frame dirty. If the callback (or the journal) raises, the
    frame's bytes are restored before the exception propagates, so an
    unlogged partial mutation never stays in the pool. *)

val modify_unlogged : t -> int -> (bytes -> 'a) -> 'a
(** Mutating access that bypasses the journal — recovery redo/undo only. *)

val alloc : t -> Page.kind -> int
(** Allocates a fresh page of the given kind (the kind tag write is
    journaled). *)

val flush_all : t -> unit
(** Writes back all dirty frames (honouring the WAL rule) and syncs. *)

val drop_cache : t -> unit
(** Discards every frame without writing anything back — simulates losing
    volatile memory in a crash.
    @raise Pool_exhausted if any page is pinned. *)

val metrics : t -> Rx_obs.Metrics.t
(** The registry this pool reports to. *)

val snapshot : t -> snapshot
(** Cheap immutable copy of this pool's own tallies (never shared with
    other pools, even when registries are). Take one before and one after a
    measured section and {!diff} them — no reset, so concurrent readers
    can't race each other's zeroing. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Component-wise [after - before]. *)
