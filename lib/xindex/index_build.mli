(** Side-log absorber for online index construction (GenIndex-style).

    An online build snapshot-scans the table while normal DML keeps
    committing. The absorber is registered as a maintenance observer on the
    column's document store {e before} the scan starts, so every concurrent
    insert, update and delete lands in a side log of pre-extracted index
    keys. The scan only collects entries; once it has ended and the sorted
    entries are bulk-loaded into the new generation's tree, the build
    drains the log in bounded slices and one final time at the quiesce
    point, then the new generation is swapped in. Replaying the whole log
    over the scanned state is exact: for each key the last logged
    operation decides, and a scanned state already reflects every
    operation logged before its scan.

    Events store extracted keys, never raw records: a deleted document's
    split subtrees are only resolvable while the store still holds it, and
    key-only draining keeps the quiesce window proportional to the log, not
    to document sizes. Replays are idempotent (B+tree insert replaces,
    delete ignores missing), so a record observed by both the scan and the
    log lands exactly once. *)

type t
(** One side log, bound to the index generation under construction and the
    document store it observes. *)

val start : Value_index.t -> Rx_xmlstore.Doc_store.t -> t
(** Registers record and delete observers on the store and returns the
    live log. Must be called before the snapshot scan captures its docid
    list, or DML in the gap would be lost. *)

val absorb : t -> docid:int -> rid:Rx_storage.Rid.t -> record:string -> unit
(** Feeds one inserted record directly — for bulk-load paths that bypass
    store observers ([Doc_store.insert_tokens_bulk]). Extracts keys
    immediately, like the observer path. *)

val scanned : t -> docid:int -> unit
(** Notes that the snapshot scan has read [docid] (present, or deleted
    since the snapshot): every event logged for it so far is already in
    the scanned state, so {!drain} replays those into the tree but does not
    count them in the multi-value statistic again. Call for every docid of
    a scan slice, inside the slice's critical section. *)

val entries :
  t -> docid:int -> rid:Rx_storage.Rid.t -> record:string ->
  (string * string) list
(** The encoded B+tree [(key, value)] entries of one scanned record, for
    the bottom-up load; the record's depth goes into the scan's tally of
    the multi-value statistic, which {!load} writes once. Reads the store
    but writes nothing, so safe from concurrent domains. *)

val sort_entries : (string * string) array list -> (string * string) array
(** Joins the scan's per-slice entries, sorts them by key and keeps the
    last of equal keys (two attributes of one element with equal values
    share a key), as a one-by-one insert would. The result is ready for
    {!load}. *)

val load : t -> (string * string) array -> lo:int -> hi:int -> unit
(** Appends [sorted.(lo)] to [sorted.(hi - 1)] to the target's empty tree,
    bottom-up ({!Value_index.bulk_start}); the call whose [hi] is the
    array's length finishes the tree, so an empty array still needs one
    call. Each call may be its own critical section and micro-transaction,
    in ascending [lo]; until the last one the tree must not be read. The
    last call also sets the multi-value statistic from the scan's tally,
    in one journaled update. *)

val pending : t -> int
(** Number of undrained events. *)

val drain : ?max:int -> t -> int
(** Applies the oldest pending events, at most [max] of them (default:
    all), to the target index in log order and returns how many were
    applied. The events the scan has not seen (see {!scanned}) also
    adjust the multi-value statistic, in one update per call. Call under the engine's write exclusion: draining mutates the
    B+tree. *)

val stop : t -> unit
(** Detaches the observers. Call at the quiesce point (after the final
    {!drain}) or when abandoning a failed build; no-op if already
    stopped. *)
