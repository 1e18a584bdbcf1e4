(** One XPath value index (§3.3): a B+tree whose entries are
    [(keyval, DocID, NodeID) → RID], mapping typed node values to both the
    logical position (DocID, NodeID) and the physical record (RID).

    Maintenance is driven by the document store's record observers: "index
    keys ... are generated per record" (§3.2) by running a simplified
    QuickXScan over each packed record, using the record header's context
    path to pre-match the ancestor steps — so records are processed
    self-contained. An element whose subtree is split across records (a
    proxy under the matched node) gets its value completed through a store
    traversal; text and attribute values are always record-local.

    Nodes whose string value does not convert to the key type produce no
    entry, so containment-matched indexes are only ever used as filters.

    XPath comparisons are existential, so two range conjuncts on one index
    may be answered by one closed scan only where no anchor holds more than
    one entry (a Product with prices 1 and 900 satisfies
    [price >= 5 and price < 6], yet no entry lies in [\[5, 6)]). The index
    therefore keeps a {e multi-value statistic}: for each NodeID level
    1 to {!stat_levels}, the number of records that make that level
    multi-valued (see {!extract_keys} for a record's depth). While the count
    at an anchor level is 0, every anchor at that level has at most one
    entry. The counts live on the B+tree's meta page and change only
    through journaled updates, so undo, redo, replica apply and restore
    keep them exact.

    An index carries a {e generation} number: 1 for its first build, bumped
    each time an online rebuild swaps a fresh tree in under the same name
    (see [Database.Index]). The tag lives here so the catalog can persist
    it next to the tree's meta page. *)

type t
(** One attached value index: definition, B+tree, and observer hooks. *)

type entry = {
  key : Rx_xml.Typed_value.t;
  docid : int;
  node : Rx_xmlstore.Node_id.t;
  rid : Rx_storage.Rid.t;
}
(** A decoded index entry in (key, docid, node) order. *)

val create :
  Rx_storage.Buffer_pool.t -> Rx_xml.Name_dict.t -> Index_def.t -> t
(** Creates an empty index (fresh B+tree) for [def]; generation 1. *)

val attach :
  Rx_storage.Buffer_pool.t -> Rx_xml.Name_dict.t -> Index_def.t -> meta_page:int -> t
(** Re-attaches a persisted index from its B+tree meta page. *)

val def : t -> Index_def.t
(** The definition this index was created with. *)

val meta_page : t -> int
(** The B+tree meta page number, persisted in the catalog. *)

val generation : t -> int
(** The generation tag (1 unless an online rebuild bumped it). *)

val set_generation : t -> int -> unit
(** Stamps the generation tag; called when the catalog records a rebuild
    or re-attaches a generational index. *)

val hook : t -> Rx_xmlstore.Doc_store.t -> unit
(** Registers insert and delete observers on the store. Only call once per
    store; documents inserted before hooking are not indexed. *)

val unhook : t -> Rx_xmlstore.Doc_store.t -> unit
(** Detaches the observers registered by {!hook} — the maintenance side of
    [DROP XML INDEX]. The B+tree pages are not reclaimed (deletion is lazy
    engine-wide); no-op if not hooked. *)

val index_record :
  t -> docid:int -> rid:Rx_storage.Rid.t -> record:string ->
  store:Rx_xmlstore.Doc_store.t option -> unit
(** Direct per-record maintenance (what the observer does); [store] enables
    the split-subtree value fallback. Equivalent to {!extract_keys} piped
    into {!insert_keys} and {!count_depths} (one more journaled update of
    the meta page when the record's depth is non-zero). *)

val unindex_record :
  t -> docid:int -> record:string ->
  store:Rx_xmlstore.Doc_store.t option -> unit
(** The delete-observer side of {!index_record}: removes every entry the
    record contributes and takes its depth back out of the statistic. Must
    run while the store can still resolve the
    record's split subtrees (i.e. before the document is gone). *)

val extract_keys :
  t -> docid:int -> record:string ->
  store:Rx_xmlstore.Doc_store.t option ->
  (Rx_xml.Typed_value.t * Rx_xmlstore.Node_id.t) list * int
(** The read-only half of {!index_record}: runs the per-record key
    extraction scan without touching the B+tree, and returns the keys with
    the record's {e depth}. The record counts in the multi-value statistic
    at levels 1 to depth: at every level where two of its index-path
    matches share an ancestor, and — when it yields any match — at every
    level up to its context node's (an anchor at or above the context also
    collects entries from other records). Matches whose value does not
    convert count too, so the depth depends on the record alone. An
    online build's side log extracts at observation time and applies the
    keys later with {!insert_keys} and the depths with {!count_depths}. *)

val tree_entries :
  t -> docid:int -> rid:Rx_storage.Rid.t ->
  (Rx_xml.Typed_value.t * Rx_xmlstore.Node_id.t) list -> (string * string) list
(** The encoded B+tree [(key, value)] entries {!insert_keys} would insert
    for previously extracted keys. Pure: an online build encodes during
    its scan, then sorts the entries and loads them through
    {!bulk_start}. *)

val bulk_start : t -> Rx_btree.Btree.bulk
(** Starts a bottom-up load of the index's tree
    ({!Rx_btree.Btree.bulk_start}) — for a fresh, not yet hooked index.
    @raise Invalid_argument if the tree is not empty. *)

val insert_keys :
  t -> docid:int -> rid:Rx_storage.Rid.t ->
  (Rx_xml.Typed_value.t * Rx_xmlstore.Node_id.t) list -> unit
(** The mutating half of {!index_record}: inserts previously extracted
    keys. Single-writer, like all B+tree mutation. Re-inserting an existing
    (key, docid, node) replaces its RID, so replays are idempotent. *)

val stat_levels : int
(** The deepest NodeID level the multi-value statistic counts (64); ranges
    anchored deeper never merge. *)

val count_depths : t -> (int * int) list -> unit
(** [count_depths t [(depth, n); ...]] adds [n] records of each depth to
    the multi-value statistic ([n < 0] removes them), in one journaled
    update of the meta page — none when no count changes. {!index_record}
    and {!unindex_record} do this themselves; online builds call it for
    the keys they apply with {!insert_keys} and {!remove_keys}. *)

val level_counts : t -> int array option
(** The multi-value statistic: [.(l - 1)] is the number of records that
    make NodeID level [l] multi-valued, for [l] from 1 to {!stat_levels}.
    [None] for a tree written before the statistic existed. *)

val merge_allowed : t -> level:int -> bool
(** Whether every anchor at NodeID [level] holds at most one entry (the
    count there is 0), so two exact ranges on this index may be answered
    by one closed scan of their intersection. Bumps
    [xindex.range_merges] when true and [xindex.range_merge_fallbacks]
    when false. *)

val recount : t -> Rx_xmlstore.Doc_store.t -> docids:int list -> int array
(** The multi-value statistic recomputed from the stored records of
    [docids], in {!level_counts}'s layout — what [Database.verify] compares
    the stored counts with. Reads only. *)

val remove_keys :
  t -> docid:int ->
  (Rx_xml.Typed_value.t * Rx_xmlstore.Node_id.t) list -> unit
(** Deletes previously extracted keys — the mutating half of
    {!unindex_record}, used by side-log draining where the keys were
    captured at event time and the document may be gone by apply time.
    Missing keys are ignored, so replays are idempotent. *)

type bound = Rx_xml.Typed_value.t * bool (** value, inclusive? *)

val scan :
  t -> ?min:bound -> ?max:bound -> (entry -> [ `Continue | `Stop ]) -> unit
(** Entries in (key, docid, node) order. *)

val entries : t -> ?min:bound -> ?max:bound -> unit -> entry list
(** {!scan} materialized into a list (tests and small ranges). *)

val entry_count : t -> int
(** Number of live entries in the B+tree. *)

val page_count : t -> int
(** Number of pages the B+tree occupies. *)
