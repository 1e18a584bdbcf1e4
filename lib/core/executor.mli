(** Query execution over stored documents: drives QuickXScan from the
    document store's in-place record cursor (§4 "virtual SAX"), yielding
    logical node IDs as result items. *)

type evaluator
(** A compiled query machine bound to one document store, reusable across
    documents — the execution half of a cached plan. Not thread-safe. *)

val evaluator : Rx_xmlstore.Doc_store.t -> Rx_quickxscan.Query.t -> evaluator
(** Compiles the QuickXScan machine once; reuse it with {!eval_with} for
    every document the plan touches. *)

val sink :
  'a Rx_quickxscan.Engine.t -> item:(unit -> 'a) -> Rx_xmlstore.Record_format.sink
(** The events of a cursor walk fed to an engine; [item] is forced only for
    an output step's match. Attribute matches get their owner's item. *)

val eval_with :
  ?root:Rx_storage.Rid.t -> evaluator -> docid:int -> Rx_xmlstore.Node_id.t list
(** Result nodes in document order. Attribute results are represented by
    their owning element's node ID. Resets the machine between documents.
    [root] (from {!Rx_xmlstore.Doc_store.roots}) saves the root seek. *)

val eval_subtree :
  evaluator -> docid:int -> Rx_xmlstore.Node_id.t -> Rx_xmlstore.Node_id.t list
(** {!eval_with} over the subtree rooted at one node, fed to the machine as
    if it were a whole document (its root is the first level-1 element),
    located through the NodeID index; counted in [exec.subtrees_scanned],
    not [exec.docs_scanned]. *)

val eval_stored :
  Rx_quickxscan.Query.t ->
  Rx_xmlstore.Doc_store.t ->
  docid:int ->
  Rx_xmlstore.Node_id.t list
(** One-shot convenience: [eval_with (evaluator store query) ~docid]. *)

val eval_partitioned :
  pool:Rx_util.Domain_pool.t ->
  parallelism:int ->
  Rx_quickxscan.Query.t ->
  (Rx_xmlstore.Doc_store.t * int * Rx_storage.Rid.t option) array ->
  Rx_xmlstore.Node_id.t list array
(** [eval_partitioned ~pool ~parallelism query docs] evaluates [query]
    over every [(store, docid, root)] ({!eval_with}'s arguments), splitting
    the array into at most [parallelism] contiguous chunks that run
    concurrently on the domain pool. Each chunk builds its own evaluator(s),
    so the shared buffer pool is the only cross-domain state.
    [results.(i)] are the document-order result nodes of [docs.(i)] —
    callers get global document order by concatenating slots front to
    back. Exceptions from any chunk
    (e.g. [Buffer_pool.Pool_exhausted]) are re-raised on the caller. *)
