(** Storage of XML column data (§3.1, Figure 2): an internal XML table
    (heap file of packed records) plus the NodeID index mapping logical
    (DocID, NodeID) positions to physical RIDs via interval upper
    endpoints.

    Traversal (§3.4) resolves proxy nodes through the NodeID index, so
    records can be placed anywhere — there are no physical links between
    records. *)

type t

type event = { id : Node_id.t option; token : Rx_xml.Token.t }
(** [id] is set on node-introducing tokens (start-element, text, comment,
    PI) and [None] on end-element. *)

val create :
  ?record_threshold:int ->
  ?packing_policy:Packer.policy ->
  Rx_storage.Buffer_pool.t ->
  Rx_xml.Name_dict.t ->
  t
(** [record_threshold] bounds packed-record entry sections (default 2048
    bytes) and [packing_policy] selects the grouping strategy — the two
    packing knobs ablated in E1. *)

val attach :
  ?record_threshold:int ->
  ?packing_policy:Packer.policy ->
  Rx_storage.Buffer_pool.t ->
  Rx_xml.Name_dict.t ->
  heap_header:int ->
  index_meta:int ->
  t

val heap_header : t -> int
(** The heap file's header page, which {!attach} takes back. *)

val index_meta : t -> int
(** The NodeID index's meta page, which {!attach} takes back. *)

val dict : t -> Rx_xml.Name_dict.t
(** The name dictionary the records' name ids refer to. *)

val metrics : t -> Rx_obs.Metrics.t
(** The registry of the underlying buffer pool — components layered on the
    store (executor, value indexes) report there. *)

val add_record_observer :
  t -> (docid:int -> rid:Rx_storage.Rid.t -> record:string -> unit) -> int
(** Called for every packed record as it is stored — how XPath value
    indexes generate their keys "per record" (§3.2). Returns a handle for
    {!remove_record_observer}. *)

val add_delete_observer :
  t -> (docid:int -> rid:Rx_storage.Rid.t -> record:string -> unit) -> int
(** Like {!add_record_observer}, for record deletion; returns a handle for
    {!remove_delete_observer}. *)

val remove_record_observer : t -> int -> unit
(** Detaches a record observer by handle (no-op if already removed) — how a
    dropped value index stops receiving maintenance callbacks. *)

val remove_delete_observer : t -> int -> unit
(** Detaches a delete observer by handle (no-op if already removed). *)

val insert_tokens : t -> docid:int -> Rx_xml.Token.t list -> unit
val insert_document : t -> docid:int -> string -> unit
(** Parses and stores. @raise Rx_xml.Parser.Parse_error on bad input. *)

val insert_tokens_bulk :
  t ->
  (int * Rx_xml.Token.t list) list ->
  (int * Rx_storage.Rid.t * string) list
(** Bulk {!insert_tokens}: packs every [(docid, tokens)] document, places
    all resulting records through {!Rx_storage.Heap_file.insert_many} (one
    free-space probe per page, one record-count bump for the batch), and
    maintains the NodeID index. Record observers are deliberately {e not}
    fired — instead every stored [(docid, rid, record)] is returned so the
    caller can run index maintenance batched per index rather than per
    document. *)

val delete_document : t -> docid:int -> unit
val mem : t -> docid:int -> bool
(** Whether the document is stored (one NodeID-index seek). *)

val events : t -> docid:int -> (event -> unit) -> unit
(** Whole-document traversal in document order, as materialized tokens. *)

val roots : t -> (int * Rx_storage.Rid.t) list
(** Every stored document's docid and root-record RID, in docid order, from
    one walk over the NodeID index — what a full scan hands to {!scan},
    with no seek per document. *)

val scan :
  ?root:Rx_storage.Rid.t ->
  t ->
  docid:int ->
  Record_format.cursor ->
  Record_format.sink ->
  unit
(** Whole-document traversal read in place from the packed records (§4
    "virtual SAX"), in document order, starting from the root record at
    [root] (from {!roots}), else at the one a root seek finds. Each record
    is read in place from its pinned buffer-pool page
    ({!Rx_storage.Heap_file.with_record}): the sink sees the cursor on
    each entry and reads names as dictionary ids and strings as offsets
    into the page image, so a scan step copies nothing. No sink may keep
    [c.record], or an offset into it, after its callback returns. Proxies
    are followed here; [sink.proxy] is never called. The cursor is the
    scan's only mutable state: pass one per domain, never one shared
    across domains.
    @raise Invalid_argument if the document does not exist, the record at
    [root] is not a root record, or a record is damaged. *)

val set_readahead : t -> int -> unit
(** Sets the readahead window on the store's heap file and NodeID B+tree
    (see {!Rx_storage.Heap_file.set_readahead}). *)

val subtree_events : t -> docid:int -> Node_id.t -> (event -> unit) -> unit
(** Traversal of one subtree, located via the NodeID index — the §3.4
    path for access from an XPath value index. The root element's
    declarations include the namespaces its ancestors declared. *)

val scan_subtree :
  t -> docid:int -> Node_id.t -> Record_format.cursor -> Record_format.sink -> unit
(** {!scan} over one subtree, located via the NodeID index.
    @raise Invalid_argument if the node does not exist. *)

val serialize_subtree : t -> docid:int -> Node_id.t -> string
(** The subtree's markup, written from the record bytes; equal to
    {!Rx_xml.Serializer.to_string} over its {!subtree_events} tokens.
    @raise Invalid_argument if the node does not exist. *)

val iter_records :
  t -> docid:int -> (rid:Rx_storage.Rid.t -> record:string -> unit) -> unit
(** Visits each packed record of the document once (index backfill). *)

(** {1 Sub-document updates}

    The operations §3.1's node-ID design exists for: existing node IDs are
    never renumbered ("stable upon update"), middle insertions extend the
    ID length ("always space for insertion in the middle"), and only the
    affected records are rewritten. Value-index observers fire for the old
    and new images, keeping XPath value indexes consistent. *)

type position =
  | Before of Node_id.t (** new sibling(s) before this node *)
  | After of Node_id.t (** new sibling(s) after this node *)
  | Last_child_of of Node_id.t (** append under this element *)

val insert_fragment : t -> docid:int -> position -> Rx_xml.Token.t list -> Node_id.t list
(** Inserts a balanced XML fragment (one or more top-level nodes, no
    document wrapper); returns the new top-level node IDs in order.
    @raise Invalid_argument if the anchor node does not exist, or
    [Last_child_of] names a non-element. *)

val update_text : t -> docid:int -> Node_id.t -> string -> unit
(** Replaces the content of a text node.
    @raise Invalid_argument if the node is not a text node. *)

val delete_subtree : t -> docid:int -> Node_id.t -> unit
(** Removes a node and its whole subtree (records that become empty are
    reclaimed). @raise Invalid_argument on the root element (delete the
    document instead) or a missing node. *)

val tokens : t -> docid:int -> Rx_xml.Token.t list
(** The document's tokens, {!events} without node IDs. *)

val serialize : t -> docid:int -> string
(** The document's markup, written from the record bytes. *)

(** Cursor navigation with subtree skipping: [next_sibling] jumps over an
    entire subtree in O(1) within a record using the stored subtree
    length. *)
module Cursor : sig
  type cursor

  val root : t -> docid:int -> cursor option
  (** First document-level node. *)

  val find : t -> docid:int -> Node_id.t -> cursor option
  val node_id : cursor -> Node_id.t

  val entry : cursor -> Record_tree.node
  (** The resolved entry (never [Proxy]), with its inline subtree. *)

  val first_child : t -> cursor -> cursor option
  val next_sibling : t -> cursor -> cursor option
  val parent : t -> docid:int -> cursor -> cursor option
end

val data_page_count : t -> int
(** Number of heap data pages, O(1). The executor compares this against
    the [parallel_scan_min_pages] threshold to decide whether a partitioned
    multi-domain scan is worth spinning up. *)

type stats = {
  documents : int;
  records : int;
  index_entries : int;
  data_pages : int;
  overflow_pages : int;
  index_pages : int;
  record_bytes : int;
}

val stats : t -> stats
(** Counts and sizes of the store. *)
