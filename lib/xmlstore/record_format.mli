(** Binary format of packed XML records (§3.1, Figure 3).

    A record holds a sequence of subtrees that share a common parent (the
    {e context node}). The header carries the context's absolute node ID,
    its path from the root (name IDs) and its in-scope namespaces, making
    every record self-contained when reached from an XPath value index.
    Structure nesting represents parent-child relationships: each element
    entry embeds its children; each non-leaf entry stores its child count
    and the byte length of its children section (so traversal can skip whole
    subtrees). A subtree packed into another record is represented by a
    proxy entry carrying only the subtree root's relative node ID. *)

type header = {
  context : Node_id.t;
  path : (int * int) list;
      (** (namespace URI id, local-name id) of each ancestor, root first;
          its length equals the context's level. *)
  ns_in_scope : (int * int) list; (** (prefix id, URI id) *)
  n_subtrees : int;
}

val encode_header : Rx_util.Bytes_io.Writer.t -> header -> unit
(** The header; the entries follow it. *)

val encode_element_prefix :
  Rx_util.Bytes_io.Writer.t ->
  rel:Node_id.rel ->
  name:Rx_xml.Qname.t ->
  attrs:Rx_xml.Token.attr list ->
  ns_decls:(int * int) list ->
  n_children:int ->
  children_len:int ->
  unit
(** The element entry up to (excluding) its children bytes, which the caller
    appends. *)

val encode_text :
  Rx_util.Bytes_io.Writer.t ->
  rel:Node_id.rel -> annot:Rx_xml.Typed_value.t option -> string -> unit
(** A text entry and its type annotation. *)

val encode_comment : Rx_util.Bytes_io.Writer.t -> rel:Node_id.rel -> string -> unit
(** A comment entry. *)

val encode_pi :
  Rx_util.Bytes_io.Writer.t -> rel:Node_id.rel -> target:string -> data:string -> unit
(** A processing-instruction entry. *)

val encode_proxy : Rx_util.Bytes_io.Writer.t -> rel:Node_id.rel -> unit
(** A proxy: the relative ID of a subtree stored in another record. *)

(** {1 Reading in place}

    The §4 "virtual SAX" read path: a mutable {!cursor} decodes an entry's
    fixed fields into ints — name ids, and offsets and lengths into the
    record for strings — and copies nothing until asked; {!node_id} builds
    a node's absolute ID on demand. One cursor serves a whole scan and is
    never shared across domains. Every read is checked against the entry's
    bound, so a damaged record raises [Invalid_argument] (the readers' only
    error): nothing is read out of bounds, and no allocation follows a
    length read from the record. *)

type kind = K_element | K_text | K_comment | K_pi | K_proxy

(** The current entry's fields, readable in place; only this module writes
    them. Offsets index [record]; [pos], [lim] and the header and ancestor
    fields are internal. *)
type cursor = private {
  mutable record : string;  (** the record the current entry lies in *)
  mutable pos : int;
  mutable lim : int;
  mutable off : int;  (** start of the current entry *)
  mutable kind : kind;
  mutable rel_off : int; mutable rel_len : int;  (** its relative ID *)
  mutable uri : int; mutable local : int; mutable prefix : int;  (** element name ids *)
  mutable n_attrs : int; mutable attrs_off : int; mutable ns_off : int;
  mutable children_off : int;  (** element: children up to [next] *)
  mutable str_off : int; mutable str_len : int;  (** text, comment, PI data *)
  mutable target_off : int; mutable target_len : int;  (** PI target *)
  mutable annot_off : int;
  mutable next : int;  (** just past the entry, children included *)
  mutable attr_next : int;
  mutable a_uri : int; mutable a_local : int; mutable a_prefix : int;  (** attribute read last *)
  mutable a_off : int; mutable a_len : int; mutable a_annot : int;
  mutable ctx_off : int; mutable ctx_len : int; mutable hns_off : int;
  mutable skip : bool;
  mutable base : Node_id.t;  (** parent of the depth-0 entries *)
  mutable depth : int;
  mutable anc_records : string array;
  mutable anc_rel_off : int array;
  mutable anc_rel_len : int array;
}

val create_cursor : unit -> cursor
(** A cursor positioned nowhere, with an empty ancestor path. *)

val read : cursor -> string -> int -> limit:int -> unit
(** [read c record off ~limit] decodes the entry at [off], which must end
    at or before [limit]; the accessors below then describe it.
    @raise Invalid_argument on a damaged entry. *)

val read_header : cursor -> string -> int -> limit:int -> int
(** [read_header c s off ~limit] decodes the header of the record that
    occupies [\[off, limit)] of [s] (a record of its own, or one read in
    place from a page image); returns the offset of its first entry. Every
    offset the cursor reports then indexes [s], and the record's entries
    end at [limit].
    @raise Invalid_argument on a damaged header. *)

val context : cursor -> Node_id.t
(** The context node ID of the header last read. *)

val header_ns : cursor -> (int * int) list
(** The in-scope namespaces of the header last read. *)

val start : cursor -> base:Node_id.t -> unit
(** Empties the ancestor path; entries read next are children of [base]. *)

val node_id : cursor -> Node_id.t
(** The current entry's absolute ID: base, ancestor path and its own
    relative ID, concatenated (the only allocation of a scan step). *)

val rel : cursor -> Node_id.rel
(** The current entry's relative ID, copied. *)

val qname : cursor -> Rx_xml.Qname.t
(** Element: its name. *)

val has_children : cursor -> bool
(** Element: whether it has child entries. *)

val ns_decls : cursor -> (int * int) list
(** Element: its own namespace declarations. *)

val attrs : cursor -> Rx_xml.Token.attr list
(** Element: its attributes, copied. *)

val first_attr : cursor -> unit
(** Element: rewinds attribute reading; each {!next_attr} then reads one
    attribute, in stored order, into the [a_*] fields. Valid until the
    next {!read}. *)

val next_attr : cursor -> unit
(** Reads the next attribute. *)

val skip_children : cursor -> unit
(** Called from a sink's [element]: the walk skips the element's children
    and goes straight to its [end_element]. *)

val str : cursor -> string
(** Text or comment content, PI data: copied. *)

val target : cursor -> string
(** PI target, copied. *)

val text_annot : cursor -> Rx_xml.Typed_value.t option
(** Text: its type annotation. *)

val decode_header : string -> header * int
(** Returns the header and the offset of the first entry. *)

(** Callbacks of a document-order walk; each receives the cursor on the
    entry it reports. [end_element] sees the element again, after its
    children. *)
type sink = {
  element : cursor -> unit;
  end_element : cursor -> unit;
  leaf : cursor -> unit; (** a text, comment or PI *)
  proxy : cursor -> unit; (** a subtree stored in another record *)
}

val walk : cursor -> sink -> string -> int -> int -> unit
(** [walk c sink record off limit] reports the entries in [\[off, limit)]
    and their subtrees in document order, pushing each element with
    children while its children are walked. *)

val dispatch : cursor -> sink -> unit
(** Reports the entry the cursor is on, its subtree included. *)

val walk_record : cursor -> sink -> string -> unit
(** Walks a whole record, with the header's context as base. *)

val interval_endpoints : string -> Node_id.t list
(** Upper endpoints of the maximal document-order-contiguous node-ID
    intervals stored inline in this record — exactly the NodeID-index
    entries the record contributes (§3.1: three entries for the two records
    of Figure 3). *)

val min_node_id : string -> Node_id.t
(** Absolute ID of the first inline node (the [minNodeID] column). *)

val node_count : string -> int
(** Inline nodes in this record (elements, texts, comments, PIs —
    attributes and proxies excluded). *)
