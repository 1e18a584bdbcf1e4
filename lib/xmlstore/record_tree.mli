(** Editable form of a packed record, for sub-document updates (§3.1: node
    IDs "are stable upon update of the tree" and "there is always space for
    insertion in the middle"). A record is decoded into a node tree, edited,
    and re-encoded; child counts and subtree lengths are recomputed on
    encoding. *)

type node =
  | Element of {
      rel : Node_id.rel;
      name : Rx_xml.Qname.t;
      attrs : Rx_xml.Token.attr list;
      ns_decls : (int * int) list;
      children : node list;
    }
  | Text of { rel : Node_id.rel; content : string; annot : Rx_xml.Typed_value.t option }
  | Comment of { rel : Node_id.rel; content : string }
  | Pi of { rel : Node_id.rel; target : string; data : string }
  | Proxy of { rel : Node_id.rel }

val node_rel : node -> Node_id.rel
(** A node's relative ID. *)

val decode : string -> Record_format.header * node list
(** A whole record: its header and top-level entries. *)

val decode_node : string -> int -> node
(** The entry at an offset of a record, with its inline subtree. *)

val encode : Record_format.header -> node list -> string
(** Recomputes [n_subtrees], child counts and subtree lengths. *)

val of_tokens : base_rel:Node_id.rel list -> Rx_xml.Token.t list -> node list
(** Builds nodes from a balanced token fragment (no document wrapper),
    assigning the given relative IDs to the top-level nodes (one per
    top-level node, in order) and fresh sibling IDs below.
    @raise Invalid_argument on unbalanced input or arity mismatch. *)

val map_subtree :
  node list -> Node_id.rel list -> (node option -> node list) -> node list option
(** [map_subtree nodes rel_path edit] finds the entry addressed by the
    relative path and replaces it by [edit (Some entry)]'s result (empty
    list = delete, several = splice). If the path's last component is not
    present but its parent is, [edit None] supplies nodes to insert at the
    sorted position among that parent's children. Returns [None] if the
    path cannot be located. *)

val collect_proxies : node -> Node_id.rel list list
(** Relative paths (from the node's parent) of every proxy inside the
    subtree, the node itself included if it is a proxy. *)
