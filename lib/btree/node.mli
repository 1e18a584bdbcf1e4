(** B+tree node page layout.

    Cells live at the end of the page; a sorted cell-pointer array grows
    forward after the header, so binary search never moves cell bodies.
    Leaf cells hold (key, value); internal cells hold (key, child) with the
    convention that [child] covers keys strictly below [key], and the
    header's [right] field is the rightmost child (or, for leaves, the
    right-sibling page for range scans). *)

val init : bytes -> level:int -> unit
(** Formats an empty node at [level] (0 for a leaf) into the page image.
    Only the node header is written; stale cell bytes stay unreachable. *)

val level : bytes -> int
(** The node's level: 0 for a leaf, its height above the leaves otherwise. *)

val is_leaf : bytes -> bool
(** [level page = 0]. *)

val ncells : bytes -> int
(** Number of cells (entries for a leaf, separator/child pairs otherwise). *)

val right : bytes -> int
(** Right sibling (leaf) or rightmost child (internal); 0 if none. *)

val set_right : bytes -> int -> unit

val key_at : bytes -> int -> string
(** The key of cell [i], for either node kind. *)

val leaf_cell : bytes -> int -> string * string
(** [(key, value)] of leaf cell [i]. *)

val internal_cell : bytes -> int -> string * int
(** [(key, child)] of internal cell [i]; [child] covers keys below [key]. *)

val set_internal_child : bytes -> int -> int -> unit
(** Rewrites the child pointer of cell [i] in place. *)

val search : bytes -> string -> bool * int
(** [(found, i)] where [i] is the index of the first cell whose key is
    [>= key]; [found] reports an exact match at [i]. *)

val leaf_insert_at : bytes -> int -> key:string -> value:string -> bool
(** [false] if the node is full (caller must split). *)

val internal_insert_at : bytes -> int -> key:string -> child:int -> bool
(** The internal-node counterpart of {!leaf_insert_at}. *)

val delete_at : bytes -> int -> unit
(** Removes cell [i]; its bytes become fragmented space that a later
    insert reclaims by compacting. *)

val replace_value_at : bytes -> int -> string -> bool
(** Replaces leaf cell [i]'s value; [false] (node unchanged) if the new
    value does not fit, so the caller must split. *)

val free_space : bytes -> int
(** Bytes available for new cells and pointers, fragmented space included. *)

val max_entry_size : page_size:int -> int
(** Upper bound on [key + value] length such that any node can always hold
    at least four entries. *)

val cells : bytes -> (string * string) list
(** All cells in key order; for internal nodes the "value" is the u32 child
    in big-endian. *)
