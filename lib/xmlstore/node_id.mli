(** Prefix-encoded logical node IDs (§3.1).

    A {e relative} node ID is a byte string whose last byte is even and all
    other bytes odd ("a relative node ID ends with an even-numbered byte;
    any odd-numbered byte means the relative ID is extended to the next
    byte"). The {e absolute} ID of a node is the concatenation of relative
    IDs along the path from the root; the root's own ID (00) is implicit, so
    the root's absolute ID is the empty string.

    Relative IDs are a prefix-free code, which gives the paper's properties:
    - plain byte-string comparison of absolute IDs is document order;
    - ancestry is testable by component-prefix;
    - the relative ID of each level can be recovered from the absolute ID;
    - there is always room to insert between two siblings by extending the
      ID length.

    Attributes do not receive their own node IDs in this implementation;
    they are addressed as (element ID, attribute position). *)

type t = string
(** Absolute node ID. *)

type rel = string
(** Relative (one-level) node ID. *)

val root : t
(** The document node's ID: the empty string. *)

val is_root : t -> bool
(** Whether the ID is {!root}. *)

val compare : t -> t -> int
(** Document order. *)

val equal : t -> t -> bool

val is_valid_rel : rel -> bool
(** Odd bytes, then one even byte, no NUL. *)

val is_valid : t -> bool
(** A concatenation of valid relative IDs. *)

val append : t -> rel -> t
(** The child with the given relative ID. *)

val components : t -> rel list
(** @raise Invalid_argument if [t] is not a valid absolute ID. *)

val parent : t -> t option
(** [None] for the root. *)

val level : t -> int
(** Number of components; 0 for the root. *)

val prefix_at_level : t -> int -> t
(** First [n] components — the ancestor of the node at that level (used for
    NodeID-level ANDing at a fixed element level, §4.3).
    @raise Invalid_argument if the node is shallower than [n]. *)

val last_component : t -> rel option

val is_ancestor : ancestor:t -> t -> bool
(** Strict ancestry (component-prefix, not equality). *)

val is_ancestor_or_self : ancestor:t -> t -> bool

val first_child_rel : rel
(** The relative ID given to a first child ([0x02]). *)

val next_sibling_rel : rel -> rel
(** A fresh relative ID sorting after the given one (used for appends). *)

val before_rel : rel -> rel
(** A fresh relative ID sorting before the given one (insert at head). *)

val between_rel : rel -> rel -> rel
(** [between_rel a b] is a fresh relative ID strictly between [a] and [b].
    @raise Invalid_argument if [a >= b]. *)

val nth_sibling_rel : int -> rel
(** Relative ID for the [n]-th (0-based) child at initial load:
    [0x02, 0x04, ...], extending through odd bytes past 126 siblings. *)

val to_hex : t -> string
(** Debug rendering, e.g. ["02.0604"] → ["02", "0604"] joined with dots. *)
