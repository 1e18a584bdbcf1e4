(** B+tree index manager over buffer-pool pages.

    Keys and values are byte strings; keys are unique and ordered by
    [String.compare] (callers build composite keys with
    {!Rx_util.Key_codec}). Deletion is lazy (no rebalancing), as in several
    production engines; pages never become unreachable. All page mutations
    flow through {!Rx_storage.Buffer_pool.update} and are therefore
    journaled. *)

type t

val create : Rx_storage.Buffer_pool.t -> t
(** Allocates a meta page and an empty root leaf. *)

val attach : Rx_storage.Buffer_pool.t -> meta_page:int -> t
(** Re-opens a tree persisted under [meta_page]. *)

val meta_page : t -> int
(** The meta page (root pointer and entry count) that identifies the tree. *)

val meta_owner_offset : int
(** The tree never reads or writes the bytes of its meta page from this
    offset to the page's end: the tree's owner may keep its own small
    state there, changed through {!Rx_storage.Buffer_pool.update} so that
    it is journaled like the tree's pages. Those bytes start zeroed. *)

val insert : t -> key:string -> value:string -> unit
(** Inserts or replaces.
    @raise Invalid_argument if [key + value] exceeds {!Node.max_entry_size}. *)

(** {1 Bottom-up bulk load}

    Fills an empty tree from keys that arrive in strictly ascending order,
    left to right, without descending from the root per key: leaves and
    internal nodes are assembled in scratch images and each page is written
    by one journaled {!Rx_storage.Buffer_pool.update} when it closes, so
    the load is WAL-logged like any insert and replays on recovery and
    replicas. Nodes close at about two-thirds full — the fill random
    inserts leave — so later inserts do not split every leaf. Memory is one
    page image per tree level. The calls may be spread over several
    critical sections: between them the tree is half built and must not be
    read or mutated by anyone else. *)

type bulk
(** A load in progress. *)

val bulk_start : t -> bulk
(** Starts a load into [t], whose root must be an empty leaf (a fresh
    {!create}).
    @raise Invalid_argument if the tree is not empty. *)

val bulk_add : bulk -> key:string -> value:string -> unit
(** Appends one entry.
    @raise Invalid_argument if [key] is not strictly greater than the
    previous key, or if [key + value] exceeds {!Node.max_entry_size}
    (the same limit {!insert} enforces). *)

val bulk_finish : bulk -> unit
(** Writes the open nodes, links the root and sets the entry count, once.
    The [bulk] must not be used afterwards; the tree is then an ordinary
    tree for {!insert}, {!delete} and scans. *)

val find : t -> string -> string option
(** The value stored under a key, if any. *)

val mem : t -> string -> bool
(** Whether a key is present. *)

val delete : t -> string -> bool
(** [true] if the key was present. *)

val entry_count : t -> int
(** Number of entries, kept in the meta page. *)

val height : t -> int
(** Levels from the root to the leaves; 1 for a tree that is one leaf. *)

val iter_range :
  t ->
  ?lo:string ->
  ?hi:string ->
  (string -> string -> [ `Continue | `Stop ]) ->
  unit
(** In-order iteration over keys in [\[lo, hi)]; unbounded ends when
    omitted. When a readahead window is set (see {!set_readahead}), the
    leaf-chain walk speculatively prefetches the pages numerically following
    each cache-missing leaf in one batched read. *)

val set_readahead : t -> int -> unit
(** Sets the leaf-chain readahead window used by {!iter_range} (and the
    range/prefix helpers built on it). Speculative: leaves split off
    consecutive page allocations, so the numeric successors of a leaf are
    usually the next leaves in the chain; misguesses are skipped by the pool
    or surface as [bufpool.readahead.wasted]. [n <= 1] (the default, 0)
    disables it. *)

val readahead : t -> int
(** Current leaf-chain readahead window. *)

val iter_prefix :
  t -> prefix:string -> (string -> string -> [ `Continue | `Stop ]) -> unit
(** In-order iteration over the keys that start with [prefix]. *)

val fold_range :
  t -> ?lo:string -> ?hi:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a
(** {!iter_range} as a left fold over the entries in [\[lo, hi)]. *)

val to_list : t -> (string * string) list
(** Every entry in key order. *)

val page_count : t -> int
(** Pages reachable from the root (meta page excluded) — index-size
    accounting for E1. *)

val check_invariants : t -> unit
(** Validates key order within nodes, separator bounds, level consistency
    and the leaf chain. @raise Failure on violation. *)
