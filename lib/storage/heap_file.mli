(** Heap files ("table spaces"): unordered collections of variable-length
    records addressed by {!Rid.t}. Records larger than a page spill into
    overflow-page chains, so packed XML records never constrain page size
    choice. Pages are chained from a per-file header page; free space is
    tracked in an in-memory map rebuilt on attach. *)

type t

val create : Buffer_pool.t -> t
(** Allocates a fresh heap file (header page + first data page). *)

val attach : Buffer_pool.t -> header_page:int -> t
(** Re-opens an existing heap file by its header page number. *)

val header_page : t -> int
(** Page number of the file's header page — the stable handle persisted in
    the catalog and passed back to {!attach}. *)

val insert : t -> string -> Rid.t
(** Appends a record, spilling to overflow chains when it exceeds a page.
    The change is journaled through the buffer pool; durability follows the
    enclosing transaction's commit. *)

val insert_many : t -> string list -> Rid.t list
(** Batch {!insert}: places the records in order, filling each chosen page
    to capacity under a single journaled page update before probing the
    free-space map for the next — one probe per page transition rather than
    per record, and one record-count bump for the whole batch. Returns the
    RIDs in payload order. *)

val read : t -> Rid.t -> string
(** Fetches a record by RID, reassembling overflow chains.
    @raise Invalid_argument if the slot is dead or out of range. *)

val with_record : t -> Rid.t -> (string -> int -> int -> 'a) -> 'a
(** [with_record t rid f] reads a record in place: [f s off len] sees its
    bytes as [s.[off .. off+len-1]]. For an inline record [s] is the page
    image, pinned while [f] runs and never copied, so [f] must not keep [s]
    (or anything sharing it) after it returns; only an overflow record is
    reassembled into a string of its own ([off = 0]). [f] may read other
    pages of the pool but must not mutate this heap.
    @raise Invalid_argument if the slot is dead or out of range. *)

val delete : t -> Rid.t -> unit
(** @raise Invalid_argument if the record does not exist. *)

val update : t -> Rid.t -> string -> Rid.t
(** Updates in place when possible; otherwise deletes and re-inserts,
    returning the (possibly new) RID. *)

val iter : (Rid.t -> string -> unit) -> t -> unit
(** Full scan in page order. Issues readahead batches ahead of the chain
    walk (see {!set_readahead}). *)

val set_readahead : t -> int -> unit
(** Sets the readahead window: on a cache-missing page access, up to this
    many upcoming data pages are prefetched in one batched read
    ({!Buffer_pool.prefetch}). [n <= 1] disables readahead. Default 8. *)

val readahead : t -> int
(** Current readahead window. *)

val record_count : t -> int
(** Number of live records (maintained incrementally, O(1)). *)

val data_pages : t -> int
(** Number of data pages (excluding header and overflow), for storage
    accounting in the E1 benchmark. *)

val overflow_pages : t -> int
(** Number of overflow pages holding spilled record tails. *)
