(** A fixed-capacity LRU map used by the buffer pool's replacement policy. *)

type ('k, 'v) t

val create : capacity:int -> ('k, 'v) t
val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v
(** Touches the entry (marks most-recently used). Allocates nothing, so a
    buffer-pool hit costs no minor words.
    @raise Not_found if [k] is not bound. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option
(** {!find} as an option. *)

val peek : ('k, 'v) t -> 'k -> 'v option
(** Does not touch the entry. *)

val mem : ('k, 'v) t -> 'k -> bool

val put : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** Inserts or replaces; if capacity is exceeded returns the evicted
    least-recently-used binding. *)

val put_evict_if : ('k, 'v) t -> can_evict:('k -> 'v -> bool) -> 'k -> 'v ->
  ('k * 'v) option option
(** Like {!put} but only evicts entries satisfying [can_evict] (used to skip
    pinned pages). Returns [None] if the map is full and no entry is
    evictable, otherwise [Some eviction]. *)

val remove : ('k, 'v) t -> 'k -> unit
val iter : ('k -> 'v -> unit) -> ('k, 'v) t -> unit
val to_list : ('k, 'v) t -> ('k * 'v) list
(** Most-recently used first. *)
