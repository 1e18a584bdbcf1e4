(** Zero-dependency metrics registry: monotonic counters, gauges and
    fixed-bucket log-scale histograms, registered by dotted name
    ("bufpool.hits", "btree.node_splits", ...).

    Registration is idempotent — asking for an existing name returns the
    same instrument, so independent layers can share one registry without
    coordination. Handles are resolved once (at component construction) and
    incremented on hot paths with a single atomic read-modify-write.

    Every operation is domain-safe: instruments are {!Atomic.t}-backed so
    concurrent increments from parallel scan domains are never lost, and
    the registry table is mutex-guarded at registration (the increment,
    snapshot and mark paths take no lock).

    There is one process-global {!default} registry; components accept an
    [?metrics] argument so that a database instance can route its layers to
    a private registry and report per-database numbers. *)

type t
(** A registry. *)

type counter
type gauge
type histogram

val create : unit -> t
val default : t
(** The process-global registry used when no [?metrics] is supplied. *)

(** {1 Registration (idempotent by name)} *)

val counter : t -> string -> counter
(** @raise Invalid_argument if the name is registered as another kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

(** {1 Instrument operations} *)

val incr : counter -> unit
val add : counter -> int -> unit
(** @raise Invalid_argument on a negative amount (counters are monotonic). *)

val value : counter -> int

val set : gauge -> int -> unit
val get : gauge -> int

val observe : histogram -> int -> unit
(** Records a non-negative sample into its log2 bucket: bucket 0 holds 0,
    bucket [i >= 1] holds values in [[2{^i-1}, 2{^i})]; the last bucket is
    unbounded. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> int

val histogram_buckets : histogram -> (int * int) array
(** [(upper_bound_inclusive, count)] per non-empty-or-preceding bucket; the
    final bucket's upper bound is [max_int]. *)

(** {1 Snapshots and rendering} *)

type sample =
  | Counter of int
  | Gauge of int
  | Histogram of { count : int; sum : int; buckets : (int * int) array }

val snapshot : t -> (string * sample) list
(** Immutable point-in-time copy, sorted by name. *)

val diff : before:(string * sample) list -> after:(string * sample) list -> (string * int) list
(** Counter deltas between two snapshots, dropping zero deltas. Histograms
    contribute ["name.count"] and ["name.sum"] deltas; gauges contribute
    their (possibly negative) change under their own name. *)

type mark
(** The registry's values at one moment, without histogram buckets. *)

val mark : t -> mark
(** One array of two words per instrument: far cheaper than {!snapshot}. *)

val since : t -> mark -> (string * int) list
(** The deltas since [mark]: equal to {!diff} of a {!snapshot} taken at the
    mark and one taken now. *)

val to_text : t -> string
(** One ["name value"] line per instrument (histograms render count/sum and
    their cumulative buckets). *)

val to_json : t -> Json.t
(** Object keyed by instrument name; round-trips through {!Json.of_string}. *)
