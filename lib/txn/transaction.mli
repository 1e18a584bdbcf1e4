(** Transaction manager tying together lock manager, WAL and rollback.

    Designed for the simulated-concurrency harness: lock acquisition is
    non-blocking ([`Blocked] tells the scheduler to retry or abort), and
    [commit]/[abort] return the transactions whose queued lock requests
    became grantable. Locking follows the multiple-granularity protocol:
    taking a mode on a granule first takes the corresponding intention mode
    on every ancestor granule. *)

type manager
type t

val create_manager :
  ?log:Rx_wal.Log_manager.t -> ?pool:Rx_storage.Buffer_pool.t -> unit -> manager
(** With [log] and [pool], commits force the log and aborts roll back page
    updates; without them, transactions are lock-only. *)

val lock_manager : manager -> Lock_manager.t

val install_journal : manager -> unit
(** Wires the buffer pool's journal to the log, tagging updates with the
    transaction currently executing under {!run_as}. *)

val begin_txn : manager -> t
(** Starts a transaction with a fresh, monotonically increasing txid. *)

val seed_txids : manager -> int -> unit
(** Raises the id floor: subsequent {!begin_txn} calls issue ids strictly
    above [txid] (no-op when already past it). Call after crash recovery
    with the recovered log's highest txid — ids repeating within one WAL
    span would alias distinct transactions and break loser detection at
    the next recovery. *)

val txid : t -> int
(** The transaction's identifier (also its WAL record tag). *)

val is_active : t -> bool
(** [false] once committed or aborted; all lock/run operations then fail. *)

val run_as : t -> (unit -> 'a) -> 'a
(** Executes [f] with page updates attributed to this transaction. *)

val lock : t -> Resource.t -> Lock_modes.t -> [ `Granted | `Blocked of int list ]
(** Acquires intention locks on ancestors, then the requested mode.
    @raise Invalid_argument if the transaction is no longer active. *)

val lock_detect :
  t ->
  Resource.t ->
  Lock_modes.t ->
  [ `Granted | `Blocked of int list | `Deadlock of int * int list ]
(** Like {!lock}, but when blocked also searches the waits-for graph:
    [`Deadlock (victim, cycle)] means this request closed a cycle and
    [victim] (the youngest member) should abort. The blocked request stays
    queued either way; it is cancelled when the transaction finishes. *)

val commit : t -> int list
(** Forces the log (via group commit), releases locks; returns transactions
    whose queued lock requests were granted by the release. Equivalent to
    {!precommit} followed immediately by its durability wait. *)

val precommit : t -> int list * (unit -> unit)
(** First half of {!commit}: appends the Commit record, marks the
    transaction committed and releases its locks, but does {e not} wait
    for durability. Returns the newly grantable transactions plus an
    [await] thunk that blocks until the Commit record is on stable storage
    (one {!Rx_wal.Log_manager.group_commit}, shared with concurrent
    committers). Callers must invoke [await] before reporting the commit
    as durable; releasing locks first is safe because any later flush
    covers this record's LSN. *)

val abort : ?undo:(unit -> unit) -> t -> int list
(** Rolls back, releases locks; same return as {!commit}. Without [undo],
    page updates are rolled back physically from the WAL (when WAL-backed)
    and an Abort record is logged; a crash before that record makes
    recovery undo the transaction, which nets to the same state. [undo]
    is for a transaction that wrote nothing to the WAL, whose work lives
    outside the logged pages (the engine's staged versions): [undo] runs
    to free it, and nothing is logged or flushed. *)

val active_count : manager -> int
