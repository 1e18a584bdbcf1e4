(** Deterministic crash-loop harness: repeatedly run a mixed
    insert/update/delete workload against an on-disk database with a
    randomly armed {!Rx_storage.Fault}, "kill the process" when it fires,
    reopen (running crash recovery), and check every durability invariant —
    committed documents survive byte-for-byte, losers leave no trace,
    indexes agree with the heap, every page checksums clean.

    The single operation in flight at the crash has either-outcome
    semantics (auto-commit DML is durable exactly when the call returned),
    and the harness accepts both; anything else is reported as a
    violation. Runs are reproducible from the seed alone. *)

type outcome = {
  iterations : int;
  crashes : int;  (** iterations where the armed fault actually fired *)
  injected : (string * int) list;  (** fault kind -> times fired *)
  torn_tail_bytes : int;  (** WAL bytes healed as torn tails across reopens *)
  replayed : int;  (** redo records applied across all recoveries *)
  undone : int;  (** loser updates rolled back across all recoveries *)
  auto_checkpoints : int;  (** automatic checkpoints observed *)
  survivors : int;  (** committed documents alive at the end *)
  final_ops : int;  (** operations that committed over the whole run *)
  violations : string list;  (** empty = every invariant held *)
}

val run :
  ?iters:int ->
  ?seed:int ->
  ?ops_per_iter:int ->
  ?parallelism:int ->
  ?on_cycle:
    (db:Systemrx.Database.t ->
    committed:(int * string) list ->
    violation:(string -> unit) ->
    unit) ->
  dir:string ->
  unit ->
  outcome
(** [run ~dir ()] executes [iters] (default 200) crash/reopen cycles in
    [dir] (which must be fresh) with the given [seed] (default 42).
    Auto-checkpointing runs with tiny thresholds so checkpoints land mid-
    workload; a quarter of crash-free iterations end with an explicit
    checkpoint immediately followed by a hard crash. [parallelism]
    (default 1) opens every reopened database with that many worker
    domains and forces the partitioned scan path on, so fault injection
    exercises the sharded buffer pool's concurrent read paths.

    [on_cycle] is called once per iteration (and once after the final
    clean reopen), immediately after the invariant check: [db] is the
    freshly recovered, fault-free handle, [committed] the exact
    committed documents [(docid, serialized)], and [violation] records a
    failure into the outcome. The replication bench drives a replica's
    pull/verify cycle from it — the leader crashes between calls, never
    during one. *)
