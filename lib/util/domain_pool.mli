(** A process-wide, grow-only pool of OCaml 5 worker domains.

    One [run] call executes a batch of independent thunks concurrently.
    The caller participates in draining the shared task queue, so a batch
    always makes progress even if every worker domain is busy — which also
    makes nested [run] calls deadlock-free.  Workers are spawned lazily up
    to {!max_workers} and joined at process exit. *)

type t
(** A pool handle.  All operations are domain-safe. *)

val shared : unit -> t
(** The process-wide pool.  Every [Database.t] in the process shares it:
    OCaml caps live domains at 128, so per-handle pools would exhaust the
    runtime under test suites that open many handles. *)

val create : unit -> t
(** A private pool (tests).  Call {!stop} when done with it. *)

val max_workers : int
(** Upper bound on spawned worker domains per pool (the caller makes one
    more executor).  Parallelism requests above this still work — extra
    tasks queue. *)

val size : t -> int
(** Current executor count: spawned workers plus the participating
    caller.  Grows as [run] is called with higher [parallelism]. *)

val run : t -> parallelism:int -> (unit -> 'a) array -> 'a array
(** [run t ~parallelism tasks] executes every thunk and returns their
    results in task order.  The pool is grown to [parallelism - 1]
    workers (capped at {!max_workers}); with [parallelism <= 1], a single
    task, or an empty pool the thunks run inline on the caller.  If any
    thunk raises, the first failure (in task order) is re-raised with its
    backtrace after all tasks have finished — no task is abandoned
    mid-flight. *)

val run_ranges :
  t -> parallelism:int -> int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [run_ranges t ~parallelism n f] splits the indices [0 .. n-1] into
    [min parallelism n] contiguous, in-order ranges [\[lo, hi)] of near
    equal size and runs [f ~lo ~hi] on each as one task of {!run}. The
    results come back in range order; [n = 0] runs nothing. *)

val stop : t -> unit
(** Drains queued tasks, terminates and joins the pool's workers.  Only
    needed for {!create}d pools; the {!shared} pool installs an [at_exit]
    hook. *)
