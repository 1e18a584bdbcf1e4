(** The rxd network server: many client sessions, one embedded engine.

    An event-loop reactor thread owns every socket: it accepts, performs
    non-blocking reads with per-connection frame reassembly (a partial
    frame just stays buffered across ticks — a slow writer costs one
    frame of memory, not a thread), and flushes encoded responses with
    non-blocking writes. Complete requests are handed to a bounded
    worker pool; session count is therefore limited by sockets, not
    threads, so hundreds of mostly-idle connections cost nothing but
    their buffers.

    Connections may {e pipeline} up to [max_pipeline] requests. A worker
    drains a connection's queue as one batch, which keeps responses in
    request order (one worker per connection at a time) and lets the
    batch's commits share group-commit fsyncs: every request executes
    under {!Systemrx.Database.exclusively} (the engine lock), which
    hands back the durability wait of any commit the request made, and
    the batch performs the collected waits together, outside the lock,
    before any of the batch's responses are flushed. [Insert]/[Delete]
    outside a session transaction run the embedded auto-commit writer,
    so pipelined auto-commit writes batch their fsyncs too.

    Results larger than one frame stream through server-side cursors
    ([Open_cursor]/[Fetch]/[Close_cursor]): the session holds the
    {!Systemrx.Database.cursor} and serializes one bounded chunk per
    [Fetch], so result size never multiplies server memory. Cursors die
    with the session — an abandoned connection's cursors are freed by
    its cleanup, which runs on the worker pool (session teardown takes
    the engine lock and must never stall the reactor).

    Admission control maps overload onto the engine's typed
    backpressure: a connection beyond [max_connections] is answered with
    one Busy response and closed, and a request that would push the
    number of admitted requests past [max_queue_depth] is refused with
    the Busy status (3) at enqueue time — before it touches session or
    engine state, so a Busy-refused commit leaves the transaction open
    and retryable. Refusals still flow through the ordered response
    path, so pipelined clients see each Busy exactly where its request
    was. Beyond [max_pipeline] the server simply stops reading the
    connection and TCP flow control paces the client.

    Observability threads through the database's own registry:
    [net.conns] / [net.cursors] gauges, [net.conns.accepted],
    [net.requests], [net.errors], [net.rejected], [net.bytes_in],
    [net.bytes_out], [net.idle_timeouts], [net.pipeline.batches],
    [net.pipeline.requests] counters, a [net.latency.<op>] histogram
    (microseconds) per operation, and a [net.request] trace span around
    each engine-locked section. *)

type config = {
  host : string;  (** bind address (default 127.0.0.1) *)
  port : int;  (** TCP port; 0 picks an ephemeral one (see {!port}) *)
  max_connections : int;
      (** sessions allowed concurrently; further connects are answered
          Busy and closed (default 64) *)
  max_queue_depth : int;
      (** requests admitted for service concurrently across all
          connections — admission control's queue-depth bound; excess
          requests are answered Busy without touching the engine
          (default 64) *)
  auth_token : string option;
      (** handshake stub: when set, a [Hello] whose token differs is
          refused (default [None] = any token accepted) *)
  max_pipeline : int;
      (** requests one connection may have in flight (queued + being
          served) before the reactor stops reading it (default 32) *)
  io_threads : int;
      (** worker-pool size; [0] (the default) auto-sizes to the host
          like {!Rx_util.Domain_pool} — clamped to [2..8], since workers
          serialize on the engine lock and past a point more threads
          only add context switches *)
  idle_timeout : float;
      (** seconds a session may sit idle (no complete request) before
          the server rolls back its transaction, frees its cursors and
          closes it with an explanatory error; [0.] (the default)
          disables the timeout *)
}

val default_config : config
(** 127.0.0.1, ephemeral port, 64 connections, queue depth 64, no
    token, pipeline 32, auto-sized workers, no idle timeout. *)

type t

val start : ?config:config -> Systemrx.Database.t -> t
(** Binds, listens and spawns the reactor and worker threads; returns
    immediately. The caller keeps ownership of the database handle but
    must stop issuing its own operations on it (or wrap them in
    {!Systemrx.Database.exclusively}) while the server runs. SIGPIPE is
    set to ignore — an abruptly closed peer surfaces as a write error on
    the reactor, not process death. *)

val op_name : Rx_wire.request -> string
(** The request's operation name, one per opcode: the [op] attribute of
    its [net.request] trace span and the [<op>] of its
    [net.latency.<op>] histogram (one per
    {!Systemrx.Stats_report.net_ops} entry). *)

val port : t -> int
(** The bound TCP port (the actual one when [config.port] was 0). *)

val request_stop : t -> unit
(** Initiates graceful shutdown without blocking: stop accepting, let
    every in-flight request finish and respond, flush each connection's
    pending responses, then close. Async-signal-safe — it only writes a
    byte to a nonblocking self-pipe (no locks), which the reactor's
    [select] turns into the actual shutdown — so [rxd] installs it
    directly as the SIGINT/SIGTERM handler even though the main thread
    sits in {!wait} holding the server lock. Idempotent. The wire
    [Shutdown] operation calls this after its OK response is sent. *)

val wait : t -> unit
(** Blocks until shutdown has been requested and every session has
    drained (including its cleanup: abandoned transactions rolled back,
    cursors freed). *)

val stop : t -> unit
(** {!request_stop}, then {!wait}, then joins the reactor and workers
    and closes the listener. Idempotent; the database handle stays open
    — closing it remains the caller's job. *)
