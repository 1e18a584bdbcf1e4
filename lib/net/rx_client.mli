(** Blocking client for the rxd wire protocol, mirroring the
    {!Systemrx.Database} API shape over a socket: connect/handshake, ad-hoc
    and prepared queries, explicit transactions, single-row and bulk
    inserts, document fetch, stats, and graceful server shutdown.

    One connection is one server session: at most one open transaction,
    which the session's queries and DML join implicitly until {!commit} or
    {!rollback}. A connection must not be shared between threads without
    external serialization. The plain calls are strictly one request, one
    response; {!pipeline} batches several requests in flight (the server
    answers in request order and absorbs the batch's commits into shared
    group-commit fsyncs), and {!fold_query} streams a result of any size
    through a server-side cursor in bounded-memory chunks.

    Error surface: the server ships the engine's stable error table
    (status = {!Systemrx.Database.error_code}) and the client re-raises
    the engine's own exceptions where they reconstruct faithfully —
    status 3 as {!Systemrx.Database.Busy} (with [txid = 0], no blockers:
    retryable backpressure, whether from lock conflict, pool exhaustion
    or the server's admission control), status 4 as
    {!Rx_txn.Lock_manager.Deadlock} (with [victim = 0], empty cycle —
    the ids stay server-side; retry logic can treat Busy and Deadlock
    uniformly, as embedded callers do) and status 5 as
    {!Systemrx.Database.Read_only}. Everything else (application errors,
    corruption, protocol violations) raises {!Error} with the wire
    status and the server's message, so embedded and networked callers
    share one error vocabulary. *)

type t

exception Error of { status : int; message : string }
(** A non-OK response that does not reconstruct as an engine exception:
    the wire status (1 application error, 2 unexpected, 6 corruption,
    7 protocol violation) plus the server's one-line message. *)

type txn
(** An explicit transaction open on this connection's server session. *)

type result = { plan : string; matches : (int * string) list }
(** A query's outcome: the executed access-plan description and one
    [(docid, serialized subtree)] pair per match, in (DocID, document
    order) — the wire rendering of {!Systemrx.Database.result}. *)

type prepared
(** A statement prepared (compiled and cached) in the server session. *)

val connect :
  ?host:string -> ?token:string -> ?client:string -> port:int -> unit -> t
(** Connects over TCP and performs the [Hello] handshake. [host] defaults
    to 127.0.0.1, [token] to the empty string (checked against the
    server's [auth_token] when it has one), [client] is a free-form name
    for diagnostics.
    @raise Error when the server refuses the handshake. *)

val close : t -> unit
(** Sends [Bye] (best effort) and closes the socket. The server rolls
    back any transaction the session still holds. Idempotent. *)

val session_id : t -> int
(** The server-assigned session id from the handshake. *)

val begin_txn : t -> txn
(** Opens the session's explicit transaction; until {!commit} or
    {!rollback}, queries and DML on this connection run inside it. *)

val commit : t -> txn -> unit
(** Commits; returns once the server reports the commit durable (the
    server overlaps concurrent sessions' durability waits through WAL
    group commit). *)

val rollback : t -> txn -> unit
(** Discards the transaction's staged statements. *)

val txn_id : txn -> int
(** The engine transaction id, as {!Systemrx.Database.txn_id}. *)

val query :
  ?ns_env:(string * string) list ->
  t -> table:string -> column:string -> xpath:string -> result
(** Plans and executes an XPath query, as {!Systemrx.Database.run}. *)

val prepare :
  ?ns_env:(string * string) list ->
  t -> table:string -> column:string -> xpath:string -> prepared
(** Compiles the query once in the server session, as
    {!Systemrx.Database.prepare}; the handle is valid for this
    connection's lifetime. *)

val run_prepared : t -> prepared -> result
(** Executes a prepared query, as {!Systemrx.Database.run_prepared}. *)

val plan : prepared -> string
(** The access-plan description chosen at preparation time. *)

val insert :
  t ->
  table:string ->
  ?values:(string * string) list ->
  ?xml:(string * string) list ->
  unit ->
  int
(** Inserts a row ([values] are varchar columns, [xml] are XML column
    documents); returns its DocID. Joins the session transaction when one
    is open, otherwise the server runs it as its own auto-commit
    transaction, as {!Systemrx.Database.insert} does embedded, durable
    before the reply. *)

val insert_many : t -> table:string -> column:string -> string list -> int list
(** Bulk load, as {!Systemrx.Database.insert_many}: one server-side
    transaction, all documents visible and durable together or not at
    all. Refused inside an explicit transaction. *)

val delete : t -> table:string -> docid:int -> unit
(** Deletes a row, as {!Systemrx.Database.delete}. *)

val document : t -> table:string -> column:string -> docid:int -> string
(** Fetches a serialized XML column value, as
    {!Systemrx.Database.document}. *)

val stats_json : t -> string
(** The server's {!Systemrx.Stats_report.json} document as a JSON string
    — the same schema [rx stats --json] prints embedded, [net.*]
    counters included. *)

type repl_state = {
  base_lsn : int64;
  durable_lsn : int64;
  generations : int;
  page_size : int;
}
(** The leader's replication position — live WAL base, durable LSN, how
    many archived generations it holds — and its page size, which a
    fresh replica must adopt. *)

val repl_state : t -> repl_state

val repl_fetch : t -> from_lsn:int64 -> max_bytes:int -> int64 * string * int64
(** [(start_lsn, frames, durable_lsn)] — ships durable WAL frames from
    [from_lsn], exactly {!Systemrx.Database.repl_fetch} over the wire;
    this is the {!Systemrx.Replica.fetch} shape, so a partially applied
    [repl_fetch c] plugs straight into {!Systemrx.Replica.attach}. *)

val shutdown : t -> unit
(** Asks the server to shut down gracefully; returns once the server has
    acknowledged (in-flight sessions drain, then the process's
    {!Rx_server.wait} returns). The connection is unusable afterwards
    except for {!close}. *)

(** {1 Index lifecycle}

    The wire face of {!Systemrx.Database.Index}: build an index online,
    watch its progress from another connection, roll a rebuild back, or
    drop it. Unknown table/column/index names raise {!Error} with
    status 1 and an ["unknown ..."] message — the engine's
    [Unknown_index] over the wire. *)

type index_info = Rx_wire.index_info = {
  ix_name : string;
  ix_path : string;  (** the indexed XPath, normalized *)
  ix_key_type : string;  (** ["string"], ["double"], ... *)
  ix_state : string;  (** ["live"], ["building"], ["failed: <reason>"] *)
  ix_generation : int;
  ix_entries : int;
  ix_build_ms : int;
  ix_prior_generation : int;  (** [0] when nothing is retained *)
  ix_docs_scanned : int;  (** build scan progress, in documents *)
  ix_docs_total : int;
}
(** One index generation as the server reports it — the flat rendering
    of {!Systemrx.Database.Index.info}. *)

val build_index :
  t ->
  table:string ->
  column:string ->
  name:string ->
  path:string ->
  key_type:string ->
  index_info
(** Builds (or generationally rebuilds) a value index {e online} and
    returns once it is live — the engine keeps serving this and other
    sessions' queries and DML from the previous generation while the
    build scans. Progress is visible meanwhile through {!index_status}
    on another connection. *)

val index_status : t -> table:string -> column:string -> name:string -> index_info
(** The index's current state, including an in-flight build's scan
    progress. *)

val rollback_index :
  t -> table:string -> column:string -> name:string -> index_info
(** Restores the retained prior generation without downtime, as
    {!Systemrx.Database.Index.rollback}; returns the restored
    generation's info. *)

val drop_index : t -> table:string -> column:string -> name:string -> unit
(** Drops the index and any retained generation. Inside the session's
    open transaction the drop is staged and applies at {!commit}. *)

val list_indexes : t -> table:string -> column:string -> index_info list
(** Every index on the column, live and building, as
    {!Systemrx.Database.Index.list}. *)

(** {1 Pipelined batches}

    {!pipeline} writes a batch of requests before reading any response:
    one round of socket writes replaces a round trip per request, and
    the server executes the batch as one unit — responses in request
    order, independent commits from the batch absorbed into the same
    group-commit fsync. Internally the batch is split into flights
    sized under the server's per-connection pipeline bound, so a batch
    of any length is safe. *)

(** One request in a pipelined batch. [P_commit]/[P_rollback] act on the
    session's {e current} transaction (wire [txid = 0]) — so a flight
    can carry [P_begin; ...; P_commit] even though the transaction id is
    unknown when the flight is written. *)
type op =
  | P_query of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | P_insert of {
      table : string;
      values : (string * string) list;
      xml : (string * string) list;
    }
  | P_delete of { table : string; docid : int }
  | P_get of { table : string; column : string; docid : int }
  | P_begin
  | P_commit
  | P_rollback

(** A pipelined request's successful outcome, mirroring the plain calls'
    return types. *)
type reply =
  | Rp_result of result  (** [P_query] *)
  | Rp_docid of int  (** [P_insert] *)
  | Rp_txn of int  (** [P_begin] *)
  | Rp_doc of string  (** [P_get] *)
  | Rp_unit  (** [P_delete] / [P_commit] / [P_rollback] *)

val pipeline : t -> op list -> (reply, exn) Stdlib.result list
(** Executes the batch pipelined; one outcome per op, in op order. A
    failed op yields [Error] with the same exception the plain call
    would have raised ({!Systemrx.Database.Busy}, {!Error}, ...) without
    aborting the rest of the batch — server-side, a failed statement
    inside an open transaction has the usual statement-level-rollback
    semantics. *)

(** {1 Streamed result cursors}

    A query whose serialized result exceeds the wire's one-frame cap (16
    MiB) — or that the client simply does not want materialized at once
    — streams through a server-side cursor: {!open_cursor} plans and
    executes it, each {!fetch} returns one bounded chunk of rows, and
    the whole result crosses the wire in [chunk_bytes]-sized pieces of
    memory at both ends. *)

type cursor
(** A server-side cursor open on this connection's session. *)

val open_cursor :
  ?ns_env:(string * string) list ->
  ?chunk_bytes:int ->
  t ->
  table:string ->
  column:string ->
  xpath:string ->
  cursor
(** Plans and executes the query like {!query} but leaves the rows
    server-side. [chunk_bytes] is the serialized-row budget per {!fetch}
    (default: the server's, 256 KiB; the server clamps it so a chunk
    always fits one frame). Joins the session transaction when one is
    open — the cursor is then only valid until that transaction ends. *)

val cursor_plan : cursor -> string
(** The access-plan description chosen when the cursor was opened. *)

val fetch : t -> cursor -> (int * string) list
(** The next chunk of [(docid, serialized subtree)] rows, in (DocID,
    document order) continuing across chunks; [[]] once the cursor is
    exhausted (the server frees it — no {!close_cursor} needed). *)

val close_cursor : t -> cursor -> unit
(** Frees a cursor before exhausting it. Idempotent client-side; a no-op
    on an already-exhausted cursor. *)

val fold_query :
  ?ns_env:(string * string) list ->
  ?chunk_bytes:int ->
  t ->
  table:string ->
  column:string ->
  xpath:string ->
  init:'a ->
  f:('a -> int -> string -> 'a) ->
  'a
(** [fold_query c ~table ~column ~xpath ~init ~f] opens a cursor, folds
    [f acc docid serialized] over every match in order, and frees the
    cursor (also on exception) — the streaming counterpart of {!query}
    for results too large to hold, with at most one chunk in client
    memory at a time. *)
