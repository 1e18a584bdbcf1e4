open Systemrx

let server_banner = "rxd/1.1"

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_queue_depth : int;
  auth_token : string option;
  max_pipeline : int;
  io_threads : int;
  idle_timeout : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    max_queue_depth = 64;
    auth_token = None;
    max_pipeline = 32;
    io_threads = 0;
    idle_timeout = 0.;
  }

(* --- growable byte window ---

   Per-connection I/O staging: appended at the tail, consumed from the
   head, contents always contiguous. The buffer is retained for the
   connection's lifetime (grown to the largest backlog seen), so steady
   traffic reassembles and writes frames with no per-frame allocation. *)
module Nb = struct
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create n = { buf = Bytes.create n; off = 0; len = 0 }
  let length b = b.len

  let reserve b n =
    let cap = Bytes.length b.buf in
    if b.off + b.len + n > cap then
      if b.len + n <= cap then begin
        (* enough total room: slide the window back to the start *)
        Bytes.blit b.buf b.off b.buf 0 b.len;
        b.off <- 0
      end
      else begin
        let ncap = ref (max 4096 cap) in
        while b.len + n > !ncap do
          ncap := !ncap * 2
        done;
        let nb = Bytes.create !ncap in
        Bytes.blit b.buf b.off nb 0 b.len;
        b.buf <- nb;
        b.off <- 0
      end

  let add_subbytes b src off len =
    reserve b len;
    Bytes.blit src off b.buf (b.off + b.len) len;
    b.len <- b.len + len

  let add_buffer b (src : Buffer.t) =
    let len = Buffer.length src in
    reserve b len;
    Buffer.blit src 0 b.buf (b.off + b.len) len;
    b.len <- b.len + len

  let peek_i32 b pos = Int32.to_int (Bytes.get_int32_be b.buf (b.off + pos))
  let sub_string b pos len = Bytes.sub_string b.buf (b.off + pos) len

  let consume b n =
    b.off <- b.off + n;
    b.len <- b.len - n;
    if b.len = 0 then b.off <- 0
end

(* a queued request: [Exec] entries own an admission slot; [Refuse]
   entries were turned away by queue-depth admission at parse time but
   still flow through the ordered response path, so a pipelined client
   sees its Busy exactly where the refused request was *)
type work = Exec of Rx_wire.request | Refuse of Rx_wire.request

type conn = {
  sid : int;
  fd : Unix.file_descr;
  mutable established : bool;
  inbuf : Nb.t;  (* raw inbound bytes, frames not yet parsed (reactor only) *)
  inq : work Queue.t;  (* parsed requests awaiting service (under lock) *)
  out : Nb.t;  (* encoded response bytes awaiting writeback (under lock) *)
  mutable busy : bool;  (* a worker is draining [inq] (under lock) *)
  mutable txn : Database.txn option;
  prepared : (int, Database.prepared) Hashtbl.t;
  mutable next_stmt : int;
  cursors : (int, Database.cursor * int) Hashtbl.t;  (* id -> cursor, chunk *)
  mutable next_cursor : int;
  mutable last_activity : float;
  mutable eof : bool;  (* peer half-closed: drain [inq]/[out], then close *)
  mutable dead : bool;  (* write error: peer is gone, discard everything *)
  mutable close_after_flush : bool;  (* Bye/auth failure/idle timeout *)
  mutable fatal : Rx_wire.response option;
      (* a protocol error to deliver once all earlier responses are out *)
}

type job = Serve of conn | Cleanup of conn

type t = {
  db : Database.t;
  cfg : config;
  workers_n : int;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* self-pipe: [request_stop] only writes a byte here (async-signal-safe
     — no lock), and the reactor's select turns it into the actual
     shutdown under the lock *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  (* worker -> reactor doorbell: response bytes are ready to flush *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t;
  cv : Condition.t;  (* lifecycle: [wait]ers *)
  work_cv : Condition.t;  (* job queue *)
  workq : job Queue.t;
  mutable stopping : bool;
  mutable workers_stop : bool;
  mutable conns : conn list;  (* reactor-owned; field access under lock *)
  mutable live : int;  (* conns not yet fully cleaned up *)
  mutable pending : int;  (* Exec entries queued or in service *)
  mutable threads : Thread.t list;  (* reactor + workers *)
  mutable next_sid : int;
  open_cursors : int Atomic.t;
  m_conns : Rx_obs.Metrics.gauge;
  m_cursors : Rx_obs.Metrics.gauge;
  m_accepted : Rx_obs.Metrics.counter;
  m_requests : Rx_obs.Metrics.counter;
  m_errors : Rx_obs.Metrics.counter;
  m_rejected : Rx_obs.Metrics.counter;
  m_bytes_in : Rx_obs.Metrics.counter;
  m_bytes_out : Rx_obs.Metrics.counter;
  m_idle_timeouts : Rx_obs.Metrics.counter;
  m_pl_batches : Rx_obs.Metrics.counter;
  m_pl_requests : Rx_obs.Metrics.counter;
  op_hists : (string * Rx_obs.Metrics.histogram) list;
}

let port t = t.bound_port

(* --- engine serialization --- *)

(* the trace ring is not thread-safe, so spans are recorded only inside
   the engine lock, where everything else that traces already runs *)
let span t op f =
  Rx_obs.Trace.with_span (Database.tracer t.db) "net.request"
    ~attrs:[ ("op", op) ]
    f

(* one request's engine work: under the engine lock, traced, returned
   with the durability wait of any commit it made *)
let engine t op f = Database.exclusively t.db (fun () -> span t op f)

(* --- request dispatch --- *)

let op_name : Rx_wire.request -> string = function
  | Rx_wire.Hello _ -> "hello"
  | Rx_wire.Query _ -> "query"
  | Rx_wire.Prepare _ -> "prepare"
  | Rx_wire.Run_prepared _ -> "run_prepared"
  | Rx_wire.Begin -> "begin"
  | Rx_wire.Commit _ -> "commit"
  | Rx_wire.Rollback _ -> "rollback"
  | Rx_wire.Insert _ -> "insert"
  | Rx_wire.Insert_many _ -> "insert_many"
  | Rx_wire.Delete _ -> "delete"
  | Rx_wire.Get _ -> "get"
  | Rx_wire.Stats -> "stats"
  | Rx_wire.Shutdown -> "shutdown"
  | Rx_wire.Bye -> "bye"
  | Rx_wire.Repl_state -> "repl_state"
  | Rx_wire.Repl_fetch _ -> "repl_fetch"
  | Rx_wire.Open_cursor _ -> "open_cursor"
  | Rx_wire.Fetch _ -> "fetch"
  | Rx_wire.Close_cursor _ -> "close_cursor"
  | Rx_wire.Index_build _ -> "index_build"
  | Rx_wire.Index_status _ -> "index_status"
  | Rx_wire.Index_rollback _ -> "index_rollback"
  | Rx_wire.Index_drop _ -> "index_drop"
  | Rx_wire.Index_list _ -> "index_list"

let matches_of_result (r : Database.result) =
  Rx_wire.R_matches
    {
      plan = r.Database.plan.Database.description;
      matches =
        List.map
          (fun m -> (m.Database.docid, r.Database.serialize m))
          r.Database.matches;
    }

let wire_index_info (i : Database.Index.info) =
  let state, scanned, total =
    match i.Database.Index.ix_state with
    | Database.Index.Live -> ("live", i.Database.Index.ix_entries, i.Database.Index.ix_entries)
    | Database.Index.Building { scanned; total; side_log = _ } ->
        ("building", scanned, total)
    | Database.Index.Failed msg -> ("failed: " ^ msg, 0, 0)
  in
  {
    Rx_wire.ix_name = i.Database.Index.ix_name;
    ix_path = i.Database.Index.ix_path;
    ix_key_type =
      Rx_xindex.Index_def.key_type_to_string i.Database.Index.ix_key_type;
    ix_state = state;
    ix_generation = i.Database.Index.ix_generation;
    ix_entries = i.Database.Index.ix_entries;
    ix_build_ms = i.Database.Index.ix_build_ms;
    ix_prior_generation =
      (match i.Database.Index.ix_prior_generation with None -> 0 | Some g -> g);
    ix_docs_scanned = scanned;
    ix_docs_total = total;
  }

let session_txn sess =
  match sess.txn with
  | Some txn when Database.txn_active txn -> Some txn
  | _ ->
      (* wounded as a deadlock victim (or otherwise finished) since the
         last request: the session just no longer has a transaction *)
      sess.txn <- None;
      None

(* the session transaction an explicit Commit/Rollback names; txid 0
   targets the current one whatever its id — pipelined flights commit a
   Begin they have not read the reply of *)
let named_txn sess txid =
  match session_txn sess with
  | None -> invalid_arg "no open transaction"
  | Some txn ->
      if txid <> 0 && Database.txn_id txn <> txid then
        invalid_arg (Printf.sprintf "transaction %d is not this session's" txid);
      txn

(* chunks must fit a response frame with room for the envelope and the
   per-row headers; half the cap leaves slack for one row's overshoot *)
let clamp_chunk chunk =
  let chunk = if chunk <= 0 then Rx_wire.default_chunk_bytes else chunk in
  min chunk (Rx_wire.max_frame / 2)

let set_cursor_gauge t = Rx_obs.Metrics.set t.m_cursors (Atomic.get t.open_cursors)

let drop_cursor t sess id cur =
  Database.cursor_close cur;
  Hashtbl.remove sess.cursors id;
  Atomic.decr t.open_cursors;
  set_cursor_gauge t

(* executes one request ([op] is its [op_name]); returns the OK payload
   plus the durability wait of any commit it made, to run before the
   response may be flushed *)
let dispatch t sess op : Rx_wire.request -> Rx_wire.ok * (unit -> unit) =
  function
  | Rx_wire.Hello _ -> invalid_arg "session already established"
  | Rx_wire.Query { table; column; xpath; ns_env } ->
      engine t op (fun () ->
          matches_of_result
            (Database.run ~ns_env ?txn:(session_txn sess) t.db ~table ~column
               ~xpath))
  | Rx_wire.Prepare { table; column; xpath; ns_env } ->
      engine t op (fun () ->
          let p = Database.prepare ~ns_env t.db ~table ~column ~xpath in
          sess.next_stmt <- sess.next_stmt + 1;
          Hashtbl.replace sess.prepared sess.next_stmt p;
          Rx_wire.R_prepared
            {
              stmt = sess.next_stmt;
              plan = (Database.Prepared.plan p).Database.description;
            })
  | Rx_wire.Run_prepared { stmt } -> (
      match Hashtbl.find_opt sess.prepared stmt with
      | None -> invalid_arg (Printf.sprintf "unknown prepared statement %d" stmt)
      | Some p ->
          engine t op (fun () ->
              matches_of_result
                (Database.run_prepared ?txn:(session_txn sess) t.db p)))
  | Rx_wire.Begin ->
      if session_txn sess <> None then
        invalid_arg "session already has an open transaction";
      engine t op (fun () ->
          let txn = Database.begin_txn t.db in
          sess.txn <- Some txn;
          Rx_wire.R_txn { txid = Database.txn_id txn })
  | Rx_wire.Commit { txid } ->
      let txn = named_txn sess txid in
      (* the session keeps its transaction until the engine accepts the
         commit, so a refusal stays open and retryable, not orphaned with
         its locks held *)
      let reply =
        engine t op (fun () ->
            Database.commit t.db txn;
            Rx_wire.R_unit)
      in
      sess.txn <- None;
      reply
  | Rx_wire.Rollback { txid } ->
      let txn = named_txn sess txid in
      (* as with commit: only forget the transaction once the engine
         actually rolled it back *)
      let reply =
        engine t op (fun () ->
            Database.rollback t.db txn;
            Rx_wire.R_unit)
      in
      sess.txn <- None;
      reply
  | Rx_wire.Insert { table; values; xml } ->
      let values =
        List.map (fun (k, v) -> (k, Rx_relational.Value.Varchar v)) values
      in
      engine t op (fun () ->
          Rx_wire.R_docid
            {
              docid =
                Database.insert ?txn:(session_txn sess) t.db ~table ~values
                  ~xml ();
            })
  | Rx_wire.Insert_many { table; column; docs } ->
      if session_txn sess <> None then
        invalid_arg "bulk load cannot run inside an explicit transaction";
      engine t op (fun () ->
          Rx_wire.R_docids
            { docids = Database.insert_many t.db ~table ~column docs })
  | Rx_wire.Delete { table; docid } ->
      engine t op (fun () ->
          Database.delete ?txn:(session_txn sess) t.db ~table ~docid;
          Rx_wire.R_unit)
  | Rx_wire.Get { table; column; docid } ->
      engine t op (fun () ->
          Rx_wire.R_doc
            {
              doc =
                Database.document ?txn:(session_txn sess) t.db ~table ~column
                  ~docid;
            })
  | Rx_wire.Stats ->
      engine t op (fun () ->
          Rx_wire.R_stats
            { json = Rx_obs.Json.to_string (Stats_report.json t.db) })
  | Rx_wire.Repl_state ->
      engine t op (fun () ->
          let st = Database.repl_state t.db in
          Rx_wire.R_repl_state
            {
              base_lsn = st.Database.r_base_lsn;
              durable_lsn = st.Database.r_durable_lsn;
              generations = st.Database.r_generations;
              page_size = st.Database.r_page_size;
            })
  | Rx_wire.Repl_fetch { from_lsn; max_bytes } ->
      engine t op (fun () ->
          (* cap at what one response frame can carry (minus envelope) *)
          let max_bytes = min max_bytes (Rx_wire.max_frame - 64) in
          let start_lsn, frames, durable_lsn =
            Database.repl_fetch t.db ~from_lsn ~max_bytes
          in
          Rx_wire.R_repl_batch { start_lsn; durable_lsn; frames })
  | Rx_wire.Open_cursor { table; column; xpath; ns_env; chunk_bytes } ->
      engine t op (fun () ->
          let cur =
            Database.cursor_of_result
              (Database.run ~ns_env ?txn:(session_txn sess) t.db ~table ~column
                 ~xpath)
          in
          sess.next_cursor <- sess.next_cursor + 1;
          Hashtbl.replace sess.cursors sess.next_cursor
            (cur, clamp_chunk chunk_bytes);
          Atomic.incr t.open_cursors;
          set_cursor_gauge t;
          Rx_wire.R_cursor
            {
              cursor = sess.next_cursor;
              plan = (Database.cursor_plan cur).Database.description;
            })
  | Rx_wire.Fetch { cursor } -> (
      match Hashtbl.find_opt sess.cursors cursor with
      | None -> invalid_arg (Printf.sprintf "unknown cursor %d" cursor)
      | Some (cur, chunk) ->
          engine t op (fun () ->
              match Database.cursor_next ~max_bytes:chunk cur with
              | [] ->
                  drop_cursor t sess cursor cur;
                  Rx_wire.R_rows_end
              | rows -> Rx_wire.R_rows_chunk { matches = rows }))
  | Rx_wire.Close_cursor { cursor } -> (
      match Hashtbl.find_opt sess.cursors cursor with
      | None -> invalid_arg (Printf.sprintf "unknown cursor %d" cursor)
      | Some (cur, _) ->
          drop_cursor t sess cursor cur;
          (Rx_wire.R_unit, ignore))
  | Rx_wire.Index_build { table; column; name; path; key_type } ->
      let key_type =
        match Rx_xindex.Index_def.key_type_of_string key_type with
        | Some k -> k
        | None -> invalid_arg (Printf.sprintf "unknown key type %S" key_type)
      in
      (* deliberately NOT under [engine] (and untraced — the trace ring
         needs the lock): the build serializes itself per slice, which is
         exactly what keeps the engine online while this worker waits for
         it — wrapping it here would hold the lock for the whole scan and
         stall every other session *)
      let info =
        Database.Index.await
          (Database.Index.build t.db ~table ~column ~name ~path ~key_type)
      in
      (Rx_wire.R_index_info { info = wire_index_info info }, ignore)
  | Rx_wire.Index_status { table; column; name } ->
      engine t op (fun () ->
          Rx_wire.R_index_info
            {
              info =
                wire_index_info (Database.Index.status t.db ~table ~column ~name);
            })
  | Rx_wire.Index_rollback { table; column; name } ->
      (* self-locking and durable on return (hence not under [engine],
         whose mutex is not reentrant) *)
      ( Rx_wire.R_index_info
          {
            info =
              wire_index_info (Database.Index.rollback t.db ~table ~column ~name);
          },
        ignore )
  | Rx_wire.Index_drop { table; column; name } ->
      (* immediate drops self-lock; staged drops only touch the session's
         own transaction *)
      Database.Index.drop ?txn:(session_txn sess) t.db ~table ~column ~name;
      (Rx_wire.R_unit, ignore)
  | Rx_wire.Index_list { table; column } ->
      engine t op (fun () ->
          Rx_wire.R_index_list
            {
              infos =
                List.map wire_index_info (Database.Index.list t.db ~table ~column);
            })
  | Rx_wire.Shutdown | Rx_wire.Bye -> (Rx_wire.R_unit, ignore)

(* --- response framing ---

   [acc] accumulates ready-to-write framed bytes, [enc] is the payload
   scratch; both are retained by their owner (one pair per worker, one
   pair in the reactor), so framing allocates nothing per response. A
   response that would exceed the frame cap is replaced by an error
   pointing at cursor streaming — the old core killed the whole
   connection with no response. *)
let append_frame ~acc ~enc resp =
  Buffer.clear enc;
  Rx_wire.encode_response_into enc resp;
  if Buffer.length enc > Rx_wire.max_frame then begin
    Buffer.clear enc;
    Rx_wire.encode_response_into enc
      (Rx_wire.Err
         {
           status = 1;
           message =
             "result exceeds the 16 MiB frame cap: stream it with a cursor \
              (Open_cursor/Fetch)";
         })
  end;
  Buffer.add_int32_be acc (Int32.of_int (Buffer.length enc));
  Buffer.add_buffer acc enc

(* a response produced outside a worker batch (handshake, protocol error,
   idle timeout): framed through the caller's scratch and queued for
   writeback at once *)
let queue_frame t conn ~acc ~enc resp =
  Mutex.protect t.lock (fun () ->
      Buffer.clear acc;
      append_frame ~acc ~enc resp;
      Nb.add_buffer conn.out acc)

(* --- lifecycle --- *)

(* only touches the nonblocking pipe — no mutex, so a signal handler
   running on a thread that already holds [t.lock] cannot self-deadlock *)
let request_stop t =
  if not t.stopping then
    try ignore (Unix.write_substring t.stop_w "!" 0 1)
    with Unix.Unix_error _ -> ()

let wake_reactor t =
  try ignore (Unix.write_substring t.wake_w "!" 0 1) with Unix.Unix_error _ -> ()

let wait t =
  Mutex.protect t.lock (fun () ->
      while not (t.stopping && t.live = 0) do
        Condition.wait t.cv t.lock
      done)

(* --- worker pool --- *)

let observe_latency t op t0 =
  match List.assoc_opt op t.op_hists with
  | Some h ->
      Rx_obs.Metrics.observe h
        (int_of_float ((Unix.gettimeofday () -. t0) *. 1_000_000.))
  | None -> ()

(* drain one connection's request queue: execute in arrival order,
   accumulate framed responses locally, run the collected durability
   waits (one group-commit window for the whole batch), then publish the
   response bytes to the connection in one append — responses therefore
   leave in request order, with commits never flushed before they are
   durable *)
let serve_batch t conn ~acc ~enc =
  Buffer.clear acc;
  let waits = ref [] in
  let shutdown_after = ref false in
  let served = ref 0 in
  let continue_ = ref true in
  while !continue_ && !served < t.cfg.max_pipeline do
    let job = Mutex.protect t.lock (fun () -> Queue.take_opt conn.inq) in
    match job with
    | None -> continue_ := false
    | Some (Refuse req) ->
        incr served;
        Rx_obs.Metrics.incr t.m_requests;
        Rx_obs.Metrics.incr t.m_rejected;
        Rx_obs.Metrics.incr t.m_errors;
        let t0 = Unix.gettimeofday () in
        append_frame ~acc ~enc
          (Rx_wire.Err
             { status = 3; message = "busy: server queue depth exceeded" });
        observe_latency t (op_name req) t0
    | Some (Exec req) ->
        incr served;
        Rx_obs.Metrics.incr t.m_requests;
        let op = op_name req in
        let t0 = Unix.gettimeofday () in
        let resp =
          match dispatch t conn op req with
          | ok, wait ->
              waits := wait :: !waits;
              Rx_wire.Ok ok
          | exception e ->
              Rx_obs.Metrics.incr t.m_errors;
              Rx_wire.Err
                {
                  status = Database.error_code e;
                  message = Database.error_message e;
                }
        in
        observe_latency t op t0;
        append_frame ~acc ~enc resp;
        Mutex.protect t.lock (fun () -> t.pending <- t.pending - 1);
        (match req with
        | Rx_wire.Shutdown ->
            shutdown_after := true;
            continue_ := false
        | Rx_wire.Bye ->
            conn.close_after_flush <- true;
            continue_ := false
        | _ -> ())
  done;
  if !served > 1 then begin
    Rx_obs.Metrics.incr t.m_pl_batches;
    Rx_obs.Metrics.add t.m_pl_requests !served
  end;
  (* durability point for every commit in the batch: the first wait's
     fsync covers the later commits' records, so they return without
     their own (group commit absorbs the batch) *)
  List.iter (fun wait -> wait ()) (List.rev !waits);
  Mutex.protect t.lock (fun () ->
      Nb.add_buffer conn.out acc;
      conn.last_activity <- Unix.gettimeofday ();
      if
        (not (Queue.is_empty conn.inq))
        && (not conn.dead)
        && not conn.close_after_flush
      then begin
        (* new requests arrived while serving: stay busy, go again *)
        Queue.add (Serve conn) t.workq;
        Condition.signal t.work_cv
      end
      else conn.busy <- false);
  wake_reactor t;
  if !shutdown_after then request_stop t

(* a closed session's teardown runs on the pool too: rolling back an
   abandoned transaction takes the engine lock, which must never stall
   the reactor's I/O *)
let cleanup_conn t conn =
  (match session_txn conn with
  | Some txn -> (
      try
        let (), wait =
          Database.exclusively t.db (fun () -> Database.rollback t.db txn)
        in
        wait ()
      with _ -> ())
  | None -> ());
  conn.txn <- None;
  Hashtbl.iter
    (fun _ (cur, _) ->
      Database.cursor_close cur;
      Atomic.decr t.open_cursors)
    conn.cursors;
  Hashtbl.reset conn.cursors;
  Hashtbl.reset conn.prepared;
  set_cursor_gauge t;
  Mutex.protect t.lock (fun () ->
      t.live <- t.live - 1;
      Condition.broadcast t.cv)

let worker_main t =
  let acc = Buffer.create 4096 and enc = Buffer.create 4096 in
  let rec loop () =
    let job =
      Mutex.protect t.lock (fun () ->
          let rec take () =
            match Queue.take_opt t.workq with
            | Some j -> Some j
            | None ->
                if t.workers_stop then None
                else begin
                  Condition.wait t.work_cv t.lock;
                  take ()
                end
          in
          take ())
    in
    match job with
    | None -> ()
    | Some (Serve conn) ->
        serve_batch t conn ~acc ~enc;
        loop ()
    | Some (Cleanup conn) ->
        cleanup_conn t conn;
        loop ()
  in
  loop ()

(* --- reactor --- *)

let read_chunk = 65536

(* parse complete frames out of [conn.inbuf]; stops at the pipeline
   bound, on a fatal protocol error, or when bytes run short (a partial
   frame just stays buffered across ticks — slow writers cost memory for
   one frame, not a thread) *)
let parse_frames t conn ~acc ~enc =
  let progressed = ref false in
  let stop = ref false in
  while not !stop do
    let depth =
      Mutex.protect t.lock (fun () ->
          Queue.length conn.inq + if conn.busy then 1 else 0)
    in
    if
      conn.fatal <> None || conn.close_after_flush || conn.dead
      || depth >= t.cfg.max_pipeline
      || Nb.length conn.inbuf < 4
    then stop := true
    else begin
      let len = Nb.peek_i32 conn.inbuf 0 in
      if len < 0 || len > Rx_wire.max_frame then begin
        conn.fatal <-
          Some
            (Rx_wire.Err
               {
                 status = Rx_wire.status_protocol;
                 message = Printf.sprintf "oversized frame (%d bytes)" len;
               });
        stop := true
      end
      else if Nb.length conn.inbuf < 4 + len then stop := true
      else begin
        let payload = Nb.sub_string conn.inbuf 4 len in
        Nb.consume conn.inbuf (4 + len);
        match Rx_wire.decode_request payload with
        | exception Rx_wire.Protocol_error msg ->
            Rx_obs.Metrics.incr t.m_errors;
            conn.fatal <-
              Some (Rx_wire.Err { status = Rx_wire.status_protocol; message = msg });
            stop := true
        | req ->
            progressed := true;
            if not conn.established then begin
              (* handshake runs on the reactor: no engine work involved *)
              let t0 = Unix.gettimeofday () in
              Rx_obs.Metrics.incr t.m_requests;
              (match req with
              | Rx_wire.Hello { token; _ }
                when t.cfg.auth_token = None || t.cfg.auth_token = Some token ->
                  conn.established <- true;
                  queue_frame t conn ~acc ~enc
                    (Rx_wire.Ok
                       (Rx_wire.R_hello
                          { server = server_banner; session = conn.sid }))
              | _ ->
                  Rx_obs.Metrics.incr t.m_errors;
                  conn.close_after_flush <- true;
                  queue_frame t conn ~acc ~enc
                    (Rx_wire.Err
                       {
                         status = 1;
                         message =
                           (match req with
                           | Rx_wire.Hello _ -> "authentication failed"
                           | _ -> "expected hello");
                       }));
              observe_latency t "hello" t0
            end
            else
              Mutex.protect t.lock (fun () ->
                  (* queue-depth admission: refuse (as Busy, the engine's
                     own backpressure type) rather than queue unboundedly;
                     the refusal rides the ordered response path *)
                  if t.pending >= t.cfg.max_queue_depth then
                    Queue.add (Refuse req) conn.inq
                  else begin
                    t.pending <- t.pending + 1;
                    Queue.add (Exec req) conn.inq
                  end)
      end
    end
  done;
  !progressed

let schedule t conn =
  Mutex.protect t.lock (fun () ->
      if
        conn.established && (not conn.busy) && (not conn.dead)
        && (not conn.close_after_flush)
        && not (Queue.is_empty conn.inq)
      then begin
        conn.busy <- true;
        Queue.add (Serve conn) t.workq;
        Condition.signal t.work_cv
      end)

let reject_overflow t fd =
  Rx_obs.Metrics.incr t.m_rejected;
  (* over-cap connections get one Busy frame before the close, so a
     client can tell backpressure from a crash *)
  (try
     Rx_wire.framed_send_response (Rx_wire.framer ()) fd
       (Rx_wire.Err { status = 3; message = "server at max connections" })
   with _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_one t =
  let fd, _addr = Unix.accept t.listen_fd in
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let admitted =
    Mutex.protect t.lock (fun () ->
        if t.stopping || List.length t.conns >= t.cfg.max_connections then None
        else begin
          t.next_sid <- t.next_sid + 1;
          t.live <- t.live + 1;
          Some t.next_sid
        end)
  in
  match admitted with
  | None -> reject_overflow t fd
  | Some sid ->
      Rx_obs.Metrics.incr t.m_accepted;
      Unix.set_nonblock fd;
      let conn =
        {
          sid;
          fd;
          established = false;
          inbuf = Nb.create 4096;
          inq = Queue.create ();
          out = Nb.create 4096;
          busy = false;
          txn = None;
          prepared = Hashtbl.create 8;
          next_stmt = 0;
          cursors = Hashtbl.create 4;
          next_cursor = 0;
          last_activity = Unix.gettimeofday ();
          eof = false;
          dead = false;
          close_after_flush = false;
          fatal = None;
        }
      in
      Mutex.protect t.lock (fun () -> t.conns <- conn :: t.conns);
      Rx_obs.Metrics.set t.m_conns (List.length t.conns)

let close_conn t conn =
  (try Unix.close conn.fd with Unix.Unix_error _ -> ());
  Mutex.protect t.lock (fun () ->
      t.conns <- List.filter (fun c -> c.sid <> conn.sid) t.conns;
      (* unserviced admitted entries hand their slots back *)
      Queue.iter
        (function Exec _ -> t.pending <- t.pending - 1 | Refuse _ -> ())
        conn.inq;
      Queue.clear conn.inq;
      Queue.add (Cleanup conn) t.workq;
      Condition.signal t.work_cv);
  Rx_obs.Metrics.set t.m_conns (List.length t.conns)

let initiate_stop t =
  let conns =
    Mutex.protect t.lock (fun () ->
        if t.stopping then []
        else begin
          t.stopping <- true;
          Condition.broadcast t.cv;
          t.conns
        end)
  in
  (* wake idle sessions: their reads return EOF, in-flight requests still
     finish and respond before the close *)
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns

let reactor t =
  let rbuf = Bytes.create read_chunk in
  (* the self-pipe drain buffer is allocated once, not per wakeup *)
  let drain = Bytes.create 64 in
  let r_acc = Buffer.create 256 and r_enc = Buffer.create 256 in
  let do_read conn =
    match Unix.read conn.fd rbuf 0 read_chunk with
    | 0 -> conn.eof <- true
    | n ->
        Rx_obs.Metrics.add t.m_bytes_in n;
        conn.last_activity <- Unix.gettimeofday ();
        Nb.add_subbytes conn.inbuf rbuf 0 n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> conn.eof <- true
  in
  let do_write conn =
    Mutex.protect t.lock (fun () ->
        if Nb.length conn.out > 0 then
          let len = min (Nb.length conn.out) (256 * 1024) in
          match Unix.write conn.fd conn.out.Nb.buf conn.out.Nb.off len with
          | n ->
              Rx_obs.Metrics.add t.m_bytes_out n;
              Nb.consume conn.out n
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error _ -> conn.dead <- true)
  in
  let rec loop () =
    let stopping, conns =
      Mutex.protect t.lock (fun () -> (t.stopping, t.conns))
    in
    if stopping && conns = [] then ()
    else begin
      let read_ok c =
        (not c.eof) && (not c.dead) && (not c.close_after_flush)
        && c.fatal = None
        && Nb.length c.inbuf < 4 + Rx_wire.max_frame
        && Mutex.protect t.lock (fun () ->
               Queue.length c.inq + (if c.busy then 1 else 0)
               < t.cfg.max_pipeline)
      in
      let rset =
        t.stop_r :: t.wake_r
        :: (if stopping then [] else [ t.listen_fd ])
        @ List.filter_map
            (fun c -> if read_ok c then Some c.fd else None)
            conns
      and wset =
        List.filter_map
          (fun c ->
            if
              (not c.dead)
              && Mutex.protect t.lock (fun () -> Nb.length c.out > 0)
            then Some c.fd
            else None)
          conns
      in
      (match Unix.select rset wset [] 0.2 with
      | ready_r, ready_w, _ ->
          if List.mem t.stop_r ready_r then begin
            (try ignore (Unix.read t.stop_r drain 0 (Bytes.length drain))
             with Unix.Unix_error _ -> ());
            initiate_stop t
          end;
          if List.mem t.wake_r ready_r then (
            try ignore (Unix.read t.wake_r drain 0 (Bytes.length drain))
            with Unix.Unix_error _ -> ());
          List.iter
            (fun c -> if List.mem c.fd ready_r then do_read c)
            conns;
          if (not stopping) && List.mem t.listen_fd ready_r then (
            try accept_one t
            with Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ());
          List.iter
            (fun c -> if List.mem c.fd ready_w then do_write c)
            conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      (* pump every connection: parse buffered frames, schedule service,
         surface deferred protocol errors, time out idle sessions *)
      let now = Unix.gettimeofday () in
      let conns = Mutex.protect t.lock (fun () -> t.conns) in
      List.iter
        (fun c ->
          if Nb.length c.inbuf >= 4 && not c.dead then
            ignore (parse_frames t c ~acc:r_acc ~enc:r_enc);
          schedule t c;
          (* a protocol error is delivered only once every earlier
             response has been produced, preserving response order *)
          (match c.fatal with
          | Some resp
            when Mutex.protect t.lock (fun () ->
                     (not c.busy) && Queue.is_empty c.inq) ->
              c.fatal <- None;
              c.close_after_flush <- true;
              queue_frame t c ~acc:r_acc ~enc:r_enc resp
          | _ -> ());
          if
            t.cfg.idle_timeout > 0. && c.established
            && (not c.close_after_flush)
            && now -. c.last_activity > t.cfg.idle_timeout
            && Mutex.protect t.lock (fun () ->
                   (not c.busy) && Queue.is_empty c.inq)
          then begin
            (* an abandoned session must not park its locks forever: roll
               it back (via cleanup) and close, telling the client why *)
            Rx_obs.Metrics.incr t.m_idle_timeouts;
            c.close_after_flush <- true;
            (try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
             with Unix.Unix_error _ -> ());
            queue_frame t c ~acc:r_acc ~enc:r_enc
              (Rx_wire.Err
                 {
                   status = 1;
                   message =
                     "session idle timeout: transaction rolled back, \
                      connection closed";
                 })
          end)
        conns;
      (* close what is ready to close *)
      List.iter
        (fun c ->
          let closable =
            Mutex.protect t.lock (fun () ->
                (not c.busy)
                && (c.dead
                   || (c.close_after_flush && Nb.length c.out = 0)
                   || (c.eof && Queue.is_empty c.inq && Nb.length c.out = 0)))
          in
          if closable then close_conn t c)
        conns;
      loop ()
    end
  in
  loop ();
  (* all sessions are closed: release the workers once the remaining
     cleanup jobs drain *)
  Mutex.protect t.lock (fun () ->
      t.workers_stop <- true;
      Condition.broadcast t.work_cv)

(* --- startup --- *)

let worker_count cfg =
  if cfg.io_threads > 0 then cfg.io_threads
  else
    (* 0 = auto-size. Workers are blocking threads, not CPU domains: most
       of their life is spent parked in the group-commit durability wait,
       during which they hold no core — so the pool must be sized to the
       number of commits worth overlapping into one fsync (the old
       thread-per-connection core effectively had [max_connections]
       such threads), not to the host's core count. Floor of 8 keeps
       group-commit absorption alive on small hosts; cap of 32 bounds
       the engine-lock convoy on big ones. *)
    max 8 (min 32 (2 * Domain.recommended_domain_count ()))

let start ?(config = default_config) db =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let m = Database.metrics db in
  (* register every net instrument up front: reactor and workers only
     ever resolve existing entries, and the stats schema is complete from
     the first request *)
  Stats_report.ensure_net_instruments m;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let stop_r, stop_w = Unix.pipe () in
  let wake_r, wake_w = Unix.pipe () in
  let t =
    try
      (* a full pipe must never block (or EINTR-loop) a signal handler;
         one byte is enough and extras are harmless *)
      Unix.set_nonblock stop_w;
      Unix.set_nonblock wake_w;
      Unix.set_nonblock wake_r;
      Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
      Unix.bind listen_fd
        (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
      Unix.listen listen_fd 128;
      let bound_port =
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> config.port
      in
      {
        db;
        cfg = config;
        workers_n = worker_count config;
        listen_fd;
        bound_port;
        stop_r;
        stop_w;
        wake_r;
        wake_w;
        lock = Mutex.create ();
        cv = Condition.create ();
        work_cv = Condition.create ();
        workq = Queue.create ();
        stopping = false;
        workers_stop = false;
        conns = [];
        live = 0;
        pending = 0;
        threads = [];
        next_sid = 0;
        open_cursors = Atomic.make 0;
        m_conns = Rx_obs.Metrics.gauge m "net.conns";
        m_cursors = Rx_obs.Metrics.gauge m "net.cursors";
        m_accepted = Rx_obs.Metrics.counter m "net.conns.accepted";
        m_requests = Rx_obs.Metrics.counter m "net.requests";
        m_errors = Rx_obs.Metrics.counter m "net.errors";
        m_rejected = Rx_obs.Metrics.counter m "net.rejected";
        m_bytes_in = Rx_obs.Metrics.counter m "net.bytes_in";
        m_bytes_out = Rx_obs.Metrics.counter m "net.bytes_out";
        m_idle_timeouts = Rx_obs.Metrics.counter m "net.idle_timeouts";
        m_pl_batches = Rx_obs.Metrics.counter m "net.pipeline.batches";
        m_pl_requests = Rx_obs.Metrics.counter m "net.pipeline.requests";
        op_hists =
          List.map
            (fun op -> (op, Rx_obs.Metrics.histogram m ("net.latency." ^ op)))
            Stats_report.net_ops;
      }
    with e ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ listen_fd; stop_r; stop_w; wake_r; wake_w ];
      raise e
  in
  let ths =
    Thread.create reactor t
    :: List.init t.workers_n (fun _ -> Thread.create worker_main t)
  in
  Mutex.protect t.lock (fun () -> t.threads <- ths);
  t

let stop t =
  request_stop t;
  wait t;
  let threads =
    Mutex.protect t.lock (fun () ->
        let ths = t.threads in
        t.threads <- [];
        ths)
  in
  List.iter Thread.join threads;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.stop_r; t.stop_w; t.wake_r; t.wake_w ]
