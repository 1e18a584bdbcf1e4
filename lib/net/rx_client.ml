exception Error of { status : int; message : string }

type t = {
  fd : Unix.file_descr;
  fr : Rx_wire.framer;
  mutable session : int;
  mutable closed : bool;
}

type txn = { tx : int }
type result = { plan : string; matches : (int * string) list }
type prepared = { stmt : int; stmt_plan : string }

let bad_shape () = raise (Rx_wire.Protocol_error "unexpected response shape")

let exn_of_status status message =
  match status with
  | 3 -> Systemrx.Database.Busy { txid = 0; blockers = [] }
  | 4 -> Rx_txn.Lock_manager.Deadlock { victim = 0; cycle = [] }
  | 5 -> Systemrx.Database.Read_only { reason = message }
  | _ -> Error { status; message }

let rpc c req =
  if c.closed then invalid_arg "Rx_client: connection is closed";
  Rx_wire.framed_send_request c.fr c.fd req;
  match Rx_wire.framed_recv_response c.fr c.fd with
  | Rx_wire.Ok ok -> ok
  | Rx_wire.Err { status; message } -> raise (exn_of_status status message)

let connect ?(host = "127.0.0.1") ?(token = "") ?(client = "rx_client") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let c = { fd; fr = Rx_wire.framer (); session = 0; closed = false } in
  match
    try rpc c (Rx_wire.Hello { token; client })
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  with
  | Rx_wire.R_hello { session; _ } ->
      c.session <- session;
      c
  | _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      bad_shape ()

let close c =
  if not c.closed then begin
    (try ignore (rpc c Rx_wire.Bye) with _ -> ());
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let session_id c = c.session

let unit_rpc c req =
  match rpc c req with Rx_wire.R_unit -> () | _ -> bad_shape ()

let begin_txn c =
  match rpc c Rx_wire.Begin with
  | Rx_wire.R_txn { txid } -> { tx = txid }
  | _ -> bad_shape ()

let commit c txn = unit_rpc c (Rx_wire.Commit { txid = txn.tx })
let rollback c txn = unit_rpc c (Rx_wire.Rollback { txid = txn.tx })
let txn_id txn = txn.tx

let result_rpc c req =
  match rpc c req with
  | Rx_wire.R_matches { plan; matches } -> { plan; matches }
  | _ -> bad_shape ()

let query ?(ns_env = []) c ~table ~column ~xpath =
  result_rpc c (Rx_wire.Query { table; column; xpath; ns_env })

let prepare ?(ns_env = []) c ~table ~column ~xpath =
  match rpc c (Rx_wire.Prepare { table; column; xpath; ns_env }) with
  | Rx_wire.R_prepared { stmt; plan } -> { stmt; stmt_plan = plan }
  | _ -> bad_shape ()

let run_prepared c p = result_rpc c (Rx_wire.Run_prepared { stmt = p.stmt })
let plan p = p.stmt_plan

let insert c ~table ?(values = []) ?(xml = []) () =
  match rpc c (Rx_wire.Insert { table; values; xml }) with
  | Rx_wire.R_docid { docid } -> docid
  | _ -> bad_shape ()

let insert_many c ~table ~column docs =
  match rpc c (Rx_wire.Insert_many { table; column; docs }) with
  | Rx_wire.R_docids { docids } -> docids
  | _ -> bad_shape ()

let delete c ~table ~docid = unit_rpc c (Rx_wire.Delete { table; docid })

let document c ~table ~column ~docid =
  match rpc c (Rx_wire.Get { table; column; docid }) with
  | Rx_wire.R_doc { doc } -> doc
  | _ -> bad_shape ()

let stats_json c =
  match rpc c Rx_wire.Stats with
  | Rx_wire.R_stats { json } -> json
  | _ -> bad_shape ()

type repl_state = {
  base_lsn : int64;
  durable_lsn : int64;
  generations : int;
  page_size : int;
}

let repl_state c =
  match rpc c Rx_wire.Repl_state with
  | Rx_wire.R_repl_state { base_lsn; durable_lsn; generations; page_size } ->
      { base_lsn; durable_lsn; generations; page_size }
  | _ -> bad_shape ()

let repl_fetch c ~from_lsn ~max_bytes =
  match rpc c (Rx_wire.Repl_fetch { from_lsn; max_bytes }) with
  | Rx_wire.R_repl_batch { start_lsn; durable_lsn; frames } ->
      (start_lsn, frames, durable_lsn)
  | _ -> bad_shape ()

let shutdown c = unit_rpc c Rx_wire.Shutdown

(* --- index lifecycle --- *)

type index_info = Rx_wire.index_info = {
  ix_name : string;
  ix_path : string;
  ix_key_type : string;
  ix_state : string;
  ix_generation : int;
  ix_entries : int;
  ix_build_ms : int;
  ix_prior_generation : int;
  ix_docs_scanned : int;
  ix_docs_total : int;
}

let info_rpc c req =
  match rpc c req with
  | Rx_wire.R_index_info { info } -> info
  | _ -> bad_shape ()

let build_index c ~table ~column ~name ~path ~key_type =
  info_rpc c (Rx_wire.Index_build { table; column; name; path; key_type })

let index_status c ~table ~column ~name =
  info_rpc c (Rx_wire.Index_status { table; column; name })

let rollback_index c ~table ~column ~name =
  info_rpc c (Rx_wire.Index_rollback { table; column; name })

let drop_index c ~table ~column ~name =
  unit_rpc c (Rx_wire.Index_drop { table; column; name })

let list_indexes c ~table ~column =
  match rpc c (Rx_wire.Index_list { table; column }) with
  | Rx_wire.R_index_list { infos } -> infos
  | _ -> bad_shape ()

(* --- pipelined batches --- *)

(* flights stay comfortably under the server's default max_pipeline (32):
   past the bound the server stops reading, and a client that kept
   writing while never reading would deadlock against it once both
   directions' socket buffers filled *)
let flight_size = 16

let pipeline c reqs =
  if c.closed then invalid_arg "Rx_client: connection is closed";
  let recv _ =
    match Rx_wire.framed_recv_response c.fr c.fd with
    | Rx_wire.Ok ok -> Stdlib.Ok ok
    | Rx_wire.Err { status; message } ->
        Stdlib.Error (exn_of_status status message)
  in
  let rec flights = function
    | [] -> []
    | reqs ->
        let flight = List.filteri (fun i _ -> i < flight_size) reqs in
        (* write the whole flight, then read the whole flight: responses
           come back strictly in request order *)
        List.iter (Rx_wire.framed_send_request c.fr c.fd) flight;
        let replies = List.map recv flight in
        replies @ flights (List.filteri (fun i _ -> i >= flight_size) reqs)
  in
  flights reqs

(* --- streamed result cursors --- *)

type cursor = { cur_id : int; cur_plan : string; mutable cur_done : bool }

let open_cursor ?(ns_env = []) ?(chunk_bytes = 0) c ~table ~column ~xpath =
  match rpc c (Rx_wire.Open_cursor { table; column; xpath; ns_env; chunk_bytes })
  with
  | Rx_wire.R_cursor { cursor; plan } ->
      { cur_id = cursor; cur_plan = plan; cur_done = false }
  | _ -> bad_shape ()

let cursor_plan cur = cur.cur_plan

let fetch c cur =
  if cur.cur_done then []
  else
    match rpc c (Rx_wire.Fetch { cursor = cur.cur_id }) with
    | Rx_wire.R_rows_chunk { matches } -> matches
    | Rx_wire.R_rows_end ->
        cur.cur_done <- true;
        []
    | _ -> bad_shape ()

let close_cursor c cur =
  if not cur.cur_done then begin
    cur.cur_done <- true;
    unit_rpc c (Rx_wire.Close_cursor { cursor = cur.cur_id })
  end

let fold_query ?ns_env ?chunk_bytes c ~table ~column ~xpath ~init ~f =
  let cur = open_cursor ?ns_env ?chunk_bytes c ~table ~column ~xpath in
  let rec go acc =
    match fetch c cur with
    | [] -> acc
    | rows -> go (List.fold_left (fun a (docid, s) -> f a docid s) acc rows)
  in
  match go init with
  | v -> v
  | exception e ->
      (* the consumer failed mid-stream: free the server-side cursor
         before re-raising, so the session does not leak it *)
      (try close_cursor c cur with _ -> ());
      raise e
