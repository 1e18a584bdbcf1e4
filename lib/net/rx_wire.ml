exception Protocol_error of string

let max_frame = 16 * 1024 * 1024
let status_protocol = 7
let default_chunk_bytes = 256 * 1024

type request =
  | Hello of { token : string; client : string }
  | Query of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Prepare of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
    }
  | Run_prepared of { stmt : int }
  | Begin
  | Commit of { txid : int }
  | Rollback of { txid : int }
  | Insert of {
      table : string;
      values : (string * string) list;
      xml : (string * string) list;
    }
  | Insert_many of { table : string; column : string; docs : string list }
  | Delete of { table : string; docid : int }
  | Get of { table : string; column : string; docid : int }
  | Stats
  | Shutdown
  | Bye
  | Repl_state
  | Repl_fetch of { from_lsn : int64; max_bytes : int }
  | Open_cursor of {
      table : string;
      column : string;
      xpath : string;
      ns_env : (string * string) list;
      chunk_bytes : int;
    }
  | Fetch of { cursor : int }
  | Close_cursor of { cursor : int }
  | Index_build of {
      table : string;
      column : string;
      name : string;
      path : string;
      key_type : string;
    }
  | Index_status of { table : string; column : string; name : string }
  | Index_rollback of { table : string; column : string; name : string }
  | Index_drop of { table : string; column : string; name : string }
  | Index_list of { table : string; column : string }

(* one index described on the wire; [ix_state] is "building" / "live" /
   "failed: <msg>", [ix_prior_generation] 0 when none *)
type index_info = {
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

type ok =
  | R_hello of { server : string; session : int }
  | R_matches of { plan : string; matches : (int * string) list }
  | R_prepared of { stmt : int; plan : string }
  | R_txn of { txid : int }
  | R_unit
  | R_docid of { docid : int }
  | R_docids of { docids : int list }
  | R_doc of { doc : string }
  | R_stats of { json : string }
  | R_repl_state of {
      base_lsn : int64;
      durable_lsn : int64;
      generations : int;
      page_size : int;
    }
  | R_repl_batch of { start_lsn : int64; durable_lsn : int64; frames : string }
  | R_cursor of { cursor : int; plan : string }
  | R_rows_chunk of { matches : (int * string) list }
  | R_rows_end
  | R_index_info of { info : index_info }
  | R_index_list of { infos : index_info list }

type response = Ok of ok | Err of { status : int; message : string }

(* --- payload primitives ---

   Writers append to a caller-supplied [Buffer.t] through
   [Buffer.add_*], so a connection that reuses one scratch buffer
   encodes frames without fresh buffers (beyond growth to the largest
   frame seen). *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))
let put_u32 b v = Buffer.add_int32_be b (Int32.of_int v)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

type cursor = { s : string; mutable pos : int }

let need c n =
  if n < 0 || c.pos + n > String.length c.s then
    raise (Protocol_error "truncated payload")

let get_u8 c =
  need c 1;
  let v = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_i64 c =
  need c 8;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Protocol_error "negative length");
  v

let get_str c =
  let len = get_u32 c in
  need c len;
  let s = String.sub c.s c.pos len in
  c.pos <- c.pos + len;
  s

(* --- field codecs: one writer/reader pair per field group --- *)

type 'a codec = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }

let unit = { put = (fun _ () -> ()); get = (fun _ -> ()) }
let str = { put = put_str; get = get_str }

let int =
  {
    put = (fun b v -> Buffer.add_int64_be b (Int64.of_int v));
    get = (fun c -> Int64.to_int (get_i64 c));
  }

(* LSNs travel as true 8-byte big-endian int64s ([int] narrows through
   the host int, which is fine for counts but not for a durable on-disk
   position) *)
let i64 = { put = Buffer.add_int64_be; get = get_i64 }

(* a named loop rather than [List.iter (put b)]: no closure per list *)
let rec put_each put b = function
  | [] -> ()
  | v :: tl ->
      put b v;
      put_each put b tl

let list x =
  {
    put =
      (fun b l ->
        put_u32 b (List.length l);
        put_each x.put b l);
    get =
      (fun c ->
        let n = get_u32 c in
        (* every element costs at least one byte on the wire, so a count
           larger than the remaining payload is malformed, not merely
           large *)
        need c n;
        List.init n (fun _ -> x.get c));
  }

let pair x y =
  {
    put = (fun b (v, w) -> x.put b v; y.put b w);
    get = (fun c -> let v = x.get c in (v, y.get c));
  }

let t3 x y z =
  {
    put = (fun b (v, w, u) -> x.put b v; y.put b w; z.put b u);
    get = (fun c -> let v = x.get c in let w = y.get c in (v, w, z.get c));
  }

let t4 x y z q =
  {
    put = (fun b (v, w, u, p) -> x.put b v; y.put b w; z.put b u; q.put b p);
    get =
      (fun c ->
        let v = x.get c in
        let w = y.get c in
        let u = z.get c in
        (v, w, u, q.get c));
  }

let kvs = list (pair str str)

(* a query's target (table, column, xpath, ns_env): Query, Prepare,
   Open_cursor *)
let target = t4 str str str kvs

(* a named index (table, column, name): the Index_* operations *)
let index = t3 str str str

(* [(docid, serialized subtree)] rows: R_matches, R_rows_chunk *)
let rows = list (pair int str)

let index_info =
  let x = t3 (t4 str str str str) (t3 int int int) (t3 int int int) in
  {
    put =
      (fun b i ->
        x.put b
          ( (i.ix_name, i.ix_path, i.ix_key_type, i.ix_state),
            (i.ix_generation, i.ix_entries, i.ix_build_ms),
            (i.ix_prior_generation, i.ix_docs_scanned, i.ix_docs_total) ));
    get =
      (fun c ->
        let ( (ix_name, ix_path, ix_key_type, ix_state),
              (ix_generation, ix_entries, ix_build_ms),
              (ix_prior_generation, ix_docs_scanned, ix_docs_total) ) =
          x.get c
        in
        {
          ix_name; ix_path; ix_key_type; ix_state; ix_generation; ix_entries;
          ix_build_ms; ix_prior_generation; ix_docs_scanned; ix_docs_total;
        });
  }

(* --- the op tables ---

   One row per request op and one per result shape: its wire tag, its
   name (the [net.latency.<name>] histogram, the [op] trace attribute),
   the codec of its fields and the constructor the decoder applies. The
   one match per type in [bind_request]/[bind_ok] pairs a value with its
   row; decoding indexes the table by tag, so row [i] carries tag
   [i + 1]. *)

type ('a, 'v) row = {
  tag : int;
  name : string;
  fields : 'a codec;
  make : 'a -> 'v;
}

type 'v packed = Row : ('a, 'v) row -> 'v packed
type 'v bound = Bound : ('a, 'v) row * 'a -> 'v bound

let row tag name fields make = { tag; name; fields; make }

module Op = struct
  let hello =
    row 1 "hello" (pair str str) (fun (token, client) ->
        Hello { token; client })
  let query =
    row 2 "query" target (fun (table, column, xpath, ns_env) ->
        Query { table; column; xpath; ns_env })
  let prepare =
    row 3 "prepare" target (fun (table, column, xpath, ns_env) ->
        Prepare { table; column; xpath; ns_env })
  let run_prepared =
    row 4 "run_prepared" int (fun stmt -> Run_prepared { stmt })
  let begin_ = row 5 "begin" unit (fun () -> Begin)
  let commit = row 6 "commit" int (fun txid -> Commit { txid })
  let rollback = row 7 "rollback" int (fun txid -> Rollback { txid })
  let insert =
    row 8 "insert" (t3 str kvs kvs) (fun (table, values, xml) ->
        Insert { table; values; xml })
  let insert_many =
    row 9 "insert_many" (t3 str str (list str)) (fun (table, column, docs) ->
        Insert_many { table; column; docs })
  let delete =
    row 10 "delete" (pair str int) (fun (table, docid) ->
        Delete { table; docid })
  let get =
    row 11 "get" (t3 str str int) (fun (table, column, docid) ->
        Get { table; column; docid })
  let stats = row 12 "stats" unit (fun () -> Stats)
  let shutdown = row 13 "shutdown" unit (fun () -> Shutdown)
  let bye = row 14 "bye" unit (fun () -> Bye)
  let repl_state = row 15 "repl_state" unit (fun () -> Repl_state)
  let repl_fetch =
    row 16 "repl_fetch" (pair i64 int) (fun (from_lsn, max_bytes) ->
        Repl_fetch { from_lsn; max_bytes })
  let open_cursor =
    row 17 "open_cursor" (pair target int)
      (fun ((table, column, xpath, ns_env), chunk_bytes) ->
        Open_cursor { table; column; xpath; ns_env; chunk_bytes })
  let fetch = row 18 "fetch" int (fun cursor -> Fetch { cursor })
  let close_cursor =
    row 19 "close_cursor" int (fun cursor -> Close_cursor { cursor })
  let index_build =
    row 20 "index_build" (t3 index str str)
      (fun ((table, column, name), path, key_type) ->
        Index_build { table; column; name; path; key_type })
  let index_status =
    row 21 "index_status" index (fun (table, column, name) ->
        Index_status { table; column; name })
  let index_rollback =
    row 22 "index_rollback" index (fun (table, column, name) ->
        Index_rollback { table; column; name })
  let index_drop =
    row 23 "index_drop" index (fun (table, column, name) ->
        Index_drop { table; column; name })
  let index_list =
    row 24 "index_list" (pair str str) (fun (table, column) ->
        Index_list { table; column })

  let table =
    [|
      Row hello; Row query; Row prepare; Row run_prepared; Row begin_;
      Row commit; Row rollback; Row insert; Row insert_many; Row delete;
      Row get; Row stats; Row shutdown; Row bye; Row repl_state;
      Row repl_fetch; Row open_cursor; Row fetch; Row close_cursor;
      Row index_build; Row index_status; Row index_rollback; Row index_drop;
      Row index_list;
    |]
end

module Res = struct
  let hello =
    row 1 "hello" (pair str int) (fun (server, session) ->
        R_hello { server; session })
  let matches =
    row 2 "matches" (pair str rows) (fun (plan, matches) ->
        R_matches { plan; matches })
  let prepared =
    row 3 "prepared" (pair int str) (fun (stmt, plan) ->
        R_prepared { stmt; plan })
  let txn = row 4 "txn" int (fun txid -> R_txn { txid })
  let unit_ = row 5 "unit" unit (fun () -> R_unit)
  let docid = row 6 "docid" int (fun docid -> R_docid { docid })
  let docids = row 7 "docids" (list int) (fun docids -> R_docids { docids })
  let doc = row 8 "doc" str (fun doc -> R_doc { doc })
  let stats = row 9 "stats" str (fun json -> R_stats { json })
  let repl_state =
    row 10 "repl_state" (t4 i64 i64 int int)
      (fun (base_lsn, durable_lsn, generations, page_size) ->
        R_repl_state { base_lsn; durable_lsn; generations; page_size })
  let repl_batch =
    row 11 "repl_batch" (t3 i64 i64 str)
      (fun (start_lsn, durable_lsn, frames) ->
        R_repl_batch { start_lsn; durable_lsn; frames })
  let cursor =
    row 12 "cursor" (pair int str) (fun (cursor, plan) ->
        R_cursor { cursor; plan })
  let rows_chunk =
    row 13 "rows_chunk" rows (fun matches -> R_rows_chunk { matches })
  let rows_end = row 14 "rows_end" unit (fun () -> R_rows_end)
  let info = row 15 "index_info" index_info (fun info -> R_index_info { info })
  let infos =
    row 16 "index_list" (list index_info) (fun infos -> R_index_list { infos })

  let table =
    [|
      Row hello; Row matches; Row prepared; Row txn; Row unit_; Row docid;
      Row docids; Row doc; Row stats; Row repl_state; Row repl_batch;
      Row cursor; Row rows_chunk; Row rows_end; Row info; Row infos;
    |]
end

let bind_request = function
  | Hello { token; client } -> Bound (Op.hello, (token, client))
  | Query { table; column; xpath; ns_env } ->
      Bound (Op.query, (table, column, xpath, ns_env))
  | Prepare { table; column; xpath; ns_env } ->
      Bound (Op.prepare, (table, column, xpath, ns_env))
  | Run_prepared { stmt } -> Bound (Op.run_prepared, stmt)
  | Begin -> Bound (Op.begin_, ())
  | Commit { txid } -> Bound (Op.commit, txid)
  | Rollback { txid } -> Bound (Op.rollback, txid)
  | Insert { table; values; xml } -> Bound (Op.insert, (table, values, xml))
  | Insert_many { table; column; docs } ->
      Bound (Op.insert_many, (table, column, docs))
  | Delete { table; docid } -> Bound (Op.delete, (table, docid))
  | Get { table; column; docid } -> Bound (Op.get, (table, column, docid))
  | Stats -> Bound (Op.stats, ())
  | Shutdown -> Bound (Op.shutdown, ())
  | Bye -> Bound (Op.bye, ())
  | Repl_state -> Bound (Op.repl_state, ())
  | Repl_fetch { from_lsn; max_bytes } ->
      Bound (Op.repl_fetch, (from_lsn, max_bytes))
  | Open_cursor { table; column; xpath; ns_env; chunk_bytes } ->
      Bound (Op.open_cursor, ((table, column, xpath, ns_env), chunk_bytes))
  | Fetch { cursor } -> Bound (Op.fetch, cursor)
  | Close_cursor { cursor } -> Bound (Op.close_cursor, cursor)
  | Index_build { table; column; name; path; key_type } ->
      Bound (Op.index_build, ((table, column, name), path, key_type))
  | Index_status { table; column; name } ->
      Bound (Op.index_status, (table, column, name))
  | Index_rollback { table; column; name } ->
      Bound (Op.index_rollback, (table, column, name))
  | Index_drop { table; column; name } ->
      Bound (Op.index_drop, (table, column, name))
  | Index_list { table; column } -> Bound (Op.index_list, (table, column))

let bind_ok = function
  | R_hello { server; session } -> Bound (Res.hello, (server, session))
  | R_matches { plan; matches } -> Bound (Res.matches, (plan, matches))
  | R_prepared { stmt; plan } -> Bound (Res.prepared, (stmt, plan))
  | R_txn { txid } -> Bound (Res.txn, txid)
  | R_unit -> Bound (Res.unit_, ())
  | R_docid { docid } -> Bound (Res.docid, docid)
  | R_docids { docids } -> Bound (Res.docids, docids)
  | R_doc { doc } -> Bound (Res.doc, doc)
  | R_stats { json } -> Bound (Res.stats, json)
  | R_repl_state { base_lsn; durable_lsn; generations; page_size } ->
      Bound (Res.repl_state, (base_lsn, durable_lsn, generations, page_size))
  | R_repl_batch { start_lsn; durable_lsn; frames } ->
      Bound (Res.repl_batch, (start_lsn, durable_lsn, frames))
  | R_cursor { cursor; plan } -> Bound (Res.cursor, (cursor, plan))
  | R_rows_chunk { matches } -> Bound (Res.rows_chunk, matches)
  | R_rows_end -> Bound (Res.rows_end, ())
  | R_index_info { info } -> Bound (Res.info, info)
  | R_index_list { infos } -> Bound (Res.infos, infos)

let op_tag r = match bind_request r with Bound (row, _) -> row.tag
let op_name r = match bind_request r with Bound (row, _) -> row.name
let names table = Array.to_list (Array.map (fun (Row r) -> r.name) table)
let op_names = names Op.table
let result_names = names Res.table

(* --- encoding and decoding --- *)

let put_bound b (Bound (row, v)) =
  put_u8 b row.tag;
  row.fields.put b v

let get_row table what c =
  let tag = get_u8 c in
  if tag < 1 || tag > Array.length table then
    raise (Protocol_error (Printf.sprintf "unknown %s %d" what tag));
  match table.(tag - 1) with Row row -> row.make (row.fields.get c)

let encode_request_into b r = put_bound b (bind_request r)

let encode_response_into b = function
  | Ok ok ->
      put_u8 b 0;
      put_bound b (bind_ok ok)
  | Err { status; message } ->
      if status <= 0 || status > 255 then
        invalid_arg "Rx_wire: error status out of range";
      put_u8 b status;
      put_str b message

let to_string encode v =
  let b = Buffer.create 64 in
  encode b v;
  Buffer.contents b

let encode_request r = to_string encode_request_into r
let encode_response r = to_string encode_response_into r

(* the whole payload must parse, with nothing left over *)
let decode s get =
  let c = { s; pos = 0 } in
  let v = get c in
  if c.pos <> String.length s then raise (Protocol_error "trailing bytes");
  v

let decode_request s = decode s (get_row Op.table "opcode")

let decode_response s =
  decode s (fun c ->
      match get_u8 c with
      | 0 -> Ok (get_row Res.table "result tag" c)
      | status -> Err { status; message = get_str c })

(* --- framing over a file descriptor ---

   One framer per connection: the payload is encoded into a retained
   [Buffer.t], blitted after a 4-byte header into a retained wire buffer,
   and written with one [Unix.write] loop; reads land in a retained
   receive buffer sized to the largest frame seen. Not thread-safe — a
   framer belongs to exactly one connection. *)
type framer = {
  payload : Buffer.t;  (* encode scratch, cleared per frame *)
  mutable wire : Bytes.t;  (* header + payload, grown to the largest frame *)
  hdr : Bytes.t;  (* 4-byte receive header *)
  mutable rbuf : Bytes.t;  (* receive payload scratch *)
}

let framer () =
  {
    payload = Buffer.create 512;
    wire = Bytes.create 4096;
    hdr = Bytes.create 4;
    rbuf = Bytes.create 4096;
  }

let rec really_write_bytes fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    really_write_bytes fd b (off + n) (len - n)
  end

let framed_send fr fd encode v =
  Buffer.clear fr.payload;
  encode fr.payload v;
  let len = Buffer.length fr.payload in
  if len > max_frame then invalid_arg "Rx_wire: frame exceeds max_frame";
  if Bytes.length fr.wire < 4 + len then
    fr.wire <- Bytes.create (max (4 + len) (2 * Bytes.length fr.wire));
  Bytes.set_int32_be fr.wire 0 (Int32.of_int len);
  Buffer.blit fr.payload 0 fr.wire 4 len;
  really_write_bytes fd fr.wire 0 (4 + len)

let framed_send_request fr fd r = framed_send fr fd encode_request_into r
let framed_send_response fr fd r = framed_send fr fd encode_response_into r

(* [`Eof] only when not a single byte arrives; a partial read followed by
   EOF is a torn frame *)
let read_exact_into fd buf n =
  let rec go off =
    if off = n then `Ok
    else
      match Unix.read fd buf off (n - off) with
      | 0 -> if off = 0 then `Eof else raise (Protocol_error "truncated frame")
      | k -> go (off + k)
  in
  go 0

let framed_read_frame fr fd =
  match read_exact_into fd fr.hdr 4 with
  | `Eof -> None
  | `Ok ->
      let len = Int32.to_int (Bytes.get_int32_be fr.hdr 0) in
      if len < 0 || len > max_frame then
        raise
          (Protocol_error (Printf.sprintf "oversized frame (%d bytes)" len));
      if Bytes.length fr.rbuf < len then
        fr.rbuf <- Bytes.create (max len (2 * Bytes.length fr.rbuf));
      (match read_exact_into fd fr.rbuf len with
      | `Eof ->
          if len = 0 then Some "" else raise (Protocol_error "truncated frame")
      | `Ok -> Some (Bytes.sub_string fr.rbuf 0 len))

let framed_recv_response fr fd =
  match framed_read_frame fr fd with
  | None -> raise (Protocol_error "connection closed before response")
  | Some payload -> decode_response payload
