(* The rxd network layer: wire-protocol codec round-trips, malformed-frame
   rejection, and end-to-end client/server sessions over loopback TCP —
   queries, explicit transactions, busy admission control, auth, error
   mapping and graceful shutdown. *)

open Systemrx
open Rx_relational

let check = Alcotest.check

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

(* --- codec round-trips --- *)

let all_requests : Rx_wire.request list =
  [
    Rx_wire.Hello { token = "s3cret"; client = "test \xc3\xa9" };
    Rx_wire.Query
      {
        table = "t";
        column = "doc";
        xpath = "/a/b[c > 1]";
        ns_env = [ ("p", "urn:x"); ("q", "urn:y") ];
      };
    Rx_wire.Prepare { table = "t"; column = "c"; xpath = "//x"; ns_env = [] };
    Rx_wire.Run_prepared { stmt = 42 };
    Rx_wire.Begin;
    Rx_wire.Commit { txid = 7 };
    Rx_wire.Rollback { txid = max_int };
    Rx_wire.Insert
      {
        table = "t";
        values = [ ("sku", "S1") ];
        xml = [ ("doc", "<a><b>x</b></a>"); ("doc2", "<c/>") ];
      };
    Rx_wire.Insert_many
      { table = "t"; column = "doc"; docs = [ "<a/>"; "<b/>"; "" ] };
    Rx_wire.Delete { table = "t"; docid = 0 };
    Rx_wire.Get { table = "t"; column = "doc"; docid = -1 };
    Rx_wire.Stats;
    Rx_wire.Shutdown;
    Rx_wire.Bye;
    Rx_wire.Repl_state;
    (* an LSN above 2^32 exercises true-int64 wire travel *)
    Rx_wire.Repl_fetch { from_lsn = 0x1_2345_6789_abcdL; max_bytes = 65536 };
    Rx_wire.Repl_fetch { from_lsn = 0L; max_bytes = 0 };
    Rx_wire.Open_cursor
      {
        table = "t";
        column = "doc";
        xpath = "/a//b";
        ns_env = [ ("p", "urn:x") ];
        chunk_bytes = 65536;
      };
    Rx_wire.Open_cursor
      { table = ""; column = ""; xpath = ""; ns_env = []; chunk_bytes = 0 };
    Rx_wire.Fetch { cursor = 3 };
    Rx_wire.Close_cursor { cursor = max_int };
    Rx_wire.Index_build
      {
        table = "t";
        column = "doc";
        name = "by_price";
        path = "/book/price";
        key_type = "double";
      };
    Rx_wire.Index_build
      { table = ""; column = ""; name = ""; path = ""; key_type = "" };
    Rx_wire.Index_status { table = "t"; column = "doc"; name = "by_price" };
    Rx_wire.Index_rollback { table = "t"; column = "doc"; name = "by_price" };
    Rx_wire.Index_drop { table = "t"; column = "doc"; name = "n" };
    Rx_wire.Index_list { table = "t"; column = "doc" };
  ]

let some_index_info : Rx_wire.index_info =
  {
    Rx_wire.ix_name = "by_price";
    ix_path = "/book/price";
    ix_key_type = "double";
    ix_state = "live";
    ix_generation = 3;
    ix_entries = 123456;
    ix_build_ms = 78;
    ix_prior_generation = 2;
    ix_docs_scanned = 100;
    ix_docs_total = 100;
  }

let all_responses : Rx_wire.response list =
  [
    Rx_wire.Ok (Rx_wire.R_hello { server = "rxd/1.0"; session = 3 });
    Rx_wire.Ok
      (Rx_wire.R_matches
         { plan = "VALUE-INDEX(price)"; matches = [ (1, "<a/>"); (9, "<b>t</b>") ] });
    Rx_wire.Ok (Rx_wire.R_matches { plan = ""; matches = [] });
    Rx_wire.Ok (Rx_wire.R_prepared { stmt = 5; plan = "QUICKXSCAN" });
    Rx_wire.Ok (Rx_wire.R_txn { txid = 12 });
    Rx_wire.Ok Rx_wire.R_unit;
    Rx_wire.Ok (Rx_wire.R_docid { docid = 123456789012345 });
    Rx_wire.Ok (Rx_wire.R_docids { docids = [ 1; 2; 3 ] });
    Rx_wire.Ok (Rx_wire.R_doc { doc = String.make 70_000 'x' });
    Rx_wire.Ok (Rx_wire.R_stats { json = "{\"documents\": 1}" });
    Rx_wire.Ok
      (Rx_wire.R_repl_state
         {
           base_lsn = 0x1_0000_0000L;
           durable_lsn = 0x7fff_ffff_ffff_ffffL;
           generations = 12;
           page_size = 1024;
         });
    Rx_wire.Ok
      (Rx_wire.R_repl_batch
         {
           start_lsn = 0x2_0000_0001L;
           durable_lsn = 0x2_0000_ffffL;
           frames = String.make 4096 '\x00' ^ "\xff frame bytes";
         });
    Rx_wire.Ok
      (Rx_wire.R_repl_batch { start_lsn = 0L; durable_lsn = 0L; frames = "" });
    Rx_wire.Ok (Rx_wire.R_cursor { cursor = 1; plan = "QUICKXSCAN" });
    Rx_wire.Ok
      (Rx_wire.R_rows_chunk { matches = [ (4, "<a/>"); (5, String.make 300 'y') ] });
    Rx_wire.Ok Rx_wire.R_rows_end;
    Rx_wire.Ok (Rx_wire.R_index_info { info = some_index_info });
    Rx_wire.Ok
      (Rx_wire.R_index_info
         {
           info =
             {
               some_index_info with
               Rx_wire.ix_state = "building";
               ix_prior_generation = 0;
               ix_docs_scanned = 17;
               ix_docs_total = 100_000;
             };
         });
    Rx_wire.Ok (Rx_wire.R_index_list { infos = [] });
    Rx_wire.Ok
      (Rx_wire.R_index_list
         {
           infos =
             [
               some_index_info;
               {
                 some_index_info with
                 Rx_wire.ix_name = "other";
                 ix_state = "failed: scan died";
               };
             ];
         });
    Rx_wire.Err { status = 3; message = "busy: queue full" };
    Rx_wire.Err { status = 7; message = "" };
  ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      if Rx_wire.decode_request (Rx_wire.encode_request r) <> r then
        Alcotest.failf "request did not round-trip")
    all_requests

let test_response_roundtrip () =
  List.iter
    (fun r ->
      if Rx_wire.decode_response (Rx_wire.encode_response r) <> r then
        Alcotest.failf "response did not round-trip")
    all_responses

(* round-trips cannot catch a change made symmetrically to encoder and
   decoder; the digest of every fixture's bytes pins the format itself *)
let wire_format_digest = "5979bb1a0d1ed541182ffdc1fdebfaf5"

let test_wire_format_pinned () =
  let bytes =
    String.concat ""
      (List.map Rx_wire.encode_request all_requests
      @ List.map Rx_wire.encode_response all_responses)
  in
  check Alcotest.string "fixture bytes unchanged" wire_format_digest
    (Digest.to_hex (Digest.string bytes))

let expect_protocol_error f =
  match f () with
  | exception Rx_wire.Protocol_error _ -> ()
  | _ -> Alcotest.fail "expected Protocol_error"

let test_malformed_payloads () =
  (* truncation at every prefix length must reject, never crash or hang *)
  List.iter
    (fun r ->
      let full = Rx_wire.encode_request r in
      for len = 0 to String.length full - 1 do
        expect_protocol_error (fun () ->
            Rx_wire.decode_request (String.sub full 0 len))
      done;
      (* trailing garbage after a complete payload *)
      expect_protocol_error (fun () -> Rx_wire.decode_request (full ^ "\x00")))
    all_requests;
  (* and every response frame, truncated at every prefix length (capped
     for the multi-KiB payloads — past the cap a cut always lands inside
     one string field's bytes, the same failure shape) *)
  List.iter
    (fun r ->
      let full = Rx_wire.encode_response r in
      let n = String.length full in
      for len = 0 to min (n - 1) 8192 do
        expect_protocol_error (fun () ->
            Rx_wire.decode_response (String.sub full 0 len))
      done;
      if n > 8193 then
        expect_protocol_error (fun () ->
            Rx_wire.decode_response (String.sub full 0 (n - 1)));
      expect_protocol_error (fun () -> Rx_wire.decode_response (full ^ "\x00")))
    all_responses;
  expect_protocol_error (fun () -> Rx_wire.decode_request "\xff");
  expect_protocol_error (fun () -> Rx_wire.decode_response "\x00\xfe");
  (* a list count that exceeds the remaining payload *)
  let b = Buffer.create 16 in
  Buffer.add_char b '\x09';
  (* Insert_many: table "t", column "c", then a huge doc count *)
  List.iter
    (fun s ->
      Buffer.add_string b "\x00\x00\x00\x01";
      Buffer.add_string b s)
    [ "t"; "c" ];
  Buffer.add_string b "\x7f\xff\xff\xff";
  expect_protocol_error (fun () -> Rx_wire.decode_request (Buffer.contents b))

(* every row of both op tables: tags run 1..n, names are unique, and each
   row has a fixture above, so no op escapes the wire-format pin; a
   fixture's tag is the byte that opens its payload (after a response's
   status byte) *)
let test_op_tables () =
  let check_table what names fixture_tags =
    let n = List.length names in
    check Alcotest.int (what ^ " names unique") n
      (List.length (List.sort_uniq compare names));
    check
      Alcotest.(list int)
      (what ^ " tags are 1..n, each with a fixture")
      (List.init n succ)
      (List.sort_uniq compare fixture_tags)
  in
  List.iter
    (fun r ->
      let tag = Char.code (Rx_wire.encode_request r).[0] in
      check Alcotest.int "op_tag is the opcode sent" tag (Rx_wire.op_tag r);
      check Alcotest.string "op_name is the row's name"
        (List.nth Rx_wire.op_names (tag - 1))
        (Rx_wire.op_name r))
    all_requests;
  check_table "request" Rx_wire.op_names (List.map Rx_wire.op_tag all_requests);
  check_table "result" Rx_wire.result_names
    (List.filter_map
       (function
         | Rx_wire.Ok _ as r -> Some (Char.code (Rx_wire.encode_response r).[1])
         | Rx_wire.Err _ -> None)
       all_responses);
  let m = Rx_obs.Metrics.create () in
  Stats_report.ensure_net_instruments m;
  let registered = Rx_obs.Metrics.snapshot m in
  List.iter
    (fun op ->
      match List.assoc_opt ("net.latency." ^ op) registered with
      | Some (Rx_obs.Metrics.Histogram _) -> ()
      | _ -> Alcotest.failf "no histogram net.latency.%s" op)
    Rx_wire.op_names

(* decoding never fails with anything but Protocol_error: random payloads,
   and every fixture with one byte flipped, inserted or dropped *)
let decoder_fuzz =
  let fixtures =
    Array.of_list
      (List.map Rx_wire.encode_request all_requests
      @ List.map Rx_wire.encode_response all_responses)
  in
  let mutate f kind pos c =
    let n = String.length f in
    let at = pos mod (n + 1) in
    let head = String.sub f 0 at and from i = String.sub f i (n - i) in
    match kind with
    | 0 when at < n ->
        let flipped = Char.code f.[at] lxor (1 + (Char.code c mod 255)) in
        head ^ String.make 1 (Char.chr flipped) ^ from (at + 1)
    | 1 -> head ^ String.make 1 c ^ from at
    | _ when at < n -> head ^ from (at + 1)
    | _ -> f ^ String.make 1 c
  in
  let payload =
    QCheck.Gen.(
      frequency
        [
          (1, string_size (int_bound 64));
          ( 3,
            oneofa fixtures >>= fun f -> map3 (mutate f) (int_bound 2) nat char
          );
        ])
  in
  QCheck.Test.make ~name:"decoders raise only Protocol_error" ~count:3000
    (QCheck.make ~print:String.escaped payload)
    (fun s ->
      (try ignore (Rx_wire.decode_request s)
       with Rx_wire.Protocol_error _ -> ());
      (try ignore (Rx_wire.decode_response s)
       with Rx_wire.Protocol_error _ -> ());
      true)

(* the server side of a scripted exchange: one framed request off a
   buffered channel, [None] on a clean EOF between frames *)
let read_request ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | hdr ->
      let len = Int32.to_int (String.get_int32_be hdr 0) in
      Some (Rx_wire.decode_request (really_input_string ic len))

let test_framed_io () =
  let fr = Rx_wire.framer () in
  let header len =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    b
  in
  (* clean EOF before any header byte: the reply never came *)
  let r, w = Unix.pipe () in
  Unix.close w;
  expect_protocol_error (fun () -> Rx_wire.framed_recv_response fr r);
  Unix.close r;
  (* torn frame: header promises more than ever arrives *)
  let r, w = Unix.pipe () in
  let payload = Rx_wire.encode_response (Rx_wire.Ok Rx_wire.R_unit) in
  ignore (Unix.write w (header (String.length payload + 50)) 0 4);
  ignore (Unix.write_substring w payload 0 (String.length payload));
  Unix.close w;
  expect_protocol_error (fun () -> Rx_wire.framed_recv_response fr r);
  Unix.close r;
  (* oversized frame is rejected from the header alone, payload unread *)
  let r, w = Unix.pipe () in
  ignore (Unix.write w (header (Rx_wire.max_frame + 1)) 0 4);
  Unix.close w;
  expect_protocol_error (fun () -> Rx_wire.framed_recv_response fr r);
  Unix.close r;
  (* full frames round-trip through a byte stream; one framer's retained
     buffers carry frames of different sizes in both directions *)
  let r, w = Unix.pipe () in
  let req =
    Rx_wire.Query { table = "t"; column = "c"; xpath = "//x"; ns_env = [] }
  in
  Rx_wire.framed_send_request fr w req;
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  if read_request ic <> Some req then
    Alcotest.fail "framed request did not round-trip";
  if read_request ic <> None then Alcotest.fail "expected a clean EOF";
  close_in ic;
  let r, w = Unix.pipe () in
  let big = Rx_wire.Ok (Rx_wire.R_doc { doc = String.make 10_000 'x' }) in
  let small = Rx_wire.Ok (Rx_wire.R_txn { txid = 9 }) in
  Rx_wire.framed_send_response fr w big;
  Rx_wire.framed_send_response fr w small;
  Unix.close w;
  List.iter
    (fun want ->
      if Rx_wire.framed_recv_response fr r <> want then
        Alcotest.fail "framed response did not round-trip")
    [ big; small ];
  expect_protocol_error (fun () -> Rx_wire.framed_recv_response fr r);
  Unix.close r

(* --- end-to-end sessions --- *)

let product ~name ~price =
  Printf.sprintf "<Product><Name>%s</Name><Price>%g</Price></Product>" name price

let make_db () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"products"
      ~columns:[ ("sku", Value.T_varchar); ("doc", Value.T_xml) ]
  in
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"price"
    ~path:"/Product/Price" ~key_type:Rx_xindex.Index_def.K_double));
  for i = 1 to 5 do
    ignore
      (Database.insert db ~table:"products"
         ~xml:[ ("doc", product ~name:(Printf.sprintf "item-%d" i) ~price:(float_of_int (i * 10))) ]
         ())
  done;
  db

let with_server ?config f =
  let db = make_db () in
  let srv = Rx_server.start ?config db in
  Fun.protect
    ~finally:(fun () ->
      Rx_server.stop srv;
      Database.close db)
    (fun () -> f db srv)

let connect srv = Rx_client.connect ~port:(Rx_server.port srv) ()

let test_session_query_dml () =
  with_server @@ fun db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  (* indexed query over the wire reports the engine's plan *)
  let r =
    Rx_client.query c ~table:"products" ~column:"doc"
      ~xpath:"/Product[Price > 25]"
  in
  check Alcotest.int "matches over 25" 3 (List.length r.Rx_client.matches);
  if not (contains ~needle:"price" r.Rx_client.plan) then
    Alcotest.failf "expected the price index in the plan, got %s" r.Rx_client.plan;
  (* auto-commit insert: the embedded writer, no session transaction *)
  let docid =
    Rx_client.insert c ~table:"products"
      ~values:[ ("sku", "S900") ]
      ~xml:[ ("doc", product ~name:"net" ~price:900.) ]
      ()
  in
  let doc = Rx_client.document c ~table:"products" ~column:"doc" ~docid in
  if not (contains ~needle:"net" doc) then Alcotest.fail "fetched wrong document";
  check Alcotest.int "row visible embedded" 6 (Database.row_count db ~table:"products");
  (* prepared statements live in the session *)
  let p =
    Rx_client.prepare c ~table:"products" ~column:"doc" ~xpath:"/Product/Name"
  in
  let r2 = Rx_client.run_prepared c p in
  check Alcotest.int "prepared matches" 6 (List.length r2.Rx_client.matches);
  (* bulk load *)
  let ids =
    Rx_client.insert_many c ~table:"products" ~column:"doc"
      [ product ~name:"b1" ~price:1.; product ~name:"b2" ~price:2. ]
  in
  check Alcotest.int "bulk ids" 2 (List.length ids);
  Rx_client.delete c ~table:"products" ~docid;
  check Alcotest.int "row count after delete" 7 (Database.row_count db ~table:"products");
  (* stats carries the same schema as rx stats --json, net.* included *)
  let js = Rx_client.stats_json c in
  List.iter
    (fun needle ->
      if not (contains ~needle js) then
        Alcotest.failf "stats JSON lacks %s" needle)
    [ "net.requests"; "net.conns"; "net.latency.query"; "documents";
      "gc.minor_words"; "gc.top_heap_words" ]

(* an auto-commit Insert over the wire does the embedded writer's work:
   the same WAL bytes, not a detour through the MVCC staging store *)
let test_wire_insert_wal_bytes () =
  let log_bytes db = (Database.stats db).Database.log_bytes in
  let values = [ ("sku", "S900") ] in
  let xml = [ ("doc", product ~name:"net" ~price:900.) ] in
  let embedded =
    let db = make_db () in
    let before = log_bytes db in
    ignore
      (Database.insert db ~table:"products"
         ~values:(List.map (fun (k, v) -> (k, Value.Varchar v)) values)
         ~xml ());
    let d = log_bytes db - before in
    Database.close db;
    d
  in
  with_server @@ fun db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  let locked f = fst (Database.exclusively db f) in
  let before = locked (fun () -> log_bytes db) in
  ignore (Rx_client.insert c ~table:"products" ~values ~xml ());
  check Alcotest.int "wire insert appends the embedded insert's WAL bytes"
    embedded
    (locked (fun () -> log_bytes db) - before)

(* an explicit transaction over the wire stages in the engine's scratch
   version store, which is not logged: Begin, Insert and Commit append no
   more than 1.1x the WAL bytes of an auto-commit Insert *)
let test_wire_txn_insert_wal_bytes () =
  let log_bytes db = (Database.stats db).Database.log_bytes in
  let values = [ ("sku", "S900") ] in
  let xml = [ ("doc", product ~name:"net" ~price:900.) ] in
  with_server @@ fun db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  let locked f = fst (Database.exclusively db f) in
  let bytes_of f =
    let before = locked (fun () -> log_bytes db) in
    f ();
    locked (fun () -> log_bytes db) - before
  in
  let auto = bytes_of (fun () -> ignore (Rx_client.insert c ~table:"products" ~values ~xml ())) in
  let explicit =
    bytes_of (fun () ->
        let txn = Rx_client.begin_txn c in
        ignore (Rx_client.insert c ~table:"products" ~values ~xml ());
        Rx_client.commit c txn)
  in
  if 10 * explicit > 11 * auto then
    Alcotest.failf "wire Begin/Insert/Commit: %d WAL bytes, more than 1.1 x %d"
      explicit auto

(* every opcode's latency lands in a registered histogram *)
let test_latency_histograms () =
  with_server @@ fun db _srv ->
  let registered = Rx_obs.Metrics.snapshot (Database.metrics db) in
  List.iter
    (fun req ->
      let name = "net.latency." ^ Rx_wire.op_name req in
      match List.assoc_opt name registered with
      | Some (Rx_obs.Metrics.Histogram _) -> ()
      | _ -> Alcotest.failf "no histogram %s" name)
    all_requests

let test_session_txn () =
  with_server @@ fun db srv ->
  let c = connect srv in
  let c2 = connect srv in
  Fun.protect
    ~finally:(fun () ->
      Rx_client.close c;
      Rx_client.close c2)
  @@ fun () ->
  (* staged writes are invisible to other sessions until commit *)
  let txn = Rx_client.begin_txn c in
  let docid =
    Rx_client.insert c ~table:"products"
      ~xml:[ ("doc", product ~name:"staged" ~price:77.) ]
      ()
  in
  let r2 =
    Rx_client.query c2 ~table:"products" ~column:"doc" ~xpath:"/Product"
  in
  check Alcotest.int "other session sees 5" 5 (List.length r2.Rx_client.matches);
  let r1 = Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" in
  check Alcotest.int "staging session sees 6" 6 (List.length r1.Rx_client.matches);
  Rx_client.commit c txn;
  let r2' =
    Rx_client.query c2 ~table:"products" ~column:"doc" ~xpath:"/Product"
  in
  check Alcotest.int "committed visible" 6 (List.length r2'.Rx_client.matches);
  (* rollback undoes staged work *)
  let txn = Rx_client.begin_txn c in
  Rx_client.delete c ~table:"products" ~docid;
  Rx_client.rollback c txn;
  check Alcotest.int "rollback kept the row" 6 (Database.row_count db ~table:"products");
  (* double begin is an application error on the session *)
  let txn = Rx_client.begin_txn c in
  (match Rx_client.begin_txn c with
  | exception Rx_client.Error { status = 1; _ } -> ()
  | _ -> Alcotest.fail "second begin should fail");
  Rx_client.rollback c txn;
  (* a dropped connection rolls its transaction back server-side *)
  let c3 = connect srv in
  let _txn3 = Rx_client.begin_txn c3 in
  ignore
    (Rx_client.insert c3 ~table:"products"
       ~xml:[ ("doc", product ~name:"orphan" ~price:1.) ]
       ());
  Rx_client.close c3;
  (* the close is asynchronous from the server's point of view: poll
     briefly until the session cleanup has run *)
  let deadline = Unix.gettimeofday () +. 5. in
  let rec settled () =
    let r = Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" in
    if List.length r.Rx_client.matches = 6 then true
    else if Unix.gettimeofday () > deadline then false
    else (Thread.delay 0.02; settled ())
  in
  if not (settled ()) then Alcotest.fail "orphaned transaction not rolled back"

(* --- index lifecycle over the wire --- *)

let test_remote_index_lifecycle () =
  with_server @@ fun _db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  (* make_db built "price" embedded; the wire listing agrees *)
  let names infos = List.map (fun i -> i.Rx_client.ix_name) infos in
  check
    (Alcotest.list Alcotest.string)
    "initial listing" [ "price" ]
    (names (Rx_client.list_indexes c ~table:"products" ~column:"doc"));
  (* first build over the wire *)
  let i =
    Rx_client.build_index c ~table:"products" ~column:"doc" ~name:"by_name"
      ~path:"/Product/Name" ~key_type:"string"
  in
  check Alcotest.string "live" "live" i.Rx_client.ix_state;
  check Alcotest.int "generation 1" 1 i.Rx_client.ix_generation;
  check Alcotest.int "no prior" 0 i.Rx_client.ix_prior_generation;
  check Alcotest.int "entries cover the table" 5 i.Rx_client.ix_entries;
  (* generational rebuild, status, rollback *)
  let i2 =
    Rx_client.build_index c ~table:"products" ~column:"doc" ~name:"by_name"
      ~path:"/Product/Name" ~key_type:"string"
  in
  check Alcotest.int "generation 2" 2 i2.Rx_client.ix_generation;
  check Alcotest.int "prior retained" 1 i2.Rx_client.ix_prior_generation;
  let st = Rx_client.index_status c ~table:"products" ~column:"doc" ~name:"by_name" in
  check Alcotest.string "status live" "live" st.Rx_client.ix_state;
  let rb =
    Rx_client.rollback_index c ~table:"products" ~column:"doc" ~name:"by_name"
  in
  check Alcotest.int "rolled back to generation 1" 1 rb.Rx_client.ix_generation;
  check Alcotest.int "generation 2 retained in turn" 2
    rb.Rx_client.ix_prior_generation;
  (* the restored generation serves queries *)
  let r =
    Rx_client.query c ~table:"products" ~column:"doc"
      ~xpath:"/Product[Name = \"item-3\"]"
  in
  check Alcotest.int "query after rollback" 1 (List.length r.Rx_client.matches);
  (* unknown names are status-1 application errors with stable messages *)
  (match Rx_client.index_status c ~table:"products" ~column:"doc" ~name:"nope" with
  | _ -> Alcotest.fail "expected an error for an unknown index"
  | exception Rx_client.Error { status = 1; message } ->
      if not (contains ~needle:"unknown index" message) then
        Alcotest.failf "unexpected message %S" message);
  (match
     Rx_client.build_index c ~table:"nosuch" ~column:"doc" ~name:"x" ~path:"/a"
       ~key_type:"string"
   with
  | _ -> Alcotest.fail "expected an error for an unknown table"
  | exception Rx_client.Error { status = 1; message } ->
      if not (contains ~needle:"unknown table" message) then
        Alcotest.failf "unexpected message %S" message);
  (match
     Rx_client.build_index c ~table:"products" ~column:"doc" ~name:"x"
       ~path:"/a" ~key_type:"quux"
   with
  | _ -> Alcotest.fail "expected an error for a bad key type"
  | exception Rx_client.Error { status = 1; _ } -> ());
  (* drop over the wire *)
  Rx_client.drop_index c ~table:"products" ~column:"doc" ~name:"by_name";
  check
    (Alcotest.list Alcotest.string)
    "dropped" [ "price" ]
    (names (Rx_client.list_indexes c ~table:"products" ~column:"doc"))

let test_error_mapping () =
  with_server @@ fun _db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  (* unknown table is an application error (status 1) with the engine's
     message *)
  (match Rx_client.query c ~table:"nope" ~column:"doc" ~xpath:"/a" with
  | exception Rx_client.Error { status = 1; message } ->
      if not (contains ~needle:"nope" message) then
        Alcotest.failf "unexpected message %s" message
  | _ -> Alcotest.fail "expected status-1 error");
  (* a malformed document is rejected without poisoning the session *)
  (match
     Rx_client.insert c ~table:"products" ~xml:[ ("doc", "<open>") ] ()
   with
  | exception Rx_client.Error { status = 1; _ } -> ()
  | _ -> Alcotest.fail "expected parse rejection");
  let r = Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" in
  check Alcotest.int "session still works" 5 (List.length r.Rx_client.matches)

let test_deadlock_mapping () =
  (* a scripted server answers the first post-handshake request with the
     deadlock status: the victim/cycle ids stay server-side, but the
     client must still re-raise it as the lock manager's Deadlock so
     remote retry logic can treat Busy and Deadlock uniformly *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let server =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept listen in
        let ic = Unix.in_channel_of_descr fd and fr = Rx_wire.framer () in
        (match read_request ic with
        | Some (Rx_wire.Hello _) -> (
            Rx_wire.framed_send_response fr fd
              (Rx_wire.Ok (Rx_wire.R_hello { server = "scripted"; session = 1 }));
            match read_request ic with
            | Some _ ->
                Rx_wire.framed_send_response fr fd
                  (Rx_wire.Err { status = 4; message = "deadlock victim 9" })
            | None -> ())
        | _ -> ());
        Unix.close fd)
      ()
  in
  let c = Rx_client.connect ~port () in
  (match Rx_client.query c ~table:"t" ~column:"doc" ~xpath:"/a" with
  | exception Rx_txn.Lock_manager.Deadlock _ -> ()
  | exception e ->
      Alcotest.failf "expected Deadlock from status 4, got %s"
        (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Deadlock from status 4");
  Thread.join server;
  Rx_client.close c;
  Unix.close listen

let test_busy_commit_retryable () =
  (* a commit refused by admission control must leave the session's
     transaction open (not orphaned with its locks held): retrying the
     same commit once the queue drains has to succeed *)
  with_server ~config:{ Rx_server.default_config with max_queue_depth = 1 }
  @@ fun db srv ->
  let a = connect srv in
  let b = connect srv in
  Fun.protect
    ~finally:(fun () ->
      Rx_client.close a;
      Rx_client.close b)
  @@ fun () ->
  let txn = Rx_client.begin_txn a in
  ignore
    (Rx_client.insert a ~table:"products"
       ~xml:[ ("doc", product ~name:"retry" ~price:5.) ]
       ());
  (* occupy the single queue slot with a long bulk load on session b,
     so a's commit has a wide window in which admission refuses it *)
  let n_bulk = 1500 in
  let docs =
    List.init n_bulk (fun i ->
        product ~name:(Printf.sprintf "bulk-%d" i) ~price:(float_of_int i))
  in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec busy_retry f =
    match f () with
    | v -> v
    | exception Database.Busy _ when Unix.gettimeofday () < deadline ->
        Thread.delay 0.01;
        busy_retry f
  in
  let loader =
    Thread.create
      (fun () ->
        ignore
          (busy_retry (fun () ->
               Rx_client.insert_many b ~table:"products" ~column:"doc" docs)))
      ()
  in
  Thread.delay 0.05;
  busy_retry (fun () -> Rx_client.commit a txn);
  Thread.join loader;
  check Alcotest.int "both sessions' rows committed" (5 + 1 + n_bulk)
    (Database.row_count db ~table:"products")

let test_busy_admission () =
  (* queue depth 0: every engine-touching request is refused as Busy
     before it queues *)
  with_server
    ~config:{ Rx_server.default_config with max_queue_depth = 0 }
  @@ fun _db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  match Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" with
  | exception Database.Busy _ -> ()
  | _ -> Alcotest.fail "expected Busy from admission control"

let test_connection_cap () =
  with_server
    ~config:{ Rx_server.default_config with max_connections = 1 }
  @@ fun _db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  match connect srv with
  | exception Database.Busy _ -> ()
  | c2 ->
      Rx_client.close c2;
      Alcotest.fail "expected Busy beyond max_connections"

let test_auth_token () =
  with_server
    ~config:{ Rx_server.default_config with auth_token = Some "s3cret" }
  @@ fun _db srv ->
  (* wrong token refused *)
  (match Rx_client.connect ~port:(Rx_server.port srv) ~token:"wrong" () with
  | exception Rx_client.Error { status = 1; _ } -> ()
  | c ->
      Rx_client.close c;
      Alcotest.fail "expected auth failure");
  (* right token accepted *)
  let c = Rx_client.connect ~port:(Rx_server.port srv) ~token:"s3cret" () in
  let r = Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" in
  check Alcotest.int "authorized query" 5 (List.length r.Rx_client.matches);
  Rx_client.close c

let test_graceful_shutdown () =
  let db = make_db () in
  let srv = Rx_server.start db in
  let port = Rx_server.port srv in
  let c = connect srv in
  Rx_client.shutdown c;
  (* wait returns once every session drained; stop joins the threads *)
  Rx_server.wait srv;
  Rx_server.stop srv;
  Rx_client.close c;
  (match Rx_client.connect ~port () with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | exception _ -> () (* any connection failure is acceptable post-stop *)
  | c2 ->
      Rx_client.close c2;
      Alcotest.fail "listener still accepting after shutdown");
  (* the engine survives the server: still usable embedded *)
  check Alcotest.int "engine alive" 5 (Database.row_count db ~table:"products");
  Database.close db

(* --- reactor: frame reassembly across ticks --- *)

let test_slow_loris () =
  (* a client that dribbles its frames one byte per write must still be
     served correctly (the reactor reassembles partial frames across
     ticks) — and must not block any other session while it dribbles *)
  with_server @@ fun _db srv ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Rx_server.port srv));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let frame_of req =
    let p = Rx_wire.encode_request req in
    let hdr = Bytes.create 4 in
    Bytes.set_int32_be hdr 0 (Int32.of_int (String.length p));
    Bytes.to_string hdr ^ p
  in
  let dribble s =
    String.iter
      (fun ch ->
        ignore (Unix.write_substring fd (String.make 1 ch) 0 1);
        Thread.delay 0.001)
      s
  in
  (* another session's whole round-trip completes while ours dribbles *)
  let other = Thread.create (fun () ->
      let c = connect srv in
      let r = Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" in
      Rx_client.close c;
      List.length r.Rx_client.matches) ()
  in
  let fr = Rx_wire.framer () in
  dribble (frame_of (Rx_wire.Hello { token = ""; client = "loris" }));
  (match Rx_wire.framed_recv_response fr fd with
  | Rx_wire.Ok (Rx_wire.R_hello _) -> ()
  | _ -> Alcotest.fail "expected hello response");
  dribble
    (frame_of
       (Rx_wire.Query
          { table = "products"; column = "doc"; xpath = "/Product"; ns_env = [] }));
  (match Rx_wire.framed_recv_response fr fd with
  | Rx_wire.Ok (Rx_wire.R_matches { matches; _ }) ->
      check Alcotest.int "dribbled query answered" 5 (List.length matches)
  | _ -> Alcotest.fail "expected matches for the dribbled query");
  Thread.join other

(* --- pipelining --- *)

let test_pipelined_order () =
  with_server @@ fun db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  let q =
    Rx_wire.Query
      { table = "products"; column = "doc"; xpath = "/Product"; ns_env = [] }
  in
  let ins name =
    Rx_wire.Insert
      { table = "products"; values = []; xml = [ ("doc", product ~name ~price:9.) ] }
  in
  (* one batch spanning several flights: an explicit transaction opened,
     written and committed without reading a single reply in between,
     then a run of queries — replies must come back in op order *)
  let ops =
    (Rx_wire.Begin :: ins "p1" :: ins "p2" :: q :: Rx_wire.Commit { txid = 0 }
    :: [])
    @ List.init 40 (fun _ -> q)
  in
  let replies = Rx_client.pipeline c ops in
  check Alcotest.int "one reply per op" (List.length ops) (List.length replies);
  (match replies with
  | Ok (Rx_wire.R_txn _) :: Ok (Rx_wire.R_docid { docid = d1 })
    :: Ok (Rx_wire.R_docid { docid = d2 }) :: Ok (Rx_wire.R_matches r)
    :: Ok Rx_wire.R_unit :: rest ->
      if d1 = d2 then Alcotest.fail "distinct docids expected";
      (* the in-transaction query already sees both staged rows *)
      check Alcotest.int "staged rows visible in order" 7
        (List.length r.matches);
      List.iter
        (function
          | Ok (Rx_wire.R_matches r) ->
              check Alcotest.int "post-commit query" 7 (List.length r.matches)
          | _ -> Alcotest.fail "expected a query result")
        rest
  | _ -> Alcotest.fail "replies out of order or wrong shapes");
  check Alcotest.int "batch committed" 7 (Database.row_count db ~table:"products");
  (* the server saw the work as pipelined batches *)
  let batches =
    Rx_obs.Metrics.value
      (Rx_obs.Metrics.counter (Database.metrics db) "net.pipeline.batches")
  in
  if batches < 1 then Alcotest.failf "expected pipelined batches, saw %d" batches

(* --- streamed result cursors --- *)

let big_product ~name ~bytes =
  Printf.sprintf "<Product><Name>%s</Name><Blob>%s</Blob></Product>" name
    (String.make bytes 'x')

let with_big_server ~docs ~doc_bytes f =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"products"
      ~columns:[ ("doc", Value.T_xml) ]
  in
  ignore
    (Database.insert_many db ~table:"products" ~column:"doc"
       (List.init docs (fun i ->
            big_product ~name:(Printf.sprintf "big-%d" i) ~bytes:doc_bytes)));
  let srv = Rx_server.start db in
  Fun.protect
    ~finally:(fun () ->
      Rx_server.stop srv;
      Database.close db)
    (fun () -> f db srv)

let test_oversized_result_streams () =
  (* 18 x 1 MiB: the materialized response exceeds the 16 MiB frame cap *)
  let docs = 18 and doc_bytes = 1_048_576 in
  with_big_server ~docs ~doc_bytes @@ fun _db srv ->
  let c = connect srv in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  (* the one-frame Query path reports a clear error (the old core tore
     the connection down without a response) ... *)
  (match Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" with
  | exception Rx_client.Error { status = 1; message } ->
      if not (contains ~needle:"cursor" message) then
        Alcotest.failf "expected a pointer at cursors, got: %s" message
  | _ -> Alcotest.fail "expected the frame-cap error");
  (* ... and the session survives to stream the same result chunked *)
  let chunk_budget = 3_000_000 in
  let cur =
    Rx_client.open_cursor ~chunk_bytes:chunk_budget c ~table:"products"
      ~column:"doc" ~xpath:"/Product"
  in
  let rows = ref 0 and bytes = ref 0 and max_chunk = ref 0 in
  let rec drain () =
    match Rx_client.fetch c cur with
    | [] -> ()
    | chunk ->
        let sz =
          List.fold_left (fun a (_, s) -> a + String.length s) 0 chunk
        in
        (* bounded memory: no chunk materializes more than the budget
           plus one row's slack *)
        max_chunk := max !max_chunk sz;
        rows := !rows + List.length chunk;
        bytes := !bytes + sz;
        drain ()
  in
  drain ();
  check Alcotest.int "all rows streamed" docs !rows;
  if !bytes <= Rx_wire.max_frame then
    Alcotest.failf "result should exceed one frame, got %d bytes" !bytes;
  if !max_chunk > chunk_budget + doc_bytes + 4096 then
    Alcotest.failf "chunk of %d bytes exceeds the budget" !max_chunk;
  (* fold_query streams the same result without client-side assembly *)
  let n =
    Rx_client.fold_query c ~table:"products" ~column:"doc" ~xpath:"/Product"
      ~init:0
      ~f:(fun acc _docid s -> if String.length s > 0 then acc + 1 else acc)
  in
  check Alcotest.int "fold_query streams all rows" docs n

let test_cursor_abandonment () =
  with_server @@ fun db srv ->
  let gauge name = Rx_obs.Metrics.get (Rx_obs.Metrics.gauge (Database.metrics db) name) in
  (* a raw client opens a cursor, fetches once, then vanishes without
     Close_cursor or Bye — the server must free the cursor with the
     session *)
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Rx_server.port srv));
  let fr = Rx_wire.framer () in
  Rx_wire.framed_send_request fr fd
    (Rx_wire.Hello { token = ""; client = "abandoner" });
  (match Rx_wire.framed_recv_response fr fd with
  | Rx_wire.Ok (Rx_wire.R_hello _) -> ()
  | _ -> Alcotest.fail "handshake failed");
  Rx_wire.framed_send_request fr fd
    (Rx_wire.Open_cursor
       {
         table = "products";
         column = "doc";
         xpath = "/Product";
         ns_env = [];
         (* a 1-byte budget forces one row per chunk, so the cursor is
            mid-stream when we abandon it *)
         chunk_bytes = 1;
       });
  let cursor =
    match Rx_wire.framed_recv_response fr fd with
    | Rx_wire.Ok (Rx_wire.R_cursor { cursor; _ }) -> cursor
    | _ -> Alcotest.fail "expected a cursor"
  in
  Rx_wire.framed_send_request fr fd (Rx_wire.Fetch { cursor });
  (match Rx_wire.framed_recv_response fr fd with
  | Rx_wire.Ok (Rx_wire.R_rows_chunk { matches = [ _ ] }) -> ()
  | _ -> Alcotest.fail "expected a one-row chunk");
  check Alcotest.int "cursor open server-side" 1 (gauge "net.cursors");
  Unix.close fd;
  let deadline = Unix.gettimeofday () +. 5. in
  let rec settled () =
    if gauge "net.cursors" = 0 && gauge "net.conns" = 0 then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Thread.delay 0.02;
      settled ()
    end
  in
  if not (settled ()) then
    Alcotest.failf "abandoned cursor not freed (cursors=%d conns=%d)"
      (gauge "net.cursors") (gauge "net.conns")

(* --- idle-session timeout --- *)

let test_idle_timeout () =
  with_server
    ~config:{ Rx_server.default_config with idle_timeout = 0.3 }
  @@ fun db srv ->
  let c = connect srv in
  let _txn = Rx_client.begin_txn c in
  ignore
    (Rx_client.insert c ~table:"products"
       ~xml:[ ("doc", product ~name:"timed-out" ~price:1.) ]
       ());
  (* go idle past the timeout: the server rolls the transaction back and
     closes the session *)
  Thread.delay 1.0;
  (match Rx_client.query c ~table:"products" ~column:"doc" ~xpath:"/Product" with
  | exception _ -> ()
  | _ -> Alcotest.fail "expected the timed-out session to be closed");
  (try Rx_client.close c with _ -> ());
  let timeouts =
    Rx_obs.Metrics.value
      (Rx_obs.Metrics.counter (Database.metrics db) "net.idle_timeouts")
  in
  if timeouts < 1 then Alcotest.fail "net.idle_timeouts not incremented";
  (* the staged row is gone and the engine serves new sessions *)
  check Alcotest.int "staged row rolled back" 5
    (Database.row_count db ~table:"products");
  let c2 = connect srv in
  let r = Rx_client.query c2 ~table:"products" ~column:"doc" ~xpath:"/Product" in
  check Alcotest.int "fresh session works" 5 (List.length r.Rx_client.matches);
  Rx_client.close c2

let () =
  Alcotest.run "net"
    [
      ( "codec",
        [
          Alcotest.test_case "request round-trips" `Quick test_request_roundtrip;
          Alcotest.test_case "response round-trips" `Quick test_response_roundtrip;
          Alcotest.test_case "wire format pinned" `Quick test_wire_format_pinned;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_malformed_payloads;
          Alcotest.test_case "framing: EOF, torn and oversized frames" `Quick
            test_framed_io;
          Alcotest.test_case "op tables: tags, names, fixtures" `Quick
            test_op_tables;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 29 |])
            decoder_fuzz;
        ] );
      ( "session",
        [
          Alcotest.test_case "query, DML, prepared, bulk, stats" `Quick
            test_session_query_dml;
          Alcotest.test_case "explicit transactions and disconnect rollback"
            `Quick test_session_txn;
          Alcotest.test_case "index lifecycle over the wire" `Quick
            test_remote_index_lifecycle;
          Alcotest.test_case "error mapping" `Quick test_error_mapping;
          Alcotest.test_case "deadlock status reconstructs client-side" `Quick
            test_deadlock_mapping;
          Alcotest.test_case "wire insert logs what an embedded one does"
            `Quick test_wire_insert_wal_bytes;
          Alcotest.test_case "wire txn insert logs as auto-commit" `Quick
            test_wire_txn_insert_wal_bytes;
          Alcotest.test_case "latency histogram for every op" `Quick
            test_latency_histograms;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue-depth busy" `Quick test_busy_admission;
          Alcotest.test_case "busy commit leaves the txn retryable" `Quick
            test_busy_commit_retryable;
          Alcotest.test_case "connection cap busy" `Quick test_connection_cap;
          Alcotest.test_case "auth token stub" `Quick test_auth_token;
        ] );
      ( "reactor",
        [
          Alcotest.test_case "slow-loris frames reassemble across ticks" `Quick
            test_slow_loris;
          Alcotest.test_case "pipelined batch answers in order" `Quick
            test_pipelined_order;
          Alcotest.test_case "oversized result streams through a cursor" `Quick
            test_oversized_result_streams;
          Alcotest.test_case "abandoned cursor freed with the session" `Quick
            test_cursor_abandonment;
          Alcotest.test_case "idle session timed out and rolled back" `Quick
            test_idle_timeout;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "graceful shutdown" `Quick test_graceful_shutdown;
        ] );
    ]
