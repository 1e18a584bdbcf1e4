(* Explicit transactions through the Database facade: snapshot-isolated
   reads, staged writes with deferred index maintenance, rollback hygiene,
   write-write conflicts, deadlock handling and crash recovery of
   uncommitted transactions. *)

open Systemrx
open Rx_relational

let check = Alcotest.check

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let product ~name ~price =
  Printf.sprintf "<Product><Name>%s</Name><Price>%g</Price></Product>" name price

let make_db ?(with_index = true) ?(n = 5) () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"products"
      ~columns:[ ("sku", Value.T_varchar); ("doc", Value.T_xml) ]
  in
  if with_index then
    ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"price"
      ~path:"/Product/Price" ~key_type:Rx_xindex.Index_def.K_double));
  for i = 1 to n do
    ignore
      (Database.insert db ~table:"products"
         ~values:[ ("sku", Value.Varchar (Printf.sprintf "S%03d" i)) ]
         ~xml:
           [
             ( "doc",
               product
                 ~name:(Printf.sprintf "item-%d" i)
                 ~price:(float_of_int (i * 10)) );
           ]
         ())
  done;
  db

let serialized ?txn db ~xpath =
  let r = Database.run ?txn db ~table:"products" ~column:"doc" ~xpath in
  List.map r.Database.serialize r.Database.matches

let name_node ?txn db ~docid =
  let r = Database.run ?txn db ~table:"products" ~column:"doc" ~xpath:"/Product/Name" in
  match List.filter (fun m -> m.Database.docid = docid) r.Database.matches with
  | m :: _ -> m.Database.node
  | [] -> Alcotest.failf "no /Product/Name in DocID %d" docid

let expect_no_document f =
  try
    ignore (f ());
    Alcotest.fail "document should not be visible"
  with Invalid_argument msg ->
    check Alcotest.bool "error names the document" true
      (contains ~needle:"no document" msg)

(* the acceptance scenario: A begins, B inserts and commits, A's queries
   keep seeing the begin-time snapshot, a fresh auto-commit read sees B *)
let test_snapshot_isolation () =
  let db = make_db () in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  check Alcotest.bool "distinct ids" true (Database.txn_id a <> Database.txn_id b);
  let d =
    Database.insert ~txn:b db ~table:"products"
      ~values:[ ("sku", Value.Varchar "NEW") ]
      ~xml:[ ("doc", product ~name:"brand-new" ~price:999.) ]
      ()
  in
  let xpath = "/Product[Price > 500]/Name" in
  check (Alcotest.list Alcotest.string) "B reads its own staged insert"
    [ "<Name>brand-new</Name>" ]
    (serialized ~txn:b db ~xpath);
  let r = Database.run ~txn:b db ~table:"products" ~column:"doc" ~xpath in
  check Alcotest.string "snapshot reads always scan" "SNAPSHOT-SCAN(QuickXScan)"
    r.Database.plan.Database.description;
  check (Alcotest.list Alcotest.string) "A blind before B commits" []
    (serialized ~txn:a db ~xpath);
  Database.commit db b;
  check Alcotest.bool "b finished" false (Database.txn_active b);
  check (Alcotest.list Alcotest.string) "A still blind after B commits" []
    (serialized ~txn:a db ~xpath);
  expect_no_document (fun () ->
      Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:d);
  (* outside any transaction the committed insert is current state *)
  check (Alcotest.list Alcotest.string) "fresh auto-commit read sees B's doc"
    [ "<Name>brand-new</Name>" ]
    (serialized db ~xpath);
  check Alcotest.string "get committed doc"
    (product ~name:"brand-new" ~price:999.)
    (Database.document db ~table:"products" ~column:"doc" ~docid:d);
  Database.commit db a;
  check Alcotest.int "six documents current" 6 (Database.stats db).Database.documents

(* auto-commit writers retain pre-images for live snapshots: readers never
   block and never see in-flight current-state changes *)
let test_snapshot_pre_images () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let node1 = name_node db ~docid:1 in
  Database.update_xml_text db ~table:"products" ~column:"doc" ~docid:1 node1
    "renamed";
  Database.delete db ~table:"products" ~docid:2;
  check Alcotest.string "A sees the pre-update image"
    (product ~name:"item-1" ~price:10.)
    (Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:1);
  check Alcotest.string "A sees the deleted document"
    (product ~name:"item-2" ~price:20.)
    (Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:2);
  check Alcotest.int "A's scan counts both documents" 2
    (List.length (serialized ~txn:a db ~xpath:"/Product/Name"));
  check Alcotest.bool "current state is updated" true
    (contains ~needle:"renamed"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1));
  expect_no_document (fun () ->
      Database.document db ~table:"products" ~column:"doc" ~docid:2);
  Database.commit db a;
  (* retained versions are purged once the last transaction ends; the
     current state is untouched *)
  check Alcotest.bool "current state survives purge" true
    (contains ~needle:"renamed"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1))

(* a rolled-back multi-statement transaction leaves stats, value indexes
   and query results exactly as before it began *)
let test_rollback_no_trace () =
  let db = make_db () in
  (* warm-up cycle so the per-column staging store exists before the
     baseline is captured *)
  let w = Database.begin_txn db in
  ignore
    (Database.insert ~txn:w db ~table:"products"
       ~xml:[ ("doc", product ~name:"warmup" ~price:1.) ]
       ());
  Database.rollback db w;
  let before = Database.stats db in
  let xpath = "/Product[Price > 20]/Name" in
  let before_q = serialized db ~xpath in
  let tx = Database.begin_txn db in
  ignore
    (Database.insert ~txn:tx db ~table:"products"
       ~values:[ ("sku", Value.Varchar "TMP") ]
       ~xml:[ ("doc", product ~name:"staged" ~price:500.) ]
       ());
  let node1 = name_node ~txn:tx db ~docid:1 in
  Database.update_xml_text ~txn:tx db ~table:"products" ~column:"doc" ~docid:1
    node1 "doomed-rename";
  Database.delete ~txn:tx db ~table:"products" ~docid:3;
  check Alcotest.int "txn's own view reflects all three statements"
    (List.length before_q) (* item-3..5 minus deleted 3, plus staged 500 *)
    (List.length (serialized ~txn:tx db ~xpath));
  Database.rollback db tx;
  check Alcotest.bool "rollback closes the txn" false (Database.txn_active tx);
  Database.rollback db tx (* idempotent *);
  let after = Database.stats db in
  check Alcotest.int "tables" before.Database.tables after.Database.tables;
  check Alcotest.int "documents" before.Database.documents after.Database.documents;
  check Alcotest.int "xml_records" before.Database.xml_records
    after.Database.xml_records;
  check Alcotest.int "node_index_entries" before.Database.node_index_entries
    after.Database.node_index_entries;
  check Alcotest.int "value_index_entries" before.Database.value_index_entries
    after.Database.value_index_entries;
  check Alcotest.int "data_pages" before.Database.data_pages
    after.Database.data_pages;
  check (Alcotest.list Alcotest.string) "query results identical" before_q
    (serialized db ~xpath);
  let r = Database.run db ~table:"products" ~column:"doc" ~xpath in
  check Alcotest.bool "value index still drives the plan" true
    r.Database.plan.Database.uses_index

let counter db name =
  match List.assoc_opt name (Rx_obs.Metrics.snapshot (Database.metrics db)) with
  | Some (Rx_obs.Metrics.Counter v) -> v
  | Some _ -> Alcotest.failf "%s is not a counter" name
  | None -> Alcotest.failf "counter %s not registered" name

let insert_product ?txn db name =
  Database.insert ?txn db ~table:"products"
    ~xml:[ ("doc", product ~name ~price:5.) ]
    ()

(* Commit records in the durable log past [from]. *)
let durable_commits db ~from =
  let start, frames, _ = Database.repl_fetch db ~from_lsn:from ~max_bytes:max_int in
  List.length
    (List.filter
       (function _, Rx_wal.Log_record.Commit _ -> true | _ -> false)
       (Rx_wal.Log_manager.decode_frames ~base:start frames))

(* inside [exclusively] every commit — auto-commit DML and an explicit
   [commit] alike — appends its Commit record but leaves the durability
   wait to the one thunk [exclusively] hands back *)
let test_exclusively_defers_waits () =
  let db = make_db ~with_index:false ~n:1 () in
  let d0 = Database.durable_lsn db in
  let (a, b, c), wait =
    Database.exclusively db (fun () ->
        let a = insert_product db "auto-1" in
        let b = insert_product db "auto-2" in
        let txn = Database.begin_txn db in
        let c = insert_product ~txn db "explicit" in
        Database.commit db txn;
        (a, b, c))
  in
  check Alcotest.int64 "nothing durable before the wait" d0
    (Database.durable_lsn db);
  check Alcotest.int "no Commit record durable yet" 0 (durable_commits db ~from:d0);
  wait ();
  check Alcotest.bool "the wait made the log durable" true
    (Int64.compare (Database.durable_lsn db) d0 > 0);
  check Alcotest.bool "all three Commit records durable" true
    (durable_commits db ~from:d0 >= 3);
  List.iter
    (fun (docid, name) ->
      check Alcotest.bool (name ^ " visible") true
        (contains ~needle:name
           (Database.document db ~table:"products" ~column:"doc" ~docid)))
    [ (a, "auto-1"); (b, "auto-2"); (c, "explicit") ]

(* a body that raises after a commit re-raises, and the commit it made
   is durable and visible *)
let test_exclusively_raise () =
  let db = make_db ~with_index:false ~n:1 () in
  let d0 = Database.durable_lsn db in
  let docid = ref 0 in
  (match
     Database.exclusively db (fun () ->
         docid := insert_product db "committed";
         failwith "boom")
   with
  | _ -> Alcotest.fail "expected the body's exception"
  | exception Failure msg -> check Alcotest.string "exception re-raised" "boom" msg);
  check Alcotest.bool "the commit's wait ran" true (durable_commits db ~from:d0 >= 1);
  check Alcotest.bool "committed document visible" true
    (contains ~needle:"committed"
       (Database.document db ~table:"products" ~column:"doc" ~docid:!docid))

(* The explicit-transaction pattern built on [exclusively]: commit on
   normal return, rollback and re-raise on exception; the durability wait
   is handed back to run outside the engine lock. *)
let with_txn db f =
  Database.exclusively db (fun () ->
      let txn = Database.begin_txn db in
      match f txn with
      | v ->
          Database.commit db txn;
          v
      | exception e ->
          Database.rollback db txn;
          raise e)

(* with_txn commits on normal return, rolls back and re-raises on
   exception; plain threads mixing it with auto-commit writes serialize
   through [exclusively] and wait outside it *)
let test_with_txn () =
  let db = make_db () in
  let before = (Database.stats db).Database.documents in
  let d, wait = with_txn db (fun txn -> insert_product ~txn db "combinator") in
  wait ();
  check Alcotest.int "insert committed" (before + 1)
    (Database.stats db).Database.documents;
  check Alcotest.bool "document readable" true
    (contains ~needle:"combinator"
       (Database.document db ~table:"products" ~column:"doc" ~docid:d));
  (match
     with_txn db (fun txn ->
         ignore (insert_product ~txn db "doomed");
         failwith "boom")
   with
  | _ -> Alcotest.fail "expected the body's exception"
  | exception Failure msg -> check Alcotest.string "exception re-raised" "boom" msg);
  check Alcotest.int "failed body left no trace" (before + 1)
    (Database.stats db).Database.documents;
  let workers = 8 and per = 5 in
  let errors = Atomic.make 0 in
  let threads =
    List.init workers (fun w ->
        Thread.create
          (fun () ->
            try
              for i = 1 to per do
                let name = Printf.sprintf "w%d-%d" w i in
                let _, wait =
                  if i mod 2 = 0 then
                    with_txn db (fun txn -> insert_product ~txn db name)
                  else
                    Database.exclusively db (fun () -> insert_product db name)
                in
                wait ()
              done
            with _ -> Atomic.incr errors)
          ())
  in
  List.iter Thread.join threads;
  check Alcotest.int "no worker failed" 0 (Atomic.get errors);
  check Alcotest.int "all concurrent commits applied"
    (before + 1 + (workers * per))
    (Database.stats db).Database.documents

(* [txn.commit] counts every commit: auto-commit ones too *)
let test_commit_counter () =
  let db = make_db ~with_index:false ~n:1 () in
  let commits0 = counter db "txn.commit" in
  ignore (insert_product db "item-1");
  check Alcotest.int "auto-commit insert counted" (commits0 + 1)
    (counter db "txn.commit");
  let txn = Database.begin_txn db in
  ignore (insert_product ~txn db "item-1");
  let commits1 = counter db "txn.commit" in
  Database.commit db txn;
  check Alcotest.int "explicit commit counted" (commits1 + 1)
    (counter db "txn.commit")

(* first-updater-wins: a document updated by a transaction that committed
   after this transaction began cannot be written again by it *)
let test_write_write_conflict () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let node1 = name_node db ~docid:1 in
  Database.update_xml_text db ~table:"products" ~column:"doc" ~docid:1 node1
    "other-session";
  (try
     Database.update_xml_text ~txn:a db ~table:"products" ~column:"doc" ~docid:1
       node1 "mine";
     Alcotest.fail "expected a write-write conflict"
   with Failure msg ->
     check Alcotest.bool "conflict message" true
       (contains ~needle:"write-write conflict" msg));
  (* the statement failed but the transaction stays open *)
  check Alcotest.bool "txn still open" true (Database.txn_active a);
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  Database.rollback db a;
  check Alcotest.bool "losing update never applied" true
    (contains ~needle:"other-session"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1))

(* the same rule for a row delete: a document an auto-commit writer
   updated after the snapshot cannot be deleted by the transaction, which
   stays open and staged nothing *)
let test_delete_write_write_conflict () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let node1 = name_node db ~docid:1 in
  Database.update_xml_text db ~table:"products" ~column:"doc" ~docid:1 node1
    "other-session";
  (try
     Database.delete ~txn:a db ~table:"products" ~docid:1;
     Alcotest.fail "expected a write-write conflict"
   with Failure msg ->
     check Alcotest.bool "conflict message" true
       (contains ~needle:"write-write conflict" msg));
  check Alcotest.bool "txn still open" true (Database.txn_active a);
  check Alcotest.bool "A still reads its snapshot's version" true
    (contains ~needle:"item-1"
       (Database.document ~txn:a db ~table:"products" ~column:"doc" ~docid:1));
  Database.commit db a;
  check Alcotest.bool "the refused delete never applied" true
    (contains ~needle:"other-session"
       (Database.document db ~table:"products" ~column:"doc" ~docid:1))

(* --- a snapshot against random auto-commit writers, and an in-order
   model of the committed state --- *)

type op =
  | Ins of string
  | Ins_many of string list
  | Del of int
  | Upd of int * string
  | Frag of int * string
  | Del_node of int

let show_op = function
  | Ins s -> "Ins " ^ s
  | Ins_many l -> "Ins_many [" ^ String.concat ";" l ^ "]"
  | Del i -> Printf.sprintf "Del %d" i
  | Upd (i, s) -> Printf.sprintf "Upd (%d, %s)" i s
  | Frag (i, s) -> Printf.sprintf "Frag (%d, %s)" i s
  | Del_node i -> Printf.sprintf "Del_node %d" i

(* a model document: the text of <a>, then the <c> children in order *)
let render (a, cs) =
  "<r><a>" ^ a ^ "</a>" ^ String.concat "" (List.map (fun c -> "<c>" ^ c ^ "</c>") cs)
  ^ "</r>"

(* the docids that may exist, and what each holds ([None] = absent);
   XPath answers as (docid, serialized match) in (DocID, document order) *)
let answers ?txn db ids =
  let doc d =
    match Database.document ?txn db ~table:"t" ~column:"doc" ~docid:d with
    | s -> Some s
    | exception Invalid_argument _ -> None
  in
  let run xpath =
    let r = Database.run ?txn db ~table:"t" ~column:"doc" ~xpath in
    List.map (fun m -> (m.Database.docid, r.Database.serialize m)) r.Database.matches
  in
  (List.map doc ids, run "/r/a" @ run "/r/c")

let model_answers model ids =
  let live = List.sort compare model in
  ( List.map (fun d -> Option.map render (List.assoc_opt d model)) ids,
    List.map (fun (d, (a, _)) -> (d, "<a>" ^ a ^ "</a>")) live
    @ List.concat_map
        (fun (d, (_, cs)) -> List.map (fun c -> (d, "<c>" ^ c ^ "</c>")) cs)
        live )

(* one auto-commit statement, applied to the database and the model *)
let apply db model op =
  let node d xpath =
    let r = Database.run db ~table:"t" ~column:"doc" ~xpath in
    (List.find (fun m -> m.Database.docid = d) r.Database.matches).Database.node
  in
  let pick i f =
    match !model with
    | [] -> ()
    | live ->
        let d, doc = List.nth live (i mod List.length live) in
        f d doc
  in
  let set d doc = model := (d, doc) :: List.remove_assoc d !model in
  match op with
  | Ins s ->
      let d =
        Database.insert db ~table:"t" ~xml:[ ("doc", render (s, [])) ] ()
      in
      set d (s, [])
  | Ins_many l ->
      let ids =
        Database.insert_many db ~table:"t" ~column:"doc"
          (List.map (fun s -> render (s, [])) l)
      in
      List.iter2 (fun d s -> set d (s, [])) ids l
  | Del i ->
      pick i (fun d _ ->
          Database.delete db ~table:"t" ~docid:d;
          model := List.remove_assoc d !model)
  | Upd (i, s) ->
      pick i (fun d (_, cs) ->
          Database.update_xml_text db ~table:"t" ~column:"doc" ~docid:d
            (node d "/r/a") s;
          set d (s, cs))
  | Frag (i, s) ->
      pick i (fun d (a, cs) ->
          ignore
            (Database.insert_xml_fragment db ~table:"t" ~column:"doc" ~docid:d
               (Rx_xmlstore.Doc_store.Last_child_of (node d "/r"))
               ("<c>" ^ s ^ "</c>"));
          set d (a, cs @ [ s ]))
  | Del_node i ->
      pick i (fun d (a, cs) ->
          match cs with
          | [] -> ()
          | _ :: rest ->
              Database.delete_xml_node db ~table:"t" ~column:"doc" ~docid:d
                (node d "/r/c");
              set d (a, rest))

let snapshot_model_prop =
  let word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'e') (int_range 1 3)) in
  let op =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun s -> Ins s) word);
          (1, map (fun l -> Ins_many l) (list_size (int_range 1 3) word));
          (2, map (fun i -> Del i) nat);
          (3, map2 (fun i s -> Upd (i, s)) nat word);
          (2, map2 (fun i s -> Frag (i, s)) nat word);
          (2, map (fun i -> Del_node i) nat);
        ])
  in
  let ops = QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) op in
  let show l = "[" ^ String.concat "; " (List.map show_op l) ^ "]" in
  QCheck.Test.make ~name:"snapshot holds under auto-commit writers" ~count:40
    (QCheck.make
       ~print:(fun (before, during, after, commit) ->
         Printf.sprintf "before %s\nduring %s\nafter %s\n%s" (show before)
           (show during) (show after)
           (if commit then "commit" else "rollback"))
       QCheck.Gen.(quad ops ops ops bool))
    (fun (before, during, after, commit) ->
      let db = Database.create_in_memory () in
      ignore
        (Database.create_table db ~name:"t"
           ~columns:[ ("k", Value.T_varchar); ("doc", Value.T_xml) ]);
      let model = ref [] in
      List.iter (apply db model) before;
      let txn = Database.begin_txn db in
      let at_begin = !model in
      let ids () =
        List.sort_uniq compare (List.map fst at_begin @ List.map fst !model)
      in
      let seen = answers ~txn db (ids ()) in
      let snapshot_ok =
        seen = model_answers at_begin (ids ())
        && List.for_all
             (fun op ->
               apply db model op;
               answers ~txn db (ids ()) = model_answers at_begin (ids ()))
             during
      in
      if commit then Database.commit db txn else Database.rollback db txn;
      List.iter (apply db model) after;
      snapshot_ok && answers db (ids ()) = model_answers !model (ids ()))

(* two writers crossing: the blocked-without-cycle side raises Busy and
   stays open; the side that closes the cycle is rolled back as the
   (youngest) deadlock victim; the survivor retries and commits *)
let test_deadlock_wound_victim () =
  let db = make_db ~with_index:false ~n:2 () in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  Database.delete ~txn:a db ~table:"products" ~docid:1;
  Database.delete ~txn:b db ~table:"products" ~docid:2;
  (try
     Database.delete ~txn:a db ~table:"products" ~docid:2;
     Alcotest.fail "A should block on B's lock"
   with Database.Busy { txid; blockers } ->
     check Alcotest.int "busy reports A" (Database.txn_id a) txid;
     check (Alcotest.list Alcotest.int) "blocked by B" [ Database.txn_id b ]
       blockers);
  check Alcotest.bool "A still open after Busy" true (Database.txn_active a);
  (try
     Database.delete ~txn:b db ~table:"products" ~docid:1;
     Alcotest.fail "B should close the waits-for cycle"
   with Rx_txn.Lock_manager.Deadlock { victim; cycle } ->
     check Alcotest.int "victim is the youngest" (Database.txn_id b) victim;
     check (Alcotest.list Alcotest.int) "cycle members"
       [ Database.txn_id a; Database.txn_id b ]
       (List.sort_uniq compare cycle));
  check Alcotest.bool "victim rolled back" false (Database.txn_active b);
  (* B's release promoted A's queued request: the retry goes through *)
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  Database.commit db a;
  check Alcotest.int "both documents deleted by A" 0
    (Database.stats db).Database.documents;
  check Alcotest.bool "B's staged delete discarded with the victim" true
    (Database.fetch_row db ~table:"products" ~docid:2 = None)

(* deadlock / wait counters surface in the database's metric registry *)
let test_txn_counters () =
  let db = make_db ~with_index:false ~n:2 () in
  let value = counter db in
  check Alcotest.int "txn.begin starts at 0" 0 (value "txn.begin");
  let commits0 = value "txn.commit" in
  let a = Database.begin_txn db in
  let b = Database.begin_txn db in
  Database.delete ~txn:a db ~table:"products" ~docid:1;
  Database.delete ~txn:b db ~table:"products" ~docid:2;
  (try Database.delete ~txn:a db ~table:"products" ~docid:2
   with Database.Busy _ -> ());
  (try Database.delete ~txn:b db ~table:"products" ~docid:1
   with Rx_txn.Lock_manager.Deadlock _ -> ());
  Database.delete ~txn:a db ~table:"products" ~docid:2;
  Database.commit db a;
  check Alcotest.bool "txn.begin counted" true (value "txn.begin" >= 2);
  check Alcotest.int "txn.commit counted" 1 (value "txn.commit" - commits0);
  check Alcotest.bool "txn.abort counted (victim)" true (value "txn.abort" >= 1);
  check Alcotest.bool "lock.wait counted" true (value "lock.wait" >= 2);
  check Alcotest.bool "lock.deadlock counted" true (value "lock.deadlock" >= 1)

(* crash with a multi-statement transaction in flight: reopening the
   directory discards it while a committed sibling transaction survives *)
let with_temp_dir f =
  let dir = Filename.temp_file "rxdbtxn" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_mid_txn_crash_recovery () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let _ =
        Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]
      in
      let d0 = Database.insert db ~table:"t" ~xml:[ ("doc", "<a><b>base</b></a>") ] () in
      Database.checkpoint db;
      (* committed sibling transaction *)
      let c = Database.begin_txn db in
      let d1 =
        Database.insert ~txn:c db ~table:"t" ~xml:[ ("doc", "<a><b>one</b></a>") ] ()
      in
      let d2 =
        Database.insert ~txn:c db ~table:"t" ~xml:[ ("doc", "<a><b>two</b></a>") ] ()
      in
      Database.commit db c;
      (* multi-statement transaction left open at the "crash" *)
      let u = Database.begin_txn db in
      let d3 =
        Database.insert ~txn:u db ~table:"t" ~xml:[ ("doc", "<a><b>lost</b></a>") ] ()
      in
      Database.delete ~txn:u db ~table:"t" ~docid:d0;
      check Alcotest.bool "uncommitted txn open at crash" true
        (Database.txn_active u);
      (* crash: abandon the handle — no close, no checkpoint *)
      let db2 = Database.open_dir dir in
      check Alcotest.int "committed rows survive" 3 (Database.row_count db2 ~table:"t");
      check Alcotest.string "pre-crash doc intact (uncommitted delete undone)"
        "<a><b>base</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d0);
      check Alcotest.string "committed sibling insert 1" "<a><b>one</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d1);
      check Alcotest.string "committed sibling insert 2" "<a><b>two</b></a>"
        (Database.document db2 ~table:"t" ~column:"doc" ~docid:d2);
      check Alcotest.bool "uncommitted insert discarded" true
        (Database.fetch_row db2 ~table:"t" ~docid:d3 = None);
      Database.close db2)

(* --- staged and retained versions are scratch: they never reach the WAL
   or the data file --- *)

let log_bytes db = (Database.stats db).Database.log_bytes

(* the WAL bytes [f] appends to a fresh 20-document catalog *)
let wal_bytes f =
  let db = make_db ~n:20 () in
  let before = log_bytes db in
  f db;
  let bytes = log_bytes db - before in
  Database.close db;
  bytes

let at_most_10pct_over ~what ~base bytes =
  if 10 * bytes > 11 * base then
    Alcotest.failf "%s: %d WAL bytes, more than 1.1 x %d" what bytes base

let in_txn db f =
  let txn = Database.begin_txn db in
  f txn;
  Database.commit db txn

let test_explicit_insert_wal_bytes () =
  let insert ?txn db =
    ignore
      (Database.insert ?txn db ~table:"products"
         ~values:[ ("sku", Value.Varchar "S900") ]
         ~xml:[ ("doc", product ~name:"fresh" ~price:900.) ]
         ())
  in
  let auto = wal_bytes (fun db -> insert db) in
  at_most_10pct_over ~what:"explicit insert" ~base:auto
    (wal_bytes (fun db -> in_txn db (fun txn -> insert ~txn db)))

let rename ?txn db =
  Database.update_xml_text ?txn db ~table:"products" ~column:"doc" ~docid:1
    (name_node db ~docid:1) "renamed"

let test_explicit_update_wal_bytes () =
  let auto = wal_bytes (fun db -> rename db) in
  at_most_10pct_over ~what:"explicit update_xml_text" ~base:auto
    (wal_bytes (fun db -> in_txn db (fun txn -> rename ~txn db)))

(* a pre-image retained for an open snapshot is not logged *)
let test_retained_pre_image_wal_bytes () =
  let alone = wal_bytes (fun db -> rename db) in
  at_most_10pct_over ~what:"auto-commit update beside an open transaction"
    ~base:alone
    (wal_bytes (fun db ->
         let reader = Database.begin_txn db in
         rename db;
         Database.rollback db reader))

(* no cycle of open, commit, rollback, checkpoint and close leaves a
   version store's pages behind in the data file *)
let test_data_file_stays_flat () =
  with_temp_dir (fun dir ->
      let data_bytes () = (Unix.stat (Filename.concat dir "data.rxdb")).Unix.st_size in
      let db = Database.open_dir dir in
      ignore
        (Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]);
      for i = 1 to 5 do
        ignore
          (Database.insert db ~table:"t"
             ~xml:[ ("doc", Printf.sprintf "<a><b>v%d</b></a>" i) ]
             ())
      done;
      Database.close db;
      let initial = data_bytes () in
      for cycle = 1 to 5 do
        let db = Database.open_dir dir in
        let b =
          (List.hd
             (Database.run db ~table:"t" ~column:"doc" ~xpath:"/a/b")
               .Database.matches)
            .Database.node
        in
        in_txn db (fun txn ->
            Database.update_xml_text ~txn db ~table:"t" ~column:"doc" ~docid:1 b
              (Printf.sprintf "w%d" cycle));
        let loser = Database.begin_txn db in
        ignore
          (Database.insert ~txn:loser db ~table:"t" ~xml:[ ("doc", "<a><b>x</b></a>") ] ());
        Database.rollback db loser;
        Database.checkpoint db;
        Database.close db;
        check Alcotest.int
          (Printf.sprintf "data.rxdb bytes after cycle %d" cycle)
          initial (data_bytes ())
      done)

(* an open explicit transaction has nothing in the log, so the
   auto-checkpoint may truncate it; the transaction commits afterwards
   and survives a crash *)
let test_checkpoint_beside_open_txn () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      Database.set_config db { (Database.config db) with checkpoint_wal_records = 40 };
      ignore
        (Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ]);
      let txn = Database.begin_txn db in
      let staged =
        Database.insert ~txn db ~table:"t" ~xml:[ ("doc", "<a><b>staged</b></a>") ] ()
      in
      (* registered by the first auto-checkpoint *)
      let auto_ckpts () =
        match List.assoc_opt "ckpt.auto" (Rx_obs.Metrics.snapshot (Database.metrics db)) with
        | Some (Rx_obs.Metrics.Counter v) -> v
        | _ -> 0
      in
      let rec drive acc n =
        if auto_ckpts () > 0 then acc
        else if n > 200 then Alcotest.fail "no auto-checkpoint beside an open transaction"
        else
          let xml = Printf.sprintf "<a><b>auto %d</b></a>" n in
          drive ((Database.insert db ~table:"t" ~xml:[ ("doc", xml) ] (), xml) :: acc) (n + 1)
      in
      let autos = drive [] 0 in
      Database.commit db txn;
      Database.crash db;
      let db = Database.open_dir dir in
      List.iter
        (fun (docid, xml) ->
          check Alcotest.string (Printf.sprintf "doc %d" docid) xml
            (Database.document db ~table:"t" ~column:"doc" ~docid))
        ((staged, "<a><b>staged</b></a>") :: autos);
      check Alcotest.int "row count" (1 + List.length autos)
        (Database.row_count db ~table:"t");
      Database.close db)

let () =
  Alcotest.run "database_txn"
    [
      ( "snapshot_isolation",
        [
          Alcotest.test_case "begin-time snapshot vs committed writer" `Quick
            test_snapshot_isolation;
          Alcotest.test_case "auto-commit writers retain pre-images" `Quick
            test_snapshot_pre_images;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 28 |])
            snapshot_model_prop;
        ] );
      ( "atomicity",
        [
          Alcotest.test_case "rollback leaves no trace" `Quick
            test_rollback_no_trace;
          Alcotest.test_case "write-write conflict (first updater wins)" `Quick
            test_write_write_conflict;
          Alcotest.test_case "delete write-write conflict" `Quick
            test_delete_write_write_conflict;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "exclusively defers every commit's wait" `Quick
            test_exclusively_defers_waits;
          Alcotest.test_case "exclusively: raise after a commit" `Quick
            test_exclusively_raise;
          Alcotest.test_case "with_txn commit / rollback / concurrency" `Quick
            test_with_txn;
          Alcotest.test_case "txn.commit counts every commit" `Quick
            test_commit_counter;
        ] );
      ( "locking",
        [
          Alcotest.test_case "deadlock wounds the youngest" `Quick
            test_deadlock_wound_victim;
          Alcotest.test_case "txn and lock counters" `Quick test_txn_counters;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "mid-transaction crash" `Quick
            test_mid_txn_crash_recovery;
          Alcotest.test_case "auto-checkpoint beside an open transaction" `Quick
            test_checkpoint_beside_open_txn;
        ] );
      ( "scratch_versions",
        [
          Alcotest.test_case "explicit insert logs as auto-commit" `Quick
            test_explicit_insert_wal_bytes;
          Alcotest.test_case "explicit update logs as auto-commit" `Quick
            test_explicit_update_wal_bytes;
          Alcotest.test_case "retained pre-image is not logged" `Quick
            test_retained_pre_image_wal_bytes;
          Alcotest.test_case "data file flat across txn cycles" `Quick
            test_data_file_stays_flat;
        ] );
    ]
