(* DML: inserts (one row or a bulk batch), row deletes, document reads and
   sub-document edits. Without [?txn] a statement is its own auto-commit
   transaction publishing one commit timestamp; with [?txn] it is locked,
   staged in the transaction's working copies and replayed at commit. *)

open Rx_xml
open Rx_xmlstore
open Rx_relational
open Rx_xindex
open Engine

let parse_column_doc t xc src =
  match xc.schema with
  | Some compiled -> Rx_schema.Validator.validate_document compiled t.dict src
  | None -> Parser.parse t.dict src

let build_row tbl ~values ~xml docid =
  Array.map
    (fun (cname, ty) ->
      if ty = Value.T_xml then
        if List.mem_assoc cname xml then Value.Xml_ref docid else Value.Null
      else
        match List.assoc_opt cname values with
        | Some v -> v
        | None -> Value.Null)
    (Base_table.columns tbl.base)

(* An auto-commit change to an existing document: its own transaction
   and commit timestamp, and an X lock on [resource] while explicit
   transactions, which may hold conflicting locks, are open. *)
let auto_write t resource f =
  in_txn_as t (fun atx ->
      Versions.publish t.versions (fun ts ->
          if t.active_txns <> [] then
            Session.acquire_resource t ~on_self:ignore atx resource
              Rx_txn.Lock_modes.X;
          f ts))

let insert ?txn t ~table ?(values = []) ?(xml = []) () =
  ensure_writable t;
  let tbl = table_exn t table in
  match txn with
  | None ->
      in_txn t (fun () ->
          Versions.publish t.versions (fun ts ->
              let docid = tbl.next_docid in
              tbl.next_docid <- docid + 1;
              (* store the XML column documents first (validated if bound) *)
              let docs =
                List.map
                  (fun (column, src) ->
                    let xc = xml_column_exn tbl column in
                    Doc_store.insert_tokens xc.store ~docid (parse_column_doc t xc src);
                    (xc.history, docid))
                  xml
              in
              ignore (Base_table.insert tbl.base ~docid (build_row tbl ~values ~xml docid));
              (* a fresh docid cannot conflict with any lock, but concurrent
                 snapshots must not see it *)
              Versions.inserted t.versions ~ts docs;
              docid))
  | Some txn ->
      ensure_txn_open txn;
      let docid = tbl.next_docid in
      tbl.next_docid <- docid + 1;
      Session.acquire t txn (Session.doc_resource tbl docid) Rx_txn.Lock_modes.X;
      let staged_cols =
        List.map
          (fun (column, src) ->
            let xc = xml_column_exn tbl column in
            let s =
              Versions.stage t.versions xc.history ~docid (parse_column_doc t xc src)
            in
            Hashtbl.replace txn.locals (table, column, docid)
              (L_staged { s; replay = false });
            (column, s))
          xml
      in
      txn.pending <-
        P_insert
          {
            p_table = table;
            p_docid = docid;
            p_row = build_row tbl ~values ~xml docid;
            p_xml = staged_cols;
          }
        :: txn.pending;
      docid

(* Bulk load: one auto-committed transaction for the whole batch. Cost
   model vs a per-[insert] loop: one table-level X lock instead of one
   document lock each, heap placement that probes the free-space map per
   page instead of per record, index maintenance batched per index, and a
   single WAL flush (one fsync) at commit. *)
let insert_many ?docids t ~table ~column docs =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match docs with
  | [] -> []
  | _ ->
      let n = List.length docs in
      (* parse (and validate, when a schema is bound) every document before
         any write, so bad input rejects the batch with nothing staged and
         the first bad document in batch order is the one reported *)
      let parsed = List.map (parse_column_doc t xc) docs in
      let ids =
        match docids with
        | None -> List.init n (fun i -> tbl.next_docid + i)
        | Some ids ->
            if List.length ids <> n then
              invalid_arg
                "Database.insert_many: docids/documents length mismatch";
            let seen = Hashtbl.create n in
            List.iter
              (fun d ->
                if Hashtbl.mem seen d then
                  invalid_arg
                    (Printf.sprintf "Database.insert_many: duplicate DocID %d"
                       d);
                Hashtbl.add seen d ();
                if
                  Base_table.fetch_by_docid tbl.base d <> None
                  || Doc_store.mem xc.store ~docid:d
                then
                  invalid_arg
                    (Printf.sprintf
                       "Database.insert_many: DocID %d already exists" d))
              ids;
            ids
      in
      in_txn_as t (fun atx ->
          Versions.publish t.versions (fun ts ->
              (* one lock escalation: table-level X instead of per-document *)
              Session.acquire_resource t ~on_self:ignore atx
                (Rx_txn.Resource.Table tbl.tid) Rx_txn.Lock_modes.X;
              let triples =
                Doc_store.insert_tokens_bulk xc.store (List.combine ids parsed)
              in
              (* maintenance batched per observer (none was fired): live
                 indexes, retained prior generations (maintained while a
                 rollback to them is possible), in-flight online builds'
                 side logs, then text indexes *)
              let index idx ~docid ~rid ~record =
                Value_index.index_record idx ~docid ~rid ~record
                  ~store:(Some xc.store)
              in
              List.iter
                (fun observe ->
                  List.iter
                    (fun (docid, rid, record) -> observe ~docid ~rid ~record)
                    triples)
                (List.map index xc.indexes
                @ List.filter_map (fun (_, gs) -> Option.map index gs.g_prior) xc.gens
                @ List.map (fun (_, sl) -> Index_build.absorb sl) xc.side_logs
                @ List.map
                    (fun (_, ti) -> Rx_fulltext.Text_index.index_record ti)
                    xc.text_indexes);
              ignore
                (Base_table.insert_many tbl.base
                   (List.map
                      (fun docid ->
                        (docid, build_row tbl ~values:[] ~xml:[ (column, "") ] docid))
                      ids));
              let maxid = List.fold_left max 0 ids in
              if maxid + 1 > tbl.next_docid then tbl.next_docid <- maxid + 1;
              (* concurrent snapshots must not see the batch *)
              Versions.inserted t.versions ~ts (List.map (fun d -> (xc.history, d)) ids);
              ids))

let delete ?txn t ~table ~docid =
  ensure_writable t;
  let tbl = table_exn t table in
  match txn with
  | None ->
      auto_write t (Session.doc_resource tbl docid) (fun ts ->
          Session.delete_row t tbl ~docid ~ts)
  | Some txn ->
      ensure_txn_open txn;
      Session.acquire t txn (Session.doc_resource tbl docid) Rx_txn.Lock_modes.X;
      let own_insert = function
        | P_insert { p_docid; p_table; _ } -> p_docid = docid && p_table = table
        | _ -> false
      in
      (* deleting a document inserted by this same transaction just
         cancels the staged insert *)
      if List.exists own_insert txn.pending then begin
        txn.pending <- List.filter (fun op -> not (own_insert op)) txn.pending;
        Hashtbl.iter
          (fun (tb, _, d) st ->
            match st with
            | L_staged { s; _ } when tb = table && d = docid -> Versions.discard s
            | _ -> ())
          txn.locals
      end
      else begin
        if Base_table.fetch_by_docid tbl.base docid = None then
          invalid_arg (Printf.sprintf "Database: no row with DocID %d" docid);
        List.iter
          (fun (_, xc) ->
            Versions.conflict_check xc.history ~snapshot:txn.snapshot ~docid)
          tbl.xml_columns;
        txn.pending <- P_delete { p_table = table; p_docid = docid } :: txn.pending
      end;
      List.iter
        (fun (cname, _) -> Hashtbl.replace txn.locals (table, cname, docid) L_deleted)
        tbl.xml_columns

let fetch_row t ~table ~docid =
  Base_table.fetch_by_docid (table_exn t table).base docid

let row_count t ~table = Base_table.row_count (table_exn t table).base

let document ?txn t ~table ~column ~docid =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let where =
    match txn with
    | Some txn ->
        ensure_txn_open txn;
        Session.view txn tbl xc ~column ~docid
    | None -> if Doc_store.mem xc.store ~docid then `Main else `Absent
  in
  match where with
  | `Main -> Doc_store.serialize xc.store ~docid
  | `Internal (ds, i) -> Doc_store.serialize ds ~docid:i
  | `Absent ->
      invalid_arg (Printf.sprintf "Database: no document %d in %s.%s" docid table column)

(* One sub-document statement. Auto-commit: lock the node's subtree when
   other transactions are open, and change the current version in one
   commit. Under [txn]: lock, then apply the statement to the
   transaction's private working copy — created from the current
   committed version on first touch, after the first-updater-wins check —
   and remember it for replay at commit. Statements against a document
   inserted by this same transaction edit the staged insert image
   directly; no replay needed. [make] builds the statement once the
   target is known. *)
let edit ?txn t ~table ~column ~docid make =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let e = make () in
  let lock = Session.node_resource tbl docid (Session.edit_anchor e) in
  match txn with
  | None ->
      auto_write t lock (fun ts ->
          Versions.change t.versions xc.history ~docid ~ts (fun () ->
              Session.apply_edit xc.store ~docid e))
  | Some txn ->
      ensure_txn_open txn;
      Session.acquire t txn lock Rx_txn.Lock_modes.X;
      let s, replay =
        match Hashtbl.find_opt txn.locals (table, column, docid) with
        | Some L_deleted ->
            invalid_arg
              (Printf.sprintf "Database: document %d deleted in this transaction"
                 docid)
        | Some (L_staged { s; replay }) -> (s, replay)
        | None ->
            if not (Doc_store.mem xc.store ~docid) then
              invalid_arg
                (Printf.sprintf "Database: no document %d in %s.%s" docid table
                   column);
            Versions.conflict_check xc.history ~snapshot:txn.snapshot ~docid;
            let s =
              Versions.stage t.versions xc.history ~docid
                (Doc_store.tokens xc.store ~docid)
            in
            Hashtbl.replace txn.locals (table, column, docid)
              (L_staged { s; replay = true });
            (s, true)
      in
      let ds, i = Versions.staged_doc s in
      let result = Session.apply_edit ds ~docid:i e in
      if replay then
        txn.pending <-
          P_edit { p_table = table; p_column = column; p_docid = docid; p_edit = e }
          :: txn.pending;
      result

let update_xml_text ?txn t ~table ~column ~docid node content =
  ignore
    (edit ?txn t ~table ~column ~docid (fun () -> Update_text { node; content }))

(* parse the fragment with a synthetic wrapper, then strip it *)
let parse_fragment t fragment =
  let tokens = Parser.parse t.dict ("<rx-fragment>" ^ fragment ^ "</rx-fragment>") in
  match tokens with
  | Token.Start_document :: Token.Start_element _ :: rest ->
      let rec strip acc = function
        | [ Token.End_element; Token.End_document ] -> List.rev acc
        | tok :: rest -> strip (tok :: acc) rest
        | [] -> invalid_arg "Database.insert_xml_fragment: bad fragment"
      in
      strip [] rest
  | _ -> invalid_arg "Database.insert_xml_fragment: bad fragment"

let insert_xml_fragment ?txn t ~table ~column ~docid pos fragment =
  edit ?txn t ~table ~column ~docid (fun () ->
      Insert_fragment { pos; tokens = parse_fragment t fragment })

let delete_xml_node ?txn t ~table ~column ~docid node =
  ignore (edit ?txn t ~table ~column ~docid (fun () -> Delete_node node))

let xml_handle t ~table ~column ~docid =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  Rx_xqueryrt.Xml_handle.of_stored xc.store ~docid
