(* Explicit transactions: begin, commit and rollback, lock acquisition
   with deadlock wounding, and the replay of staged statements at commit.
   Which version a transaction reads, and which pre-images its snapshot
   keeps alive, is [Versions]' decision. *)

open Rx_xmlstore
open Rx_relational
open Engine

let doc_resource tbl docid = Rx_txn.Resource.Document { table = tbl.tid; docid }

let node_resource tbl docid node =
  Rx_txn.Resource.Node { table = tbl.tid; docid; node }

let find_active t txid =
  List.find_opt (fun x -> Rx_txn.Transaction.txid x.tx = txid) t.active_txns

let begin_txn t =
  ensure_writable t;
  let tx = Rx_txn.Transaction.begin_txn t.txn_mgr in
  let txn =
    {
      tx;
      snapshot = Versions.begin_snapshot t.versions;
      pending = [];
      locals = Hashtbl.create 16;
      txn_open = true;
    }
  in
  t.active_txns <- txn :: t.active_txns;
  Rx_obs.Metrics.(incr (counter t.metrics "txn.begin"));
  txn

let txn_id txn = Rx_txn.Transaction.txid txn.tx
let txn_active txn = txn.txn_open

(* does [txn] hold a staged index drop for (table, column)? *)
let txn_staged_drop txn ~table ~column =
  List.exists
    (function
      | P_drop_index { p_table; p_column; _ } ->
          p_table = table && p_column = column
      | _ -> false)
    txn.pending

(* --- ending a transaction --- *)

(* the transaction leaves the session set and its snapshot closes, then
   [f] ends it: its own commit replays as any other writer would *)
let finish t txn f =
  txn.txn_open <- false;
  t.active_txns <- List.filter (fun x -> x != txn) t.active_txns;
  Versions.end_snapshot t.versions f

(* every staged handle in [locals] is a consumed insert image or a private
   working copy: free them all *)
let discard_locals txn =
  Hashtbl.iter
    (fun _ -> function L_staged { s; _ } -> Versions.discard s | L_deleted -> ())
    txn.locals

let rollback t txn =
  if txn.txn_open then
    finish t txn (fun () ->
        (* an open transaction's writes are staged in [Versions]' scratch
           pool and logged nothing: freeing them is the whole rollback *)
        ignore
          (Rx_txn.Transaction.abort ~undo:(fun () -> discard_locals txn) txn.tx);
        Rx_obs.Metrics.(incr (counter t.metrics "txn.abort")))

(* Acquire [mode] on [resource] for [tx]. A blocked request stays queued
   (its waits-for edges feed deadlock detection) and surfaces as [Busy];
   a waits-for cycle designates a victim: another session transaction is
   wounded (rolled back) and the request retried, otherwise the requester
   itself must abort ([on_self]) and the deadlock is re-raised. *)
let rec acquire_resource t ~on_self tx resource mode =
  match Rx_txn.Transaction.lock_detect tx resource mode with
  | `Granted -> ()
  | `Blocked blockers ->
      raise (Busy { txid = Rx_txn.Transaction.txid tx; blockers })
  | `Deadlock (victim, cycle) ->
      let self = Rx_txn.Transaction.txid tx in
      let wounded =
        victim <> self
        &&
        match find_active t victim with
        | Some v ->
            rollback t v;
            true
        | None -> false
      in
      if wounded then acquire_resource t ~on_self tx resource mode
      else begin
        on_self ();
        raise (Rx_txn.Lock_manager.Deadlock { victim = self; cycle })
      end

let acquire t txn resource mode =
  acquire_resource t ~on_self:(fun () -> rollback t txn) txn.tx resource mode

(* --- writes shared by auto-commit DML and commit replay --- *)

(* [Update_text] accepts the text node itself or an element node; for an
   element the update targets its first text-node child. Resolution
   happens against the store actually being written (main or staged
   working copy), where the node ids coincide. *)
let text_target ds ~docid node =
  match Doc_store.Cursor.find ds ~docid node with
  | None -> node (* let Doc_store report the missing node *)
  | Some c -> (
      match Doc_store.Cursor.entry c with
      | Record_tree.Text _ -> node
      | _ ->
          let rec scan = function
            | None -> node
            | Some ch -> (
                match Doc_store.Cursor.entry ch with
                | Record_tree.Text _ -> Doc_store.Cursor.node_id ch
                | _ -> scan (Doc_store.Cursor.next_sibling ds ch))
          in
          scan (Doc_store.Cursor.first_child ds c))

(* apply a sub-document statement to document [docid] of [ds]; the node
   IDs a fragment insert assigned, [] for the others *)
let apply_edit ds ~docid = function
  | Update_text { node; content } ->
      Doc_store.update_text ds ~docid (text_target ds ~docid node) content;
      []
  | Insert_fragment { pos; tokens } -> Doc_store.insert_fragment ds ~docid pos tokens
  | Delete_node node ->
      Doc_store.delete_subtree ds ~docid node;
      []

(* the node whose subtree a statement locks *)
let edit_anchor = function
  | Update_text { node; _ } | Delete_node node -> node
  | Insert_fragment
      { pos = Doc_store.Before n | Doc_store.After n | Doc_store.Last_child_of n; _ }
    ->
      n

(* delete row [docid] and its XML documents in the commit publishing at
   [ts] *)
let delete_row t tbl ~docid ~ts =
  match Base_table.fetch_by_docid tbl.base docid with
  | None -> invalid_arg (Printf.sprintf "Database: no row with DocID %d" docid)
  | Some row ->
      Array.iteri
        (fun i v ->
          match v with
          | Value.Xml_ref d ->
              let xc = xml_column_exn tbl (fst (Base_table.columns tbl.base).(i)) in
              Versions.change t.versions xc.history ~docid:d ~ts ~delete:true (fun () ->
                  Doc_store.delete_document xc.store ~docid:d)
          | _ -> ())
        row;
      ignore (Base_table.delete_by_docid tbl.base docid)

(* --- commit --- *)

(* replay one staged statement against the current committed state at
   [ts]; runs inside the committing transaction, so index/full-text
   observers fire here — index maintenance is deferred to commit *)
let apply_pending t ts = function
  | P_insert { p_table; p_docid; p_row; p_xml } ->
      let tbl = table_exn t p_table in
      Versions.inserted t.versions ~ts
        (List.map
           (fun (column, s) ->
             let xc = xml_column_exn tbl column in
             let ds, i = Versions.staged_doc s in
             Doc_store.insert_tokens xc.store ~docid:p_docid (Doc_store.tokens ds ~docid:i);
             (xc.history, p_docid))
           p_xml);
      ignore (Base_table.insert tbl.base ~docid:p_docid p_row)
  | P_delete { p_table; p_docid } -> delete_row t (table_exn t p_table) ~docid:p_docid ~ts
  | P_edit { p_table; p_column; p_docid; p_edit } ->
      let xc = xml_column_exn (table_exn t p_table) p_column in
      Versions.change t.versions xc.history ~docid:p_docid ~ts (fun () ->
          ignore (apply_edit xc.store ~docid:p_docid p_edit))
  | P_drop_index { p_table; p_column; p_name } ->
      let xc = xml_column_exn (table_exn t p_table) p_column in
      (* tolerate a concurrent immediate drop between staging and commit *)
      if Index.find_value_index xc p_name <> None then Index.drop_index t xc p_name

(* Replay the staged statements, then commit under [finish_commit]'s
   rule: inside [exclusively] the durability wait runs after the engine
   lock is released, so N committers in flight share ~1 fsync. The
   auto-checkpoint trigger follows, as after an auto-commit. *)
let commit t txn =
  ensure_txn_open txn;
  finish t txn (fun () ->
      let ops = List.rev txn.pending in
      match
        Rx_txn.Transaction.run_as txn.tx (fun () ->
            Versions.publish t.versions (fun ts ->
                List.iter (apply_pending t ts) ops;
                discard_locals txn))
      with
      | () ->
          finish_commit t txn.tx;
          (* staged DDL became effective above; make it durable like
             immediate DDL. Likewise a dictionary that grew while this
             transaction's documents were parsed: names live only in the
             catalog, so without a save here a crash — or a replica
             applying this very commit — would hold documents whose qname
             ids nothing can resolve. Interning is once-per-distinct-name
             over the database's lifetime, so steady-state commits skip
             this. *)
          if
            List.exists (function P_drop_index _ -> true | _ -> false) ops
            || Rx_xml.Name_dict.size t.dict > t.dict_persisted
          then save_catalog t;
          maybe_auto_checkpoint t
      | exception e ->
          (* commit replay failed: physically roll back this transaction's
             page updates; the durable state is consistent after reopen
             (recovery treats it as a loser), but this in-memory handle
             may be stale *)
          ignore (Rx_txn.Transaction.abort txn.tx);
          Rx_obs.Metrics.(incr (counter t.metrics "txn.abort"));
          raise e)

(* --- snapshot reads --- *)

(* what [txn] sees of (table, column, docid): its own staged state first,
   then the version its snapshot sees *)
let view txn tbl xc ~column ~docid =
  match Hashtbl.find_opt txn.locals (tbl.tname, column, docid) with
  | Some L_deleted -> `Absent
  | Some (L_staged { s; _ }) -> `Internal (Versions.staged_doc s)
  | None -> Versions.resolve xc.history ~snapshot:txn.snapshot ~docid

(* the docids [txn] may see in a column: current rows, documents with
   retained versions (possibly deleted since its snapshot), and its own
   staged writes *)
let candidates txn tbl xc ~column =
  Versions.candidates xc.history
    (Hashtbl.fold
       (fun (tb, col, d) _ acc -> if tb = tbl.tname && col = column then d :: acc else acc)
       txn.locals (List.map fst (Doc_store.roots xc.store)))
