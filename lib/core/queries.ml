(* Queries: compilation and the plan cache, one execution path for the
   stored plan and for a transaction's snapshot scan, and streamed result
   cursors. *)

open Rx_storage
open Rx_xmlstore
open Engine

let plan_for ?ns_env t xc xpath =
  let path = Rx_xpath.Rewrite.simplify (Rx_xpath.Xpath_parser.parse xpath) in
  let query = Rx_quickxscan.Query.compile ?ns_env t.dict path in
  let plan = Planner.plan ~indexes:xc.indexes ~query:path in
  let tail =
    match plan with
    | Planner.Index_access { tail = Some tail; _ } ->
        Some (Rx_quickxscan.Query.compile ?ns_env t.dict tail)
    | _ -> None
  in
  let kind =
    match plan with
    | Planner.Full_scan -> "planner.plans_fullscan"
    | Planner.Index_access { granularity = Planner.Docid_level; _ } ->
        "planner.plans_docid"
    | Planner.Index_access { granularity = Planner.Nodeid_level _; _ } ->
        "planner.plans_nodeid"
  in
  Rx_obs.Metrics.(incr (counter t.metrics kind));
  (query, plan, tail)

let plan_info_of plan =
  {
    description = Planner.describe plan;
    uses_index = (match plan with Planner.Full_scan -> false | _ -> true);
    exact = (match plan with Planner.Index_access { exact; _ } -> exact | _ -> false);
  }

let explain ?ns_env t ~table ~column ~xpath =
  let _, plan, _ = plan_for ?ns_env t (xml_column_exn (table_exn t table) column) xpath in
  plan_info_of plan

(* --- prepared queries and the plan cache --- *)

(* cache keys must not depend on binding order or shadowed (repeated)
   prefixes: keep the first binding of each prefix, then sort *)
let canonical_ns ns_env =
  let seen = Hashtbl.create 8 in
  List.sort compare
    (List.filter
       (fun (prefix, _) ->
         if Hashtbl.mem seen prefix then false
         else begin
           Hashtbl.add seen prefix ();
           true
         end)
       ns_env)

(* a handle for the current catalog epoch, outside the cache *)
let compile t xc ~table ~column ~xpath ns =
  let query, plan, tail = plan_for ~ns_env:ns t xc xpath in
  {
    p_table = table;
    p_column = column;
    p_xpath = xpath;
    p_ns_env = ns;
    p_query = query;
    p_plan = plan;
    p_info = plan_info_of plan;
    p_epoch = t.ddl_epoch;
    p_tail = tail;
    p_ev = None;
    p_tail_ev = None;
  }

let prepare ?(ns_env = []) t ~table ~column ~xpath =
  let xc = xml_column_exn (table_exn t table) column in
  let ns = canonical_ns ns_env in
  let key = (table, column, xpath, ns) in
  match Rx_util.Lru.find_opt t.plan_cache key with
  | Some p when p.p_epoch = t.ddl_epoch ->
      Rx_obs.Metrics.(incr (counter t.metrics "plancache.hits"));
      p
  | found ->
      Rx_obs.Metrics.(
        incr
          (counter t.metrics
             (match found with
             | None -> "plancache.misses"
             | Some _ -> "plancache.invalidations")));
      Rx_obs.Trace.with_span t.tracer "db.prepare"
        ~attrs:[ ("table", table); ("column", column); ("xpath", xpath) ]
        (fun () ->
          let p = compile t xc ~table ~column ~xpath ns in
          ignore (Rx_util.Lru.put t.plan_cache key p);
          p)

(* the handle a query runs under [txn]: a transaction holding a staged
   DROP XML INDEX on the column compiles fresh and never caches, since a
   plan compiled now still names the index it dropped *)
let prepare_for ?txn ?(ns_env = []) t ~table ~column ~xpath =
  match txn with
  | Some txn when Session.txn_staged_drop txn ~table ~column ->
      compile t
        (xml_column_exn (table_exn t table) column)
        ~table ~column ~xpath (canonical_ns ns_env)
  | _ -> prepare ~ns_env t ~table ~column ~xpath

module Prepared = struct
  let table p = p.p_table
  let column p = p.p_column
  let xpath p = p.p_xpath
  let ns_env p = p.p_ns_env
  let plan p = p.p_info
end

let serialize_match xc m = Doc_store.serialize_subtree xc.store ~docid:m.docid m.node

(* The scan driver of every query: evaluate [query] over
   [(docid, store, scan_docid, root)] quadruples, matches in their order;
   [root] is the root-record RID when a full scan's NodeID-index walk
   found it. A column big enough to pay for domains fans out over
   contiguous chunks and splices the per-document results back in order
   (chunks are contiguous, so this IS document order); smaller scans and
   single documents run [eval] on the caller. *)
let scan_docs t xc query ~eval docs =
  let par = effective_parallelism t in
  let matches docid nodes = List.map (fun node -> { docid; node }) nodes in
  match docs with
  | _ :: _ :: _
    when par > 1 && Doc_store.data_page_count xc.store >= t.config.parallel_scan_min_pages ->
      let arr = Array.of_list docs in
      Rx_obs.Metrics.(incr (counter t.metrics "exec.parallel_scans"));
      Rx_obs.Metrics.(add (counter t.metrics "exec.parallel_chunks") (min par (Array.length arr)));
      let per_doc =
        Executor.eval_partitioned ~pool:(Rx_util.Domain_pool.shared ()) ~parallelism:par query
          (Array.map (fun (_, store, d, root) -> (store, d, root)) arr)
      in
      List.concat (List.mapi (fun i (docid, _, _, _) -> matches docid per_doc.(i)) docs)
  | _ -> List.concat_map (fun (docid, store, d, root) -> matches docid (eval store d root)) docs

(* the stored plan; the QuickXScan machines and their record cursors are
   built once per handle and reset between documents, and a scan step reads
   the packed record in place (about 13 minor words per scanned node on
   catalog documents, mostly the instances of matching steps). A full scan
   takes its documents and their root RIDs from one NodeID-index walk,
   which holds the same docids as the base table's rows
   ([Database.verify] checks it). *)
let run_plan t xc p =
  let c_candidates = Rx_obs.Metrics.counter t.metrics "exec.index_candidates" in
  let c_filtered = Rx_obs.Metrics.counter t.metrics "exec.reeval_filtered" in
  let scan docs =
    let ev =
      match p.p_ev with
      | Some ev -> ev
      | None ->
          let ev = Executor.evaluator xc.store p.p_query in
          p.p_ev <- Some ev;
          ev
    in
    scan_docs t xc p.p_query
      ~eval:(fun _ docid root -> Executor.eval_with ?root ev ~docid)
      (List.map (fun (d, root) -> (d, xc.store, d, root)) docs)
  in
  let full_scan () = scan (List.map (fun (d, r) -> (d, Some r)) (Doc_store.roots xc.store)) in
  let scan_docids docids = scan (List.map (fun d -> (d, None)) docids) in
  (* an anchor-exact plan's tail, run inside each anchor on the caller: the
     anchors are disjoint subtrees in document order, so their matches
     concatenate in document order *)
  let tails tail anchors =
    let ev =
      match p.p_tail_ev with
      | Some ev -> ev
      | None ->
          let ev = Executor.evaluator xc.store tail in
          p.p_tail_ev <- Some ev;
          ev
    in
    List.concat_map
      (fun (docid, anchor) ->
        List.map (fun node -> { docid; node }) (Executor.eval_subtree ev ~docid anchor))
      anchors
  in
  match p.p_plan with
  | Planner.Full_scan -> full_scan ()
  | Planner.Index_access { exact; _ } as plan -> (
      match Planner.execute_candidates ~indexes:xc.indexes plan with
      | `All -> full_scan ()
      | `Docids docids ->
          Rx_obs.Metrics.add c_candidates (List.length docids);
          let ms = scan_docids docids in
          let surviving = List.sort_uniq compare (List.map (fun m -> m.docid) ms) in
          Rx_obs.Metrics.add c_filtered
            (max 0 (List.length docids - List.length surviving));
          ms
      | `Anchors anchors ->
          Rx_obs.Metrics.add c_candidates (List.length anchors);
          match p.p_tail with
          | _ when exact -> List.map (fun (docid, node) -> { docid; node }) anchors
          | Some tail -> tails tail anchors
          | None ->
              let ms = scan_docids (List.sort_uniq compare (List.map fst anchors)) in
              Rx_obs.Metrics.add c_filtered
                (max 0 (List.length anchors - List.length ms));
              ms)

(* A transaction's reads bypass the planner: value indexes describe the
   current committed state, not this snapshot, so every query scans the
   snapshot-visible document set with QuickXScan. *)
let snapshot_plan =
  { description = "SNAPSHOT-SCAN(QuickXScan)"; uses_index = false; exact = false }

(* The one result assembly for every query: the [db.query] span around
   the read, the plan, the counter profile and lazy serialization. *)
let execute ?txn t p =
  let table = p.p_table and column = p.p_column in
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let before = Rx_obs.Metrics.mark t.metrics in
  let read, plan, serialize =
    match txn with
    | None -> ((fun () -> run_plan t xc p), p.p_info, serialize_match xc)
    | Some txn ->
        ensure_txn_open txn;
        let view docid = Session.view txn tbl xc ~column ~docid in
        (* snapshot resolution touches txn-local state (staged writes,
           version chains), so it happens here on the caller; only the
           pure QuickXScan evaluation fans out to domains *)
        ( (fun () ->
            scan_docs t xc p.p_query
              ~eval:(fun store docid _ ->
                Executor.eval_with (Executor.evaluator store p.p_query) ~docid)
              (List.filter_map
                 (fun docid ->
                   match view docid with
                   | `Main -> Some (docid, xc.store, docid, None)
                   | `Internal (ds, i) -> Some (docid, ds, i, None)
                   | `Absent -> None)
                 (Session.candidates txn tbl xc ~column))),
          snapshot_plan,
          fun m ->
            match view m.docid with
            | `Main -> serialize_match xc m
            | `Internal (ds, i) -> Doc_store.serialize_subtree ds ~docid:i m.node
            | `Absent ->
                invalid_arg
                  (Printf.sprintf "Database: no document %d in %s.%s" m.docid table
                     column) )
  in
  let matches =
    Rx_obs.Trace.with_span t.tracer "db.query"
      ~attrs:[ ("table", table); ("column", column); ("xpath", p.p_xpath) ]
      read
  in
  { matches; plan; serialize; profile = Rx_obs.Metrics.since t.metrics before }

(* a read that exhausts the buffer pool (every frame pinned) surfaces as
   [Busy] — retryable backpressure, not an engine failure *)
let pool_guard f =
  try f ()
  with Buffer_pool.Pool_exhausted _ -> raise (Busy { txid = 0; blockers = [] })

let run_prepared ?txn t p =
  pool_guard (fun () ->
      (* a handle compiled before a DDL change transparently re-prepares
         (cheap when the cache already holds the recompiled plan) *)
      execute ?txn t
        (if p.p_epoch = t.ddl_epoch then p
         else
           prepare_for ?txn ~ns_env:p.p_ns_env t ~table:p.p_table
             ~column:p.p_column ~xpath:p.p_xpath))

let run ?ns_env ?txn t ~table ~column ~xpath =
  pool_guard (fun () ->
      run_prepared ?txn t (prepare_for ?txn ?ns_env t ~table ~column ~xpath))

(* --- streamed result cursors --- *)

(* A cursor is the lazy half of a [result] kept alive across calls: the
   match list (docid + node id per match — small) is computed eagerly by
   the underlying query, but serialization — the part that turns a match
   into an arbitrarily large XML string — is deferred and paid chunk by
   chunk in [cursor_next]. A result set whose serialized form is hundreds
   of megabytes therefore crosses any consumer (the rxd wire protocol in
   particular) in bounded-memory chunks. *)
type cursor = {
  cur_plan : plan_info;
  cur_serialize : match_ -> string;
  mutable cur_rest : match_ list;
  mutable cur_peek : (int * string) option;
      (* a serialized row that did not fit its chunk's budget, carried
         over so it is not serialized twice *)
  mutable cur_open : bool;
}

let cursor_of_result (r : result) =
  {
    cur_plan = r.plan;
    cur_serialize = r.serialize;
    cur_rest = r.matches;
    cur_peek = None;
    cur_open = true;
  }

let cursor_plan c = c.cur_plan

let cursor_next ?(max_bytes = 256 * 1024) c =
  if not c.cur_open then invalid_arg "Database: cursor is closed";
  if max_bytes <= 0 then invalid_arg "Database: cursor max_bytes must be positive";
  pool_guard (fun () ->
      let next_row () =
        match c.cur_peek with
        | Some row ->
            c.cur_peek <- None;
            Some row
        | None -> (
            match c.cur_rest with
            | [] -> None
            | m :: rest ->
                c.cur_rest <- rest;
                Some (m.docid, c.cur_serialize m))
      in
      (* at least one row per chunk — a single oversized document still
         streams, as one chunk of its own size — but a later row that
         would overshoot the budget is carried to the next chunk, so a
         chunk never exceeds [max_bytes] by more than its last in-budget
         row's slack *)
      let rec take acc bytes =
        match next_row () with
        | None -> List.rev acc
        | Some ((_, s) as row) ->
            let bytes = bytes + String.length s + 16 in
            if acc <> [] && bytes > max_bytes then begin
              c.cur_peek <- Some row;
              List.rev acc
            end
            else if bytes >= max_bytes then List.rev (row :: acc)
            else take (row :: acc) bytes
      in
      take [] 0)

let cursor_close c =
  c.cur_open <- false;
  c.cur_peek <- None;
  c.cur_rest <- []

