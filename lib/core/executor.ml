open Rx_xmlstore
module E = Rx_quickxscan.Engine
module R = Record_format

type evaluator = {
  engine : Node_id.t E.t;
  store : Doc_store.t;
  cursor : R.cursor;
  sink : R.sink;
  c_docs : Rx_obs.Metrics.counter;
  c_subtrees : Rx_obs.Metrics.counter;
  mutable used : bool;
}

(* Feeds the engine straight from the cursor: names as dictionary ids,
   strings as offsets into the record. The engine forces [item] only for an
   output step's match, so a non-matching node allocates nothing here. *)
let sink engine ~item =
  let element (c : R.cursor) =
    E.start_element engine ~uri:c.uri ~local:c.local ~item;
    R.first_attr c;
    for _ = 1 to c.n_attrs do
      R.next_attr c;
      (* an attribute result is represented by its owning element *)
      E.attribute engine ~uri:c.a_uri ~local:c.a_local c.record ~off:c.a_off
        ~len:c.a_len ~item
    done;
    (* content no step can reach is not read at all *)
    if not (E.descend engine) then R.skip_children c
  in
  let leaf (c : R.cursor) =
    match c.kind with
    | R.K_text -> E.text engine c.record ~off:c.str_off ~len:c.str_len ~item
    | R.K_comment -> E.comment engine c.record ~off:c.str_off ~len:c.str_len ~item
    | _ -> E.pi engine c.record ~off:c.str_off ~len:c.str_len ~item
  in
  { R.element; end_element = (fun _ -> E.end_element engine); leaf; proxy = ignore }

(* one cursor and one sink per evaluator, reused for every document *)
let evaluator store query =
  let metrics = Doc_store.metrics store in
  let engine = E.create ~metrics query and cursor = R.create_cursor () in
  {
    engine;
    store;
    cursor;
    sink = sink engine ~item:(fun () -> R.node_id cursor);
    c_docs = Rx_obs.Metrics.counter metrics "exec.docs_scanned";
    c_subtrees = Rx_obs.Metrics.counter metrics "exec.subtrees_scanned";
    used = false;
  }

let run ev counter scan =
  Rx_obs.Metrics.incr counter;
  if ev.used then E.reset ev.engine;
  ev.used <- true;
  scan ev.cursor ev.sink;
  E.finish ev.engine

let eval_with ?root ev ~docid = run ev ev.c_docs (Doc_store.scan ?root ev.store ~docid)

let eval_subtree ev ~docid node =
  run ev ev.c_subtrees (Doc_store.scan_subtree ev.store ~docid node)

let eval_stored query store ~docid = eval_with (evaluator store query) ~docid

(* Partitioned scan driver: split [docs] into [parallelism] contiguous
   chunks and run one compiled QuickXScan machine per chunk in its own
   domain against the shared (latch-striped) buffer pool. Results land in
   per-document slots, so the merge that preserves document order is just
   reading the array front to back — the chunks are contiguous ranges of
   an already-ordered docid list. *)
let eval_partitioned ~pool ~parallelism query docs =
  let results = Array.make (Array.length docs) [] in
  ignore
    (Rx_util.Domain_pool.run_ranges pool ~parallelism (Array.length docs)
       (fun ~lo ~hi ->
         (* chunk-local evaluators, one per distinct store: snapshot scans
            mix the main store with per-column MVCC side stores *)
         let evs = ref [] in
         let ev_for store =
           match List.assq_opt store !evs with
           | Some ev -> ev
           | None ->
               let ev = evaluator store query in
               evs := (store, ev) :: !evs;
               ev
         in
         for i = lo to hi - 1 do
           let store, docid, root = docs.(i) in
           results.(i) <- eval_with ?root (ev_for store) ~docid
         done));
  results
