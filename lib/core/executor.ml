open Rx_xmlstore
module E = Rx_quickxscan.Engine

type evaluator = {
  engine : Node_id.t E.t;
  store : Doc_store.t;
  c_docs : Rx_obs.Metrics.counter;
  mutable used : bool;
}

let evaluator store query =
  let metrics = Doc_store.metrics store in
  {
    engine = E.create ~metrics query;
    store;
    c_docs = Rx_obs.Metrics.counter metrics "exec.docs_scanned";
    used = false;
  }

let eval_with ev ~docid =
  Rx_obs.Metrics.incr ev.c_docs;
  if ev.used then E.reset ev.engine;
  ev.used <- true;
  let engine = ev.engine in
  Doc_store.scan ev.store ~docid ~make_sink:(fun ~current ->
      (* one closure set per scan; the engine forces [current] only on
         matches, so non-matching nodes allocate nothing here *)
      let attr_item _ = current () in
      {
        Doc_store.scan_start_element =
          (fun ~name ~attrs ->
            E.start_element engine ~name ~attrs ~item:current ~attr_item);
        scan_end_element = (fun () -> E.end_element engine);
        scan_text = (fun ~content -> E.text engine ~content ~item:current);
        scan_comment = (fun ~content -> E.comment engine ~content ~item:current);
        scan_pi =
          (fun ~target ~data -> E.pi engine ~target ~data ~item:current);
      });
  E.finish engine

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
           let store, docid = docs.(i) in
           results.(i) <- eval_with (ev_for store) ~docid
         done));
  results
