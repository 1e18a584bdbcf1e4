open Rx_xmlstore

(* Keys are extracted *eagerly*, at observation time, and the raw record is
   not retained. Two reasons:
   - a deleted document's split subtrees (proxy records) are only
     resolvable while the store still holds the document, so deferring
     extraction to drain time would mis-key deletions of large documents;
   - drain then touches only the B+tree, keeping the quiesce window short. *)
type keys = (Rx_xml.Typed_value.t * Node_id.t) list

type event =
  | Add of { docid : int; rid : Rx_storage.Rid.t; keys : keys; depth : int }
  | Del of { docid : int; keys : keys; depth : int }

(* The multi-value statistic is not idempotent the way B+tree replays
   are: a record both scanned and logged must count once. Events are
   numbered in log order; the scan notes, per document, how many events
   had been logged when it read the document ([marks]; only once there are
   any). A drained event numbered below its document's mark is already in
   the scanned state, so it replays into the tree but not into the
   counts. *)
type t = {
  target : Value_index.t;
  store : Doc_store.t;
  lock : Mutex.t;
  events : event Queue.t; (* oldest first *)
  mutable logged : int; (* events ever pushed *)
  mutable drained : int; (* events ever popped *)
  marks : (int, int) Hashtbl.t; (* docid -> [logged] when the scan read it *)
  depths : int Atomic.t array; (* scanned records per depth *)
  mutable bulk : Rx_btree.Btree.bulk option; (* the load, once started *)
  mutable hook_ids : (int * int) option; (* (record, delete) observer ids *)
}

let push t ev =
  Mutex.protect t.lock (fun () ->
      Queue.push ev t.events;
      t.logged <- t.logged + 1)

let absorb t ~docid ~rid ~record =
  let keys, depth =
    Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store)
  in
  if keys <> [] || depth > 0 then push t (Add { docid; rid; keys; depth })

let absorb_delete t ~docid ~record =
  let keys, depth =
    Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store)
  in
  if keys <> [] || depth > 0 then push t (Del { docid; keys; depth })

let start target store =
  let t =
    {
      target;
      store;
      lock = Mutex.create ();
      events = Queue.create ();
      logged = 0;
      drained = 0;
      marks = Hashtbl.create 16;
      depths =
        Array.init (Value_index.stat_levels + 1) (fun _ -> Atomic.make 0);
      bulk = None;
      hook_ids = None;
    }
  in
  let record_id =
    Doc_store.add_record_observer store (fun ~docid ~rid ~record ->
        absorb t ~docid ~rid ~record)
  in
  let delete_id =
    Doc_store.add_delete_observer store (fun ~docid ~rid:_ ~record ->
        absorb_delete t ~docid ~record)
  in
  t.hook_ids <- Some (record_id, delete_id);
  t

let scanned t ~docid =
  Mutex.protect t.lock (fun () ->
      if t.logged > 0 then Hashtbl.replace t.marks docid t.logged)

let entries t ~docid ~rid ~record =
  let keys, depth =
    Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store)
  in
  if depth > 0 then
    Atomic.incr t.depths.(min depth Value_index.stat_levels);
  Value_index.tree_entries t.target ~docid ~rid keys

let sort_entries slices =
  let a = Array.concat slices in
  Array.stable_sort (fun (k1, _) (k2, _) -> String.compare k1 k2) a;
  (* equal keys (two attributes of one element with equal values) keep the
     last, as [Btree.insert]'s replace would; the stable sort keeps them in
     scan order *)
  let n = Array.length a in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if i + 1 = n || not (String.equal (fst a.(i)) (fst a.(i + 1))) then begin
      a.(!w) <- a.(i);
      incr w
    end
  done;
  if !w = n then a else Array.sub a 0 !w

let load t sorted ~lo ~hi =
  let bulk =
    match t.bulk with
    | Some b -> b
    | None ->
        let b = Value_index.bulk_start t.target in
        t.bulk <- Some b;
        b
  in
  for i = lo to hi - 1 do
    let key, value = sorted.(i) in
    Rx_btree.Btree.bulk_add bulk ~key ~value
  done;
  if hi = Array.length sorted then begin
    Rx_btree.Btree.bulk_finish bulk;
    Value_index.count_depths t.target
      (List.init (Array.length t.depths) (fun d -> (d, Atomic.get t.depths.(d))))
  end

let pending t = Mutex.protect t.lock (fun () -> Queue.length t.events)

let drain ?(max = max_int) t =
  (* each event with whether it still counts in the statistic *)
  let batch =
    Mutex.protect t.lock (fun () ->
        let rec take n acc =
          if n = 0 || Queue.is_empty t.events then List.rev acc
          else begin
            let ev = Queue.pop t.events in
            let docid = match ev with Add { docid; _ } | Del { docid; _ } -> docid in
            let counts =
              match Hashtbl.find_opt t.marks docid with
              | Some mark -> t.drained >= mark
              | None -> true
            in
            t.drained <- t.drained + 1;
            take (n - 1) ((ev, counts) :: acc)
          end
        in
        take max [])
  in
  let changes =
    List.filter_map
      (fun (ev, counts) ->
        match ev with
        | Add { docid; rid; keys; depth } ->
            Value_index.insert_keys t.target ~docid ~rid keys;
            if counts then Some (depth, 1) else None
        | Del { docid; keys; depth } ->
            Value_index.remove_keys t.target ~docid keys;
            if counts then Some (depth, -1) else None)
      batch
  in
  Value_index.count_depths t.target changes;
  List.length batch

let stop t =
  match t.hook_ids with
  | None -> ()
  | Some (record_id, delete_id) ->
      Doc_store.remove_record_observer t.store record_id;
      Doc_store.remove_delete_observer t.store delete_id;
      t.hook_ids <- None
