open Rx_xmlstore

(* Keys are extracted *eagerly*, at observation time, and the raw record is
   not retained. Two reasons:
   - a deleted document's split subtrees (proxy records) are only
     resolvable while the store still holds the document, so deferring
     extraction to drain time would mis-key deletions of large documents;
   - drain then touches only the B+tree, keeping the quiesce window short. *)
type keys = (Rx_xml.Typed_value.t * Node_id.t) list

type event =
  | Add of { docid : int; rid : Rx_storage.Rid.t; keys : keys }
  | Del of { docid : int; keys : keys }

type t = {
  target : Value_index.t;
  store : Doc_store.t;
  lock : Mutex.t;
  events : event Queue.t; (* oldest first *)
  mutable bulk : Rx_btree.Btree.bulk option; (* the load, once started *)
  mutable hook_ids : (int * int) option; (* (record, delete) observer ids *)
}

let push t ev = Mutex.protect t.lock (fun () -> Queue.push ev t.events)

let absorb t ~docid ~rid ~record =
  let keys =
    Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store)
  in
  if keys <> [] then push t (Add { docid; rid; keys })

let absorb_delete t ~docid ~record =
  let keys =
    Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store)
  in
  if keys <> [] then push t (Del { docid; keys })

let start target store =
  let t =
    {
      target;
      store;
      lock = Mutex.create ();
      events = Queue.create ();
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

let entries t ~docid ~rid ~record =
  Value_index.tree_entries t.target ~docid ~rid
    (Value_index.extract_keys t.target ~docid ~record ~store:(Some t.store))

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
  if hi = Array.length sorted then Rx_btree.Btree.bulk_finish bulk

let pending t = Mutex.protect t.lock (fun () -> Queue.length t.events)

let drain ?(max = max_int) t =
  let batch =
    Mutex.protect t.lock (fun () ->
        let rec take n acc =
          if n = 0 || Queue.is_empty t.events then List.rev acc
          else take (n - 1) (Queue.pop t.events :: acc)
        in
        take max [])
  in
  List.iter
    (function
      | Add { docid; rid; keys } ->
          Value_index.insert_keys t.target ~docid ~rid keys
      | Del { docid; keys } -> Value_index.remove_keys t.target ~docid keys)
    batch;
  List.length batch

let stop t =
  match t.hook_ids with
  | None -> ()
  | Some (record_id, delete_id) ->
      Doc_store.remove_record_observer t.store record_id;
      Doc_store.remove_delete_observer t.store delete_id;
      t.hook_ids <- None
