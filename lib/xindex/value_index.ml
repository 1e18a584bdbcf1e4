open Rx_util
open Rx_xml
open Rx_xmlstore
module Q = Rx_quickxscan.Query
module E = Rx_quickxscan.Engine

type t = {
  definition : Index_def.t;
  pool : Rx_storage.Buffer_pool.t;
  tree : Rx_btree.Btree.t;
  dict : Name_dict.t;
  query : Q.t; (* compiled index path, value-producing *)
  metrics : Rx_obs.Metrics.t;
  c_fetched : Rx_obs.Metrics.counter;
  c_merges : Rx_obs.Metrics.counter;
  c_fallbacks : Rx_obs.Metrics.counter;
  mutable hook_ids : (int * int) option; (* (record, delete) observer handles *)
  mutable generation : int; (* 1 for a first build; bumped by online rebuilds *)
}

type entry = {
  key : Typed_value.t;
  docid : int;
  node : Node_id.t;
  rid : Rx_storage.Rid.t;
}

type bound = Typed_value.t * bool

let compile dict (definition : Index_def.t) =
  Q.compile ~value_output:true dict definition.Index_def.path

(* --- the multi-value statistic ---

   Kept on the B+tree's meta page, in the bytes the tree leaves to its
   owner: an 8-byte tag, then one big-endian int64 per NodeID level 1 to
   [stat_levels] — the number of records that make that level
   multi-valued. Every change goes through [Buffer_pool.update], so undo,
   redo, replica apply and restore keep it exact like any page byte. A
   tree without the tag (built before the statistic existed) has no
   counts, and its ranges never merge. *)

let stat_levels = 64
let stat_tag = "RXMVSTAT"
let stat_off = Rx_btree.Btree.meta_owner_offset
let count_off level = stat_off + 8 + (8 * (level - 1))
let has_stats page = Bytes.sub_string page stat_off 8 = stat_tag
let get_count page level = Int64.to_int (Bytes.get_int64_be page (count_off level))

let set_count page level v =
  Bytes.set_int64_be page (count_off level) (Int64.of_int v)

let make pool dict definition tree =
  let metrics = Rx_storage.Buffer_pool.metrics pool in
  let counter = Rx_obs.Metrics.counter metrics in
  {
    definition;
    pool;
    tree;
    dict;
    query = compile dict definition;
    metrics;
    c_fetched = counter "xindex.entries_fetched";
    c_merges = counter "xindex.range_merges";
    c_fallbacks = counter "xindex.range_merge_fallbacks";
    hook_ids = None;
    generation = 1;
  }

let create pool dict definition =
  let t = make pool dict definition (Rx_btree.Btree.create pool) in
  Rx_storage.Buffer_pool.update pool (Rx_btree.Btree.meta_page t.tree)
    (fun page -> Bytes.blit_string stat_tag 0 page stat_off 8);
  t

let attach pool dict definition ~meta_page =
  make pool dict definition (Rx_btree.Btree.attach pool ~meta_page)

let def t = t.definition
let bulk_start t = Rx_btree.Btree.bulk_start t.tree
let meta_page t = Rx_btree.Btree.meta_page t.tree
let generation t = t.generation
let set_generation t g = t.generation <- g

(* --- key encoding: (keyval, DocID, NodeID) → RID --- *)

let encode_value buf (kt : Index_def.key_type) (v : Typed_value.t) =
  match (kt, v) with
  | Index_def.K_string, Typed_value.String s -> Key_codec.encode_string buf s
  | Index_def.K_double, Typed_value.Double f -> Key_codec.encode_float buf f
  | Index_def.K_decimal, Typed_value.Decimal d -> Key_codec.encode_decimal buf d
  | Index_def.K_integer, Typed_value.Integer n -> Key_codec.encode_int64 buf (Int64.of_int n)
  | Index_def.K_date, Typed_value.Date { year; month; day } ->
      Key_codec.encode_int64 buf
        (Int64.of_int ((year * 10000) + (month * 100) + day))
  | _ -> invalid_arg "Value_index: typed value does not match the key type"

let decode_value (kt : Index_def.key_type) s pos =
  match kt with
  | Index_def.K_string ->
      let v, p = Key_codec.decode_string s pos in
      (Typed_value.String v, p)
  | Index_def.K_double ->
      let v, p = Key_codec.decode_float s pos in
      (Typed_value.Double v, p)
  | Index_def.K_decimal ->
      let v, p = Key_codec.decode_decimal s pos in
      (Typed_value.Decimal v, p)
  | Index_def.K_integer ->
      let v, p = Key_codec.decode_int64 s pos in
      (Typed_value.Integer (Int64.to_int v), p)
  | Index_def.K_date ->
      let v, p = Key_codec.decode_int64 s pos in
      let v = Int64.to_int v in
      ( Typed_value.Date { year = v / 10000; month = v / 100 mod 100; day = v mod 100 },
        p )

let value_prefix t v =
  let buf = Buffer.create 16 in
  encode_value buf t.definition.Index_def.key_type v;
  Buffer.contents buf

let full_key t v ~docid ~node =
  let buf = Buffer.create 24 in
  encode_value buf t.definition.Index_def.key_type v;
  Key_codec.encode_int64 buf (Int64.of_int docid);
  Buffer.add_string buf node;
  Buffer.contents buf

let decode_entry t key value =
  let k, pos = decode_value t.definition.Index_def.key_type key 0 in
  let docid, pos = Key_codec.decode_int64 key pos in
  let node = String.sub key pos (String.length key - pos) in
  let rid = Rx_storage.Rid.decode (Bytes_io.Reader.of_string value) in
  { key = k; docid = Int64.to_int docid; node; rid }

(* --- per-record key extraction --- *)

type item = Ancestor | Node_item of Node_id.t

(* Runs the simplified QuickXScan over one record; returns the context
   node's level and (node id, value, complete?) for every match. Ancestor
   steps are pre-matched from the record header's context path. *)
let extract_record t ~record =
  let module R = Record_format in
  let header, _ = R.decode_header record in
  let engine = E.create ~metrics:t.metrics t.query in
  (* synthetic ancestors from the context path *)
  List.iter
    (fun (uri, local) -> E.start_element engine ~uri ~local ~item:(fun () -> Ancestor))
    header.R.path;
  let incomplete = Hashtbl.create 4 in
  let open_elems = ref [] in
  let c = R.create_cursor () in
  let item () = Node_item (R.node_id c) in
  let element (c : R.cursor) =
    E.start_element engine ~uri:c.uri ~local:c.local ~item;
    R.first_attr c;
    for _ = 1 to c.n_attrs do
      R.next_attr c;
      E.attribute engine ~uri:c.a_uri ~local:c.a_local c.record ~off:c.a_off ~len:c.a_len
        ~item
    done;
    open_elems := R.node_id c :: !open_elems
  in
  let end_element _ =
    open_elems := List.tl !open_elems;
    E.end_element engine
  in
  let leaf (c : R.cursor) =
    match c.kind with
    | R.K_text -> E.text engine c.record ~off:c.str_off ~len:c.str_len ~item
    | R.K_comment -> E.comment engine c.record ~off:c.str_off ~len:c.str_len ~item
    | _ -> E.pi engine c.record ~off:c.str_off ~len:c.str_len ~item
  in
  (* a subtree stored elsewhere: every open element's value within this
     record is incomplete *)
  let proxy _ = List.iter (fun id -> Hashtbl.replace incomplete id ()) !open_elems in
  R.walk_record c { R.element; end_element; leaf; proxy } record;
  List.iter (fun _ -> E.end_element engine) header.Record_format.path;
  ( Node_id.level header.Record_format.context,
    List.filter_map
      (fun (item, value) ->
        match item with
        | Ancestor -> None
        | Node_item id -> Some (id, value, not (Hashtbl.mem incomplete id)))
      (E.finish_with_values engine) )

(* The number of leading components two absolute NodeIDs share: a
   relative ID ends at its one even byte, so count the even bytes of the
   common byte prefix. *)
let common_levels a b =
  let n = min (String.length a) (String.length b) in
  let rec go i levels =
    if i < n && a.[i] = b.[i] then
      go (i + 1) (if Char.code a.[i] land 1 = 0 then levels + 1 else levels)
    else levels
  in
  go 0 0

(* The levels 1..depth at which this record can give one anchor more than
   one entry: two matches sharing the anchor, or — when the record hangs
   at or below the anchor's level — any match, because the anchor also
   collects entries from other records. Taken over every match, converted
   or not, so that it depends on the record alone and insert and delete
   see the same depth. In document order, the closest pair is adjacent. *)
let record_depth ~context_level ids =
  match List.sort Node_id.compare ids with
  | [] -> 0
  | first :: rest ->
      fst
        (List.fold_left
           (fun (depth, prev) id -> (max depth (common_levels prev id), id))
           (context_level, first) rest)

let subtree_value store ~docid id =
  let buf = Buffer.create 64 in
  Doc_store.subtree_events store ~docid id (fun e ->
      match e.Doc_store.token with
      | Token.Text { content; _ } -> Buffer.add_string buf content
      | _ -> ());
  Buffer.contents buf

let keys_for_record t ~docid ~record ~store =
  let context_level, matches = extract_record t ~record in
  let keys =
  List.filter_map
    (fun (id, value, complete) ->
      let value =
        if complete then value
        else
          match store with
          | Some store -> Some (subtree_value store ~docid id)
          | None -> value
      in
      match value with
      | None -> None
      | Some v -> (
          match Index_def.typed_of_string t.definition.Index_def.key_type v with
          | Some typed -> Some (typed, id)
          | None -> None))
    matches
  in
  (keys, record_depth ~context_level (List.map (fun (id, _, _) -> id) matches))

let rid_value rid =
  let w = Bytes_io.Writer.create ~capacity:6 () in
  Rx_storage.Rid.encode w rid;
  Bytes_io.Writer.contents w

let extract_keys = keys_for_record

let tree_entries t ~docid ~rid keys =
  let value = rid_value rid in
  List.map (fun (typed, id) -> (full_key t typed ~docid ~node:id, value)) keys

let insert_keys t ~docid ~rid keys =
  List.iter
    (fun (key, value) -> Rx_btree.Btree.insert t.tree ~key ~value)
    (tree_entries t ~docid ~rid keys)

let remove_keys t ~docid keys =
  List.iter
    (fun (typed, id) ->
      ignore (Rx_btree.Btree.delete t.tree (full_key t typed ~docid ~node:id)))
    keys

(* per-level deltas of (depth, records) pairs; a record counts at every
   level from 1 to its depth *)
let level_deltas changes =
  let d = Array.make (stat_levels + 1) 0 in
  List.iter
    (fun (depth, n) ->
      for level = 1 to min depth stat_levels do
        d.(level) <- d.(level) + n
      done)
    changes;
  d

let count_depths t changes =
  let d = level_deltas changes in
  if Array.exists (fun n -> n <> 0) d then
    Rx_storage.Buffer_pool.update t.pool (Rx_btree.Btree.meta_page t.tree)
      (fun page ->
        if has_stats page then
          for level = 1 to stat_levels do
            if d.(level) <> 0 then
              set_count page level (get_count page level + d.(level))
          done)

let level_counts t =
  Rx_storage.Buffer_pool.with_page t.pool (Rx_btree.Btree.meta_page t.tree)
    (fun page ->
      if has_stats page then
        Some (Array.init stat_levels (fun i -> get_count page (i + 1)))
      else None)

let merge_allowed t ~level =
  let ok =
    level >= 1 && level <= stat_levels
    && Rx_storage.Buffer_pool.with_page t.pool
         (Rx_btree.Btree.meta_page t.tree) (fun page ->
           has_stats page && get_count page level = 0)
  in
  Rx_obs.Metrics.incr (if ok then t.c_merges else t.c_fallbacks);
  ok

let recount t store ~docids =
  let changes = ref [] in
  List.iter
    (fun docid ->
      Doc_store.iter_records store ~docid (fun ~rid:_ ~record ->
          let _, depth = keys_for_record t ~docid ~record ~store:(Some store) in
          if depth > 0 then changes := (depth, 1) :: !changes))
    docids;
  Array.sub (level_deltas !changes) 1 stat_levels

let index_record t ~docid ~rid ~record ~store =
  let keys, depth = keys_for_record t ~docid ~record ~store in
  insert_keys t ~docid ~rid keys;
  count_depths t [ (depth, 1) ]

let unindex_record t ~docid ~record ~store =
  let keys, depth = keys_for_record t ~docid ~record ~store in
  remove_keys t ~docid keys;
  count_depths t [ (depth, -1) ]

let hook t store =
  let record_id =
    Doc_store.add_record_observer store (fun ~docid ~rid ~record ->
        index_record t ~docid ~rid ~record ~store:(Some store))
  in
  let delete_id =
    Doc_store.add_delete_observer store (fun ~docid ~rid:_ ~record ->
        unindex_record t ~docid ~record ~store:(Some store))
  in
  t.hook_ids <- Some (record_id, delete_id)

let unhook t store =
  match t.hook_ids with
  | None -> ()
  | Some (record_id, delete_id) ->
      Doc_store.remove_record_observer store record_id;
      Doc_store.remove_delete_observer store delete_id;
      t.hook_ids <- None

(* --- scans --- *)

let prefix_successor s =
  let b = Bytes.of_string s in
  let rec bump i =
    if i < 0 then None
    else if Bytes.get b i = '\xff' then bump (i - 1)
    else begin
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) + 1));
      Some (Bytes.sub_string b 0 (i + 1))
    end
  in
  bump (Bytes.length b - 1)

let scan t ?min ?max f =
  let empty = ref false in
  let lo =
    match min with
    | None -> None
    | Some (v, inclusive) ->
        let p = value_prefix t v in
        if inclusive then Some p
        else begin
          match prefix_successor p with
          | Some s -> Some s
          | None ->
              (* no key can sort above an all-0xff prefix *)
              empty := true;
              None
        end
  in
  if !empty then ()
  else
  let hi =
    match max with
    | None -> None
    | Some (v, inclusive) ->
        let p = value_prefix t v in
        if inclusive then prefix_successor p else Some p
  in
  Rx_btree.Btree.iter_range t.tree ?lo ?hi (fun key value ->
      Rx_obs.Metrics.incr t.c_fetched;
      f (decode_entry t key value))

let entries t ?min ?max () =
  let acc = ref [] in
  scan t ?min ?max (fun e ->
      acc := e :: !acc;
      `Continue);
  List.rev !acc

let entry_count t = Rx_btree.Btree.entry_count t.tree
let page_count t = Rx_btree.Btree.page_count t.tree
