open Rx_util
open Rx_xml
open Rx_xmlstore
module Q = Rx_quickxscan.Query
module E = Rx_quickxscan.Engine

type t = {
  definition : Index_def.t;
  tree : Rx_btree.Btree.t;
  dict : Name_dict.t;
  query : Q.t; (* compiled index path, value-producing *)
  metrics : Rx_obs.Metrics.t;
  c_fetched : Rx_obs.Metrics.counter;
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

let create pool dict definition =
  let metrics = Rx_storage.Buffer_pool.metrics pool in
  {
    definition;
    tree = Rx_btree.Btree.create pool;
    dict;
    query = compile dict definition;
    metrics;
    c_fetched = Rx_obs.Metrics.counter metrics "xindex.entries_fetched";
    hook_ids = None;
    generation = 1;
  }

let attach pool dict definition ~meta_page =
  let metrics = Rx_storage.Buffer_pool.metrics pool in
  {
    definition;
    tree = Rx_btree.Btree.attach pool ~meta_page;
    dict;
    query = compile dict definition;
    metrics;
    c_fetched = Rx_obs.Metrics.counter metrics "xindex.entries_fetched";
    hook_ids = None;
    generation = 1;
  }

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

(* Runs the simplified QuickXScan over one record; returns
   (node id, value, complete?) for every match. Ancestor steps are
   pre-matched from the record header's context path. *)
let extract_record t ~record =
  let header, first = Record_format.decode_header record in
  let engine = E.create ~metrics:t.metrics t.query in
  (* synthetic ancestors from the context path *)
  List.iter
    (fun (uri, local) ->
      E.start_element engine
        ~name:{ Qname.uri; local; prefix = 0 }
        ~attrs:[]
        ~item:(fun () -> Ancestor)
        ~attr_item:(fun _ -> Ancestor))
    header.Record_format.path;
  let incomplete = Hashtbl.create 4 in
  let open_elems = ref [] in
  let rec walk base off limit =
    if off < limit then begin
      let entry, next = Record_format.decode_entry record off in
      let abs = Node_id.append base (Record_format.entry_rel entry) in
      (match entry with
      | Record_format.Element { name; attrs; children_off; children_len; _ } ->
          E.start_element engine ~name ~attrs
            ~item:(fun () -> Node_item abs)
            ~attr_item:(fun _ -> Node_item abs);
          open_elems := abs :: !open_elems;
          walk abs children_off (children_off + children_len);
          open_elems := List.tl !open_elems;
          E.end_element engine
      | Record_format.Text { content; _ } ->
          E.text engine ~content ~item:(fun () -> Node_item abs)
      | Record_format.Comment { content; _ } ->
          E.comment engine ~content ~item:(fun () -> Node_item abs)
      | Record_format.Pi { target; data; _ } ->
          E.pi engine ~target ~data ~item:(fun () -> Node_item abs)
      | Record_format.Proxy _ ->
          (* a subtree stored elsewhere: every open element's value within
             this record is incomplete *)
          List.iter (fun id -> Hashtbl.replace incomplete id ()) !open_elems);
      walk base next limit
    end
  in
  walk header.Record_format.context first (String.length record);
  List.iter (fun _ -> E.end_element engine) header.Record_format.path;
  List.filter_map
    (fun (item, value) ->
      match item with
      | Ancestor -> None
      | Node_item id -> Some (id, value, not (Hashtbl.mem incomplete id)))
    (E.finish_with_values engine)

let subtree_value store ~docid id =
  let buf = Buffer.create 64 in
  Doc_store.subtree_events store ~docid id (fun e ->
      match e.Doc_store.token with
      | Token.Text { content; _ } -> Buffer.add_string buf content
      | _ -> ());
  Buffer.contents buf

let keys_for_record t ~docid ~record ~store =
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
    (extract_record t ~record)

let rid_value rid =
  let w = Bytes_io.Writer.create ~capacity:6 () in
  Rx_storage.Rid.encode w rid;
  Bytes_io.Writer.contents w

let extract_keys t ~docid ~record ~store = keys_for_record t ~docid ~record ~store

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

let index_record t ~docid ~rid ~record ~store =
  insert_keys t ~docid ~rid (keys_for_record t ~docid ~record ~store)

let unindex_record t ~docid ~record ~store =
  List.iter
    (fun (typed, id) ->
      ignore (Rx_btree.Btree.delete t.tree (full_key t typed ~docid ~node:id)))
    (keys_for_record t ~docid ~record ~store)

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
