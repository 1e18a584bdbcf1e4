open Rx_util
open Rx_storage
open Rx_xml

type event = { id : Node_id.t option; token : Token.t }

type t = {
  pool : Buffer_pool.t;
  heap : Heap_file.t;
  index : Rx_btree.Btree.t;
  dict : Name_dict.t;
  threshold : int;
  policy : Packer.policy;
  mutable record_observers :
    (int * (docid:int -> rid:Rid.t -> record:string -> unit)) list;
  mutable delete_observers :
    (int * (docid:int -> rid:Rid.t -> record:string -> unit)) list;
  mutable next_observer : int;
  mutable doc_count : int;
  mutable record_bytes : int;
  (* tiny cache: the record most recently fetched, keyed by rid; atomic so
     concurrent scan domains can share it — entries are self-validating
     (checked against the requested rid), so a lost update only costs a
     re-read *)
  last_fetch : (Rid.t * string) option Atomic.t;
}

(* NodeID-index key: [Key_codec]'s int64 docid encoding (big-endian, sign
   bit flipped) followed by the absolute node ID, built in one buffer *)
let index_key docid node_id =
  let b = Bytes.create (8 + String.length node_id) in
  Bytes.set_int64_be b 0 (Int64.logxor (Int64.of_int docid) Int64.min_int);
  Bytes.blit_string node_id 0 b 8 (String.length node_id);
  Bytes.unsafe_to_string b

let key_docid key = Int64.to_int (Int64.logxor (String.get_int64_be key 0) Int64.min_int)

let rid_value rid =
  let w = Bytes_io.Writer.create ~capacity:6 () in
  Rid.encode w rid;
  Bytes_io.Writer.contents w

(* inverse of [rid_value]: a u32 page and a u16 slot *)
let rid_of_value v =
  Rid.make
    ~page:(Int32.to_int (String.get_int32_be v 0) land 0xffff_ffff)
    ~slot:(String.get_uint16_be v 4)

let make ?(record_threshold = 2048) ?(packing_policy = Packer.Largest_first) pool dict
    heap index =
  {
    pool; heap; index; dict; threshold = record_threshold; policy = packing_policy;
    record_observers = []; delete_observers = []; next_observer = 0; doc_count = 0;
    record_bytes = 0; last_fetch = Atomic.make None;
  }

let create ?record_threshold ?packing_policy pool dict =
  make ?record_threshold ?packing_policy pool dict (Heap_file.create pool)
    (Rx_btree.Btree.create pool)

let metrics t = Buffer_pool.metrics t.pool

(* One walk over the NodeID index: a document's first entry belongs to its
   root record, whose first inline node precedes all the others in
   document order. *)
let roots t =
  let acc = ref [] in
  Rx_btree.Btree.iter_range t.index (fun key value ->
      let docid = key_docid key in
      (match !acc with
      | (d, _) :: _ when d = docid -> ()
      | _ -> acc := (docid, rid_of_value value) :: !acc);
      `Continue);
  List.rev !acc

let attach ?record_threshold ?packing_policy pool dict ~heap_header ~index_meta =
  let t =
    make ?record_threshold ?packing_policy pool dict
      (Heap_file.attach pool ~header_page:heap_header)
      (Rx_btree.Btree.attach pool ~meta_page:index_meta)
  in
  t.doc_count <- List.length (roots t);
  t

let heap_header t = Heap_file.header_page t.heap
let index_meta t = Rx_btree.Btree.meta_page t.index
let dict t = t.dict

let fresh_observer_id t = t.next_observer <- t.next_observer + 1; t.next_observer

let add_record_observer t f =
  let id = fresh_observer_id t in
  t.record_observers <- t.record_observers @ [ (id, f) ];
  id

let add_delete_observer t f =
  let id = fresh_observer_id t in
  t.delete_observers <- t.delete_observers @ [ (id, f) ];
  id

let without id = List.filter (fun (i, _) -> i <> id)
let remove_record_observer t id = t.record_observers <- without id t.record_observers
let remove_delete_observer t id = t.delete_observers <- without id t.delete_observers

(* NodeID-index entries and space accounting of a stored record *)
let index_record t ~docid ~rid record =
  t.record_bytes <- t.record_bytes + String.length record;
  List.iter
    (fun endpoint ->
      Rx_btree.Btree.insert t.index ~key:(index_key docid endpoint) ~value:(rid_value rid))
    (Record_format.interval_endpoints record)

let store_record t ~docid record =
  let rid = Heap_file.insert t.heap record in
  index_record t ~docid ~rid record;
  List.iter (fun (_, f) -> f ~docid ~rid ~record) t.record_observers

let insert_tokens t ~docid tokens =
  Packer.pack ~policy:t.policy ~threshold:t.threshold
    ~emit:(fun ~record -> store_record t ~docid record)
    tokens;
  t.doc_count <- t.doc_count + 1

let insert_tokens_bulk t docs =
  (* Pack every document first, collecting (docid, record) in emit order,
     then place the whole batch in the heap in one pass so the free-space
     map is probed per page rather than per record. *)
  let staged = ref [] in
  List.iter
    (fun (docid, tokens) ->
      Packer.pack ~policy:t.policy ~threshold:t.threshold
        ~emit:(fun ~record -> staged := (docid, record) :: !staged)
        tokens)
    docs;
  let staged = List.rev !staged in
  let rids = Heap_file.insert_many t.heap (List.map snd staged) in
  let triples =
    List.map2
      (fun (docid, record) rid ->
        index_record t ~docid ~rid record;
        (docid, rid, record))
      staged rids
  in
  t.doc_count <- t.doc_count + List.length docs;
  triples

let insert_document t ~docid src = insert_tokens t ~docid (Parser.parse t.dict src)

let fetch t rid =
  match Atomic.get t.last_fetch with
  | Some (r, data) when Rid.equal r rid -> data
  | _ ->
      let data = Heap_file.read t.heap rid in
      Atomic.set t.last_fetch (Some (rid, data));
      data

(* The record of the first index entry at or after (docid, node_id); None
   if the next entry belongs to another document. *)
let seek t ~docid node_id =
  let result = ref None in
  Rx_btree.Btree.iter_range t.index ~lo:(index_key docid node_id) (fun key value ->
      if key_docid key = docid then result := Some (rid_of_value value);
      `Stop);
  !result

let mem t ~docid = Option.is_some (seek t Node_id.root ~docid)

(* The document's NodeID-index keys and its distinct records' RIDs. *)
let index_entries t ~docid =
  let keys = ref [] and rids = Hashtbl.create 8 in
  Rx_btree.Btree.iter_prefix t.index ~prefix:(index_key docid Node_id.root) (fun key value ->
      keys := key :: !keys;
      Hashtbl.replace rids (rid_of_value value) ();
      `Continue);
  (!keys, Hashtbl.fold (fun rid () acc -> rid :: acc) rids [])

let delete_document t ~docid =
  let keys, rids = index_entries t ~docid in
  if keys = [] then invalid_arg (Printf.sprintf "Doc_store: no document %d" docid);
  (* observers run while the NodeID index is still intact so they can
     traverse the document (e.g. to recompute split-subtree values) *)
  let records = List.map (fun rid -> (rid, Heap_file.read t.heap rid)) rids in
  List.iter
    (fun (rid, record) -> List.iter (fun (_, f) -> f ~docid ~rid ~record) t.delete_observers)
    records;
  List.iter (fun key -> ignore (Rx_btree.Btree.delete t.index key)) keys;
  List.iter
    (fun (rid, record) ->
      t.record_bytes <- t.record_bytes - String.length record;
      Heap_file.delete t.heap rid)
    records;
  Atomic.set t.last_fetch None;
  t.doc_count <- t.doc_count - 1

(* --- reading in place (§4 virtual SAX) --- *)

module R = Record_format

(* Put [c] on the top-level entry for node [abs] in the record occupying
   [\[off, limit)] of [record], the one the NodeID index names for it. *)
let enter c record off ~limit abs =
  let first = R.read_header c record off ~limit in
  let ctx = c.R.ctx_len in
  if ctx > String.length abs then invalid_arg "Doc_store: proxy target not in record";
  let rel = String.sub abs ctx (String.length abs - ctx) in
  let rec find off =
    if off >= limit then invalid_arg "Doc_store: proxy target not in record";
    R.read c record off ~limit;
    if not (String.equal (R.rel c) rel) then find c.R.next
  in
  find first

let proxy_rid t ~docid abs =
  match seek t ~docid abs with
  | None -> invalid_arg "Doc_store: dangling proxy"
  | Some rid -> rid

(* Resolve a proxy onto a fetched copy of the record that stores its
   subtree inline: [c] may outlive the call (subtree and cursor paths). *)
let resolve t ~docid c abs =
  let record = fetch t (proxy_rid t ~docid abs) in
  enter c record 0 ~limit:(String.length record) abs

(* If [c] is on a proxy, move it to the entry the proxy stands for; returns
   the namespaces in scope there, [ns] when [c] is not on a proxy. *)
let follow t ~docid c abs ns =
  if c.R.kind <> R.K_proxy then ns else (resolve t ~docid c abs; R.header_ns c)

(* [sink] with every proxy followed into the record holding its subtree,
   which is walked in place from its pinned page *)
let resolving t ~docid (sink : R.sink) =
  let rec full = { sink with R.proxy = follow_proxy }
  and follow_proxy c =
    let abs = R.node_id c in
    Heap_file.with_record t.heap (proxy_rid t ~docid abs) (fun record off len ->
        enter c record off ~limit:(off + len) abs;
        if c.R.kind = R.K_proxy then invalid_arg "Doc_store: proxy chain";
        R.dispatch c full)
  in
  full

let root_rid t ~docid =
  match seek t ~docid Node_id.root with
  | None -> invalid_arg (Printf.sprintf "Doc_store: no document %d" docid)
  | Some rid -> rid

(* The one whole-document walk: the root record read in place from its
   pinned page, so no sink may keep [c.record] after its callback returns. *)
let scan ?root t ~docid c sink =
  let rid = match root with Some rid -> rid | None -> root_rid t ~docid in
  Heap_file.with_record t.heap rid (fun record off len ->
      let limit = off + len in
      let first = R.read_header c record off ~limit in
      if c.R.ctx_len <> 0 then invalid_arg "Doc_store: root record has non-root context";
      R.start c ~base:Node_id.root;
      R.walk c (resolving t ~docid sink) record first limit)

let override inner outer =
  inner @ List.filter (fun (p, _) -> not (List.mem_assoc p inner)) outer

(* Put [c] on the entry of [target] as its parent's children list stores it
   (a proxy when the subtree lives in another record), with the parent as
   base. Returns the namespaces in scope at the parent: the header list of
   the record holding that list, overridden by the declarations of its
   elements on the way down (what makes records self-contained). *)
let locate t ~docid c target =
  match if Node_id.is_root target then None else seek t ~docid target with
  | None -> None
  | Some rid ->
      let record = fetch t rid in
      let first = R.read_header c record 0 ~limit:(String.length record) in
      let context = R.context c in
      if not (Node_id.is_ancestor_or_self ~ancestor:context target) then None
      else begin
        let rec descend record off limit ns abs = function
          | [] -> None
          | comp :: rest ->
              let rec find off =
                off < limit
                && (R.read c record off ~limit;
                    String.equal (R.rel c) comp || find c.R.next)
              in
              if not (find off) then None
              else if rest = [] then begin
                R.start c ~base:abs;
                Some ns
              end
              else begin
                let abs = Node_id.append abs comp in
                let ns = follow t ~docid c abs ns in
                if c.R.kind <> R.K_element then None
                else descend c.R.record c.R.children_off c.R.next (override (R.ns_decls c) ns) abs rest
              end
        in
        let ctx = String.length context in
        descend record first (String.length record) (R.header_ns c) context
          (Node_id.components (String.sub target ctx (String.length target - ctx)))
      end

(* An element's own namespace declarations; the first element a sink sees
   (a subtree's root) also carries [inherited], those of its ancestors. *)
let decls_with inherited =
  let first = ref true in
  fun c ->
    let own = R.ns_decls c in
    if !first then begin
      first := false;
      override own inherited
    end
    else own

let token_sink ?(inherited = []) f =
  let decls = decls_with inherited in
  let element c =
    let el = { Token.name = R.qname c; attrs = R.attrs c; ns_decls = decls c } in
    f { id = Some (R.node_id c); token = Token.Start_element el }
  in
  let leaf (c : R.cursor) =
    let content = R.str c in
    let token =
      match c.kind with
      | R.K_text -> Token.Text { content; annot = R.text_annot c }
      | R.K_comment -> Token.Comment content
      | _ -> Token.Pi { target = R.target c; data = content }
    in
    f { id = Some (R.node_id c); token }
  in
  let end_element _ = f { id = None; token = Token.End_element } in
  { R.element; end_element; leaf; proxy = ignore }

(* Writes markup straight from the record bytes with the serializer's own
   writers, so the output equals Serializer.to_string over the tokens. *)
let serializer dict buf ~inherited =
  let decls = decls_with inherited in
  let element (c : R.cursor) =
    Serializer.add_start_tag dict buf ~prefix:c.prefix ~local:c.local (decls c);
    R.first_attr c;
    for _ = 1 to c.n_attrs do
      R.next_attr c;
      Serializer.add_attribute dict buf ~prefix:c.a_prefix ~local:c.a_local c.record c.a_off
        c.a_len
    done;
    Buffer.add_string buf (if R.has_children c then ">" else "/>")
  in
  let end_element (c : R.cursor) =
    if R.has_children c then Serializer.add_end_tag dict buf ~prefix:c.prefix ~local:c.local
  in
  let leaf (c : R.cursor) =
    match c.kind with
    | R.K_text -> Serializer.add_escaped buf ~attr:false c.record c.str_off c.str_len
    | R.K_comment -> Serializer.add_comment buf c.record c.str_off c.str_len
    | _ -> Serializer.add_pi buf c.record c.target_off c.target_len c.record c.str_off c.str_len
  in
  { R.element; end_element; leaf; proxy = ignore }

let events t ~docid f =
  let root = root_rid t ~docid in
  f { id = None; token = Token.Start_document };
  scan ~root t ~docid (R.create_cursor ()) (token_sink f);
  f { id = None; token = Token.End_document }

let subtree t ~docid node_id c sink =
  match locate t ~docid c node_id with
  | None -> invalid_arg "Doc_store: subtree node not found"
  | Some ns -> R.dispatch c (resolving t ~docid (sink (follow t ~docid c node_id ns)))

let scan_subtree t ~docid node_id c sink = subtree t ~docid node_id c (fun _ -> sink)

let subtree_events t ~docid node_id f =
  subtree t ~docid node_id (R.create_cursor ()) (fun inherited -> token_sink ~inherited f)

let serialize_subtree t ~docid node_id =
  let buf = Buffer.create 256 in
  subtree t ~docid node_id (R.create_cursor ()) (fun inherited ->
      serializer t.dict buf ~inherited);
  Buffer.contents buf

let serialize t ~docid =
  let buf = Buffer.create 1024 in
  scan t ~docid (R.create_cursor ()) (serializer t.dict buf ~inherited:[]);
  Buffer.contents buf

let set_readahead t n =
  Heap_file.set_readahead t.heap n;
  Rx_btree.Btree.set_readahead t.index n

(* --- sub-document updates --- *)

type position = Before of Node_id.t | After of Node_id.t | Last_child_of of Node_id.t

(* Replace record [rid] (image [old_record]) with the re-encoded [nodes];
   an empty node list reclaims the record. NodeID-index entries and value
   indexes are maintained through the usual per-record paths. *)
let rewrite_record t ~docid ~rid ~old_record header nodes =
  List.iter (fun (_, f) -> f ~docid ~rid ~record:old_record) t.delete_observers;
  List.iter
    (fun endpoint ->
      ignore (Rx_btree.Btree.delete t.index (index_key docid endpoint)))
    (Record_format.interval_endpoints old_record);
  t.record_bytes <- t.record_bytes - String.length old_record;
  Atomic.set t.last_fetch None;
  if nodes = [] then Heap_file.delete t.heap rid
  else begin
    let record = Record_tree.encode header nodes in
    let rid' = Heap_file.update t.heap rid record in
    index_record t ~docid ~rid:rid' record;
    List.iter (fun (_, f) -> f ~docid ~rid:rid' ~record) t.record_observers
  end

(* The record where [abs] is stored inline (the root record for the
   document node), its decoded form, and the relative path of [abs] under
   the record's context. *)
let locate_inline t ~docid abs =
  match seek t ~docid abs with
  | None -> None
  | Some rid ->
      let record = fetch t rid in
      let header, _ = Record_format.decode_header record in
      let context = header.Record_format.context in
      if not (Node_id.is_ancestor_or_self ~ancestor:context abs) then None
      else begin
        let rel_path =
          Node_id.components
            (String.sub abs (String.length context)
               (String.length abs - String.length context))
        in
        let _, nodes = Record_tree.decode record in
        Some (rid, record, header, nodes, rel_path)
      end

(* Remove the entry at [path] under the located record's relative path,
   then chase any proxies the removed subtree contained. *)
let rec remove_entry t ~docid located ~parent_abs path ~not_found =
  match located with
  | None -> invalid_arg not_found
  | Some (rid, record, header, nodes, rel_path) -> (
      let removed = ref None in
      match
        Record_tree.map_subtree nodes (rel_path @ path) (function
          | Some e ->
              removed := Some e;
              []
          | None -> [])
      with
      | Some nodes' when !removed <> None ->
          rewrite_record t ~docid ~rid ~old_record:record header nodes';
          List.iter
            (fun ppath -> purge_subtree t ~docid (parent_abs ^ String.concat "" ppath))
            (Record_tree.collect_proxies (Option.get !removed))
      | _ -> invalid_arg not_found)

(* Remove [abs]'s subtree from the record where it is inline. *)
and purge_subtree t ~docid abs =
  remove_entry t ~docid (locate_inline t ~docid abs) []
    ~parent_abs:(Option.value ~default:Node_id.root (Node_id.parent abs))
    ~not_found:"Doc_store: node to purge not found"

let delete_subtree t ~docid node_id =
  if Node_id.is_root node_id then
    invalid_arg "Doc_store.delete_subtree: cannot delete the document node";
  (* the entry as listed in its parent's record, a proxy or not *)
  let parent_abs = Option.value ~default:Node_id.root (Node_id.parent node_id) in
  remove_entry t ~docid (locate_inline t ~docid parent_abs) ~parent_abs
    [ Option.get (Node_id.last_component node_id) ]
    ~not_found:"Doc_store.delete_subtree: node not found"

let update_text t ~docid node_id content =
  let not_found () = invalid_arg "Doc_store.update_text: node not found" in
  match locate_inline t ~docid node_id with
  | None -> not_found ()
  | Some (rid, record, header, nodes, rel_path) -> (
      let edit = function
        | Some (Record_tree.Text te) -> [ Record_tree.Text { te with content } ]
        | Some _ -> invalid_arg "Doc_store.update_text: not a text node"
        | None -> not_found ()
      in
      match Record_tree.map_subtree nodes rel_path edit with
      | Some nodes' -> rewrite_record t ~docid ~rid ~old_record:record header nodes'
      | None -> not_found ())

(* count the top-level nodes of a balanced fragment *)
let top_level_count tokens =
  let depth, count =
    List.fold_left
      (fun (depth, count) token ->
        let top = if depth = 0 then count + 1 else count in
        match token with
        | Token.Start_document | Token.End_document -> (depth, count)
        | Token.Start_element _ -> (depth + 1, top)
        | Token.End_element -> (depth - 1, count)
        | Token.Text _ | Token.Comment _ | Token.Pi _ -> (depth, top))
      (0, 0) tokens
  in
  if depth <> 0 then invalid_arg "Doc_store.insert_fragment: unbalanced fragment";
  count

(* fresh relative ids strictly between [lo] and [hi] (either optional) *)
let fresh_rels ~lo ~hi n =
  let rec gen step cur n acc = if n = 0 then acc else let r = step cur in gen step r (n - 1) (r :: acc) in
  match (lo, hi) with
  | Some lo, Some hi -> List.rev (gen (fun cur -> Node_id.between_rel cur hi) lo n [])
  | Some lo, None -> List.rev (gen Node_id.next_sibling_rel lo n [])
  | None, Some hi -> (* generated backwards, closest to hi last *) gen Node_id.before_rel hi n []
  | None, None -> List.init n Node_id.nth_sibling_rel

let insert_fragment t ~docid position tokens =
  let fail what = invalid_arg ("Doc_store.insert_fragment: " ^ what) in
  let n = top_level_count tokens in
  if n = 0 then fail "empty fragment";
  let parent_abs, anchor =
    match position with
    | Before anchor | After anchor ->
        if Node_id.is_root anchor then fail "anchor cannot be the document";
        ( Option.value ~default:Node_id.root (Node_id.parent anchor),
          Node_id.last_component anchor )
    | Last_child_of parent -> (parent, None)
  in
  match locate_inline t ~docid parent_abs with
  | None -> fail "parent not found"
  | Some (rid, record, header, nodes, parent_path) ->
      (* the parent's child list gives the neighbours' relative ids *)
      let children = ref (if parent_path = [] then Some nodes else None) in
      ignore
        (Record_tree.map_subtree nodes parent_path (function
          | Some (Record_tree.Element { children = c; _ } as e) ->
              children := Some c;
              [ e ]
          | e -> Option.to_list e));
      let rels =
        match !children with
        | None -> fail "parent is not an element"
        | Some c -> List.map Record_tree.node_rel c
      in
      (* siblings before the anchor (nearest first) and after it *)
      let rec split before = function
        | r :: rest when Some r = anchor -> Some (before, rest)
        | r :: rest -> split (r :: before) rest
        | [] -> None
      in
      let lo, hi =
        match (position, split [] rels) with
        | Last_child_of _, _ -> (List.nth_opt (List.rev rels) 0, None)
        | _, None -> fail "anchor not found"
        | Before _, Some (before, _) -> (List.nth_opt before 0, anchor)
        | After _, Some (_, after) -> (anchor, List.nth_opt after 0)
      in
      let rels = fresh_rels ~lo ~hi n in
      let fresh_nodes = Record_tree.of_tokens ~base_rel:rels tokens in
      (* map_subtree inserts at the sorted position among the siblings when
         the path's last component is missing: the first fresh rel is *)
      (match
         Record_tree.map_subtree nodes (parent_path @ [ List.hd rels ]) (function
           | Some _ -> fail "id collision"
           | None -> fresh_nodes)
       with
      | Some nodes' -> rewrite_record t ~docid ~rid ~old_record:record header nodes'
      | None -> fail "parent not found");
      List.map (fun rel -> Node_id.append parent_abs rel) rels

let iter_records t ~docid f =
  List.iter (fun rid -> f ~rid ~record:(Heap_file.read t.heap rid)) (snd (index_entries t ~docid))

let tokens t ~docid =
  let acc = ref [] in
  events t ~docid (fun e -> acc := e.token :: !acc);
  List.rev !acc

(* --- cursor --- *)

module Cursor = struct
  (* A cursor points at an entry's position in its parent's children list:
     [record], [off] and [limit] locate it as stored (a proxy when the
     subtree lives in another record); [resolved] locates the entry itself. *)
  type cursor = {
    docid : int; record : string; off : int; limit : int;
    base : Node_id.t; rel : Node_id.rel; resolved : string * int;
  }

  let make t ~docid ~record ~off ~limit ~base =
    let c = R.create_cursor () in
    R.read c record off ~limit;
    let rel = R.rel c in
    if c.R.kind = R.K_proxy then resolve t ~docid c (Node_id.append base rel);
    { docid; record; off; limit; base; rel; resolved = (c.R.record, c.R.off) }

  let node_id c = Node_id.append c.base c.rel
  let entry c = Record_tree.decode_node (fst c.resolved) (snd c.resolved)

  (* a fresh record cursor on the entry at [off] *)
  let read record off ~limit =
    let c = R.create_cursor () in
    R.read c record off ~limit;
    c

  let root t ~docid =
    match seek t ~docid Node_id.root with
    | None -> None
    | Some rid ->
        let record = fetch t rid and c = R.create_cursor () in
        let first = R.read_header c record 0 ~limit:(String.length record) in
        if c.R.ctx_len <> 0 then invalid_arg "Doc_store: root record has non-root context";
        if first >= String.length record then None
        else
          Some
            (make t ~docid ~record ~off:first ~limit:(String.length record)
               ~base:Node_id.root)

  let first_child t c =
    let record, off = c.resolved in
    let rc = read record off ~limit:(String.length record) in
    if rc.R.kind = R.K_element && R.has_children rc then
      Some (make t ~docid:c.docid ~record ~off:rc.R.children_off ~limit:rc.R.next ~base:(node_id c))
    else None

  let next_sibling t c =
    let next = (read c.record c.off ~limit:c.limit).R.next in
    if next < c.limit then
      Some (make t ~docid:c.docid ~record:c.record ~off:next ~limit:c.limit ~base:c.base)
    else None

  let find t ~docid target =
    let c = R.create_cursor () in
    match locate t ~docid c target with
    | None -> None
    | Some _ -> Some (make t ~docid ~record:c.R.record ~off:c.R.off ~limit:c.R.lim ~base:c.R.base)

  let parent t ~docid c =
    match Node_id.parent (node_id c) with
    | None | Some "" -> None
    | Some pid -> find t ~docid pid
end

type stats = {
  documents : int;
  records : int;
  index_entries : int;
  data_pages : int;
  overflow_pages : int;
  index_pages : int;
  record_bytes : int;
}

let data_page_count t = Heap_file.data_pages t.heap

let stats t =
  {
    documents = t.doc_count;
    records = Heap_file.record_count t.heap;
    index_entries = Rx_btree.Btree.entry_count t.index;
    data_pages = Heap_file.data_pages t.heap;
    overflow_pages = Heap_file.overflow_pages t.heap;
    index_pages = Rx_btree.Btree.page_count t.index;
    record_bytes = t.record_bytes;
  }
