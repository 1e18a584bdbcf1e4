open Rx_util
open Rx_xml
open Rx_xmlstore

type t = { tree : Rx_btree.Btree.t }

type posting = {
  term : string;
  docid : int;
  node : Node_id.t;
  rid : Rx_storage.Rid.t;
}

let min_term_len = 2

let tokenize s =
  let terms = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf >= min_term_len then
      terms := String.lowercase_ascii (Buffer.contents buf) :: !terms;
    Buffer.clear buf
  in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Buffer.add_char buf c
      | _ -> flush ())
    s;
  flush ();
  List.rev !terms

let create pool = { tree = Rx_btree.Btree.create pool }
let attach pool ~meta_page = { tree = Rx_btree.Btree.attach pool ~meta_page }
let meta_page t = Rx_btree.Btree.meta_page t.tree

(* key: escaped term, docid, raw node id; value: rid + occurrence count *)
let posting_key term ~docid ~node =
  let buf = Buffer.create 24 in
  Key_codec.encode_string buf term;
  Key_codec.encode_int64 buf (Int64.of_int docid);
  Buffer.add_string buf node;
  Buffer.contents buf

let decode_posting key value =
  let term, pos = Key_codec.decode_string key 0 in
  let docid, pos = Key_codec.decode_int64 key pos in
  let node = String.sub key pos (String.length key - pos) in
  let r = Bytes_io.Reader.of_string value in
  let rid = Rx_storage.Rid.decode r in
  let count = Bytes_io.Reader.varint r in
  ({ term; docid = Int64.to_int docid; node; rid }, count)

let posting_value rid count =
  let w = Bytes_io.Writer.create ~capacity:8 () in
  Rx_storage.Rid.encode w rid;
  Bytes_io.Writer.varint w count;
  Bytes_io.Writer.contents w

(* per-record term extraction: (term, text-or-element node id, count) *)
let record_terms ~record =
  let counts = Hashtbl.create 16 in
  let bump term node =
    let key = (term, node) in
    Hashtbl.replace counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
  in
  let module R = Record_format in
  let element (c : R.cursor) =
    if c.n_attrs > 0 then begin
      let node = R.node_id c in
      List.iter
        (fun (a : Token.attr) -> List.iter (fun term -> bump term node) (tokenize a.Token.value))
        (R.attrs c)
    end
  in
  let leaf (c : R.cursor) =
    if c.kind = R.K_text then begin
      let node = R.node_id c in
      List.iter (fun term -> bump term node) (tokenize (R.str c))
    end
  in
  R.walk_record (R.create_cursor ()) { R.element; end_element = ignore; leaf; proxy = ignore } record;
  Hashtbl.fold (fun (term, node) count acc -> (term, node, count) :: acc) counts []

let index_record t ~docid ~rid ~record =
  List.iter
    (fun (term, node, count) ->
      Rx_btree.Btree.insert t.tree
        ~key:(posting_key term ~docid ~node)
        ~value:(posting_value rid count))
    (record_terms ~record)

let unindex_record t ~docid ~record =
  List.iter
    (fun (term, node, _) ->
      ignore (Rx_btree.Btree.delete t.tree (posting_key term ~docid ~node)))
    (record_terms ~record)

let hook t store =
  ignore
    (Doc_store.add_record_observer store (fun ~docid ~rid ~record ->
         index_record t ~docid ~rid ~record));
  ignore
    (Doc_store.add_delete_observer store (fun ~docid ~rid:_ ~record ->
         unindex_record t ~docid ~record))

let term_prefix term =
  let buf = Buffer.create 16 in
  Key_codec.encode_string buf (String.lowercase_ascii term);
  Buffer.contents buf

let postings t ~term =
  let acc = ref [] in
  Rx_btree.Btree.iter_prefix t.tree ~prefix:(term_prefix term) (fun key value ->
      acc := fst (decode_posting key value) :: !acc;
      `Continue);
  List.rev !acc

let docs_with_term t ~term =
  let acc = ref [] in
  Rx_btree.Btree.iter_prefix t.tree ~prefix:(term_prefix term) (fun key value ->
      let p, _ = decode_posting key value in
      (match !acc with
      | d :: _ when d = p.docid -> ()
      | _ -> acc := p.docid :: !acc);
      `Continue);
  List.rev !acc

let rec merge_and a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: xs, y :: ys ->
      if x = y then x :: merge_and xs ys
      else if x < y then merge_and xs (y :: ys)
      else merge_and (x :: xs) ys

let rec merge_or a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | x :: xs, y :: ys ->
      if x = y then x :: merge_or xs ys
      else if x < y then x :: merge_or xs (y :: ys)
      else y :: merge_or (x :: xs) ys

let docs_with_all t ~terms =
  match List.map (fun term -> docs_with_term t ~term) terms with
  | [] -> []
  | first :: rest -> List.fold_left merge_and first rest

let docs_with_any t ~terms =
  List.fold_left (fun acc term -> merge_or acc (docs_with_term t ~term)) [] terms

let doc_term_count t ~term ~docid =
  let prefix =
    let buf = Buffer.create 24 in
    Key_codec.encode_string buf (String.lowercase_ascii term);
    Key_codec.encode_int64 buf (Int64.of_int docid);
    Buffer.contents buf
  in
  let total = ref 0 in
  Rx_btree.Btree.iter_prefix t.tree ~prefix (fun key value ->
      let _, count = decode_posting key value in
      total := !total + count;
      `Continue);
  !total

let entry_count t = Rx_btree.Btree.entry_count t.tree
