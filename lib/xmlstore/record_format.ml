open Rx_util
open Rx_xml

type header = {
  context : Node_id.t;
  path : (int * int) list;
  ns_in_scope : (int * int) list;
  n_subtrees : int;
}

module W = Bytes_io.Writer

let encode_pairs w pairs =
  W.varint w (List.length pairs);
  List.iter (fun (a, b) -> W.varint w a; W.varint w b) pairs

let encode_header w h =
  W.lstring w h.context;
  encode_pairs w h.path;
  encode_pairs w h.ns_in_scope;
  W.varint w h.n_subtrees

let tag_element = 1 and tag_text = 2 and tag_comment = 3 and tag_pi = 4 and tag_proxy = 5
let encode_qname w (q : Qname.t) = W.varint w q.uri; W.varint w q.local; W.varint w q.prefix

let encode_element_prefix w ~rel ~name ~attrs ~ns_decls ~n_children ~children_len =
  W.u8 w tag_element;
  W.lstring w rel;
  encode_qname w name;
  W.varint w (List.length attrs);
  List.iter
    (fun (a : Token.attr) ->
      encode_qname w a.name;
      W.lstring w a.value;
      Token_stream.encode_annot w a.annot)
    attrs;
  encode_pairs w ns_decls;
  W.varint w n_children;
  W.varint w children_len

let encode_text w ~rel ~annot content =
  W.u8 w tag_text; W.lstring w rel; W.lstring w content; Token_stream.encode_annot w annot

let encode_comment w ~rel content = W.u8 w tag_comment; W.lstring w rel; W.lstring w content
let encode_pi w ~rel ~target ~data = W.u8 w tag_pi; W.lstring w rel; W.lstring w target; W.lstring w data
let encode_proxy w ~rel = W.u8 w tag_proxy; W.lstring w rel

(* --- reading in place: one mutable cursor per scan (see the interface) --- *)

type kind = K_element | K_text | K_comment | K_pi | K_proxy

type cursor = {
  mutable record : string;
  mutable pos : int; (* read position *)
  mutable lim : int; (* bound of the entry being read *)
  mutable off : int; (* start of the current entry *)
  mutable kind : kind;
  mutable rel_off : int; mutable rel_len : int;
  mutable uri : int; mutable local : int; mutable prefix : int;
  mutable n_attrs : int; mutable attrs_off : int; mutable ns_off : int;
  mutable children_off : int;
  mutable str_off : int; mutable str_len : int; (* text or comment content, PI data *)
  mutable target_off : int; mutable target_len : int; (* PI target *)
  mutable annot_off : int;
  mutable next : int; (* just past the entry, children included *)
  mutable attr_next : int; (* the attribute [next_attr] reads *)
  mutable a_uri : int; mutable a_local : int; mutable a_prefix : int;
  mutable a_off : int; mutable a_len : int; mutable a_annot : int;
  mutable ctx_off : int; mutable ctx_len : int; mutable hns_off : int; (* header *)
  mutable skip : bool; (* set by a sink: do not walk this element's children *)
  (* the open ancestors below [base], for node IDs built on demand *)
  mutable base : Node_id.t;
  mutable depth : int;
  mutable anc_records : string array;
  mutable anc_rel_off : int array;
  mutable anc_rel_len : int array;
}

let create_cursor () =
  {
    record = ""; pos = 0; lim = 0; off = 0; kind = K_proxy; rel_off = 0; rel_len = 0;
    uri = 0; local = 0; prefix = 0; n_attrs = 0; attrs_off = 0; ns_off = 0;
    children_off = 0; str_off = 0; str_len = 0; target_off = 0; target_len = 0;
    annot_off = 0; next = 0; attr_next = 0; a_uri = 0; a_local = 0; a_prefix = 0;
    a_off = 0; a_len = 0; a_annot = 0; ctx_off = 0; ctx_len = 0; hns_off = 0; skip = false;
    base = Node_id.root; depth = 0; anc_records = Array.make 16 "";
    anc_rel_off = Array.make 16 0; anc_rel_len = Array.make 16 0;
  }

let corrupt what pos =
  invalid_arg (Printf.sprintf "Record_format: %s at offset %d" what pos)

(* Every read checks [pos] against [lim] first; [lim] never exceeds the
   record's length, so the unchecked byte access after it is in bounds. *)
let[@inline] byte c =
  let p = c.pos in
  if p < 0 || p >= c.lim then corrupt "truncated entry" p;
  c.pos <- p + 1;
  Char.code (String.unsafe_get c.record p)

(* LEB128, as [Varint.write] produces it; nine bytes at most *)
let rec varint_from c p shift acc =
  if p >= c.lim then corrupt "truncated varint" p;
  let b = Char.code (String.unsafe_get c.record p) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if b < 0x80 then (c.pos <- p + 1; acc)
  else if shift >= 56 then corrupt "overlong varint" p
  else varint_from c (p + 1) (shift + 7) acc

let[@inline] varint c =
  let p = c.pos in
  if p < 0 || p >= c.lim then corrupt "truncated varint" p;
  let b = Char.code (String.unsafe_get c.record p) in
  if b < 0x80 then (c.pos <- p + 1; b) else varint_from c p 0 0

let[@inline] skip c n =
  if n < 0 || n > c.lim - c.pos then corrupt "length out of bounds" c.pos;
  c.pos <- c.pos + n

(* steps over a length-prefixed string; it starts at [c.pos - length] *)
let[@inline] span c = let n = varint c in skip c n; n

let skip_annot c =
  match byte c with
  | 0 -> ()
  | 1 | 3 -> ignore (span c)
  | 2 | 4 -> skip c 8
  | 5 -> skip c 1
  | 6 -> skip c 4
  | n -> corrupt (Printf.sprintf "bad annotation tag %d" n) (c.pos - 1)

let skip_pairs c =
  for _ = 1 to varint c do ignore (varint c); ignore (varint c) done

let pairs c =
  let rec go k acc = if k <= 0 then List.rev acc else let a = varint c in go (k - 1) ((a, varint c) :: acc) in
  go (varint c) []

let next_attr c =
  c.pos <- c.attr_next;
  c.a_uri <- varint c; c.a_local <- varint c; c.a_prefix <- varint c;
  let n = span c in
  c.a_off <- c.pos - n; c.a_len <- n; c.a_annot <- c.pos;
  skip_annot c;
  c.attr_next <- c.pos

let read c record off ~limit =
  if c.record != record then c.record <- record;
  c.lim <- (if limit < String.length record then limit else String.length record);
  c.pos <- off;
  c.off <- off;
  let tag = byte c in
  let n = span c in
  if n = 0 then corrupt "empty node id" off;
  c.rel_off <- c.pos - n; c.rel_len <- n;
  if tag = tag_element then begin
    c.kind <- K_element;
    c.uri <- varint c; c.local <- varint c; c.prefix <- varint c;
    c.n_attrs <- varint c;
    c.attrs_off <- c.pos;
    c.attr_next <- c.pos;
    for _ = 1 to c.n_attrs do next_attr c done;
    c.attr_next <- c.attrs_off;
    c.ns_off <- c.pos;
    skip_pairs c;
    ignore (varint c) (* the child count: the children's byte length delimits them *);
    let n = span c in
    c.children_off <- c.pos - n
  end
  else if tag = tag_text || tag = tag_comment then begin
    c.kind <- (if tag = tag_text then K_text else K_comment);
    let n = span c in
    c.str_off <- c.pos - n; c.str_len <- n; c.annot_off <- c.pos;
    if tag = tag_text then skip_annot c
  end
  else if tag = tag_pi then begin
    c.kind <- K_pi;
    let n = span c in
    c.target_off <- c.pos - n; c.target_len <- n;
    let n = span c in
    c.str_off <- c.pos - n; c.str_len <- n
  end
  else if tag = tag_proxy then c.kind <- K_proxy
  else corrupt (Printf.sprintf "bad entry tag %d" tag) off;
  c.next <- c.pos

let read_header c record off ~limit =
  c.record <- record;
  c.lim <- (if limit < String.length record then limit else String.length record);
  c.pos <- off;
  let n = span c in
  c.ctx_off <- c.pos - n; c.ctx_len <- n;
  skip_pairs c;
  c.hns_off <- c.pos;
  skip_pairs c;
  ignore (varint c);
  c.pos

let context c = String.sub c.record c.ctx_off c.ctx_len
let header_ns c = c.pos <- c.hns_off; pairs c
let start c ~base = c.base <- base; c.depth <- 0

let push c =
  if c.depth = Array.length c.anc_records then begin
    let grow a = Array.append a a in
    c.anc_records <- grow c.anc_records;
    c.anc_rel_off <- grow c.anc_rel_off;
    c.anc_rel_len <- grow c.anc_rel_len
  end;
  c.anc_records.(c.depth) <- c.record;
  c.anc_rel_off.(c.depth) <- c.rel_off; c.anc_rel_len.(c.depth) <- c.rel_len;
  c.depth <- c.depth + 1

let pop c = c.depth <- c.depth - 1

let node_id c =
  let base = String.length c.base in
  let len = ref (base + c.rel_len) in
  for i = 0 to c.depth - 1 do
    len := !len + c.anc_rel_len.(i)
  done;
  let b = Bytes.create !len in
  Bytes.blit_string c.base 0 b 0 base;
  let pos = ref base in
  for i = 0 to c.depth - 1 do
    Bytes.blit_string c.anc_records.(i) c.anc_rel_off.(i) b !pos c.anc_rel_len.(i);
    pos := !pos + c.anc_rel_len.(i)
  done;
  Bytes.blit_string c.record c.rel_off b !pos c.rel_len;
  Bytes.unsafe_to_string b

let rel c = String.sub c.record c.rel_off c.rel_len
let qname c = { Qname.uri = c.uri; local = c.local; prefix = c.prefix }
let first_attr c = c.attr_next <- c.attrs_off
let skip_children c = c.skip <- true
let has_children c = c.next > c.children_off
let str c = String.sub c.record c.str_off c.str_len
let target c = String.sub c.record c.target_off c.target_len

let ns_decls c = c.pos <- c.ns_off; pairs c

let annot_at c off =
  try Token_stream.decode_annot (Bytes_io.Reader.of_string ~pos:off c.record)
  with Invalid_argument _ -> corrupt "bad annotation" off
let text_annot c = annot_at c c.annot_off

let attrs c =
  first_attr c;
  let rec go k acc =
    if k <= 0 then List.rev acc
    else begin
      next_attr c;
      let name = { Qname.uri = c.a_uri; local = c.a_local; prefix = c.a_prefix } in
      let value = String.sub c.record c.a_off c.a_len in
      go (k - 1) ({ Token.name; value; annot = annot_at c c.a_annot } :: acc)
    end
  in
  let attrs = go c.n_attrs [] in
  first_attr c;
  attrs

let decode_header record =
  let c = create_cursor () in
  let first = read_header c record 0 ~limit:(String.length record) in
  c.pos <- c.ctx_off + c.ctx_len;
  let path = pairs c in
  let ns_in_scope = pairs c in
  ({ context = context c; path; ns_in_scope; n_subtrees = varint c }, first)

(* --- document-order walks --- *)

type sink = {
  element : cursor -> unit;
  end_element : cursor -> unit;
  leaf : cursor -> unit;
  proxy : cursor -> unit;
}

let rec walk c sink record off limit =
  if off < limit then begin
    read c record off ~limit;
    let next = c.next in
    dispatch c sink;
    walk c sink record next limit
  end

and dispatch c sink =
  match c.kind with
  | K_element ->
      sink.element c;
      if c.skip then c.skip <- false
      else if has_children c then begin
        let record = c.record and off = c.off and lim = c.lim in
        push c;
        walk c sink record c.children_off c.next;
        pop c;
        read c record off ~limit:lim
      end;
      sink.end_element c
  | K_proxy -> sink.proxy c
  | K_text | K_comment | K_pi -> sink.leaf c

let walk_record c sink record =
  let first = read_header c record 0 ~limit:(String.length record) in
  start c ~base:(context c);
  walk c sink record first (String.length record)

(* Absolute IDs of inline nodes in document order; [None] marks a proxy. *)
let inline_ids record =
  let ids = ref [] in
  let node c = ids := Some (node_id c) :: !ids in
  let proxy _ = ids := None :: !ids in
  walk_record (create_cursor ()) { element = node; end_element = ignore; leaf = node; proxy } record;
  List.rev !ids

let interval_endpoints record =
  (* a proxied subtree interrupts document-order contiguity *)
  let rec go acc = function
    | Some id :: (None :: _ as rest) -> go (id :: acc) rest
    | [ Some id ] -> List.rev (id :: acc)
    | _ :: rest -> go acc rest
    | [] -> List.rev acc
  in
  go [] (inline_ids record)

let min_node_id record =
  match List.find_map Fun.id (inline_ids record) with
  | Some id -> id
  | None -> invalid_arg "Record_format.min_node_id: record has no inline node"

let node_count record = List.length (List.filter Option.is_some (inline_ids record))
