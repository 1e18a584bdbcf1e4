open Rx_util
open Rx_xml

(* One accumulated child entry: its relative id, encoded bytes, and whether
   it is (already) a proxy. Only inline entries are moved out on a flush. *)
type child = { rel : Node_id.rel; bytes : string; is_proxy : bool }

type open_elem = {
  rel : Node_id.rel;
  abs : Node_id.t;
  name : Qname.t option; (* None for the virtual document context *)
  attrs : Token.attr list;
  ns_decls : (int * int) list;
  path : (int * int) list; (* root-first (uri, local) of the element itself *)
  ns_in_scope : (int * int) list;
  mutable next_child : int;
  mutable children : child list; (* reversed *)
  mutable inline_bytes : int;
}

type policy = Largest_first | Flush_all

type t = {
  threshold : int;
  policy : policy;
  emit : record:string -> unit;
  mutable stack : open_elem list; (* innermost first; bottom is the doc *)
  mutable done_ : bool;
}

let create ?(policy = Largest_first) ~threshold ~emit () =
  if threshold < 64 then invalid_arg "Packer.create: threshold too small";
  { threshold; policy; emit; stack = []; done_ = false }

let doc_frame () =
  {
    rel = ""; abs = Node_id.root; name = None; attrs = []; ns_decls = []; path = [];
    ns_in_scope = []; next_child = 0; children = []; inline_bytes = 0;
  }

(* Flush some inline children of [frame] as one record, replacing them with
   proxies. When [all] is false, victims are chosen largest-first until the
   remaining inline bytes fit the threshold — so in Figure 3 the single big
   Node2 subtree moves out while small siblings stay inline. *)
let flush_children ?(all = false) t frame =
  let size (c : child) = String.length c.bytes in
  let inline = List.filter (fun c -> not c.is_proxy) (List.rev frame.children) in
  let victims =
    if all || t.policy = Flush_all then inline
    else
      let by_size = List.sort (fun a b -> compare (size b) (size a)) inline in
      let _, chosen =
        List.fold_left
          (fun (remaining, chosen) c ->
            if remaining > t.threshold then (remaining - size c, c :: chosen)
            else (remaining, chosen))
          (frame.inline_bytes, []) by_size
      in
      List.filter (fun c -> List.memq c chosen) inline
  in
  if victims <> [] then begin
    let w = Bytes_io.Writer.create ~capacity:(frame.inline_bytes + 64) () in
    Record_format.encode_header w
      { Record_format.context = frame.abs; path = frame.path;
        ns_in_scope = frame.ns_in_scope; n_subtrees = List.length victims };
    List.iter (fun c -> Bytes_io.Writer.bytes w c.bytes) victims;
    t.emit ~record:(Bytes_io.Writer.contents w);
    let proxy (c : child) =
      let pw = Bytes_io.Writer.create ~capacity:8 () in
      Record_format.encode_proxy pw ~rel:c.rel;
      { rel = c.rel; bytes = Bytes_io.Writer.contents pw; is_proxy = true }
    in
    frame.children <- List.map (fun c -> if List.memq c victims then proxy c else c) frame.children;
    frame.inline_bytes <-
      List.fold_left (fun acc c -> if c.is_proxy then acc else acc + size c) 0 frame.children
  end

let add_child t frame child =
  frame.children <- child :: frame.children;
  if not child.is_proxy then
    frame.inline_bytes <- frame.inline_bytes + String.length child.bytes;
  (* the document frame never auto-flushes, so the root record always holds
     the root element inline and is reachable from the NodeID index *)
  if frame.name <> None && frame.inline_bytes > t.threshold then
    flush_children t frame

let alloc_rel frame =
  let rel = Node_id.nth_sibling_rel frame.next_child in
  frame.next_child <- frame.next_child + 1;
  rel

let current t =
  match t.stack with
  | frame :: _ -> frame
  | [] -> invalid_arg "Packer: token outside document"

let feed t token =
  if t.done_ then invalid_arg "Packer: stream after End_document";
  match token with
  | Token.Start_document ->
      if t.stack <> [] then invalid_arg "Packer: nested Start_document";
      t.stack <- [ doc_frame () ]
  | Token.End_document -> (
      match t.stack with
      | [ doc ] ->
          (* the root record: whatever remains at document level *)
          flush_children ~all:true t doc;
          t.stack <- [];
          t.done_ <- true;
          ignore doc
      | _ -> invalid_arg "Packer: End_document with open elements")
  | Token.Start_element { name; attrs; ns_decls } ->
      let parent = current t in
      let rel = alloc_rel parent in
      let frame =
        {
          rel;
          abs = Node_id.append parent.abs rel;
          name = Some name;
          attrs;
          ns_decls;
          path = parent.path @ [ (name.Qname.uri, name.Qname.local) ];
          ns_in_scope =
            (* inner declarations shadow outer ones *)
            ns_decls
            @ List.filter
                (fun (p, _) -> not (List.mem_assoc p ns_decls))
                parent.ns_in_scope;
          next_child = 0;
          children = [];
          inline_bytes = 0;
        }
      in
      t.stack <- frame :: t.stack
  | Token.End_element -> (
      match t.stack with
      | frame :: (parent :: _ as rest) ->
          let name =
            match frame.name with
            | Some n -> n
            | None -> invalid_arg "Packer: End_element at document level"
          in
          (* encode the completed element entry *)
          let children = List.rev frame.children in
          let children_bytes = List.map (fun c -> c.bytes) children in
          let children_len =
            List.fold_left (fun acc b -> acc + String.length b) 0 children_bytes
          in
          let w = Bytes_io.Writer.create ~capacity:(children_len + 64) () in
          Record_format.encode_element_prefix w ~rel:frame.rel ~name
            ~attrs:frame.attrs ~ns_decls:frame.ns_decls
            ~n_children:(List.length children) ~children_len;
          List.iter (Bytes_io.Writer.bytes w) children_bytes;
          t.stack <- rest;
          add_child t parent
            { rel = frame.rel; bytes = Bytes_io.Writer.contents w; is_proxy = false }
      | _ -> invalid_arg "Packer: unbalanced End_element")
  | Token.Text { content; _ } when (current t).name = None && String.trim content = "" -> ()
  | Token.Text _ | Token.Comment _ | Token.Pi _ ->
      let parent = current t in
      let rel = alloc_rel parent in
      let w = Bytes_io.Writer.create ~capacity:32 () in
      (match token with
      | Token.Text { content; annot } -> Record_format.encode_text w ~rel ~annot content
      | Token.Comment content -> Record_format.encode_comment w ~rel content
      | Token.Pi { target; data } -> Record_format.encode_pi w ~rel ~target ~data
      | _ -> ());
      add_child t parent { rel; bytes = Bytes_io.Writer.contents w; is_proxy = false }

let finish t =
  if not t.done_ then invalid_arg "Packer.finish: incomplete document"

let pack ?policy ~threshold ~emit tokens =
  let t = create ?policy ~threshold ~emit () in
  List.iter (feed t) tokens;
  finish t

let records_of_tokens ?policy ~threshold tokens =
  let records = ref [] in
  pack ?policy ~threshold
    ~emit:(fun ~record -> records := record :: !records)
    tokens;
  List.rev !records
