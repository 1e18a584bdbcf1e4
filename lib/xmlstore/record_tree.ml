open Rx_util
open Rx_xml

type node =
  | Element of {
      rel : Node_id.rel;
      name : Qname.t;
      attrs : Token.attr list;
      ns_decls : (int * int) list;
      children : node list;
    }
  | Text of { rel : Node_id.rel; content : string; annot : Typed_value.t option }
  | Comment of { rel : Node_id.rel; content : string }
  | Pi of { rel : Node_id.rel; target : string; data : string }
  | Proxy of { rel : Node_id.rel }

let node_rel = function
  | Element { rel; _ } | Text { rel; _ } | Comment { rel; _ } | Pi { rel; _ }
  | Proxy { rel } ->
      rel

module R = Record_format

let rec nodes c record off limit acc =
  if off >= limit then List.rev acc
  else begin
    R.read c record off ~limit;
    let next = c.R.next in
    nodes c record next limit (node c :: acc)
  end

(* the entry [c] is on, with its inline subtree *)
and node c =
  let rel = R.rel c in
  match c.R.kind with
  | R.K_element ->
      let name = R.qname c and attrs = R.attrs c and ns_decls = R.ns_decls c in
      Element { rel; name; attrs; ns_decls; children = nodes c c.R.record c.R.children_off c.R.next [] }
  | R.K_text -> Text { rel; content = R.str c; annot = R.text_annot c }
  | R.K_comment -> Comment { rel; content = R.str c }
  | R.K_pi -> Pi { rel; target = R.target c; data = R.str c }
  | R.K_proxy -> Proxy { rel }

let decode record =
  let header, first = R.decode_header record in
  (header, nodes (R.create_cursor ()) record first (String.length record) [])

let decode_node record off =
  let c = R.create_cursor () in
  R.read c record off ~limit:(String.length record);
  node c

let rec encode_node w node =
  match node with
  | Element { rel; name; attrs; ns_decls; children } ->
      let cw = Bytes_io.Writer.create () in
      List.iter (encode_node cw) children;
      let children_bytes = Bytes_io.Writer.contents cw in
      Record_format.encode_element_prefix w ~rel ~name ~attrs ~ns_decls
        ~n_children:(List.length children)
        ~children_len:(String.length children_bytes);
      Bytes_io.Writer.bytes w children_bytes
  | Text { rel; content; annot } -> Record_format.encode_text w ~rel ~annot content
  | Comment { rel; content } -> Record_format.encode_comment w ~rel content
  | Pi { rel; target; data } -> Record_format.encode_pi w ~rel ~target ~data
  | Proxy { rel } -> Record_format.encode_proxy w ~rel

let encode header nodes =
  let w = Bytes_io.Writer.create ~capacity:512 () in
  Record_format.encode_header w
    { header with Record_format.n_subtrees = List.length nodes };
  List.iter (encode_node w) nodes;
  Bytes_io.Writer.contents w

(* Build a forest from a balanced fragment; [base_rel] names the roots. *)
let of_tokens ~base_rel tokens =
  (* open elements, innermost first, each with its reversed children and
     the count of children named so far *)
  let stack = ref [] and roots = ref base_rel and result = ref [] in
  let fresh_rel () =
    match (!stack, !roots) with
    | (_, _, _, _, _, named) :: _, _ ->
        incr named;
        Node_id.nth_sibling_rel (!named - 1)
    | [], rel :: rest ->
        roots := rest;
        rel
    | [], [] -> invalid_arg "Record_tree.of_tokens: more top-level nodes than ids"
  in
  let add node =
    match !stack with
    | [] -> result := node :: !result
    | (rel, name, attrs, ns, children, named) :: rest ->
        stack := (rel, name, attrs, ns, node :: children, named) :: rest
  in
  List.iter
    (fun token ->
      match token with
      | Token.Start_document | Token.End_document -> ()
      | Token.Start_element { name; attrs; ns_decls } ->
          let rel = fresh_rel () in
          stack := (rel, name, attrs, ns_decls, [], ref 0) :: !stack
      | Token.End_element -> (
          match !stack with
          | (rel, name, attrs, ns_decls, children, _) :: rest ->
              stack := rest;
              add (Element { rel; name; attrs; ns_decls; children = List.rev children })
          | [] -> invalid_arg "Record_tree.of_tokens: unbalanced fragment")
      | Token.Text { content; annot } -> add (Text { rel = fresh_rel (); content; annot })
      | Token.Comment content -> add (Comment { rel = fresh_rel (); content })
      | Token.Pi { target; data } -> add (Pi { rel = fresh_rel (); target; data }))
    tokens;
  if !stack <> [] then invalid_arg "Record_tree.of_tokens: unclosed element";
  if !roots <> [] then invalid_arg "Record_tree.of_tokens: fewer top-level nodes than ids";
  List.rev !result

(* Insert nodes into a sibling list, before the first sibling they all
   precede in relative-id order. *)
let rec splice_sorted siblings nodes =
  match siblings with
  | s :: rest when not (List.for_all (fun n -> node_rel n < node_rel s) nodes) ->
      s :: splice_sorted rest nodes
  | _ -> nodes @ siblings

let map_subtree nodes rel_path edit =
  let rec go nodes = function
    | [] -> None
    | [ last ] ->
        if List.exists (fun n -> node_rel n = last) nodes then
          Some (List.concat_map (fun n -> if node_rel n = last then edit (Some n) else [ n ]) nodes)
        else (* target absent: an insertion among these siblings *)
          Some (splice_sorted nodes (edit None))
    | comp :: rest ->
        let found = ref false in
        let out =
          List.map
            (function
              | Element ({ rel; children; _ } as e) when rel = comp -> (
                  match go children rest with
                  | Some children ->
                      found := true;
                      Element { e with children }
                  | None -> Element e)
              | n -> n)
            nodes
        in
        if !found then Some out else None
  in
  go nodes rel_path

let collect_proxies node =
  let rec walk path acc = function
    | Proxy { rel } -> List.rev (rel :: path) :: acc
    | Element { rel; children; _ } -> List.fold_left (walk (rel :: path)) acc children
    | Text _ | Comment _ | Pi _ -> acc
  in
  List.rev (walk [] [] node)
