open Rx_xml
open Rx_xmlstore

exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

(* --- constructor AST: literal XML with {$v/...} holes --- *)

type hole = { rel : Rx_xpath.Ast.path option (* None = the node itself *) }

type attr_piece = A_lit of string | A_hole of hole

type citem =
  | C_elem of { name : string; attrs : (string * attr_piece list) list; children : citem list }
  | C_text of string
  | C_hole of hole

type query = {
  var : string;
  table : string;
  column : string;
  path : Rx_xpath.Ast.path; (* for-path with the where clause folded in *)
  order : (Rx_xpath.Ast.path option * bool (* descending *)) option;
  construct : citem list;
}

type compiled = { q : query; plan : Database.plan_info }

(* --- surface parsing --- *)

type cursor = { src : string; mutable pos : int }

let at_eof c = c.pos >= String.length c.src
let peek c = if at_eof c then '\000' else c.src.[c.pos]

let skip_ws c =
  while (not (at_eof c)) && (peek c = ' ' || peek c = '\n' || peek c = '\t' || peek c = '\r') do
    c.pos <- c.pos + 1
  done

let looking_at c s =
  let n = String.length s in
  c.pos + n <= String.length c.src && String.sub c.src c.pos n = s

let eat c s =
  if looking_at c s then begin
    c.pos <- c.pos + String.length s;
    true
  end
  else false

let expect c s = if not (eat c s) then error "expected %S at offset %d" s c.pos

let keyword c s =
  skip_ws c;
  expect c s;
  skip_ws c

let is_name_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
  || ch = '_' || ch = '-' || ch = '.'

let read_name c =
  let start = c.pos in
  while (not (at_eof c)) && is_name_char (peek c) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then error "expected a name at offset %d" start;
  String.sub c.src start (c.pos - start)

let read_string_lit c =
  skip_ws c;
  let quote = peek c in
  if quote <> '"' && quote <> '\'' then error "expected a string literal";
  c.pos <- c.pos + 1;
  let start = c.pos in
  while (not (at_eof c)) && peek c <> quote do
    c.pos <- c.pos + 1
  done;
  if at_eof c then error "unterminated string literal";
  let s = String.sub c.src start (c.pos - start) in
  c.pos <- c.pos + 1;
  s

(* a $var(/relpath)? reference; returns the optional relative path text *)
let read_var_ref c ~var =
  expect c "$";
  let v = read_name c in
  if v <> var then error "unbound variable $%s (only $%s is in scope)" v var;
  if peek c = '/' then begin
    let start = c.pos + 1 in
    (* the path extends while path-ish characters continue *)
    let is_path_char ch =
      is_name_char ch || ch = '/' || ch = '@' || ch = '*' || ch = ':' || ch = '(' || ch = ')'
    in
    c.pos <- start;
    while (not (at_eof c)) && is_path_char (peek c) do
      c.pos <- c.pos + 1
    done;
    Some (String.sub c.src start (c.pos - start))
  end
  else None

let parse_rel_path text =
  match Rx_xpath.Xpath_parser.parse text with
  | p ->
      if p.Rx_xpath.Ast.absolute then error "expected a relative path, got %s" text;
      p
  | exception Rx_xpath.Xpath_parser.Error { pos; msg } ->
      error "bad path %S (at %d: %s)" text pos msg

let read_hole c ~var =
  (* positioned after '{' *)
  skip_ws c;
  let rel = Option.map parse_rel_path (read_var_ref c ~var) in
  skip_ws c;
  expect c "}";
  { rel }

(* attribute value: quoted text where {..} is a hole *)
let read_attr_value c ~var =
  skip_ws c;
  expect c "=";
  skip_ws c;
  let quote = peek c in
  if quote <> '"' && quote <> '\'' then error "expected an attribute value";
  c.pos <- c.pos + 1;
  let pieces = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      pieces := A_lit (Buffer.contents buf) :: !pieces;
      Buffer.clear buf
    end
  in
  let rec loop () =
    if at_eof c then error "unterminated attribute value"
    else if peek c = quote then c.pos <- c.pos + 1
    else if peek c = '{' then begin
      c.pos <- c.pos + 1;
      flush ();
      pieces := A_hole (read_hole c ~var) :: !pieces;
      loop ()
    end
    else begin
      Buffer.add_char buf (peek c);
      c.pos <- c.pos + 1;
      loop ()
    end
  in
  loop ();
  flush ();
  List.rev !pieces

let rec read_citem c ~var =
  (* no leading skip_ws: whitespace between items is significant text *)
  if eat c "{" then Some (C_hole (read_hole c ~var))
  else if looking_at c "</" then None
  else if eat c "<" then begin
    let name = read_name c in
    let attrs = ref [] in
    let rec read_attrs () =
      skip_ws c;
      if eat c "/>" then true
      else if eat c ">" then false
      else begin
        let aname = read_name c in
        let value = read_attr_value c ~var in
        attrs := (aname, value) :: !attrs;
        read_attrs ()
      end
    in
    let self_closing = read_attrs () in
    let children = ref [] in
    if not self_closing then begin
      let rec read_children () =
        match read_citem c ~var with
        | Some item ->
            children := item :: !children;
            read_children ()
        | None -> ()
      in
      read_children ();
      expect c "</";
      let close = read_name c in
      if close <> name then error "mismatched </%s>, expected </%s>" close name;
      skip_ws c;
      expect c ">"
    end;
    Some
      (C_elem { name; attrs = List.rev !attrs; children = List.rev !children })
  end
  else begin
    (* literal text until '<' or '{' *)
    let buf = Buffer.create 16 in
    while (not (at_eof c)) && peek c <> '<' && peek c <> '{' do
      Buffer.add_char buf (peek c);
      c.pos <- c.pos + 1
    done;
    let text = Buffer.contents buf in
    if String.trim text = "" && (at_eof c || looking_at c "</") then None
    else Some (C_text text)
  end

let read_constructors c ~var =
  let items = ref [] in
  let rec loop () =
    skip_ws c;
    if not (at_eof c) then begin
      match read_citem c ~var with
      | Some item ->
          items := item :: !items;
          loop ()
      | None -> error "unexpected %S" (String.sub c.src c.pos (min 10 (String.length c.src - c.pos)))
    end
  in
  loop ();
  List.rev !items

let parse_query text =
  let c = { src = text; pos = 0 } in
  keyword c "for";
  expect c "$";
  let var = read_name c in
  keyword c "in";
  keyword c "collection";
  expect c "(";
  let coll = read_string_lit c in
  skip_ws c;
  expect c ")";
  let table, column =
    match String.split_on_char '.' coll with
    | [ t; col ] -> (t, col)
    | _ -> error "collection name must be \"table.column\", got %S" coll
  in
  (* the for-path runs to the 'where'/'order'/'return' keyword *)
  let path_start = c.pos in
  let next_kw = ref None in
  let rec scan i =
    if i >= String.length text then ()
    else if
      List.exists
        (fun kw ->
          i + String.length kw <= String.length text
          && String.sub text i (String.length kw) = kw)
        [ " where "; "\nwhere "; " order "; "\norder "; " return "; "\nreturn " ]
    then next_kw := Some i
    else scan (i + 1)
  in
  scan path_start;
  let path_end = match !next_kw with Some i -> i | None -> error "missing return clause" in
  let for_path_text = String.trim (String.sub text path_start (path_end - path_start)) in
  let for_path =
    match Rx_xpath.Xpath_parser.parse for_path_text with
    | p ->
        if not p.Rx_xpath.Ast.absolute then error "the for-path must be absolute";
        p
    | exception Rx_xpath.Xpath_parser.Error { pos; msg } ->
        error "bad for-path %S (at %d: %s)" for_path_text pos msg
  in
  c.pos <- path_end;
  skip_ws c;
  (* optional where: fold into the last step's predicates *)
  let path =
    if eat c "where" then begin
      skip_ws c;
      let where_start = c.pos in
      let wnext = ref None in
      let rec scan2 i =
        if i >= String.length text then ()
        else if
          List.exists
            (fun kw ->
              i + String.length kw <= String.length text
              && String.sub text i (String.length kw) = kw)
            [ " order "; "\norder "; " return "; "\nreturn " ]
        then wnext := Some i
        else scan2 (i + 1)
      in
      scan2 where_start;
      let where_end = match !wnext with Some i -> i | None -> error "missing return clause" in
      let cond = String.trim (String.sub text where_start (where_end - where_start)) in
      c.pos <- where_end;
      skip_ws c;
      (* rewrite $var-rooted operands into relative paths, then parse the
         condition through the XPath predicate grammar *)
      let cond =
        let b = Buffer.create (String.length cond) in
        let n = String.length cond in
        let i = ref 0 in
        while !i < n do
          if cond.[!i] = '$' then begin
            let j = ref (!i + 1) in
            while !j < n && is_name_char cond.[!j] do
              incr j
            done;
            let v = String.sub cond (!i + 1) (!j - !i - 1) in
            if v <> var then error "unbound variable $%s in where clause" v;
            if !j < n && cond.[!j] = '/' then i := !j + 1 (* drop "$v/" *)
            else begin
              Buffer.add_char b '.';
              i := !j
            end
          end
          else begin
            Buffer.add_char b cond.[!i];
            incr i
          end
        done;
        Buffer.contents b
      in
      let pred_path =
        match Rx_xpath.Xpath_parser.parse (Printf.sprintf "*[%s]" cond) with
        | p -> p
        | exception Rx_xpath.Xpath_parser.Error { pos; msg } ->
            error "bad where clause (at %d: %s)" pos msg
      in
      let preds =
        match pred_path.Rx_xpath.Ast.steps with
        | [ { Rx_xpath.Ast.preds; _ } ] -> preds
        | _ -> error "bad where clause"
      in
      match List.rev for_path.Rx_xpath.Ast.steps with
      | last :: rev_prefix ->
          {
            for_path with
            Rx_xpath.Ast.steps =
              List.rev ({ last with Rx_xpath.Ast.preds = last.Rx_xpath.Ast.preds @ preds } :: rev_prefix);
          }
      | [] -> error "empty for-path"
    end
    else for_path
  in
  (* optional order by *)
  let order =
    if eat c "order" then begin
      skip_ws c;
      expect c "by";
      skip_ws c;
      let rel = Option.map parse_rel_path (read_var_ref c ~var) in
      skip_ws c;
      let descending = eat c "descending" in
      skip_ws c;
      Some (rel, descending)
    end
    else None
  in
  keyword c "return";
  let construct = read_constructors c ~var in
  { var; table; column; path; order; construct }

(* --- evaluation --- *)

let dict_of db = Database.dict db

(* Evaluate a relative path against one matched node's subtree. Returns
   (node id, captured value): attribute results carry their value (the node
   id is the owning element's). *)
let eval_rel db ~table ~column ~docid ~node rel =
  let store = Database.column_store db ~table ~column in
  let query = Rx_quickxscan.Query.compile (dict_of db) rel in
  let engine = Rx_quickxscan.Engine.create query in
  let c = Record_format.create_cursor () in
  Doc_store.scan_subtree store ~docid node c
    (Executor.sink engine ~item:(fun () -> Record_format.node_id c));
  Rx_quickxscan.Engine.finish_with_values engine

let subtree_tokens db ~table ~column ~docid node =
  let store = Database.column_store db ~table ~column in
  let acc = ref [] in
  Doc_store.subtree_events store ~docid node (fun e ->
      acc := e.Doc_store.token :: !acc);
  List.rev !acc

let string_value tokens =
  let buf = Buffer.create 32 in
  List.iter
    (fun t -> match t with Token.Text { content; _ } -> Buffer.add_string buf content | _ -> ())
    tokens;
  Buffer.contents buf

let hole_entries db q ~docid ~node (h : hole) =
  match h.rel with
  | None -> [ (node, None) ]
  | Some rel -> eval_rel db ~table:q.table ~column:q.column ~docid ~node rel

let rec emit_citem db q ~docid ~node sink item =
  match item with
  | C_text s -> sink (Token.text s)
  | C_hole h ->
      List.iter
        (fun (n, value) ->
          match value with
          | Some v ->
              (* an attribute (or text) result: splice its string value *)
              sink (Token.text v)
          | None ->
              List.iter sink
                (subtree_tokens db ~table:q.table ~column:q.column ~docid n))
        (hole_entries db q ~docid ~node h)
  | C_elem { name; attrs; children } ->
      let dict = dict_of db in
      let attrs =
        List.map
          (fun (aname, pieces) ->
            let buf = Buffer.create 16 in
            List.iter
              (fun piece ->
                match piece with
                | A_lit s -> Buffer.add_string buf s
                | A_hole h ->
                    List.iter
                      (fun (n, value) ->
                        match value with
                        | Some v -> Buffer.add_string buf v
                        | None ->
                            Buffer.add_string buf
                              (string_value
                                 (subtree_tokens db ~table:q.table ~column:q.column
                                    ~docid n)))
                      (hole_entries db q ~docid ~node h))
              pieces;
            Token.attr (Qname.make (Name_dict.intern dict aname)) (Buffer.contents buf))
          attrs
      in
      sink
        (Token.Start_element
           { name = Qname.make (Name_dict.intern dict name); attrs; ns_decls = [] });
      List.iter (emit_citem db q ~docid ~node sink) children;
      sink Token.End_element

let compile db text =
  let q = parse_query text in
  let plan =
    Database.explain db ~table:q.table ~column:q.column
      ~xpath:(Rx_xpath.Ast.to_string q.path)
  in
  { q; plan }

let explain compiled = compiled.plan.Database.description

let run_compiled db { q; _ } =
  let matches =
    (Database.run db ~table:q.table ~column:q.column
       ~xpath:(Rx_xpath.Ast.to_string q.path))
      .Database.matches
  in
  let matches =
    match q.order with
    | None -> matches
    | Some (rel, descending) ->
        let keyed =
          List.map
            (fun (m : Database.match_) ->
              let entries =
                match rel with
                | None -> [ (m.Database.node, None) ]
                | Some rel ->
                    eval_rel db ~table:q.table ~column:q.column ~docid:m.Database.docid
                      ~node:m.Database.node rel
              in
              let key =
                match entries with
                | (_, Some v) :: _ -> v
                | (n, None) :: _ ->
                    string_value
                      (subtree_tokens db ~table:q.table ~column:q.column
                         ~docid:m.Database.docid n)
                | [] -> ""
              in
              (key, m))
            matches
        in
        let numeric =
          keyed <> []
          && List.for_all (fun (k, _) -> float_of_string_opt (String.trim k) <> None) keyed
        in
        let cmp (a, _) (b, _) =
          let c =
            if numeric then compare (float_of_string a) (float_of_string b)
            else String.compare a b
          in
          if descending then -c else c
        in
        List.map snd (List.stable_sort cmp keyed)
  in
  List.map
    (fun (m : Database.match_) ->
      let buf = Buffer.create 128 in
      let sink = Serializer.make_sink (dict_of db) buf in
      List.iter
        (emit_citem db q ~docid:m.Database.docid ~node:m.Database.node sink)
        q.construct;
      Buffer.contents buf)
    matches

let run db text = run_compiled db (compile db text)
