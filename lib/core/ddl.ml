(* DDL on the logical catalog: tables, schemas and full-text indexes.
   Every change bumps the plan epoch and is saved (WAL-logged) at once.
   XPath value indexes have their own online lifecycle ([Index]). *)

open Rx_xmlstore
open Rx_relational
open Engine

let create_table t ~name ~columns =
  ensure_writable t;
  if find_table t name <> None then
    invalid_arg (Printf.sprintf "Database: table %s already exists" name);
  if columns = [] then invalid_arg "Database: a table needs at least one column";
  in_txn t (fun () ->
      let base = Base_table.create t.pool ~columns:(Array.of_list columns) in
      let xml_columns =
        List.filter_map
          (fun (cname, ty) ->
            if ty = Value.T_xml then
              Some
                ( cname,
                  new_column
                    (Doc_store.create ~record_threshold:t.record_threshold t.pool
                       t.dict) )
            else None)
          columns
      in
      let tbl =
        { tname = name; tid = List.length t.tables + 1; base; xml_columns; next_docid = 1 }
      in
      List.iter
        (fun (_, xc) -> Doc_store.set_readahead xc.store t.config.readahead)
        xml_columns;
      t.tables <- t.tables @ [ (name, tbl) ];
      tbl)
  |> fun tbl ->
  invalidate_plans t;
  (* DDL is durable immediately: the catalog rewrite is WAL-logged, so a
     crash before the next checkpoint still replays the new table *)
  save_catalog t;
  tbl

let table = find_table
let list_tables t = List.map fst t.tables

let register_schema t ~name ~xsd =
  ensure_writable t;
  let model = Rx_schema.Schema_model.parse_xsd t.dict xsd in
  let compiled = Rx_schema.Compiled.compile t.dict model in
  t.schemas <- (name, compiled) :: List.remove_assoc name t.schemas;
  invalidate_plans t;
  save_catalog t

let bind_schema t ~table ~column ~schema =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  match List.assoc_opt schema t.schemas with
  | Some compiled ->
      xc.schema <- Some compiled;
      xc.schema_name <- Some schema;
      invalidate_plans t;
      save_catalog t
  | None -> invalid_arg (Printf.sprintf "Database: no schema %s" schema)

let create_text_index t ~table ~column ~name =
  ensure_writable t;
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  if List.mem_assoc name xc.text_indexes then
    invalid_arg (Printf.sprintf "Database: text index %s already exists" name);
  in_txn t (fun () ->
      let ti = Rx_fulltext.Text_index.create t.pool in
      Base_table.iter
        (fun docid _ ->
          if Doc_store.mem xc.store ~docid then
            Doc_store.iter_records xc.store ~docid (fun ~rid ~record ->
                Rx_fulltext.Text_index.index_record ti ~docid ~rid ~record))
        tbl.base;
      Rx_fulltext.Text_index.hook ti xc.store;
      xc.text_indexes <- xc.text_indexes @ [ (name, ti) ]);
  invalidate_plans t;
  save_catalog t

let text_index_exn xc =
  match xc.text_indexes with
  | (_, ti) :: _ -> ti
  | [] -> invalid_arg "Database: column has no text index"

let text_search t ~table ~column ?(mode = `All) query =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let ti = text_index_exn xc in
  let terms = Rx_fulltext.Text_index.tokenize query in
  match mode with
  | `All -> Rx_fulltext.Text_index.docs_with_all ti ~terms
  | `Any -> Rx_fulltext.Text_index.docs_with_any ti ~terms

let text_score t ~table ~column ~docid query =
  let tbl = table_exn t table in
  let xc = xml_column_exn tbl column in
  let ti = text_index_exn xc in
  List.fold_left
    (fun acc term -> acc + Rx_fulltext.Text_index.doc_term_count ti ~term ~docid)
    0
    (List.sort_uniq compare (Rx_fulltext.Text_index.tokenize query))
