open Systemrx
open Rx_relational

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* old query-surface shapes expressed through the unified entry point *)
let db_query ?ns_env db ~table ~column ~xpath =
  (Database.run ?ns_env db ~table ~column ~xpath).Database.matches

let db_query_docids ?ns_env db ~table ~column ~xpath =
  List.sort_uniq compare
    (List.map
       (fun m -> m.Database.docid)
       (db_query ?ns_env db ~table ~column ~xpath))

let db_query_serialized ?ns_env db ~table ~column ~xpath =
  let r = Database.run ?ns_env db ~table ~column ~xpath in
  List.map r.Database.serialize r.Database.matches

let product_doc ~name ~price ~discount ~category =
  Printf.sprintf
    {|<Catalog><Categories category="%s"><Product><RegPrice>%g</RegPrice><Discount>%g</Discount><ProductName>%s</ProductName></Product></Categories></Catalog>|}
    category price discount name

let make_db ?(with_indexes = true) ?(n = 30) () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"products"
      ~columns:[ ("sku", Value.T_varchar); ("doc", Value.T_xml) ]
  in
  if with_indexes then begin
    ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"regprice"
      ~path:"/Catalog/Categories/Product/RegPrice"
      ~key_type:Rx_xindex.Index_def.K_double));
    ignore
      (Database.Index.await
         (Database.Index.build db ~table:"products" ~column:"doc"
            ~name:"discount" ~path:"//Discount"
            ~key_type:Rx_xindex.Index_def.K_double))
  end;
  for i = 1 to n do
    let doc =
      product_doc
        ~name:(Printf.sprintf "item-%03d" i)
        ~price:(float_of_int (i * 10))
        ~discount:(float_of_int (i mod 5) /. 10.)
        ~category:(if i mod 2 = 0 then "tools" else "toys")
    in
    ignore
      (Database.insert db ~table:"products"
         ~values:[ ("sku", Value.Varchar (Printf.sprintf "SKU%03d" i)) ]
         ~xml:[ ("doc", doc) ]
         ())
  done;
  db

(* --- DDL / DML basics --- *)

let test_create_insert_fetch () =
  let db = make_db ~with_indexes:false ~n:3 () in
  check Alcotest.int "rows" 3 (Database.row_count db ~table:"products");
  (match Database.fetch_row db ~table:"products" ~docid:2 with
  | Some [| Value.Varchar "SKU002"; Value.Xml_ref 2 |] -> ()
  | Some _ -> Alcotest.fail "unexpected row shape"
  | None -> Alcotest.fail "row 2 missing");
  let doc = Database.document db ~table:"products" ~column:"doc" ~docid:2 in
  check Alcotest.bool "document readable" true
    (String.length doc > 0
    && String.sub doc 0 9 = "<Catalog>")

let test_delete_row () =
  let db = make_db ~with_indexes:false ~n:3 () in
  Database.delete db ~table:"products" ~docid:2;
  check Alcotest.int "rows" 2 (Database.row_count db ~table:"products");
  check Alcotest.bool "row gone" true
    (Database.fetch_row db ~table:"products" ~docid:2 = None);
  Alcotest.check_raises "document gone"
    (Invalid_argument "Database: no document 2 in products.doc") (fun () ->
      ignore (Database.document db ~table:"products" ~column:"doc" ~docid:2))

let test_errors () =
  let db = make_db ~with_indexes:false ~n:1 () in
  Alcotest.check_raises "duplicate table"
    (Invalid_argument "Database: table products already exists") (fun () ->
      ignore (Database.create_table db ~name:"products" ~columns:[ ("x", Value.T_int) ]));
  Alcotest.check_raises "unknown table" (Invalid_argument "Database: no table nope")
    (fun () -> ignore (Database.insert db ~table:"nope" ()));
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Base_table.insert: column sku expects varchar, got 42")
    (fun () ->
      ignore
        (Database.insert db ~table:"products" ~values:[ ("sku", Value.Int 42) ] ()))

(* --- queries: index plans agree with full scans --- *)

let queries =
  [
    "/Catalog/Categories/Product[RegPrice > 100]";
    "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]";
    "/Catalog/Categories/Product[RegPrice >= 150]";
    "/Catalog/Categories/Product[RegPrice = 110]";
    "/Catalog/Categories/Product[Discount > 0.2]";
    "/Catalog/Categories/Product[RegPrice < 40]";
    "/Catalog//Product[RegPrice > 250]";
    "/Catalog/Categories/Product[ProductName]";
  ]

let show_matches ms =
  String.concat ";"
    (List.map
       (fun m ->
         Printf.sprintf "%d:%s" m.Database.docid
           (Rx_xmlstore.Node_id.to_hex m.Database.node))
       ms)

let test_index_matches_scan () =
  let with_idx = make_db ~with_indexes:true () in
  let without_idx = make_db ~with_indexes:false () in
  List.iter
    (fun q ->
      let a = db_query with_idx ~table:"products" ~column:"doc" ~xpath:q in
      let b = db_query without_idx ~table:"products" ~column:"doc" ~xpath:q in
      check Alcotest.string q (show_matches b) (show_matches a))
    queries

let test_plan_selection () =
  let db = make_db () in
  let plan q = (Database.explain db ~table:"products" ~column:"doc" ~xpath:q).Database.description in
  (* Table 2 row 1: exact match -> NodeID list, exact *)
  check Alcotest.string "row 1: list access" "NODEID-LIST(regprice)"
    (plan "/Catalog/Categories/Product[RegPrice > 100]");
  (* Table 2 row 2: containment -> filtering *)
  check Alcotest.string "row 2: filtering" "NODEID-LIST(discount)+FILTER"
    (plan "/Catalog/Categories/Product[Discount > 0.1]");
  (* Table 2 row 3: anding *)
  check Alcotest.string "row 3: anding" "NODEID-ANDING(regprice,discount)+FILTER"
    (plan "/Catalog/Categories/Product[RegPrice > 100 and Discount > 0.1]");
  (* no applicable index *)
  check Alcotest.string "full scan" "FULL-SCAN(QuickXScan)"
    (plan "/Catalog/Categories/Product[ProductName = \"item-001\"]");
  (* descendant main path cannot anchor: docid granularity *)
  check Alcotest.string "docid granularity" "DOCID-LIST(discount)+FILTER"
    (plan "//Product[Discount > 0.1]")

let test_exact_plan_skips_documents () =
  let db = make_db () in
  let info =
    Database.explain db ~table:"products" ~column:"doc"
      ~xpath:"/Catalog/Categories/Product[RegPrice > 280]"
  in
  check Alcotest.bool "exact" true info.Database.exact;
  let ms =
    db_query db ~table:"products" ~column:"doc"
      ~xpath:"/Catalog/Categories/Product[RegPrice > 280]"
  in
  check (Alcotest.list Alcotest.int) "docids" [ 29; 30 ]
    (List.map (fun m -> m.Database.docid) ms)

let test_query_serialized () =
  let db = make_db ~n:5 () in
  let out =
    db_query_serialized db ~table:"products" ~column:"doc"
      ~xpath:"/Catalog/Categories/Product[RegPrice = 30]/ProductName"
  in
  check (Alcotest.list Alcotest.string) "serialized matches"
    [ "<ProductName>item-003</ProductName>" ]
    out

let test_query_docids () =
  let db = make_db ~n:10 () in
  check (Alcotest.list Alcotest.int) "docids" [ 8; 9; 10 ]
    (db_query_docids db ~table:"products" ~column:"doc"
       ~xpath:"/Catalog/Categories/Product[RegPrice > 70]")

(* --- sub-document updates through the facade --- *)

let test_facade_updates () =
  let db = make_db ~with_indexes:true ~n:5 () in
  (* find product 3's price via a query, then change it *)
  let q = "/Catalog/Categories/Product[RegPrice = 30]" in
  (match db_query db ~table:"products" ~column:"doc" ~xpath:q with
  | [ m ] ->
      (* the price text node: product/RegPrice/text() — walk via the store *)
      let store = Database.column_store db ~table:"products" ~column:"doc" in
      let product =
        Option.get
          (Rx_xmlstore.Doc_store.Cursor.find store ~docid:m.Database.docid
             m.Database.node)
      in
      let regprice =
        Option.get (Rx_xmlstore.Doc_store.Cursor.first_child store product)
      in
      let text =
        Rx_xmlstore.Doc_store.Cursor.node_id
          (Option.get (Rx_xmlstore.Doc_store.Cursor.first_child store regprice))
      in
      Database.update_xml_text db ~table:"products" ~column:"doc"
        ~docid:m.Database.docid text "35";
      (* the value index follows the update *)
      check (Alcotest.list Alcotest.int) "old value gone" []
        (db_query_docids db ~table:"products" ~column:"doc" ~xpath:q);
      check (Alcotest.list Alcotest.int) "new value found" [ m.Database.docid ]
        (db_query_docids db ~table:"products" ~column:"doc"
           ~xpath:"/Catalog/Categories/Product[RegPrice = 35]");
      (* append a tag element and find it by scan *)
      ignore
        (Database.insert_xml_fragment db ~table:"products" ~column:"doc"
           ~docid:m.Database.docid
           (Rx_xmlstore.Doc_store.Last_child_of m.Database.node)
           "<Tag>sale</Tag>");
      check Alcotest.int "fragment visible" 1
        (List.length
           (db_query db ~table:"products" ~column:"doc"
              ~xpath:"//Product[Tag = \"sale\"]"));
      (* delete the product subtree entirely *)
      Database.delete_xml_node db ~table:"products" ~column:"doc"
        ~docid:m.Database.docid m.Database.node;
      check (Alcotest.list Alcotest.int) "deleted node unmatched" []
        (db_query_docids db ~table:"products" ~column:"doc"
           ~xpath:"/Catalog/Categories/Product[RegPrice = 35]")
  | ms -> Alcotest.failf "expected one product with price 30, got %d" (List.length ms))

(* --- non-final-step predicates use indexes with a projection tail --- *)

let test_projection_tail_queries () =
  let db = make_db ~n:10 () in
  let q = "/Catalog/Categories/Product[RegPrice > 70]/ProductName" in
  let info = Database.explain db ~table:"products" ~column:"doc" ~xpath:q in
  check Alcotest.bool "index used" true info.Database.uses_index;
  check Alcotest.bool "not exact (tail)" false info.Database.exact;
  check
    (Alcotest.list Alcotest.string)
    "projected names"
    [ "<ProductName>item-008</ProductName>"; "<ProductName>item-009</ProductName>";
      "<ProductName>item-010</ProductName>" ]
    (db_query_serialized db ~table:"products" ~column:"doc" ~xpath:q)

(* --- schema-validated column --- *)

let orders_xsd =
  {|<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
    <xs:element name="order" type="OrderType"/>
    <xs:complexType name="OrderType">
      <xs:sequence>
        <xs:element name="item" type="xs:string" maxOccurs="unbounded"/>
        <xs:element name="total" type="xs:decimal"/>
      </xs:sequence>
      <xs:attribute name="id" type="xs:integer" use="required"/>
    </xs:complexType>
  </xs:schema>|}

let test_schema_bound_column () =
  let db = Database.create_in_memory () in
  let _ = Database.create_table db ~name:"orders" ~columns:[ ("doc", Value.T_xml) ] in
  Database.register_schema db ~name:"orders-v1" ~xsd:orders_xsd;
  Database.bind_schema db ~table:"orders" ~column:"doc" ~schema:"orders-v1";
  let ok = {|<order id="7"><item>widget</item><total>19.99</total></order>|} in
  let docid = Database.insert db ~table:"orders" ~xml:[ ("doc", ok) ] () in
  check Alcotest.string "valid document stored" ok
    (Database.document db ~table:"orders" ~column:"doc" ~docid);
  (match
     Database.insert db ~table:"orders"
       ~xml:[ ("doc", {|<order id="8"><total>5</total></order>|}) ]
       ()
   with
  | exception Rx_schema.Validator.Validation_error _ -> ()
  | _ -> Alcotest.fail "invalid document accepted");
  (* the failed insert was rolled back *)
  check Alcotest.int "row count" 1 (Database.row_count db ~table:"orders")

(* --- multiple XML columns / NULL columns --- *)

let test_multiple_xml_columns () =
  let db = Database.create_in_memory () in
  let _ =
    Database.create_table db ~name:"dossiers"
      ~columns:[ ("summary", Value.T_xml); ("detail", Value.T_xml) ]
  in
  (* the implicit DocID is shared by both XML columns (Figure 2) *)
  let docid =
    Database.insert db ~table:"dossiers"
      ~xml:[ ("summary", "<s>short</s>"); ("detail", "<d><x>long</x></d>") ]
      ()
  in
  check Alcotest.string "summary" "<s>short</s>"
    (Database.document db ~table:"dossiers" ~column:"summary" ~docid);
  check Alcotest.string "detail" "<d><x>long</x></d>"
    (Database.document db ~table:"dossiers" ~column:"detail" ~docid);
  (* queries are per column *)
  check Alcotest.int "only in detail" 1
    (List.length (db_query db ~table:"dossiers" ~column:"detail" ~xpath:"//x"));
  check Alcotest.int "not in summary" 0
    (List.length (db_query db ~table:"dossiers" ~column:"summary" ~xpath:"//x"));
  (* a row with one column NULL: queries skip it, fetch shows Null *)
  let docid2 =
    Database.insert db ~table:"dossiers" ~xml:[ ("summary", "<s>only</s>") ] ()
  in
  (match Database.fetch_row db ~table:"dossiers" ~docid:docid2 with
  | Some [| Value.Xml_ref _; Value.Null |] -> ()
  | _ -> Alcotest.fail "expected (xml, NULL) row");
  check Alcotest.int "null column not scanned" 1
    (List.length
       (db_query db ~table:"dossiers" ~column:"detail" ~xpath:"//x"));
  (* deleting the row removes both documents *)
  Database.delete db ~table:"dossiers" ~docid;
  check Alcotest.int "detail doc gone" 0
    (List.length (db_query db ~table:"dossiers" ~column:"detail" ~xpath:"//x"))

(* --- namespaces + kind tests through the facade --- *)

let test_namespaced_queries () =
  let db = Database.create_in_memory () in
  let _ = Database.create_table db ~name:"feeds" ~columns:[ ("doc", Value.T_xml) ] in
  ignore
    (Database.insert db ~table:"feeds"
       ~xml:
         [
           ( "doc",
             {|<feed xmlns="urn:atom" xmlns:x="urn:ext"><entry><title>one</title><x:rank>5</x:rank></entry><entry><title>two</title><x:rank>9</x:rank></entry></feed>|}
           );
         ]
       ());
  let ns_env = [ ("a", "urn:atom"); ("x", "urn:ext") ] in
  check Alcotest.int "namespaced path" 2
    (List.length
       (db_query db ~ns_env ~table:"feeds" ~column:"doc"
          ~xpath:"/a:feed/a:entry"));
  (* extracted subtrees re-declare every in-scope namespace so they stay
     self-contained *)
  check
    (Alcotest.list Alcotest.string)
    "mixed-namespace predicate"
    [ {|<title xmlns="urn:atom" xmlns:x="urn:ext">two</title>|} ]
    (db_query_serialized db ~ns_env ~table:"feeds" ~column:"doc"
       ~xpath:"/a:feed/a:entry[x:rank > 7]/a:title");
  (* unprefixed names do not match namespaced elements *)
  check Alcotest.int "no-namespace name" 0
    (List.length
       (db_query db ~table:"feeds" ~column:"doc" ~xpath:"/feed/entry"))

let test_kind_test_queries () =
  let db = Database.create_in_memory () in
  let _ = Database.create_table db ~name:"t" ~columns:[ ("doc", Value.T_xml) ] in
  ignore
    (Database.insert db ~table:"t"
       ~xml:[ ("doc", "<r><!--note--><a>alpha</a><?pi data?><a>beta</a></r>") ]
       ());
  check Alcotest.int "comments" 1
    (List.length (db_query db ~table:"t" ~column:"doc" ~xpath:"/r/comment()"));
  check Alcotest.int "pis" 1
    (List.length
       (db_query db ~table:"t" ~column:"doc"
          ~xpath:"/r/processing-instruction()"));
  check
    (Alcotest.list Alcotest.string)
    "text() predicate"
    [ "<a>beta</a>" ]
    (db_query_serialized db ~table:"t" ~column:"doc"
       ~xpath:"/r/a[text() = \"beta\"]");
  check Alcotest.int "node() children" 4
    (List.length (db_query db ~table:"t" ~column:"doc" ~xpath:"/r/node()"))

(* --- durability --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "rxdb" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_durability_reopen () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir dir in
      let _ =
        Database.create_table db ~name:"products"
          ~columns:[ ("sku", Value.T_varchar); ("doc", Value.T_xml) ]
      in
      ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"regprice"
        ~path:"/Catalog/Categories/Product/RegPrice"
        ~key_type:Rx_xindex.Index_def.K_double));
      for i = 1 to 10 do
        ignore
          (Database.insert db ~table:"products"
             ~values:[ ("sku", Value.Varchar (Printf.sprintf "S%d" i)) ]
             ~xml:
               [
                 ( "doc",
                   product_doc ~name:(Printf.sprintf "p%d" i)
                     ~price:(float_of_int (i * 10))
                     ~discount:0.1 ~category:"c" );
               ]
             ())
      done;
      let expected =
        db_query db ~table:"products" ~column:"doc"
          ~xpath:"/Catalog/Categories/Product[RegPrice > 50]"
      in
      Database.close db;
      (* reopen: catalog reload + recovery *)
      let db2 = Database.open_dir dir in
      check (Alcotest.list Alcotest.string) "tables restored" [ "products" ]
        (Database.list_tables db2);
      check Alcotest.int "rows restored" 10 (Database.row_count db2 ~table:"products");
      check
        (Alcotest.list Alcotest.string)
        "index restored" [ "regprice" ]
        (List.map
           (fun i -> i.Database.Index.ix_name)
           (Database.Index.list db2 ~table:"products" ~column:"doc"));
      let actual =
        db_query db2 ~table:"products" ~column:"doc"
          ~xpath:"/Catalog/Categories/Product[RegPrice > 50]"
      in
      check Alcotest.string "query results survive reopen" (show_matches expected)
        (show_matches actual);
      (* inserts continue with fresh docids *)
      let docid =
        Database.insert db2 ~table:"products"
          ~values:[ ("sku", Value.Varchar "NEW") ]
          ~xml:[ ("doc", product_doc ~name:"new" ~price:999. ~discount:0.0 ~category:"c") ]
          ()
      in
      check Alcotest.bool "fresh docid" true (docid > 10);
      Database.close db2)

let test_index_backfill () =
  (* index created after data exists must see existing documents *)
  let db = make_db ~with_indexes:false ~n:10 () in
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"products" ~column:"doc" ~name:"late"
    ~path:"/Catalog/Categories/Product/RegPrice" ~key_type:Rx_xindex.Index_def.K_double));
  let info =
    Database.explain db ~table:"products" ~column:"doc"
      ~xpath:"/Catalog/Categories/Product[RegPrice > 50]"
  in
  check Alcotest.bool "index used" true info.Database.uses_index;
  check (Alcotest.list Alcotest.int) "backfilled results" [ 6; 7; 8; 9; 10 ]
    (db_query_docids db ~table:"products" ~column:"doc"
       ~xpath:"/Catalog/Categories/Product[RegPrice > 50]")

(* --- property: random predicates, index = scan --- *)

let index_scan_equiv_prop =
  let db_idx = make_db ~with_indexes:true ~n:40 () in
  let db_scan = make_db ~with_indexes:false ~n:40 () in
  QCheck.Test.make ~name:"index plans agree with scans on random predicates"
    ~count:120
    QCheck.(pair (int_bound 420) (int_bound 4))
    (fun (threshold, shape) ->
      let q =
        match shape with
        | 0 -> Printf.sprintf "/Catalog/Categories/Product[RegPrice > %d]" threshold
        | 1 -> Printf.sprintf "/Catalog/Categories/Product[RegPrice <= %d]" threshold
        | 2 ->
            Printf.sprintf
              "/Catalog/Categories/Product[RegPrice > %d and Discount > 0.15]"
              threshold
        | 3 -> Printf.sprintf "/Catalog/Categories/Product[RegPrice = %d]" threshold
        | _ ->
            Printf.sprintf "/Catalog//Product[Discount >= %g]"
              (float_of_int (threshold mod 5) /. 10.)
      in
      let a = db_query db_idx ~table:"products" ~column:"doc" ~xpath:q in
      let b = db_query db_scan ~table:"products" ~column:"doc" ~xpath:q in
      show_matches a = show_matches b)

(* --- same-index range merge and the existential trap ---

   [RegPrice >= 5 and RegPrice < 6] holds for a Product priced 1.00 and
   900.00 (each conjunct is existential), though no single entry lies in
   [5, 6). The two ranges may become one closed scan only while the
   index's multi-value statistic shows no Product with two entries. *)

let trap_range = "/Catalog/Categories/Product[RegPrice >= 5 and RegPrice < 6]"

(* the same predicate in a shape no index serves *)
let trap_scan =
  "/Catalog/Categories/Product[(RegPrice >= 5 and RegPrice < 6) or \
   ProductName = \"no-such\"]"

let trap_doc =
  {|<Catalog><Categories category="c"><Product><RegPrice>1.00</RegPrice><ProductName>trap</ProductName><RegPrice>900.00</RegPrice></Product></Categories></Catalog>|}

let price_doc i price =
  product_doc ~name:(Printf.sprintf "p%d" i) ~price ~discount:0. ~category:"c"

let price_table db =
  ignore
    (Database.create_table db ~name:"p" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.Index.await
       (Database.Index.build db ~table:"p" ~column:"doc" ~name:"price"
          ~path:"/Catalog/Categories/Product/RegPrice"
          ~key_type:Rx_xindex.Index_def.K_double))

let insert_p ?txn db xml = Database.insert ?txn db ~table:"p" ~xml:[ ("doc", xml) ] ()

(* (docid, serialized match) rows and the run's counter deltas *)
let rows db xpath =
  let r = Database.run db ~table:"p" ~column:"doc" ~xpath in
  ( List.map (fun m -> (m.Database.docid, r.Database.serialize m)) r.Database.matches,
    r.Database.profile )

let delta profile name = Option.value (List.assoc_opt name profile) ~default:0
let show_rows rs = String.concat ";" (List.map (fun (d, x) -> Printf.sprintf "%d:%s" d x) rs)

(* the indexed answer equals the scan's, with and without a tail; returns
   whether the range was merged *)
let check_trap ?(msg = "") db =
  List.iter
    (fun tail ->
      let got, _ = rows db (trap_range ^ tail) in
      let want, _ = rows db (trap_scan ^ tail) in
      check Alcotest.string (msg ^ " = scan" ^ tail) (show_rows want) (show_rows got))
    [ ""; "/ProductName" ];
  let _, profile = rows db trap_range in
  check Alcotest.(list string) (msg ^ " statistic verifies") []
    (Database.verify db).Database.stale_index_stats;
  delta profile "xindex.range_merges" = 1

let load_prices db =
  List.iter (fun (i, p) -> ignore (insert_p db (price_doc i p))) [ (1, 5.5); (2, 7.); (3, 5.0) ]

let test_existential_trap () =
  let db = Database.create_in_memory () in
  price_table db;
  load_prices db;
  check Alcotest.bool "single-valued: merged" true (check_trap db);
  let _, merged_profile = rows db trap_range in
  let trap = insert_p db trap_doc in
  check Alcotest.bool "multi-valued: ANDed" false (check_trap ~msg:"trap" db);
  let got, profile = rows db (trap_range ^ "/ProductName") in
  check Alcotest.bool "the trap Product answers" true
    (List.exists (fun (d, x) -> d = trap && x = "<ProductName>trap</ProductName>") got);
  check Alcotest.int "one fallback" 1 (delta profile "xindex.range_merge_fallbacks");
  let _, anded_profile = rows db trap_range in
  (* deleting it brings the count back to 0: the same cached plan merges *)
  Database.delete db ~table:"p" ~docid:trap;
  check Alcotest.bool "after delete: merged" true (check_trap ~msg:"deleted" db);
  let _, profile = rows db trap_range in
  check Alcotest.bool "merged scan fetches fewer entries" true
    (delta profile "xindex.entries_fetched"
     < delta anded_profile "xindex.entries_fetched");
  check Alcotest.int "as before the trap" (delta merged_profile "xindex.entries_fetched")
    (delta profile "xindex.entries_fetched");
  (* an empty intersection scans nothing *)
  let got, profile =
    rows db "/Catalog/Categories/Product[RegPrice >= 6 and RegPrice < 6]"
  in
  check Alcotest.int "empty range: no rows" 0 (List.length got);
  check Alcotest.int "empty range: no entries" 0 (delta profile "xindex.entries_fetched")

let test_trap_rollback () =
  let db = Database.create_in_memory () in
  price_table db;
  load_prices db;
  let txn = Database.begin_txn db in
  ignore (insert_p ~txn db trap_doc);
  Database.rollback db txn;
  check Alcotest.bool "rolled back: merged" true (check_trap ~msg:"rollback" db);
  let txn = Database.begin_txn db in
  ignore (insert_p ~txn db trap_doc);
  Database.commit db txn;
  check Alcotest.bool "committed: ANDed" false (check_trap ~msg:"commit" db)

let with_temp_dir f =
  let dir = Filename.temp_file "rx_trap" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm (Filename.concat path x)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let test_trap_reopen_and_crash () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      price_table db;
      load_prices db;
      let trap = insert_p db trap_doc in
      Database.close db;
      let db = Database.open_dir ~page_size:1024 dir in
      check Alcotest.bool "reopened: ANDed" false (check_trap ~msg:"reopen" db);
      Database.delete db ~table:"p" ~docid:trap;
      Database.crash db;
      let db = Database.open_dir ~page_size:1024 dir in
      check Alcotest.bool "recovered delete: merged" true (check_trap ~msg:"crash" db);
      (* die part-way through inserting the trap: whatever survives, the
         statistic matches it *)
      let fault = Rx_storage.Fault.create () in
      Rx_storage.Fault.arm fault ~after:1 Rx_storage.Fault.Fail_write;
      Database.set_fault db (Some fault);
      (match insert_p db trap_doc with
      | _ -> ()
      | exception Rx_storage.Fault.Injected _ -> ());
      Database.crash db;
      let db = Database.open_dir ~page_size:1024 dir in
      let survived = Database.row_count db ~table:"p" = 4 in
      check Alcotest.bool "mid-insert crash: merged unless the trap survived"
        (not survived) (check_trap ~msg:"mid-insert" db);
      Database.close db)

let test_trap_split_anchor () =
  (* a record threshold small enough to split the Product: each record
     holds one price, but the anchor collects both *)
  let db = Database.create_in_memory ~record_threshold:64 () in
  price_table db;
  load_prices db;
  let long = String.make 80 'x' in
  let split =
    Printf.sprintf
      {|<Catalog><Categories category="c"><Product><RegPrice>1.00</RegPrice><ProductName>%s</ProductName><Stock>%s</Stock><RegPrice>900.00</RegPrice></Product></Categories></Catalog>|}
      long long
  in
  ignore (insert_p db split);
  check Alcotest.bool "split anchor: ANDed" false (check_trap ~msg:"split" db);
  let got, _ = rows db trap_range in
  check Alcotest.int "split Product answers" 3 (List.length got)

(* --- differential: indexed = DOM oracle = full scan ---

   Random catalogs whose Products carry 0-3 RegPrice values, random
   inserts and deletes, then random one- and two-sided ranges with and
   without a tail. The indexed answer must be byte-identical to the
   answer of Rx_baselines.Dom_xpath over each live document and to a full
   scan of a database without the index. *)

(* the serialized subtree of every node the DOM evaluation returns *)
let dom_rows dict docs xpath =
  let query = Rx_quickxscan.Query.compile_string dict xpath in
  List.concat_map
    (fun (docid, xml) ->
      let tokens = Array.of_list (Rx_xml.Parser.parse dict xml) in
      let seq_at = Hashtbl.create 64 in
      let seq = ref 0 in
      Array.iteri
        (fun i tok ->
          match tok with
          | Rx_xml.Token.Start_element { attrs; _ } ->
              incr seq;
              Hashtbl.replace seq_at !seq i;
              seq := !seq + List.length attrs
          | Rx_xml.Token.Text _ | Rx_xml.Token.Comment _ | Rx_xml.Token.Pi _ ->
              incr seq;
              Hashtbl.replace seq_at !seq i
          | _ -> ())
        tokens;
      let subtree i =
        let rec go j depth acc =
          let tok = tokens.(j) in
          let depth =
            match tok with
            | Rx_xml.Token.Start_element _ -> depth + 1
            | Rx_xml.Token.End_element -> depth - 1
            | _ -> depth
          in
          if depth = 0 then List.rev (tok :: acc) else go (j + 1) depth (tok :: acc)
        in
        go i 0 []
      in
      List.map
        (fun n -> (docid, Rx_xml.Serializer.to_string dict (subtree (Hashtbl.find seq_at n))))
        (Rx_baselines.Dom_xpath.eval query (Rx_baselines.Dom_xpath.build (Array.to_list tokens))))
    docs

let gen_catalog ~max_prices =
  let open QCheck.Gen in
  let product i =
    map2
      (fun prices stock ->
        Printf.sprintf "<Product>%s<ProductName>n%d</ProductName><Stock>%d</Stock></Product>"
          (String.concat ""
             (List.map (fun c -> Printf.sprintf "<RegPrice>%d.%02d</RegPrice>" (c / 100) (c mod 100)) prices))
          i stock)
      (list_size (int_bound max_prices) (int_range 100 1000))
      (int_bound 9)
  in
  map
    (fun ps ->
      "<Catalog><Categories category=\"c\">" ^ String.concat "" ps
      ^ "</Categories></Catalog>")
    (flatten_l (List.init 3 product))

(* a script: documents to insert, then positions (into the inserted list)
   to delete, then queries; its Products carry up to one or up to three
   prices *)
let gen_script =
  let open QCheck.Gen in
  let bound = map (fun c -> Printf.sprintf "%d.%02d" (c / 100) (c mod 100)) (int_range 90 1010) in
  let pred =
    oneof
      [
        map (fun (op, b) -> Printf.sprintf "RegPrice %s %s" op b)
          (pair (oneofl [ ">="; ">"; "<"; "<="; "=" ]) bound);
        map2
          (fun (lo_op, lo) (hi_op, hi) ->
            Printf.sprintf "RegPrice %s %s and RegPrice %s %s" lo_op lo hi_op hi)
          (pair (oneofl [ ">="; ">" ]) bound)
          (pair (oneofl [ "<"; "<=" ]) bound);
      ]
  in
  let query =
    map2
      (fun p tail -> Printf.sprintf "/Catalog/Categories/Product[%s]%s" p tail)
      pred (oneofl [ ""; "/ProductName"; "/Stock" ])
  in
  (* half the scripts keep every Product single-valued, so the merged
     scan runs as often as the ANDed one *)
  let* max_prices = oneofl [ 1; 3 ] in
  triple
    (list_size (int_range 1 8) (gen_catalog ~max_prices))
    (list_size (int_bound 3) (int_bound 7))
    (list_size (int_range 1 6) query)

let index_dom_scan_prop =
  QCheck.Test.make ~name:"indexed ranges = DOM oracle = full scan" ~count:60
    (QCheck.make
       ~print:(fun (docs, dels, qs) ->
         String.concat "\n" (docs @ List.map string_of_int dels @ qs))
       gen_script)
    (fun (docs, dels, queries) ->
      let make indexed =
        let db = Database.create_in_memory () in
        if indexed then price_table db
        else
          ignore
            (Database.create_table db ~name:"p" ~columns:[ ("doc", Value.T_xml) ]);
        let ids = List.map (fun xml -> (insert_p db xml, xml)) docs in
        let deleted =
          List.filter_map (fun i -> Option.map fst (List.nth_opt ids i)) dels
        in
        List.iter
          (fun d -> if List.mem_assoc d ids then Database.delete db ~table:"p" ~docid:d)
          (List.sort_uniq compare deleted);
        (db, List.filter (fun (d, _) -> not (List.mem d deleted)) ids)
      in
      let db, live = make true in
      let scan_db, _ = make false in
      List.for_all
        (fun q ->
          let got, _ = rows db q in
          let scanned, _ = rows scan_db q in
          let dom = dom_rows (Database.dict db) live q in
          if got = scanned && got = dom then true
          else
            QCheck.Test.fail_reportf "%s\nindexed %s\nscan    %s\ndom     %s" q
              (show_rows got) (show_rows scanned) (show_rows dom))
        queries
      && (Database.verify db).Database.stale_index_stats = [])

let () =
  Alcotest.run "systemrx"
    [
      ( "ddl_dml",
        [
          Alcotest.test_case "create/insert/fetch" `Quick test_create_insert_fetch;
          Alcotest.test_case "delete" `Quick test_delete_row;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "queries",
        [
          Alcotest.test_case "index = scan" `Quick test_index_matches_scan;
          Alcotest.test_case "plan selection (Table 2)" `Quick test_plan_selection;
          Alcotest.test_case "exact plan skips documents" `Quick
            test_exact_plan_skips_documents;
          Alcotest.test_case "serialized results" `Quick test_query_serialized;
          Alcotest.test_case "docid results" `Quick test_query_docids;
          qcheck index_scan_equiv_prop;
        ] );
      ( "schema",
        [ Alcotest.test_case "validated column" `Quick test_schema_bound_column ] );
      ( "surface",
        [
          Alcotest.test_case "multiple XML columns" `Quick test_multiple_xml_columns;
          Alcotest.test_case "namespaced queries" `Quick test_namespaced_queries;
          Alcotest.test_case "kind tests" `Quick test_kind_test_queries;
        ] );
      ( "updates",
        [
          Alcotest.test_case "facade sub-document updates" `Quick test_facade_updates;
          Alcotest.test_case "projection-tail index use" `Quick
            test_projection_tail_queries;
        ] );
      ( "durability",
        [
          Alcotest.test_case "reopen" `Quick test_durability_reopen;
          Alcotest.test_case "index backfill" `Quick test_index_backfill;
        ] );
      ( "ranges",
        [
          Alcotest.test_case "existential trap" `Quick test_existential_trap;
          Alcotest.test_case "rolled-back trap" `Quick test_trap_rollback;
          Alcotest.test_case "reopen and crash" `Quick test_trap_reopen_and_crash;
          Alcotest.test_case "anchor split across records" `Quick
            test_trap_split_anchor;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |])
            index_dom_scan_prop;
        ] );
    ]
