(* E2 — Table 2: index-based access methods vs the QuickXScan full scan,
   across predicate selectivities. Reproduces the three access-method rows
   of Table 2 (DocID/NodeID list, filtering through a containing index,
   ANDing of two indexes) plus the no-index baseline. *)

open Systemrx
open Rx_relational

let n_docs = 2000

let build ~with_indexes =
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
  let gen = Rx_workload.Workload.create ~seed:42 in
  for i = 1 to n_docs do
    (* one product per document so DocID-list access is meaningful; prices
       spread uniformly over [5, 500) *)
    let doc =
      Printf.sprintf
        "<Catalog><Categories category=\"c\"><Product><RegPrice>%.2f</RegPrice><Discount>%.2f</Discount><ProductName>p-%d</ProductName></Product></Categories></Catalog>"
        (Rx_workload.Workload.random_price gen)
        (float_of_int (i mod 100) /. 100.)
        i
    in
    ignore
      (Database.insert db ~table:"products"
         ~values:[ ("sku", Value.Varchar (string_of_int i)) ]
         ~xml:[ ("doc", doc) ]
         ())
  done;
  db

let counter (r : Database.result) name =
  Option.value (List.assoc_opt name r.Database.profile) ~default:0

(* The existential trap: after Products with two prices each (one below,
   one above the range) join the table, the same-index range must fall
   back to ANDing and still answer exactly as the scan does. *)
let run_multi_valued_section db db_scan =
  Report.print_header "E2c  Same-index range on multi-valued Products";
  List.iter
    (fun i ->
      let doc =
        Printf.sprintf
          "<Catalog><Categories category=\"m\"><Product><RegPrice>1.00</RegPrice>\
           <RegPrice>%d.50</RegPrice><Discount>0.10</Discount>\
           <ProductName>multi-%d</ProductName></Product></Categories></Catalog>"
          (400 + i) i
      in
      List.iter
        (fun d ->
          ignore
            (Database.insert d ~table:"products"
               ~values:[ ("sku", Value.Varchar (Printf.sprintf "m%d" i)) ]
               ~xml:[ ("doc", doc) ] ()))
        [ db; db_scan ])
    (List.init 20 Fun.id);
  let rows =
    List.map
      (fun xpath ->
        let answer d =
          let r = Database.run d ~table:"products" ~column:"doc" ~xpath in
          (r, List.map (fun m -> (m.Database.docid, r.Database.serialize m)) r.Database.matches)
        in
        let r, indexed = answer db in
        let _, scanned = answer db_scan in
        ( indexed = scanned,
          [
            xpath;
            r.Database.plan.Database.description;
            string_of_int (List.length indexed);
            string_of_int (List.length scanned);
            string_of_int (counter r "xindex.range_merge_fallbacks");
            (if indexed = scanned then "yes" else "NO");
          ] ))
      [
        "/Catalog/Categories/Product[RegPrice >= 5 and RegPrice < 10]";
        "/Catalog/Categories/Product[RegPrice > 100 and RegPrice < 405]/ProductName";
      ]
  in
  Report.print_table
    ~columns:[ "query"; "plan"; "indexed"; "scan"; "fallbacks"; "equal" ]
    (List.map snd rows);
  List.for_all fst rows

(* §4.3's size argument: "for small documents, using indexes to identify
   qualifying documents would be efficient (DocID list access) ... for
   large documents, the DocID list access is no longer efficient. Instead,
   the NodeID list access applies." Few large documents, one exact index;
   compare returning anchors directly (NodeID) against fetching and
   re-evaluating each candidate document (DocID). *)
let run_document_size_section () =
  Report.print_header "E2b  DocID vs NodeID list access on large documents (§4.3)";
  let n_docs = 20 and products = 500 in
  Report.print_note "collection: %d documents x %d products" n_docs products;
  let pool = Bench_util.fresh_pool () in
  let store = Rx_xmlstore.Doc_store.create pool Bench_util.shared_dict in
  let def =
    Rx_xindex.Index_def.make ~name:"regprice"
      ~path:"/Catalog/Categories/Product/RegPrice"
      ~key_type:Rx_xindex.Index_def.K_double
  in
  let idx = Rx_xindex.Value_index.create pool Bench_util.shared_dict def in
  Rx_xindex.Value_index.hook idx store;
  let gen = Rx_workload.Workload.create ~seed:22 in
  for d = 1 to n_docs do
    Rx_xmlstore.Doc_store.insert_document store ~docid:d
      (Rx_workload.Workload.catalog_document gen ~categories:1
         ~products_per_category:products)
  done;
  let query =
    Rx_quickxscan.Query.compile_string Bench_util.shared_dict
      "/Catalog/Categories/Product[RegPrice > 495]"
  in
  let range =
    Option.get
      (Rx_xindex.Access.range_of_compare Rx_xpath.Ast.Gt (Rx_xml.Typed_value.Double 495.))
  in
  let nodeid_ms =
    Report.time_stable (fun () ->
        Rx_xindex.Access.anchored_nodeid_list idx range ~level:3)
  in
  let docid_ms =
    Report.time_stable ~min_time_ms:200. (fun () ->
        (* DocID list access: candidates, then re-evaluate each document *)
        let docids = Rx_xindex.Access.docid_list idx range in
        List.concat_map
          (fun docid ->
            List.map (fun n -> (docid, n)) (Executor.eval_stored query store ~docid))
          docids)
  in
  let scan_ms =
    Report.time_stable ~min_time_ms:400. (fun () ->
        List.init n_docs (fun i ->
            Executor.eval_stored query store ~docid:(i + 1)))
  in
  let n_matches = List.length (Rx_xindex.Access.anchored_nodeid_list idx range ~level:3) in
  let n_cand_docs = List.length (Rx_xindex.Access.docid_list idx range) in
  Report.print_table
    ~columns:[ "method"; "ms"; "notes" ]
    [
      [ "NodeID list (exact)"; Report.fmt_ms nodeid_ms;
        Printf.sprintf "%d anchors, no document access" n_matches ];
      [ "DocID list + re-eval"; Report.fmt_ms docid_ms;
        Printf.sprintf "%d candidate docs re-scanned" n_cand_docs ];
      [ "full scan"; Report.fmt_ms scan_ms; Printf.sprintf "%d docs scanned" n_docs ];
    ];
  Report.print_note
    "expected shape: on large documents nearly every document qualifies, so      DocID-list access degenerates toward the full scan while NodeID access      stays proportional to the matches."

let run () =
  Report.print_header "E2  Access methods vs selectivity (Table 2)";
  Report.print_note "collection: %d single-product documents" n_docs;
  let db = build ~with_indexes:true in
  let db_scan = build ~with_indexes:false in
  let selectivities = [ 0.001; 0.01; 0.1; 0.5 ] in
  let rows = ref [] in
  let fetched_per_match = ref [] in
  List.iter
    (fun sel ->
      (* RegPrice > x selects (500-x)/495 of the data *)
      let x = 500. -. (sel *. 495.) in
      let cases =
        [
          ( "list (exact)",
            Printf.sprintf "/Catalog/Categories/Product[RegPrice > %.2f]" x );
          ( "filtering (//)",
            Printf.sprintf "/Catalog/Categories/Product[Discount >= %.2f]"
              (1. -. sel) );
          ( "anding",
            Printf.sprintf
              "/Catalog/Categories/Product[RegPrice > %.2f and Discount >= 0.5]" x );
          (* two conjuncts on one index: one closed scan while no Product
             holds two prices *)
          ( "same-index range",
            Printf.sprintf
              "/Catalog/Categories/Product[RegPrice > %.2f and RegPrice < 500]" x );
        ]
      in
      List.iter
        (fun (label, xpath) ->
          let indexed =
            Report.time_stable (fun () ->
                (Database.run db ~table:"products" ~column:"doc" ~xpath)
                  .Database.matches)
          in
          let scanned =
            Report.time_stable ~min_time_ms:200. (fun () ->
                (Database.run db_scan ~table:"products" ~column:"doc" ~xpath)
                  .Database.matches)
          in
          let result = Database.run db ~table:"products" ~column:"doc" ~xpath in
          let n_matches = List.length result.Database.matches in
          if label = "same-index range" then
            fetched_per_match :=
              (sel, float_of_int (counter result "xindex.entries_fetched")
                    /. float_of_int (max 1 n_matches))
              :: !fetched_per_match;
          rows :=
            [
              Printf.sprintf "%.1f%%" (sel *. 100.);
              label;
              result.Database.plan.Database.description;
              string_of_int n_matches;
              Report.fmt_ms indexed;
              Report.fmt_ms scanned;
              Report.fmt_ratio (scanned /. indexed);
            ]
            :: !rows)
        cases)
    selectivities;
  Report.print_table
    ~columns:
      [ "selectivity"; "method"; "plan"; "matches"; "index-ms"; "scan-ms"; "speedup" ]
    (List.rev !rows);
  Report.print_note
    "expected shape: index access wins by orders of magnitude at low \
     selectivity; the gap narrows as selectivity grows (filtering pays \
     re-evaluation per candidate).";
  (* per-layer account of the 0.1%-selectivity list access vs the same query
     without indexes — where the speedup in the table above comes from *)
  let profile_of database xpath =
    (Database.run database ~table:"products" ~column:"doc" ~xpath).Database.profile
  in
  let xpath = "/Catalog/Categories/Product[RegPrice > 499.50]" in
  Report.print_note "\nengine counters, one 0.1%% list-access query (indexed):";
  Report.print_counters (profile_of db xpath);
  Report.print_note "same query, full scan:";
  Report.print_counters (profile_of db_scan xpath);
  let merge_ok =
    List.for_all
      (fun (sel, per) ->
        Report.print_note
          "same-index range at %.1f%%: %.2f index entries fetched per match \
           (gate: <= 2)"
          (sel *. 100.) per;
        per <= 2.)
      (List.rev !fetched_per_match)
  in
  let multi_ok = run_multi_valued_section db db_scan in
  run_document_size_section ();
  if not (merge_ok && multi_ok) then begin
    Report.print_note "E2: same-index range gate FAILED";
    exit 1
  end
