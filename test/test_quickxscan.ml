open Rx_xml
open Rx_quickxscan

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let dict = Name_dict.create ()
let tokens_of src = Parser.parse dict src

let eval src doc =
  let query = Query.compile_string dict src in
  Engine.eval_tokens query (tokens_of doc)

(* Independent reference: evaluate with the DOM baseline. *)
let eval_dom src doc =
  let query = Query.compile_string dict src in
  Rx_baselines.Dom_xpath.eval query (Rx_baselines.Dom_xpath.build (tokens_of doc))

let check_agree ?(msg = "") src doc =
  check (Alcotest.list Alcotest.int)
    (Printf.sprintf "%s %s on %s" msg src (String.sub doc 0 (min 60 (String.length doc))))
    (eval_dom src doc) (eval src doc)

(* --- basic main-path evaluation --- *)

(* sequence numbering: elements, attributes, then content, in doc order *)
let test_child_paths () =
  (* <a>(1) <b>(2) t(3) </b> <c>(4) <b>(5)</b> </c> </a> *)
  let doc = "<a><b>t</b><c><b/></c></a>" in
  check (Alcotest.list Alcotest.int) "/a" [ 1 ] (eval "/a" doc);
  check (Alcotest.list Alcotest.int) "/a/b" [ 2 ] (eval "/a/b" doc);
  check (Alcotest.list Alcotest.int) "//b" [ 2; 5 ] (eval "//b" doc);
  check (Alcotest.list Alcotest.int) "/a/c/b" [ 5 ] (eval "/a/c/b" doc);
  check (Alcotest.list Alcotest.int) "/a/b/text()" [ 3 ] (eval "/a/b/text()" doc);
  check (Alcotest.list Alcotest.int) "/x" [] (eval "/x" doc);
  check (Alcotest.list Alcotest.int) "/a/*" [ 2; 4 ] (eval "/a/*" doc)

let test_attributes () =
  (* attribute canonical order depends on dictionary intern order, so agree
     with the oracle rather than hard-coding sequence numbers *)
  let doc = {|<a id="1"><b id="2" x="3"/></a>|} in
  check (Alcotest.list Alcotest.int) "/a/@id" [ 2 ] (eval "/a/@id" doc);
  check_agree "//@id" doc;
  check_agree "/a/b/@*" doc;
  check Alcotest.int "//@id finds both" 2 (List.length (eval "//@id" doc))

let test_descendant_nested () =
  (* recursion: //a//a *)
  let doc = "<a><a><a/></a><b><a/></b></a>" in
  (* seq: a1=1 a2=2 a3=3 b=4 a4=5 *)
  check (Alcotest.list Alcotest.int) "//a" [ 1; 2; 3; 5 ] (eval "//a" doc);
  check (Alcotest.list Alcotest.int) "//a//a" [ 2; 3; 5 ] (eval "//a//a" doc);
  (* a4 (seq 5) has only one 'a' ancestor, so it needs exactly //a//a *)
  check (Alcotest.list Alcotest.int) "//a//a//a" [ 3 ] (eval "//a//a//a" doc)

let test_predicates_basic () =
  let doc =
    {|<catalog><product><price>50</price></product><product><price>150</price></product><product/></catalog>|}
  in
  (* seq: catalog=1 p1=2 price=3 "50"=4 p2=5 price=6 "150"=7 p3=8 *)
  check (Alcotest.list Alcotest.int) "existence" [ 2; 5 ]
    (eval "/catalog/product[price]" doc);
  check (Alcotest.list Alcotest.int) "gt" [ 5 ]
    (eval "/catalog/product[price > 100]" doc);
  check (Alcotest.list Alcotest.int) "lt" [ 2 ]
    (eval "/catalog/product[price < 100]" doc);
  check (Alcotest.list Alcotest.int) "eq string" [ 2 ]
    (eval "/catalog/product[price = \"50\"]" doc);
  check (Alcotest.list Alcotest.int) "not" [ 8 ]
    (eval "/catalog/product[not(price)]" doc);
  check (Alcotest.list Alcotest.int) "flipped literal" [ 5 ]
    (eval "/catalog/product[100 < price]" doc)

let test_figure6 () =
  (* the paper's query //s[.//t = "XML" and f/@w > 300] on a document shaped
     like Figure 6(b) *)
  let doc =
    {|<r><p><s1>x</s1><s><t1/><t>XML</t><f w="400"/></s></p><s><t>other</t><f w="500"/></s><s><t>XML</t><f w="200"/></s></r>|}
  in
  let result = eval {|//s[.//t = "XML" and f/@w > 300]|} doc in
  let dom = eval_dom {|//s[.//t = "XML" and f/@w > 300]|} doc in
  check (Alcotest.list Alcotest.int) "engine = dom" dom result;
  check Alcotest.int "exactly one s qualifies" 1 (List.length result)

let test_self_value_predicate () =
  let doc = "<r><x>alpha</x><x>beta</x></r>" in
  check (Alcotest.list Alcotest.int) "self value" [ 4 ]
    (eval "/r/x[. = \"beta\"]" doc);
  check_agree "/r/x[. = \"beta\"]" doc

let test_nested_element_value () =
  (* element string value concatenates descendant text *)
  let doc = "<r><x><y>al</y><y>pha</y></x></r>" in
  check (Alcotest.list Alcotest.int) "concatenated value" [ 2 ]
    (eval "/r/x[. = \"alpha\"]" doc);
  check_agree "/r/x[. = \"alpha\"]" doc

let test_and_or_not () =
  let doc =
    {|<r><e a="1" b="2"/><e a="1"/><e b="2"/><e/></r>|}
  in
  List.iter
    (fun q -> check_agree q doc)
    [
      "/r/e[@a and @b]";
      "/r/e[@a or @b]";
      "/r/e[not(@a) and @b]";
      "/r/e[not(@a or @b)]";
      "/r/e[@a = 1 and @b = 2]";
    ]

let test_deep_predicate_paths () =
  let doc =
    {|<lib><book><meta><isbn>111</isbn></meta></book><book><meta><isbn>222</isbn></meta></book></lib>|}
  in
  check_agree "/lib/book[meta/isbn = \"222\"]" doc;
  check_agree "//book[.//isbn = 111]" doc;
  check_agree "//book[meta[isbn = 111]]" doc

let test_parent_rewrite_query () =
  let doc = "<r><a><b/></a><a/></r>" in
  check (Alcotest.list Alcotest.int) "a/b/.." [ 2 ] (eval "/r/a/b/.." doc)

let test_comments_pis () =
  let doc = "<r><!--one--><a/><?p data?><!--two--></r>" in
  check_agree "//comment()" doc;
  check_agree "//processing-instruction()" doc;
  check (Alcotest.list Alcotest.int) "node() includes all" (eval_dom "/r/node()" doc)
    (eval "/r/node()" doc)

let test_max_active_bound () =
  (* |Q|·r bound: //a//a on a document of nested a's of depth r *)
  let deep r =
    let buf = Buffer.create 256 in
    Buffer.add_string buf "<r>";
    for _ = 1 to r do
      Buffer.add_string buf "<a>"
    done;
    for _ = 1 to r do
      Buffer.add_string buf "</a>"
    done;
    Buffer.add_string buf "</r>";
    Buffer.contents buf
  in
  let active r =
    let query = Query.compile_string dict "//a//a" in
    let t = Engine.create query in
    Engine.feed_tokens t ~item_of:(fun s -> s) (tokens_of (deep r));
    ignore (Engine.finish t);
    (Engine.max_active t, Query.size query)
  in
  let a8, q = active 8 in
  let a32, _ = active 32 in
  check Alcotest.bool "linear in r" true (a32 <= q * 32 + q && a8 <= q * 8 + q);
  (* the NFA baseline explodes on the same input *)
  let nfa r =
    let t = Rx_baselines.Nfa_stream.create dict (Rx_xpath.Xpath_parser.parse "//a//a") in
    Rx_baselines.Nfa_stream.feed_tokens t (tokens_of (deep r));
    Rx_baselines.Nfa_stream.max_active t
  in
  check Alcotest.bool "nfa grows faster" true (nfa 32 > a32)

let test_nfa_agrees_on_linear () =
  let docs =
    [
      "<a><b>t</b><c><b/></c></a>";
      "<a><a><a/></a><b><a/></b></a>";
      "<r><x><y/></x><x/><z><x><y/></x></z></r>";
    ]
  in
  let queries = [ "//b"; "/a/b"; "//a//a"; "//x/y"; "//z//y"; "/r/x" ] in
  List.iter
    (fun doc ->
      List.iter
        (fun q ->
          let nfa = Rx_baselines.Nfa_stream.create dict (Rx_xpath.Xpath_parser.parse q) in
          Rx_baselines.Nfa_stream.feed_tokens nfa (tokens_of doc);
          let expected = eval q doc in
          check (Alcotest.list Alcotest.int)
            (Printf.sprintf "%s on %s" q doc)
            expected
            (Rx_baselines.Nfa_stream.finish nfa))
        queries)
    docs

let test_values_output () =
  let doc = {|<c><p><n>ten</n><v>10</v></p><p><n>twenty</n><v>20</v></p></c>|} in
  let query = Query.compile_string ~value_output:true dict "/c/p/v" in
  let t = Engine.create query in
  Engine.feed_tokens t ~item_of:(fun s -> s) (tokens_of doc);
  let results = Engine.finish_with_values t in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.option Alcotest.string)))
    "values captured"
    [ (5, Some "10"); (10, Some "20") ]
    results

let test_binary_stream_agrees () =
  (* the virtual-SAX matrix (§4.4): evaluation over the binary buffered
     stream equals evaluation over the token list *)
  let doc =
    {|<r><a w="3"><b>x</b></a><c><a><b>y</b></a></c><!--m--><?p d?></r>|}
  in
  let tokens = tokens_of doc in
  let binary = Token_stream.encode_all tokens in
  List.iter
    (fun q ->
      let query = Query.compile_string dict q in
      let via_tokens = Engine.eval_tokens query tokens in
      let engine = Engine.create query in
      Engine.feed_binary engine ~item_of:(fun s -> s) binary;
      check (Alcotest.list Alcotest.int) q via_tokens (Engine.finish engine))
    [ "//a"; "//a[@w]"; "//a/b"; "//b[. = \"y\"]"; "//comment()"; "/r/node()" ]

(* --- Table 1: the four propagation scenarios --- *)

let test_table1_scenarios () =
  (* row 1: a/b, single b -> sequence of children of a *)
  check (Alcotest.list Alcotest.int) "row 1" [ 2 ] (eval "/a/b" "<a><b/></a>");
  (* row 2: a/b with two b children: both, no duplicates *)
  check (Alcotest.list Alcotest.int) "row 2" [ 2; 3 ] (eval "/a/b" "<a><b/><b/></a>");
  (* row 3: a//b with nested b's: both, sideways propagation, no dups *)
  check (Alcotest.list Alcotest.int) "row 3" [ 2; 3 ]
    (eval "/a//b" "<a><b><b/></b></a>");
  (* row 4: a//b with nested a's (relative: //a//b): every b once *)
  check (Alcotest.list Alcotest.int) "row 4" [ 3; 4 ]
    (eval "//a//b" "<a><a><b/></a><b/></a>")

let test_tricky_engine_cases () =
  (* cases engineered around the stack-top transitivity and propagation *)
  List.iter
    (fun (q, doc) -> check_agree ~msg:"tricky" q doc)
    [
      (* inner same-step match passes, outer fails, result under both *)
      ("//a[@w]//t", {|<a><a w="1"><t>x</t></a><t>y</t></a>|});
      (* value accumulation across nested value-needing instances *)
      ("//a[. = \"xy\"]", "<a><a>x</a>y</a>");
      (* self nesting with predicates on both levels *)
      ("//a[b]//a[c]", "<a><b/><a><c/><a><b/><c/></a></a></a>");
      (* descendant-or-self via explicit axis *)
      ("/r/descendant-or-self::node()/x", "<r><x/><g><x/></g></r>");
      (* attributes on deeply recursive elements *)
      ("//a//@w", {|<a w="1"><a w="2"><a w="3"/></a></a>|});
      (* predicate referencing a path that only exists via recursion *)
      ("//a[a/a]", "<a><a><a/></a></a>");
    ]

let test_predicate_with_nested_matches () =
  (* the hard case: //a[pred]//b with nested a's where only one a passes *)
  let doc = {|<a><a ok="1"><b/></a><b/></a>|} in
  (* seq: a1=1 a2=2 @ok=3 b1=4 b2=5; a2 passes, a1 fails:
     b1 under both -> qualifies via a2; b2 only under a1 -> excluded *)
  check (Alcotest.list Alcotest.int) "nested pred" [ 4 ] (eval "//a[@ok]//b" doc);
  check_agree "//a[@ok]//b" doc;
  (* inverse: outer passes, inner fails: both b's qualify via a1 *)
  let doc2 = {|<a ok="1"><a><b/></a><b/></a>|} in
  check (Alcotest.list Alcotest.int) "outer pred" [ 4; 5 ] (eval "//a[@ok]//b" doc2);
  check_agree "//a[@ok]//b" doc2

(* --- property test: engine agrees with the DOM oracle --- *)

let gen_doc =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec node depth =
    if depth = 0 then
      map (fun n -> Printf.sprintf "<t>%d</t>" n) (int_bound 200)
    else
      frequency
        [
          (1, map (fun n -> Printf.sprintf "<v>%d</v>" n) (int_bound 200));
          ( 4,
            map3
              (fun n attr children ->
                Printf.sprintf "<%s%s>%s</%s>" n
                  (match attr with
                  | None -> ""
                  | Some v -> Printf.sprintf " w=\"%d\"" v)
                  (String.concat "" children)
                  n)
              name
              (opt (int_bound 300))
              (list_size (int_bound 4) (node (depth - 1))) );
        ]
  in
  map (fun body -> "<root>" ^ body ^ "</root>") (node 4)

let query_pool =
  [|
    "//a";
    "//a//b";
    "//a/b";
    "/root//c";
    "//a[@w]";
    "//a[@w > 150]";
    "//b[v]";
    "//a[.//v = 100]";
    "//a[b and c]";
    "//a[b or @w]";
    "//a[not(b)]";
    "//a/@w";
    "//a//@w";
    "//b[v > 50]/t";
    "//a[v < 50 or @w >= 200]";
    "//*[@w]";
    "//a/text()";
    "//c[.//t]";
    "//a[b[v]]";
    "//a[v != 100]";
    "//*";
    "/root/*[@w]/t";
    "//b//t";
    "//a[.//b[v > 20]]";
    "//a[not(b) and not(c)]";
    "//b/node()";
    "//a[v and @w]";
    "//c//comment()";
    "//a[v = v]";
    "//b[.//t and @w]";
    "//a/b/t";
  |]

let engine_matches_dom_prop =
  QCheck.Test.make ~name:"QuickXScan agrees with DOM evaluation" ~count:800
    QCheck.(pair (make gen_doc) (int_bound (Array.length query_pool - 1)))
    (fun (doc, qi) ->
      let q = query_pool.(qi) in
      let tokens = tokens_of doc in
      let query = Query.compile_string dict q in
      let engine_result = Engine.eval_tokens query tokens in
      let dom_result = Rx_baselines.Dom_xpath.eval query (Rx_baselines.Dom_xpath.build tokens) in
      if engine_result <> dom_result then
        QCheck.Test.fail_reportf "query %s on %s: engine [%s] dom [%s]" q doc
          (String.concat ";" (List.map string_of_int engine_result))
          (String.concat ";" (List.map string_of_int dom_result))
      else true)

(* The stored scan — the executor feeding the engine from the record
   cursor, skipping content no step can reach — against the DOM, with each
   DOM sequence number mapped to its node ID (an attribute to its owner). *)
let stored_query_pool =
  Array.append query_pool
    [|
      "/root/a/b"; "/root/*/*/t"; "/root/a[b]/c"; "/root/*[@w > 100]/b/t";
      "/root/b[v > 50]/*"; "/root/a/text()"; "/root/c/@w"; "/root/*[t]/v";
      "/root/a[not(c)]/b[t]";
    |]

let stored_scan_matches_dom_prop =
  QCheck.Test.make ~name:"stored scan agrees with DOM evaluation" ~count:800
    QCheck.(
      triple (make gen_doc) (int_bound (Array.length stored_query_pool - 1)) (int_range 64 512))
    (fun (doc, qi, threshold) ->
      let q = stored_query_pool.(qi) in
      let pool =
        Rx_storage.Buffer_pool.create ~capacity:256 (Rx_storage.Pager.create_in_memory ())
      in
      let store = Rx_xmlstore.Doc_store.create ~record_threshold:threshold pool dict in
      Rx_xmlstore.Doc_store.insert_document store ~docid:1 doc;
      let ids = ref [] in
      Rx_xmlstore.Doc_store.events store ~docid:1 (fun e ->
          match (e.Rx_xmlstore.Doc_store.id, e.token) with
          | Some id, Token.Start_element { attrs; _ } ->
              ids := List.rev_append (List.map (fun _ -> id) (() :: List.map ignore attrs)) !ids
          | Some id, _ -> ids := id :: !ids
          | None, _ -> ());
      let ids = Array.of_list (List.rev !ids) in
      let query = Query.compile_string dict q in
      let dom =
        List.map (fun seq -> ids.(seq - 1))
          (Rx_baselines.Dom_xpath.eval query (Rx_baselines.Dom_xpath.build (tokens_of doc)))
      in
      let stored = Systemrx.Executor.eval_stored query store ~docid:1 in
      if stored <> dom then
        QCheck.Test.fail_reportf "query %s on %s: stored [%s] dom [%s]" q doc
          (String.concat ";" (List.map Rx_xmlstore.Node_id.to_hex stored))
          (String.concat ";" (List.map Rx_xmlstore.Node_id.to_hex dom))
      else true)

let nfa_matches_engine_prop =
  QCheck.Test.make ~name:"NFA baseline agrees on linear paths" ~count:300
    QCheck.(pair (make gen_doc) (int_bound 3))
    (fun (doc, qi) ->
      let q = [| "//a"; "//a//b"; "/root/a"; "//a/b" |].(qi) in
      let tokens = tokens_of doc in
      let nfa = Rx_baselines.Nfa_stream.create dict (Rx_xpath.Xpath_parser.parse q) in
      Rx_baselines.Nfa_stream.feed_tokens nfa tokens;
      Rx_baselines.Nfa_stream.finish nfa
      = Engine.eval_tokens (Query.compile_string dict q) tokens)

(* --- node-per-record baseline roundtrips --- *)

let test_node_per_record_roundtrip () =
  let pool =
    Rx_storage.Buffer_pool.create ~capacity:256 (Rx_storage.Pager.create_in_memory ())
  in
  let store = Rx_baselines.Node_per_record.create pool dict in
  let src = "<a><b x=\"1\">t</b><c><d/>u</c><!--m--></a>" in
  Rx_baselines.Node_per_record.insert_document store ~docid:5 src;
  check Alcotest.string "roundtrip" src
    (Rx_baselines.Node_per_record.serialize store ~docid:5);
  let stats = Rx_baselines.Node_per_record.stats store in
  (* a, b, t, c, d, u, comment = 7 records (attrs stay with their element) *)
  check Alcotest.int "one record per node" 7 stats.Rx_baselines.Node_per_record.records;
  check Alcotest.int "one index entry per node" 7
    stats.Rx_baselines.Node_per_record.index_entries

let node_per_record_matches_docstore_prop =
  QCheck.Test.make ~name:"node-per-record serializes like doc store" ~count:100
    (QCheck.make gen_doc) (fun doc ->
      let pool =
        Rx_storage.Buffer_pool.create ~capacity:512 (Rx_storage.Pager.create_in_memory ())
      in
      let npr = Rx_baselines.Node_per_record.create pool dict in
      let ds = Rx_xmlstore.Doc_store.create ~record_threshold:128 pool dict in
      Rx_baselines.Node_per_record.insert_document npr ~docid:1 doc;
      Rx_xmlstore.Doc_store.insert_document ds ~docid:1 doc;
      Rx_baselines.Node_per_record.serialize npr ~docid:1
      = Rx_xmlstore.Doc_store.serialize ds ~docid:1)

let () =
  Alcotest.run "rx_quickxscan"
    [
      ( "main path",
        [
          Alcotest.test_case "child paths" `Quick test_child_paths;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "descendant recursion" `Quick test_descendant_nested;
          Alcotest.test_case "comments and PIs" `Quick test_comments_pis;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "basic" `Quick test_predicates_basic;
          Alcotest.test_case "figure 6 query" `Quick test_figure6;
          Alcotest.test_case "self value" `Quick test_self_value_predicate;
          Alcotest.test_case "nested element value" `Quick test_nested_element_value;
          Alcotest.test_case "and/or/not" `Quick test_and_or_not;
          Alcotest.test_case "deep predicate paths" `Quick test_deep_predicate_paths;
          Alcotest.test_case "parent rewrite" `Quick test_parent_rewrite_query;
          Alcotest.test_case "nested matches with predicates" `Quick
            test_predicate_with_nested_matches;
          Alcotest.test_case "tricky engine cases" `Quick test_tricky_engine_cases;
        ] );
      ( "table 1",
        [ Alcotest.test_case "propagation scenarios" `Quick test_table1_scenarios ] );
      ( "complexity",
        [ Alcotest.test_case "O(|Q|·r) active instances" `Quick test_max_active_bound ] );
      ( "baselines",
        [
          Alcotest.test_case "nfa agrees on linear paths" `Quick test_nfa_agrees_on_linear;
          Alcotest.test_case "node-per-record roundtrip" `Quick
            test_node_per_record_roundtrip;
          qcheck nfa_matches_engine_prop;
          qcheck node_per_record_matches_docstore_prop;
        ] );
      ( "virtual sax",
        [ Alcotest.test_case "binary stream agrees" `Quick test_binary_stream_agrees ] );
      ( "values",
        [ Alcotest.test_case "value output" `Quick test_values_output ] );
      ( "oracle",
        [ qcheck engine_matches_dom_prop; qcheck stored_scan_matches_dom_prop ] );
    ]
