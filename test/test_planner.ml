(* Unit tests for access-path selection (§4.3 / Table 2) at the planner
   level, complementing the end-to-end checks in test_systemrx.ml. *)

open Rx_storage
open Rx_xindex
open Systemrx

let check = Alcotest.check

let dict = Rx_xml.Name_dict.create ()

let pool = Buffer_pool.create ~capacity:256 (Pager.create_in_memory ())

let mk_index name path key_type =
  Value_index.create pool dict (Index_def.make ~name ~path ~key_type)

let regprice = mk_index "regprice" "/c/p/price" Index_def.K_double
let discount = mk_index "discount" "//discount" Index_def.K_double
let sku = mk_index "sku" "/c/p/@sku" Index_def.K_string
let stock = mk_index "stock" "/c/p/stock" Index_def.K_integer
let indexes = [ regprice; discount; sku; stock ]

let plan q =
  let path = Rx_xpath.Rewrite.simplify (Rx_xpath.Xpath_parser.parse q) in
  Planner.plan ~indexes ~query:path

let describe q = Planner.describe (plan q)

let is_exact q =
  match plan q with
  | Planner.Index_access { exact; _ } -> exact
  | Planner.Full_scan -> false

let test_plan_shapes () =
  List.iter
    (fun (q, expected) -> check Alcotest.string q expected (describe q))
    [
      ("/c/p[price > 10]", "NODEID-LIST(regprice)");
      ("/c/p[price > 10 and discount < 0.2]", "NODEID-ANDING(regprice,discount)+FILTER");
      ("/c/p[discount < 0.2]", "NODEID-LIST(discount)+FILTER");
      ("//p[price > 10]", "FULL-SCAN(QuickXScan)"); (* //p/price has no index *)
      ("//p[discount > 0.1]", "DOCID-LIST(discount)+FILTER");
      ("/c/p[name = \"x\"]", "FULL-SCAN(QuickXScan)");
      ("/c/p", "FULL-SCAN(QuickXScan)");
      ("/c/p[price > 10]/name", "NODEID-LIST(regprice)+FILTER");
      (* two ranges on one index: ANDed in the plan, merged at execution
         while the index's multi-value statistic allows *)
      ("/c/p[price >= 5 and price < 6]", "NODEID-ANDING(regprice,regprice)");
      ("/c/p[price >= 5 and price < 6]/name",
       "NODEID-ANDING(regprice,regprice)+FILTER");
      ("/c/p[@sku = \"A1\"]", "NODEID-LIST(sku)");
      ("/c/p[stock >= 5]", "NODEID-LIST(stock)");
      (* Or at the top level defeats per-conjunct matching *)
      ("/c/p[price > 10 or discount < 0.2]", "FULL-SCAN(QuickXScan)");
      (* != cannot use one B+tree range *)
      ("/c/p[price != 10]", "FULL-SCAN(QuickXScan)");
      (* predicates on an earlier step with a clean tail *)
      ("/c/p[price > 10]/name/text()", "NODEID-LIST(regprice)+FILTER");
      (* flipped comparison *)
      ("/c/p[10 < price]", "NODEID-LIST(regprice)");
    ]

let test_exactness_rules () =
  check Alcotest.bool "exact range on exact index" true (is_exact "/c/p[price > 10]");
  check Alcotest.bool "projection tail is not exact" false
    (is_exact "/c/p[price > 10]/name");
  check Alcotest.bool "containment is not exact" false (is_exact "/c/p[discount < 1]");
  check Alcotest.bool "string equality is exact" true (is_exact "/c/p[@sku = \"A\"]");
  (* string order comparisons are numeric in XPath: K_string index unusable *)
  check Alcotest.string "string order comparison" "FULL-SCAN(QuickXScan)"
    (describe "/c/p[@sku > \"A\"]");
  (* integer index with a non-integral bound rounds to a safe range *)
  check Alcotest.string "non-integral integer bound" "NODEID-LIST(stock)"
    (describe "/c/p[stock > 2.5]");
  check Alcotest.bool "rounded bound stays exact" true (is_exact "/c/p[stock > 2.5]");
  check Alcotest.string "non-integral equality unusable" "FULL-SCAN(QuickXScan)"
    (describe "/c/p[stock = 2.5]")

(* anchor-exact plans carry their tail: the anchor step without predicates,
   then the steps below it *)
let test_anchored_tails () =
  let tail q =
    match plan q with
    | Planner.Index_access { tail = Some t; _ } -> Some (Rx_xpath.Ast.to_string t)
    | _ -> None
  in
  let some = Alcotest.(option string) in
  List.iter
    (fun (q, expected) -> check some q expected (tail q))
    [
      ("/c/p[price > 10]/name", Some "/p/name");
      ("/c/p[price > 10]/name/text()", Some "/p/name/text()");
      ("/c/p[price >= 5 and price < 6]/name", Some "/p/name");
      ("/c/p[@sku = \"A1\"]/name", Some "/p/name");
      (* exact: the anchors are the answer *)
      ("/c/p[price > 10]", None);
      (* containment, a conjunct no index covers, DocID granularity *)
      ("/c/p[discount < 0.2]/name", None);
      ("/c/p[price > 10 and discount < 0.2]/name", None);
      ("/c/p[price > 10 and name = \"x\"]/name", None);
      ("//p[discount > 0.1]/name", None);
    ]

let test_candidate_execution_empty () =
  (* executing candidates on empty indexes yields empty lists, not errors *)
  match plan "/c/p[price > 10]" with
  | Planner.Index_access _ as p -> (
      match Planner.execute_candidates ~indexes p with
      | `Anchors [] -> ()
      | `Anchors _ -> Alcotest.fail "expected no anchors on empty index"
      | _ -> Alcotest.fail "expected anchor granularity")
  | Planner.Full_scan -> Alcotest.fail "expected index plan"

let () =
  Alcotest.run "rx_planner"
    [
      ( "planner",
        [
          Alcotest.test_case "plan shapes" `Quick test_plan_shapes;
          Alcotest.test_case "exactness rules" `Quick test_exactness_rules;
          Alcotest.test_case "anchored tails" `Quick test_anchored_tails;
          Alcotest.test_case "empty-index execution" `Quick test_candidate_execution_empty;
        ] );
    ]
