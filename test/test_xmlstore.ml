open Rx_storage
open Rx_xml
open Rx_xmlstore

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* --- Node_id --- *)

let test_node_id_components () =
  let id = "\x02\x03\x04\xff\x06" in
  check Alcotest.bool "valid" true (Node_id.is_valid id);
  check (Alcotest.list Alcotest.string) "components"
    [ "\x02"; "\x03\x04"; "\xff\x06" ]
    (Node_id.components id);
  check Alcotest.int "level" 3 (Node_id.level id);
  check (Alcotest.option Alcotest.string) "parent" (Some "\x02\x03\x04")
    (Node_id.parent id);
  check (Alcotest.option Alcotest.string) "last" (Some "\xff\x06")
    (Node_id.last_component id);
  check Alcotest.string "hex" "02.0304.ff06" (Node_id.to_hex id)

let test_node_id_root () =
  check Alcotest.bool "root valid" true (Node_id.is_valid Node_id.root);
  check Alcotest.int "root level" 0 (Node_id.level Node_id.root);
  check (Alcotest.option Alcotest.string) "root parent" None
    (Node_id.parent Node_id.root);
  check Alcotest.bool "root is ancestor of all" true
    (Node_id.is_ancestor ~ancestor:Node_id.root "\x02")

let test_node_id_ancestry () =
  let a = "\x02" and b = "\x02\x04" and c = "\x02\x04\x02" and d = "\x04" in
  check Alcotest.bool "a anc b" true (Node_id.is_ancestor ~ancestor:a b);
  check Alcotest.bool "a anc c" true (Node_id.is_ancestor ~ancestor:a c);
  check Alcotest.bool "b anc c" true (Node_id.is_ancestor ~ancestor:b c);
  check Alcotest.bool "not self" false (Node_id.is_ancestor ~ancestor:a a);
  check Alcotest.bool "self or" true (Node_id.is_ancestor_or_self ~ancestor:a a);
  check Alcotest.bool "sibling not anc" false (Node_id.is_ancestor ~ancestor:a d);
  (* byte prefix that is not a component prefix must not count: 0x03 is an
     extension byte, so "\x03\x02" has single component "\x03\x02" *)
  check Alcotest.bool "component-aware" false
    (Node_id.is_ancestor ~ancestor:"\x02" "\x03\x02")

let test_node_id_sibling_sequence () =
  (* nth_sibling_rel must be strictly increasing and valid for many ids *)
  let prev = ref "" in
  for n = 0 to 1000 do
    let rel = Node_id.nth_sibling_rel n in
    check Alcotest.bool (Printf.sprintf "valid %d" n) true (Node_id.is_valid_rel rel);
    if n > 0 then
      check Alcotest.bool (Printf.sprintf "increasing %d" n) true
        (String.compare !prev rel < 0);
    prev := rel
  done

let test_node_id_next_before () =
  let r = Node_id.first_child_rel in
  let n1 = Node_id.next_sibling_rel r in
  check Alcotest.bool "next greater" true (String.compare r n1 < 0);
  check Alcotest.bool "next valid" true (Node_id.is_valid_rel n1);
  let b = Node_id.before_rel r in
  check Alcotest.bool "before smaller" true (String.compare b r < 0);
  check Alcotest.bool "before valid" true (Node_id.is_valid_rel b);
  (* overflow extension at 0xfe *)
  let x = Node_id.next_sibling_rel "\xfe" in
  check Alcotest.string "fe extends" "\xff\x02" x

let test_node_id_between_examples () =
  List.iter
    (fun (a, b) ->
      let m = Node_id.between_rel a b in
      check Alcotest.bool
        (Printf.sprintf "valid between %s %s" (Node_id.to_hex a) (Node_id.to_hex b))
        true (Node_id.is_valid_rel m);
      check Alcotest.bool "strictly between" true
        (String.compare a m < 0 && String.compare m b < 0))
    [
      ("\x02", "\x04");
      ("\x02", "\x06");
      ("\x02", "\x03\x02");
      ("\x03\x02", "\x04");
      ("\x02", "\x03\x03\x02");
      ("\xfe", "\xff\x02");
      ("\x03\x04", "\x03\x06");
      ("\x01\x02", "\x02");
    ]

(* deep insertion: repeatedly split the same gap; ids stay valid, ordered,
   and bounded in a reasonable length (stability under update, §3.1) *)
let test_node_id_between_stress () =
  let a = ref "\x02" and b = ref "\x04" in
  for i = 0 to 200 do
    let m = Node_id.between_rel !a !b in
    check Alcotest.bool (Printf.sprintf "valid at %d" i) true (Node_id.is_valid_rel m);
    check Alcotest.bool "ordered" true
      (String.compare !a m < 0 && String.compare m !b < 0);
    if i mod 2 = 0 then a := m else b := m
  done

let rel_gen =
  (* random valid components, biased to interesting shapes *)
  QCheck.Gen.(
    map2
      (fun odds last ->
        String.concat ""
          (List.map (fun o -> String.make 1 (Char.chr ((2 * (o mod 127)) + 1))) odds)
        ^ String.make 1 (Char.chr (2 * (1 + (last mod 127)))))
      (list_size (int_bound 3) nat)
      nat)

let node_id_between_prop =
  QCheck.Test.make ~name:"between_rel is valid and strictly between" ~count:2000
    QCheck.(pair (make rel_gen) (make rel_gen))
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let lo, hi = if String.compare a b < 0 then (a, b) else (b, a) in
      let m = Node_id.between_rel lo hi in
      Node_id.is_valid_rel m && String.compare lo m < 0 && String.compare m hi < 0)

let node_id_order_concat_prop =
  (* document order: comparing absolute ids as strings equals comparing
     component sequences lexicographically *)
  QCheck.Test.make ~name:"absolute id comparison is component-lexicographic"
    ~count:2000
    QCheck.(
      pair
        (list_of_size (Gen.int_bound 4) (make rel_gen))
        (list_of_size (Gen.int_bound 4) (make rel_gen)))
    (fun (xs, ys) ->
      let ax = String.concat "" xs and ay = String.concat "" ys in
      compare (Node_id.compare ax ay) 0 = compare (compare xs ys) 0)

(* --- packing: the Figure 3 example --- *)

let dict = Name_dict.create ()
let q name = Qname.make (Name_dict.intern dict name)

let fig3_tokens =
  (* Node1 with children: Node2 (children Node3 Node4 Node5), Node6,
     Node7 (child Node8). Text payloads sized so that exactly Node2's
     subtree overflows a small threshold. *)
  let el name children =
    (Token.element (q name) :: children) @ [ Token.End_element ]
  in
  let leaf name text = el name [ Token.text text ] in
  [ Token.Start_document ]
  @ el "Node1"
      (el "Node2"
         (leaf "Node3" (String.make 40 'x')
         @ leaf "Node4" (String.make 40 'y')
         @ leaf "Node5" (String.make 40 'z'))
      @ el "Node6" []
      @ el "Node7" (el "Node8" []))
  @ [ Token.End_document ]

let test_fig3_two_records_three_entries () =
  let records = Packer.records_of_tokens ~threshold:200 fig3_tokens in
  check Alcotest.int "two records" 2 (List.length records);
  match records with
  | [ sub; root ] ->
      let sub_header, _ = Record_format.decode_header sub in
      let root_header, _ = Record_format.decode_header root in
      (* the flushed record's context is Node1 (id 02) *)
      check Alcotest.string "sub context" "\x02" sub_header.Record_format.context;
      check Alcotest.string "root context" "" root_header.Record_format.context;
      check (Alcotest.list Alcotest.string) "sub context path names"
        [ "Node1" ]
        (List.map
           (fun (_, local) -> Name_dict.name dict local)
           sub_header.Record_format.path);
      let endpoints r = Record_format.interval_endpoints r in
      (* Node2 subtree: 0202 .. its last text node *)
      check Alcotest.int "sub record one interval" 1 (List.length (endpoints sub));
      check Alcotest.int "root record two intervals" 2 (List.length (endpoints root));
      check Alcotest.string "first root interval ends at Node1" "\x02"
        (List.hd (endpoints root));
      check Alcotest.string "sub interval starts at Node2 subtree" "02.02"
        (Node_id.to_hex (Record_format.min_node_id sub))
  | _ -> assert false

let test_packing_single_record_small_doc () =
  let records = Packer.records_of_tokens ~threshold:4096 fig3_tokens in
  check Alcotest.int "one record" 1 (List.length records);
  let record = List.hd records in
  (* 9 elements + 3 texts inline *)
  check Alcotest.int "inline nodes" 11 (Record_format.node_count record);
  check Alcotest.int "one interval" 1
    (List.length (Record_format.interval_endpoints record))

(* --- doc store --- *)

let make_store ?(threshold = 256) () =
  let pool = Buffer_pool.create ~capacity:512 (Pager.create_in_memory ()) in
  Doc_store.create ~record_threshold:threshold pool dict

let strip_doc tokens =
  List.filter
    (fun t ->
      match t with Token.Start_document | Token.End_document -> false | _ -> true)
    tokens

let test_store_roundtrip () =
  let store = make_store () in
  let src =
    {|<catalog><product id="1"><name>Widget</name><price>19.99</price></product><product id="2"><name>Gadget</name><price>5.25</price></product></catalog>|}
  in
  Doc_store.insert_document store ~docid:1 src;
  let out = Doc_store.serialize store ~docid:1 in
  check Alcotest.string "roundtrip" src out

let test_store_roundtrip_tiny_threshold () =
  let store = make_store ~threshold:64 () in
  let src =
    {|<r><a><b>one</b><c>two</c><d>three</d></a><e>four</e><f><g><h>five</h></g></f></r>|}
  in
  Doc_store.insert_document store ~docid:7 src;
  check Alcotest.bool "multiple records" true ((Doc_store.stats store).Doc_store.records > 1);
  check Alcotest.string "roundtrip across proxies" src
    (Doc_store.serialize store ~docid:7)

let test_store_document_order_ids () =
  let store = make_store ~threshold:64 () in
  Doc_store.insert_document store ~docid:3
    "<r><a><b>t</b></a><c/><d><e/><f/></d></r>";
  let ids = ref [] in
  Doc_store.events store ~docid:3 (fun e ->
      match e.Doc_store.id with Some id -> ids := id :: !ids | None -> ());
  let ids = List.rev !ids in
  check Alcotest.int "all nodes seen" 8 (List.length ids);
  let sorted = List.sort Node_id.compare ids in
  check Alcotest.bool "event order is document order" true (ids = sorted);
  check Alcotest.bool "all distinct" true
    (List.length (List.sort_uniq Node_id.compare ids) = List.length ids)

let test_store_multi_document () =
  let store = make_store () in
  Doc_store.insert_document store ~docid:1 "<a>first</a>";
  Doc_store.insert_document store ~docid:2 "<b>second</b>";
  Doc_store.insert_document store ~docid:3 "<c>third</c>";
  check Alcotest.string "doc1" "<a>first</a>" (Doc_store.serialize store ~docid:1);
  check Alcotest.string "doc2" "<b>second</b>" (Doc_store.serialize store ~docid:2);
  check Alcotest.string "doc3" "<c>third</c>" (Doc_store.serialize store ~docid:3);
  check Alcotest.bool "mem" true (Doc_store.mem store ~docid:2);
  check Alcotest.bool "not mem" false (Doc_store.mem store ~docid:9)

let test_store_delete () =
  let store = make_store ~threshold:64 () in
  Doc_store.insert_document store ~docid:1 "<keep><x>1</x></keep>";
  Doc_store.insert_document store ~docid:2
    "<drop><y>2</y><z><w>deep</w></z></drop>";
  let before = Doc_store.stats store in
  Doc_store.delete_document store ~docid:2;
  let after = Doc_store.stats store in
  check Alcotest.int "document count" 1 after.Doc_store.documents;
  check Alcotest.bool "records freed" true
    (after.Doc_store.records < before.Doc_store.records);
  check Alcotest.bool "index entries freed" true
    (after.Doc_store.index_entries < before.Doc_store.index_entries);
  check Alcotest.string "other doc unaffected" "<keep><x>1</x></keep>"
    (Doc_store.serialize store ~docid:1);
  Alcotest.check_raises "double delete"
    (Invalid_argument "Doc_store: no document 2") (fun () ->
      Doc_store.delete_document store ~docid:2)

let test_store_observers () =
  let store = make_store ~threshold:64 () in
  let inserted = ref 0 and deleted = ref 0 in
  let rec_id =
    Doc_store.add_record_observer store (fun ~docid:_ ~rid:_ ~record:_ ->
        incr inserted)
  in
  ignore
    (Doc_store.add_delete_observer store (fun ~docid:_ ~rid:_ ~record:_ ->
         incr deleted));
  Doc_store.insert_document store ~docid:1 "<r><a>xxx</a><b>yyy</b><c>zzz</c></r>";
  check Alcotest.bool "insert observer fired per record" true (!inserted >= 1);
  Doc_store.delete_document store ~docid:1;
  check Alcotest.int "delete observer fired same count" !inserted !deleted;
  (* removing the record observer stops maintenance callbacks *)
  let before = !inserted in
  Doc_store.remove_record_observer store rec_id;
  Doc_store.insert_document store ~docid:2 "<r><a>qqq</a></r>";
  check Alcotest.int "removed observer does not fire" before !inserted

(* --- cursor --- *)

let test_cursor_navigation () =
  let store = make_store ~threshold:64 () in
  Doc_store.insert_document store ~docid:1
    "<r><a><a1/><a2/></a><b>text</b><c><c1><c2/></c1></c></r>";
  let name c =
    match Doc_store.Cursor.entry c with
    | Record_tree.Element { name; _ } -> Name_dict.name dict name.Qname.local
    | Record_tree.Text _ -> "#text"
    | _ -> "?"
  in
  let root = Option.get (Doc_store.Cursor.root store ~docid:1) in
  check Alcotest.string "root" "r" (name root);
  let a = Option.get (Doc_store.Cursor.first_child store root) in
  check Alcotest.string "a" "a" (name a);
  let b = Option.get (Doc_store.Cursor.next_sibling store a) in
  check Alcotest.string "b skips a's subtree" "b" (name b);
  let c = Option.get (Doc_store.Cursor.next_sibling store b) in
  check Alcotest.string "c" "c" (name c);
  check Alcotest.bool "no more siblings" true
    (Doc_store.Cursor.next_sibling store c = None);
  let c1 = Option.get (Doc_store.Cursor.first_child store c) in
  check Alcotest.string "c1" "c1" (name c1);
  let back = Option.get (Doc_store.Cursor.parent store ~docid:1 c1) in
  check Alcotest.string "parent of c1" "c" (name back);
  let txt = Option.get (Doc_store.Cursor.first_child store b) in
  check Alcotest.string "text node" "#text" (name txt);
  check Alcotest.bool "text has no children" true
    (Doc_store.Cursor.first_child store txt = None)

let test_cursor_find () =
  let store = make_store ~threshold:64 () in
  Doc_store.insert_document store ~docid:1 "<r><a/><b><b1>v</b1></b><c/></r>";
  (* collect (id, some identity) from events, then find each by id *)
  let nodes = ref [] in
  Doc_store.events store ~docid:1 (fun e ->
      match e.Doc_store.id with Some id -> nodes := id :: !nodes | None -> ());
  List.iter
    (fun id ->
      match Doc_store.Cursor.find store ~docid:1 id with
      | Some c ->
          check Alcotest.string "found the right node"
            (Node_id.to_hex id)
            (Node_id.to_hex (Doc_store.Cursor.node_id c))
      | None -> Alcotest.failf "node %s not found" (Node_id.to_hex id))
    !nodes;
  check Alcotest.bool "missing node" true
    (Doc_store.Cursor.find store ~docid:1 "\x7f\x7f\x02" = None)

let test_subtree_events () =
  let store = make_store ~threshold:64 () in
  Doc_store.insert_document store ~docid:1
    "<r><a><x>1</x></a><b><y>2</y><z>3</z></b></r>";
  (* find b's id: second child of root *)
  let root = Option.get (Doc_store.Cursor.root store ~docid:1) in
  let a = Option.get (Doc_store.Cursor.first_child store root) in
  let b = Option.get (Doc_store.Cursor.next_sibling store a) in
  let b_id = Doc_store.Cursor.node_id b in
  let tokens = ref [] in
  Doc_store.subtree_events store ~docid:1 b_id (fun e ->
      tokens := e.Doc_store.token :: !tokens);
  let out = Serializer.to_string dict (List.rev !tokens) in
  check Alcotest.string "subtree serialization" "<b><y>2</y><z>3</z></b>" out

(* --- property: random documents roundtrip at random thresholds --- *)

let gen_xml_doc =
  (* generate random token documents using a small name pool *)
  let open QCheck.Gen in
  let qname = map (fun i -> q [| "a"; "b"; "c"; "d"; "item" |].(i mod 5)) nat in
  let text = map (fun n -> String.make (1 + (n mod 60)) 't') nat in
  let rec node depth =
    if depth = 0 then map (fun s -> [ Token.text s ]) text
    else
      frequency
        [
          (2, map (fun s -> [ Token.text s ]) text);
          ( 3,
            map2
              (fun name children ->
                (Token.element name :: List.concat children) @ [ Token.End_element ])
              qname
              (list_size (int_bound 4) (node (depth - 1))) );
        ]
  in
  map2
    (fun name children ->
      [ Token.Start_document; Token.element name ]
      @ List.concat children
      @ [ Token.End_element; Token.End_document ])
    qname
    (list_size (int_bound 5) (node 3))

let store_roundtrip_prop =
  QCheck.Test.make ~name:"store roundtrip at random thresholds" ~count:150
    QCheck.(pair (make gen_xml_doc) (QCheck.make (QCheck.Gen.int_range 64 2048)))
    (fun (tokens, threshold) ->
      let store = make_store ~threshold () in
      Doc_store.insert_tokens store ~docid:42 tokens;
      let out = Doc_store.tokens store ~docid:42 in
      List.equal Token.equal (strip_doc tokens) (strip_doc out))

let store_ids_sorted_prop =
  QCheck.Test.make ~name:"event ids are document-ordered at any threshold"
    ~count:100
    QCheck.(pair (make gen_xml_doc) (QCheck.make (QCheck.Gen.int_range 64 512)))
    (fun (tokens, threshold) ->
      let store = make_store ~threshold () in
      Doc_store.insert_tokens store ~docid:1 tokens;
      let ids = ref [] in
      Doc_store.events store ~docid:1 (fun e ->
          match e.Doc_store.id with Some id -> ids := id :: !ids | None -> ());
      let ids = List.rev !ids in
      ids = List.sort Node_id.compare ids)

(* --- reading in place: differential and fuzz --- *)

(* Documents with namespaces declared on ancestors, prefixed names,
   attributes and texts with type annotations, comments and PIs. *)
let rich_doc_gen =
  let open QCheck.Gen in
  let id = Name_dict.intern dict in
  let name =
    map3
      (fun i p u ->
        let local = id [| "a"; "b"; "item"; "x" |].(i) in
        if p = 0 then Qname.make local
        else Qname.make ~prefix:(id [| ""; "p"; "q" |].(p)) ~uri:(id [| "urn:one"; "urn:two" |].(u)) local)
      (int_bound 3) (int_bound 2) (int_bound 1)
  in
  let annot =
    oneofl
      [ None; Some (Typed_value.Double 2.5); Some (Typed_value.Integer 7);
        Some (Typed_value.Boolean true); Some (Typed_value.String "s");
        Some (Typed_value.Date { year = 2005; month = 6; day = 14 });
        Some (Typed_value.Decimal (Rx_util.Decimal.of_string_exn "-12.50")) ]
  in
  let text = oneofl [ "plain"; "a<b&c>\"d'"; "x"; "  spaced  "; "12.50" ] in
  let attrs =
    map
      (fun picks ->
        List.filteri (fun i _ -> List.nth picks i) [ "id"; "lang"; "n" ]
        |> List.map (fun n -> Token.attr ~annot:(Typed_value.String n) (Qname.make (id n)) "v&<\"1\""))
      (list_repeat 3 bool)
  in
  let ns_decls =
    map
      (fun picks ->
        List.filteri (fun i _ -> List.nth picks i)
          [ (id "p", id "urn:one"); (id "q", id "urn:two"); (0, id "urn:two") ])
      (list_repeat 3 (map (fun n -> n mod 4 = 0) nat))
  in
  let leaf =
    frequency
      [ (4, map2 (fun content annot -> Token.Text { content; annot }) text annot);
        (1, map (fun c -> Token.Comment c) (oneofl [ ""; "note"; "a-b" ]));
        (1, map (fun d -> Token.Pi { target = "pi"; data = d }) (oneofl [ ""; "go now" ])) ]
  in
  let rec node depth =
    if depth = 0 then map (fun t -> [ t ]) leaf
    else
      frequency
        [ (1, map (fun t -> [ t ]) leaf);
          ( 3,
            map4
              (fun name attrs ns_decls children ->
                (Token.Start_element { name; attrs; ns_decls } :: List.concat children)
                @ [ Token.End_element ])
              name attrs ns_decls (list_size (int_bound 4) (node (depth - 1))) ) ]
  in
  map2
    (fun root children ->
      [ Token.Start_document ] @ (match root with r :: _ -> [ r ] | [] -> [])
      @ List.concat children @ [ Token.End_element; Token.End_document ])
    (map (fun t -> [ List.hd t ]) (node 1) |> map (fun t ->
         match t with
         | [ (Token.Start_element _ as s) ] -> [ s ]
         | _ -> [ Token.element (Qname.make (id "root")) ]))
    (list_size (int_range 1 5) (node 3))

let events_of store ~docid =
  let acc = ref [] in
  Doc_store.events store ~docid (fun e -> acc := e :: !acc);
  List.rev !acc

(* the tokens of the subtree whose first event is the head of [evs] *)
let rec subtree_slice depth acc = function
  | [] -> List.rev acc
  | (e : Doc_store.event) :: rest -> (
      let acc = e.token :: acc in
      match e.token with
      | Token.Start_element _ -> subtree_slice (depth + 1) acc rest
      | Token.End_element -> if depth = 1 then List.rev acc else subtree_slice (depth - 1) acc rest
      | _ -> if depth = 0 then List.rev acc else subtree_slice depth acc rest)

let in_scope decls = List.sort_uniq compare (List.fold_left (fun m (p, u) -> (p, u) :: List.remove_assoc p m) [] decls)

(* Whole documents against the token serializer over the generated tokens;
   every subtree's in-place serialization against the serializer over its
   materialized events, which must be the document's events for that
   subtree, the root also carrying every namespace in scope at it. *)
let serialization_differential_prop =
  QCheck.Test.make ~name:"in-place serialization equals the token serializer" ~count:120
    QCheck.(pair (make rich_doc_gen) (make (QCheck.Gen.int_range 64 400)))
    (fun (tokens, threshold) ->
      let store = make_store ~threshold () in
      Doc_store.insert_tokens store ~docid:5 tokens;
      let whole = Serializer.to_string dict tokens in
      let fail fmt = QCheck.Test.fail_reportf ("%s@." ^^ fmt) whole in
      let stored = Doc_store.serialize store ~docid:5 in
      if stored <> whole then fail "document serialized as %s" stored;
      let evs = events_of store ~docid:5 in
      if not (List.equal Token.equal tokens (List.map (fun (e : Doc_store.event) -> e.token) evs))
      then fail "events differ from the inserted tokens";
      let scope_of id =
        List.concat_map
          (fun (e : Doc_store.event) ->
            match (e.id, e.token) with
            | Some a, Token.Start_element el when Node_id.is_ancestor_or_self ~ancestor:a id ->
                el.Token.ns_decls
            | _ -> [])
          evs
      in
      let same_but_ns a b =
        match (a, b) with
        | Token.Start_element x, Token.Start_element y ->
            Qname.equal x.Token.name y.Token.name && x.Token.attrs = y.Token.attrs
        | _ -> Token.equal a b
      in
      let rec check_suffixes = function
        | [] -> true
        | ({ Doc_store.id = Some id; _ } :: _ as suffix) ->
            let sub = ref [] in
            Doc_store.subtree_events store ~docid:5 id (fun e -> sub := e.token :: !sub);
            let sub = List.rev !sub in
            let expected = subtree_slice 0 [] suffix in
            let in_place = Doc_store.serialize_subtree store ~docid:5 id in
            if in_place <> Serializer.to_string dict sub then
              fail "subtree %s serialized as %s" (Node_id.to_hex id) in_place;
            if not (List.length sub = List.length expected && List.for_all2 same_but_ns sub expected)
            then fail "subtree %s events differ" (Node_id.to_hex id);
            (match sub with
            | Token.Start_element el :: _ ->
                let decls = el.Token.ns_decls in
                if in_scope decls <> in_scope (scope_of id)
                   || List.length decls <> List.length (List.sort_uniq compare (List.map fst decls))
                then fail "subtree %s namespaces" (Node_id.to_hex id)
            | _ -> ());
            check_suffixes (List.tl suffix)
        | _ :: rest -> check_suffixes rest
      in
      check_suffixes evs)

(* Damaged records: readers raise only Invalid_argument with their own
   message (never a bounds failure of the runtime), stop, and allocate in
   proportion to the record bytes, not to a length they read. *)
let test_cursor_fuzz () =
  let rand = Random.State.make [| 2005 |] in
  let gen = QCheck.Gen.generate ~rand ~n:30 rich_doc_gen in
  let runtime_bounds msg =
    List.exists
      (fun p -> String.length msg >= String.length p && String.sub msg 0 (String.length p) = p)
      [ "index out of bounds"; "String.sub"; "Bytes.sub"; "String.blit"; "Bytes.blit"; "Buffer.add" ]
  in
  let cases = ref 0 and typed = ref 0 in
  List.iteri
    (fun i tokens ->
      let pool = Buffer_pool.create ~capacity:512 (Pager.create_in_memory ()) in
      let store = Doc_store.create ~record_threshold:64 pool dict in
      Doc_store.insert_tokens store ~docid:1 tokens;
      let ids = List.filter_map (fun (e : Doc_store.event) -> e.id) (events_of store ~docid:1) in
      let records = ref [] in
      Doc_store.iter_records store ~docid:1 (fun ~rid ~record -> records := (rid, record) :: !records);
      let bytes = List.fold_left (fun n (_, r) -> n + String.length r) 0 !records in
      let heap = Heap_file.attach pool ~header_page:(Doc_store.heap_header store) in
      List.iter
        (fun (rid, record) ->
          for k = 0 to 9 do
            let len = String.length record in
            let damaged =
              match k mod 3 with
              | 0 -> String.sub record 0 (Random.State.int rand len)
              | 1 ->
                  let b = Bytes.of_string record and pos = Random.State.int rand len in
                  Bytes.set b pos (Char.chr (Char.code record.[pos] lxor (1 lsl Random.State.int rand 8)));
                  Bytes.to_string b
              | _ ->
                  let b = Bytes.of_string record and pos = Random.State.int rand len in
                  Bytes.set b pos (if Random.State.bool rand then '\xff' else '\x80');
                  Bytes.to_string b
            in
            ignore (Heap_file.update heap rid damaged);
            let store =
              Doc_store.attach ~record_threshold:64 pool dict
                ~heap_header:(Doc_store.heap_header store) ~index_meta:(Doc_store.index_meta store)
            in
            let c = Record_format.create_cursor () in
            let read_all (c : Record_format.cursor) =
              ignore (Record_format.node_id c);
              match c.kind with
              | Record_format.K_element ->
                  ignore (Record_format.attrs c, Record_format.ns_decls c, Record_format.qname c)
              | Record_format.K_text -> ignore (Record_format.str c, Record_format.text_annot c)
              | _ -> ignore (Record_format.str c)
            in
            let sink = { Record_format.element = read_all; end_element = ignore; leaf = read_all; proxy = ignore } in
            let run f =
              incr cases;
              let w0 = Gc.minor_words () in
              (match f () with
              | () -> ()
              | exception Invalid_argument msg when not (runtime_bounds msg) -> incr typed
              | exception e ->
                  Alcotest.failf "doc %d: %s raised %s" i (String.escaped damaged) (Printexc.to_string e));
              let words = Gc.minor_words () -. w0 in
              if words > 20_000. +. (64. *. float bytes) +. (float (bytes * bytes) /. 16.) then
                Alcotest.failf "doc %d: %.0f words over %d record bytes" i words bytes
            in
            run (fun () -> ignore (Record_format.walk_record c sink damaged));
            run (fun () -> ignore (Record_format.interval_endpoints damaged));
            run (fun () -> ignore (Doc_store.serialize store ~docid:1));
            run (fun () -> ignore (events_of store ~docid:1));
            run (fun () -> Doc_store.scan store ~docid:1 c sink);
            List.iter (fun id -> run (fun () -> ignore (Doc_store.serialize_subtree store ~docid:1 id))) ids;
            ignore (Heap_file.update heap rid record)
          done)
        !records)
    gen;
  check Alcotest.bool "damage was detected" true (!typed > 0 && !typed < !cases)

let () =
  Alcotest.run "rx_xmlstore"
    [
      ( "node_id",
        [
          Alcotest.test_case "components" `Quick test_node_id_components;
          Alcotest.test_case "root" `Quick test_node_id_root;
          Alcotest.test_case "ancestry" `Quick test_node_id_ancestry;
          Alcotest.test_case "sibling sequence" `Quick test_node_id_sibling_sequence;
          Alcotest.test_case "next/before" `Quick test_node_id_next_before;
          Alcotest.test_case "between examples" `Quick test_node_id_between_examples;
          Alcotest.test_case "between stress" `Quick test_node_id_between_stress;
          qcheck node_id_between_prop;
          qcheck node_id_order_concat_prop;
        ] );
      ( "packing",
        [
          Alcotest.test_case "figure 3: two records, three index entries" `Quick
            test_fig3_two_records_three_entries;
          Alcotest.test_case "small doc in one record" `Quick
            test_packing_single_record_small_doc;
        ] );
      ( "doc_store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "roundtrip tiny threshold" `Quick
            test_store_roundtrip_tiny_threshold;
          Alcotest.test_case "document-order ids" `Quick test_store_document_order_ids;
          Alcotest.test_case "multi document" `Quick test_store_multi_document;
          Alcotest.test_case "delete" `Quick test_store_delete;
          Alcotest.test_case "observers" `Quick test_store_observers;
          qcheck store_roundtrip_prop;
          qcheck store_ids_sorted_prop;
        ] );
      ( "cursor",
        [
          Alcotest.test_case "navigation" `Quick test_cursor_navigation;
          Alcotest.test_case "find by id" `Quick test_cursor_find;
          Alcotest.test_case "subtree events" `Quick test_subtree_events;
        ] );
      ( "in_place",
        [
          qcheck serialization_differential_prop;
          Alcotest.test_case "damaged records raise typed errors" `Quick test_cursor_fuzz;
        ] );
    ]
