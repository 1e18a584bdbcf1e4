(* The seeded inputs of every workload and the model that checks answers.

   A catalog document is one category of [products_per_doc] products, the
   shape of Rx_workload's catalog generator, but generated here so the
   model keeps each product's (RegPrice, ProductName, Stock) row. Prices
   are whole cents printed with two decimals, so equality and range tests
   on the model are exact integer tests. *)

module Prng = Rx_util.Prng

let table = "catalog"
let column = "doc"
let index_name = "price"
let index_path = "/Catalog/Categories/Product/RegPrice"
let products_per_doc = 8
let min_cents = 500 (* RegPrice in [5.00, 500.00) *)
let max_cents = 50_000
let stock_values = 1000
let range_cents = 10 (* range_read: [x, x + 0.10) *)

type row = { cents : int; name : string; stock : int }

let price_literal cents = Printf.sprintf "%d.%02d" (cents / 100) (cents mod 100)
let name_element name = "<ProductName>" ^ name ^ "</ProductName>"

(* [tag] keeps names of documents written by different generators distinct,
   so a row returned for the wrong document cannot pass the check *)
let document rng ~tag =
  let rows =
    Array.init products_per_doc (fun i ->
        {
          cents = min_cents + Prng.int rng (max_cents - min_cents);
          name = Printf.sprintf "%s-%s%d" (Prng.word rng ()) tag i;
          stock = Prng.int rng stock_values;
        })
  in
  let b = Buffer.create 1200 in
  Buffer.add_string b "<Catalog><Categories category=\"cat-01\">";
  Array.iter
    (fun r ->
      Printf.bprintf b
        "<Product><RegPrice>%s</RegPrice><Discount>0.%02d</Discount>\
         <ProductName>%s</ProductName><Stock>%d</Stock></Product>"
        (price_literal r.cents) (Prng.int rng 50) r.name r.stock)
    rows;
  Buffer.add_string b "</Categories></Catalog>";
  (Buffer.contents b, rows)

let dataset ~seed ~docs =
  let rng = Prng.create ~seed in
  Array.init docs (fun i -> document rng ~tag:(Printf.sprintf "b%d." i))

(* --- the model --- *)

(* a reply row: (docid, serialized ProductName element) *)
type answer = (int * string) list

type model = {
  by_cents : (int, int * string) Hashtbl.t;  (* multi-binding *)
  by_stock : (int, int * string) Hashtbl.t;
  sorted : (int * int * string) array;  (* (cents, docid, name) ascending *)
}

let model_of ~docids (docs : (string * row array) array) =
  let by_cents = Hashtbl.create 65536 and by_stock = Hashtbl.create 1024 in
  let all = ref [] in
  Array.iteri
    (fun i (_, rows) ->
      let docid = docids.(i) in
      Array.iter
        (fun r ->
          let el = name_element r.name in
          Hashtbl.add by_cents r.cents (docid, el);
          Hashtbl.add by_stock r.stock (docid, el);
          all := (r.cents, docid, el) :: !all)
        rows)
    docs;
  let sorted = Array.of_list !all in
  Array.sort compare sorted;
  { by_cents; by_stock; sorted }

let normalize (a : answer) = List.sort compare a
let lookup m cents = normalize (Hashtbl.find_all m.by_cents cents)
let scan m stock = normalize (Hashtbl.find_all m.by_stock stock)

(* rows with lo <= cents < hi, by binary search on the sorted array *)
let range m lo hi =
  let n = Array.length m.sorted in
  let rec first l h =
    if l >= h then l
    else
      let mid = (l + h) / 2 in
      let c, _, _ = m.sorted.(mid) in
      if c < lo then first (mid + 1) h else first l mid
  in
  let rec collect i acc =
    if i >= n then acc
    else
      let c, d, el = m.sorted.(i) in
      if c >= hi then acc else collect (i + 1) ((d, el) :: acc)
  in
  normalize (collect (first 0 n) [])

(* --- requests --- *)

let lookup_xpath cents =
  Printf.sprintf "/Catalog/Categories/Product[RegPrice = %s]/ProductName"
    (price_literal cents)

let range_xpath lo =
  Printf.sprintf
    "/Catalog/Categories/Product[RegPrice >= %s and RegPrice < %s]/ProductName"
    (price_literal lo)
    (price_literal (lo + range_cents))

let scan_xpath stock =
  Printf.sprintf "/Catalog/Categories/Product[Stock = %d]/ProductName" stock

(* the same predicate as [lookup_xpath], in a shape no index serves
   (a disjunction), so the audit can compare an index probe with a scan *)
let audit_scan_xpath cents =
  let p = price_literal cents in
  Printf.sprintf
    "/Catalog/Categories/Product[RegPrice = %s or RegPrice = %s]/ProductName" p p

(* --- workloads --- *)

type kind = Lookup | Range | Scan | Churn

type spec = {
  name : string;
  kind : kind;
  docs : int;  (* generated documents loaded at set-up *)
  indexed : bool;  (* a double index on RegPrice *)
  conns : int;  (* client connections, one thread each *)
}

let catalog_docs = 10_000
let small_docs = 3_000

let specs =
  [
    { name = "lookup"; kind = Lookup; docs = catalog_docs; indexed = true; conns = 1 };
    { name = "range_read"; kind = Range; docs = catalog_docs; indexed = true; conns = 1 };
    { name = "scan_read"; kind = Scan; docs = small_docs; indexed = false; conns = 1 };
    { name = "write_churn"; kind = Churn; docs = catalog_docs; indexed = true; conns = 2 };
  ]

type read = { xpath : string; expect : model -> answer }

(* A read request stream: the n-th request of a seed is the same on every
   run, wherever it is replayed (served, embedded or traced). *)
let read_stream ~seed kind (m : model) =
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  fun () ->
    match kind with
    | Lookup | Churn ->
        let cents, _, _ = m.sorted.(Prng.int rng (Array.length m.sorted)) in
        { xpath = lookup_xpath cents; expect = (fun m -> lookup m cents) }
    | Range ->
        let lo = min_cents + Prng.int rng (max_cents - min_cents - range_cents) in
        { xpath = range_xpath lo; expect = (fun m -> range m lo (lo + range_cents)) }
    | Scan ->
        let k = Prng.int rng stock_values in
        { xpath = scan_xpath k; expect = (fun m -> scan m k) }
