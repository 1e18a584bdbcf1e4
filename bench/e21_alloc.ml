(* E21 — allocation per operation, in process: where the minor words go on
   the paths rxbench's [lookup] serves, and what the page checksum and the
   buffer pool's hit path cost.

   A seeded catalog of the [lookup] workload's shape (8 products per
   document, a RegPrice per product) is loaded into an on-disk database
   with the default configuration (2,048-page buffer pool): insert_many in
   500-document batches, then a double index on
   /Catalog/Categories/Product/RegPrice. At 10,000 documents the data file
   is ~1.5x the pool, so lookups miss pages. Then:

   - set-up: minor words per loaded XML byte, and seconds;
   - new-literal lookup: [Product[RegPrice = $p]/ProductName] with a price
     present in the data, every literal new (a plan compile, page misses),
     each match serialized as rxd does; words and microseconds per lookup;
   - cached lookup: one literal again and again (a plan-cache hit on
     resident pages);
   - the 4 KiB page checksum and a resident-page [Buffer_pool.with_page];
   - full scan, on rxbench's [scan_read] shape: 3,000 documents of the same
     shape in memory, no index, [Product[Stock = 42]/ProductName] with the
     plan cached; microseconds (the median of 50 scans), words
     and B+tree lookups per scanned document, at parallelism 1 and at the
     default ([RX_PARALLELISM], else one domain per core).

   Words are [Gc.quick_stat]'s minor words after a minor collection, so
   every domain's allocation counts. Emits BENCH_E21.json; informational,
   no gate.

     RX_E21_DOCS     documents (default 10000)
     RX_E21_LOOKUPS  new-literal lookups (default 1000) *)

open Systemrx

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* words and seconds one run of [f] costs *)
let measure f =
  let w0 = words () and t0 = Unix.gettimeofday () in
  let r = f () in
  let t = Unix.gettimeofday () -. t0 in
  (r, words () -. w0, t)

let catalog rng =
  let b = Buffer.create 1200 in
  Buffer.add_string b "<Catalog><Categories category=\"cat-01\">";
  let cents =
    List.init 8 (fun i ->
        let c = 500 + Rx_util.Prng.int rng 49_500 in
        Printf.bprintf b
          "<Product><RegPrice>%d.%02d</RegPrice><Discount>0.%02d</Discount>\
           <ProductName>%s-%d</ProductName><Stock>%d</Stock></Product>"
          (c / 100) (c mod 100) (Rx_util.Prng.int rng 50)
          (Rx_util.Prng.word rng ()) i (Rx_util.Prng.int rng 1000);
        c)
  in
  Buffer.add_string b "</Categories></Catalog>";
  (Buffer.contents b, cents)

let lookup db cents =
  let xpath =
    Printf.sprintf "/Catalog/Categories/Product[RegPrice = %d.%02d]/ProductName"
      (cents / 100) (cents mod 100)
  in
  let r = Database.run db ~table:"catalog" ~column:"doc" ~xpath in
  List.length
    (List.map (fun m -> r.Database.serialize m) r.Database.matches)

let scan_docs = 3000
let scans = 50

(* Per scanned document at [parallelism]: (us, words, B+tree lookups). *)
let full_scan ~parallelism =
  let rng = Rx_util.Prng.create ~seed:34 in
  let config = { Database.default_config with Database.parallelism } in
  let db = Database.create_in_memory ~config () in
  ignore
    (Database.create_table db ~name:"catalog"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
  ignore
    (Database.insert_many db ~table:"catalog" ~column:"doc"
       (List.init scan_docs (fun _ -> fst (catalog rng))));
  let scan () =
    Database.run db ~table:"catalog" ~column:"doc"
      ~xpath:"/Catalog/Categories/Product[Stock = 42]/ProductName"
  in
  ignore (scan ()) (* compiles and caches the plan *);
  let times = Array.make scans 0. and lookups = ref 0 in
  let (), w, _ =
    measure (fun () ->
        for i = 0 to scans - 1 do
          let t0 = Unix.gettimeofday () in
          let r = scan () in
          times.(i) <- Unix.gettimeofday () -. t0;
          lookups :=
            !lookups
            + Option.value ~default:0 (List.assoc_opt "btree.lookups" r.Database.profile)
        done)
  in
  Database.close db;
  Array.sort compare times;
  let per_doc x = x /. float_of_int (scans * scan_docs) in
  ( times.(scans / 2) *. 1e6 /. float_of_int scan_docs,
    per_doc w,
    per_doc (float_of_int !lookups) )

let run () =
  Report.print_header "E21: allocation per operation (in process)";
  let ndocs = getenv_int "RX_E21_DOCS" 10_000 in
  let nlookups = getenv_int "RX_E21_LOOKUPS" 1000 in
  let rng = Rx_util.Prng.create ~seed:21 in
  let docs = Array.init ndocs (fun _ -> catalog rng) in
  let xml_bytes =
    Array.fold_left (fun acc (x, _) -> acc + String.length x) 0 docs
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rx_e21_%d" (Unix.getpid ()))
  in
  Fun.protect ~finally:(fun () ->
      try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () ->
  let db = Database.open_dir dir in
  ignore
    (Database.create_table db ~name:"catalog"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
  let (), setup_words, setup_s =
    measure (fun () ->
        let rec batches i =
          if i < ndocs then begin
            let k = min 500 (ndocs - i) in
            ignore
              (Database.insert_many db ~table:"catalog" ~column:"doc"
                 (List.init k (fun j -> fst docs.(i + j))));
            batches (i + k)
          end
        in
        batches 0;
        ignore
          (Database.Index.await
             (Database.Index.build db ~table:"catalog" ~column:"doc"
                ~name:"price" ~path:"/Catalog/Categories/Product/RegPrice"
                ~key_type:Rx_xindex.Index_def.K_double)))
  in
  (* distinct prices present in the data, in seeded order; the first
     [nlookups] warm up, the rest are measured, each a new literal *)
  let seen = Hashtbl.create 4096 in
  let prices =
    Array.to_list docs
    |> List.concat_map snd
    |> List.filter (fun c ->
           (not (Hashtbl.mem seen c)) && (Hashtbl.add seen c (); true))
    |> Array.of_list
  in
  let nlookups = min nlookups (Array.length prices / 2) in
  for i = 0 to nlookups - 1 do
    ignore (lookup db prices.(i))
  done;
  let rows, new_words, new_s =
    measure (fun () ->
        let rows = ref 0 in
        for i = nlookups to (2 * nlookups) - 1 do
          rows := !rows + lookup db prices.(i)
        done;
        !rows)
  in
  let (), cached_words, cached_s =
    measure (fun () ->
        for _ = 1 to nlookups do
          ignore (lookup db prices.(0))
        done)
  in
  let page = Bytes.make 4096 'p' in
  let reps = 10_000 in
  let (), crc_words, crc_s =
    measure (fun () ->
        for _ = 1 to reps do
          ignore (Sys.opaque_identity (Rx_storage.Page.compute_checksum page))
        done)
  in
  let pool = Database.buffer_pool db in
  let read data = Char.code (Bytes.get data 8) in
  ignore (Rx_storage.Buffer_pool.with_page pool 1 read);
  let (), hit_words, _ =
    measure (fun () ->
        for _ = 1 to reps do
          ignore (Rx_storage.Buffer_pool.with_page pool 1 read)
        done)
  in
  Database.close db;
  let par = Report.effective_parallelism () in
  let scan1_us, scan1_words, scan1_lookups = full_scan ~parallelism:1 in
  let scand_us, scand_words, scand_lookups = full_scan ~parallelism:par in
  let per n x = x /. float_of_int n in
  let us n s = s *. 1e6 /. float_of_int n in
  Report.print_table
    ~columns:[ "operation"; "words"; "time" ]
    [
      [ "set-up, per XML byte"; Printf.sprintf "%.1f" (per xml_bytes setup_words);
        Printf.sprintf "%.2f s total" setup_s ];
      [ "new-literal lookup"; Printf.sprintf "%.0f" (per nlookups new_words);
        Printf.sprintf "%.0f us" (us nlookups new_s) ];
      [ "cached lookup"; Printf.sprintf "%.0f" (per nlookups cached_words);
        Printf.sprintf "%.0f us" (us nlookups cached_s) ];
      [ "4 KiB page checksum"; Printf.sprintf "%.1f" (per reps crc_words);
        Printf.sprintf "%.2f us" (us reps crc_s) ];
      [ "resident with_page"; Printf.sprintf "%.2f" (per reps hit_words); "" ];
      [ "full scan @1, per document"; Printf.sprintf "%.0f" scan1_words;
        Printf.sprintf "%.2f us, %.4f lookups" scan1_us scan1_lookups ];
      [ Printf.sprintf "full scan @%d, per document" par;
        Printf.sprintf "%.0f" scand_words;
        Printf.sprintf "%.2f us, %.4f lookups" scand_us scand_lookups ];
    ];
  Report.print_note "  %d documents, %d XML bytes; %d lookups, %.2f rows each"
    ndocs xml_bytes nlookups (per nlookups (float_of_int rows));
  let oc = open_out "BENCH_E21.json" in
  Printf.fprintf oc
    {|{
  "experiment": "e21_alloc",
  %s,
  "docs": %d,
  "xml_bytes": %d,
  "setup": { "s": %.3f, "words_per_xml_byte": %.2f },
  "new_literal_lookup": { "lookups": %d, "rows_per_lookup": %.2f, "us": %.1f, "words": %.0f },
  "cached_lookup": { "us": %.1f, "words": %.0f },
  "page_checksum_4k": { "us": %.2f, "words": %.1f },
  "resident_with_page": { "words": %.2f },
  "full_scan": { "docs": %d, "scans": %d,
    "parallelism_1": { "us_per_doc": %.3f, "words_per_doc": %.1f, "btree_lookups_per_doc": %.5f },
    "parallelism_default": { "parallelism": %d,
      "us_per_doc": %.3f, "words_per_doc": %.1f, "btree_lookups_per_doc": %.5f } }
}
|}
    (Report.json_meta ()) ndocs xml_bytes setup_s (per xml_bytes setup_words)
    nlookups
    (per nlookups (float_of_int rows))
    (us nlookups new_s) (per nlookups new_words) (us nlookups cached_s)
    (per nlookups cached_words) (us reps crc_s) (per reps crc_words)
    (per reps hit_words) scan_docs scans scan1_us scan1_words scan1_lookups par
    scand_us scand_words scand_lookups;
  close_out oc;
  Report.print_note "  wrote BENCH_E21.json"
