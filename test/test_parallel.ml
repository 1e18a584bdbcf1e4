(* Domain-safety and parallel-execution coverage: the Domain_pool worker
   pool, atomic metrics under contention, the latch-striped buffer pool
   (eviction pressure, pin exhaustion, readahead accounting across
   domains), and end-to-end equivalence of the parallel scan / bulk-load /
   index-build paths against their sequential twins. *)

open Rx_storage

let check = Alcotest.check

(* --- Domain_pool --- *)

let test_pool_results_in_order () =
  let pool = Rx_util.Domain_pool.create () in
  Fun.protect ~finally:(fun () -> Rx_util.Domain_pool.stop pool) @@ fun () ->
  let tasks = Array.init 50 (fun i () -> i * i) in
  let out = Rx_util.Domain_pool.run pool ~parallelism:4 tasks in
  check Alcotest.(list int) "task order preserved"
    (List.init 50 (fun i -> i * i))
    (Array.to_list out);
  (* sequential request runs inline and still returns in order *)
  let out1 = Rx_util.Domain_pool.run pool ~parallelism:1 tasks in
  check Alcotest.(list int) "inline order" (Array.to_list out)
    (Array.to_list out1)

let test_pool_first_error_wins () =
  let pool = Rx_util.Domain_pool.create () in
  Fun.protect ~finally:(fun () -> Rx_util.Domain_pool.stop pool) @@ fun () ->
  let ran = Atomic.make 0 in
  let tasks =
    Array.init 10 (fun i () ->
        Atomic.incr ran;
        if i = 3 then failwith "task3";
        if i = 7 then failwith "task7";
        i)
  in
  (match Rx_util.Domain_pool.run pool ~parallelism:4 tasks with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
      (* the earliest failing task in task order is the one re-raised,
         matching what a sequential left-to-right loop would report *)
      check Alcotest.string "first failure in task order" "task3" msg);
  (* no task was abandoned because a sibling failed *)
  check Alcotest.int "all tasks ran" 10 (Atomic.get ran)

let test_pool_nested_run () =
  let pool = Rx_util.Domain_pool.create () in
  Fun.protect ~finally:(fun () -> Rx_util.Domain_pool.stop pool) @@ fun () ->
  let outer =
    Rx_util.Domain_pool.run pool ~parallelism:3
      (Array.init 3 (fun i () ->
           let inner =
             Rx_util.Domain_pool.run pool ~parallelism:3
               (Array.init 4 (fun j () -> (10 * i) + j))
           in
           Array.fold_left ( + ) 0 inner))
  in
  (* caller participation drains the shared queue, so nested batches
     complete even when every worker is already busy with outer tasks *)
  check Alcotest.(list int) "nested sums"
    [ 0 + 1 + 2 + 3; 10 + 11 + 12 + 13; 20 + 21 + 22 + 23 ]
    (Array.to_list outer)

let test_pool_run_ranges () =
  let pool = Rx_util.Domain_pool.create () in
  Fun.protect ~finally:(fun () -> Rx_util.Domain_pool.stop pool) @@ fun () ->
  List.iter
    (fun (n, k) ->
      let label = Printf.sprintf "n=%d k=%d" n k in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      let ranges =
        Rx_util.Domain_pool.run_ranges pool ~parallelism:k n (fun ~lo ~hi ->
            for i = lo to hi - 1 do
              Atomic.incr hits.(i)
            done;
            (lo, hi))
      in
      check Alcotest.int (label ^ ": range count") (min (max 1 k) n)
        (Array.length ranges);
      (* contiguous and in order: each range starts where the last ended,
         none is empty, and together they end at n *)
      let next =
        Array.fold_left
          (fun expected (lo, hi) ->
            check Alcotest.int (label ^ ": contiguous") expected lo;
            if hi <= lo then Alcotest.failf "%s: empty range [%d, %d)" label lo hi;
            hi)
          0 ranges
      in
      check Alcotest.int (label ^ ": ends at n") n next;
      Array.iteri
        (fun i h ->
          check Alcotest.int (Printf.sprintf "%s: index %d once" label i) 1
            (Atomic.get h))
        hits)
    [ (0, 4); (3, 4); (1, 4); (10, 4); (10, 3); (7, 1); (5, 0) ]

(* --- Metrics under domain contention (the Atomic.t regression test) --- *)

let test_metrics_counter_race () =
  let m = Rx_obs.Metrics.create () in
  let c = Rx_obs.Metrics.counter m "race.counter" in
  let h = Rx_obs.Metrics.histogram m "race.histogram" in
  let iters = 50_000 in
  let body () =
    for i = 1 to iters do
      Rx_obs.Metrics.incr c;
      if i mod 100 = 0 then Rx_obs.Metrics.observe h i
    done
  in
  let d1 = Domain.spawn body and d2 = Domain.spawn body in
  body ();
  Domain.join d1;
  Domain.join d2;
  (* with the old [mutable int] instruments this loses increments; the
     atomic instruments must account for every one across 3 domains *)
  check Alcotest.int "no lost increments" (3 * iters)
    (Rx_obs.Metrics.value c);
  check Alcotest.int "histogram count" (3 * (iters / 100))
    (Rx_obs.Metrics.histogram_count h)

let test_metrics_concurrent_registration () =
  let m = Rx_obs.Metrics.create () in
  let spawn i =
    Domain.spawn (fun () ->
        for j = 0 to 99 do
          (* same names from every domain: registration must stay
             idempotent and never produce duplicate instruments *)
          Rx_obs.Metrics.incr (Rx_obs.Metrics.counter m (Printf.sprintf "reg.%d" (j mod 10)));
          ignore i
        done)
  in
  let ds = List.init 3 spawn in
  List.iter Domain.join ds;
  let total =
    Rx_obs.Metrics.snapshot m
    |> List.fold_left
         (fun acc (name, v) ->
           match v with
           | Rx_obs.Metrics.Counter n when String.length name >= 4 && String.sub name 0 4 = "reg." ->
               acc + n
           | _ -> acc)
         0
  in
  check Alcotest.int "all registrations counted" 300 total

(* --- sharded buffer pool --- *)

let make_pool ~capacity ~shards () =
  let metrics = Rx_obs.Metrics.create () in
  let pool =
    Buffer_pool.create ~metrics ~capacity ~shards
      (Pager.create_in_memory ~page_size:512 ())
  in
  (pool, metrics)

(* allocate [n] pages, each stamped with a recognizable byte *)
let stamped_pages pool n =
  List.init n (fun i ->
      let p = Buffer_pool.alloc pool Page.Heap in
      Buffer_pool.update pool p (fun b ->
          Bytes.set b 100 (Char.chr (Char.code 'a' + (i mod 26))));
      (p, Char.chr (Char.code 'a' + (i mod 26))))

let test_shard_eviction_pressure () =
  (* 4 frames per shard: three concurrent readers pin at most 3 frames of
     any one shard, so a 4th frame is always evictable and the scans
     stress replacement without legitimately exhausting a shard *)
  let pool, _ = make_pool ~capacity:16 ~shards:4 () in
  check Alcotest.int "shard count" 4 (Buffer_pool.shards pool);
  let pages = stamped_pages pool 32 in
  let errors = Atomic.make 0 in
  let reader () =
    for _ = 1 to 5 do
      List.iter
        (fun (p, c) ->
          Buffer_pool.with_page pool p (fun b ->
              if Bytes.get b 100 <> c then Atomic.incr errors))
        pages
    done
  in
  let d1 = Domain.spawn reader and d2 = Domain.spawn reader in
  reader ();
  Domain.join d1;
  Domain.join d2;
  check Alcotest.int "no corrupted reads under eviction" 0
    (Atomic.get errors);
  let s = Buffer_pool.snapshot pool in
  (* 32 pages through 8 frames: the shards must have been evicting *)
  check Alcotest.bool "evictions happened" true (s.Buffer_pool.evictions > 0)

let test_pool_exhausted_concurrent_pins () =
  let pool, _ = make_pool ~capacity:4 ~shards:1 () in
  let pages = List.map fst (stamped_pages pool 6) in
  let p0, p1, p2, p3, p4 =
    match pages with
    | a :: b :: c :: d :: e :: _ -> (a, b, c, d, e)
    | _ -> assert false
  in
  (* the caller pins every frame of the (single) shard ... *)
  Buffer_pool.with_page pool p0 (fun _ ->
      Buffer_pool.with_page pool p1 (fun _ ->
          Buffer_pool.with_page pool p2 (fun _ ->
              Buffer_pool.with_page pool p3 (fun _ ->
                  (* ... and another domain demanding a 5th page must get
                     Pool_exhausted (which Database surfaces as Busy)
                     rather than deadlocking or evicting a pinned frame *)
                  let got =
                    Domain.spawn (fun () ->
                        match
                          Buffer_pool.with_page pool p4 (fun _ -> `Loaded)
                        with
                        | _ -> `Loaded
                        | exception Buffer_pool.Pool_exhausted { capacity; _ }
                          ->
                            `Exhausted capacity)
                    |> Domain.join
                  in
                  check Alcotest.bool "exhausted with shard capacity" true
                    (got = `Exhausted 4)))));
  (* pins released: the same read now succeeds *)
  Buffer_pool.with_page pool p4 (fun b -> ignore (Bytes.get b 100))

let test_readahead_wasted_two_domains () =
  let pool, metrics = make_pool ~capacity:8 ~shards:1 () in
  let pages = List.map fst (stamped_pages pool 22) in
  Buffer_pool.flush_all pool;
  Buffer_pool.drop_cache pool;
  let arr = Array.of_list pages in
  let slice lo n = Array.to_list (Array.sub arr lo n) in
  (* two domains prefetch 14 pages into 8 frames; none is ever read, so
     every prefetched frame must eventually be evicted untouched and
     counted in bufpool.readahead.wasted *)
  let d1 = Domain.spawn (fun () -> Buffer_pool.prefetch pool (slice 0 6)) in
  let d2 = Domain.spawn (fun () -> Buffer_pool.prefetch pool (slice 6 8)) in
  Domain.join d1;
  Domain.join d2;
  let value name =
    Rx_obs.Metrics.value (Rx_obs.Metrics.counter metrics name)
  in
  check Alcotest.int "pages prefetched" 14 (value "bufpool.readahead.pages");
  (* demand reads of 8 untouched pages push out whatever prefetched
     frames are still resident *)
  List.iter
    (fun p -> Buffer_pool.with_page pool p (fun _ -> ()))
    (slice 14 8);
  check Alcotest.int "all prefetched frames wasted" 14
    (value "bufpool.readahead.wasted")

(* --- engine-level parallel/sequential equivalence --- *)

open Systemrx
open Rx_relational

let par_config =
  {
    Database.default_config with
    parallelism = 4;
    parallel_scan_min_pages = 1;
  }

let doc i =
  Printf.sprintf
    "<book><title>Book %d</title><price>%d.50</price><tag>%s</tag></book>" i
    (i mod 100)
    (String.make 40 (Char.chr (Char.code 'a' + (i mod 26))))

let xpath = "/book[price >= 20.0 and price < 60.0]/title"

let serialize_all r =
  List.map (fun m -> r.Database.serialize m) r.Database.matches

let test_parallel_scan_equivalence () =
  let db = Database.create_in_memory ~config:par_config () in
  ignore
    (Database.create_table db ~name:"books" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.insert_many db ~table:"books" ~column:"doc" (List.init 200 doc));
  let r_par = Database.run db ~table:"books" ~column:"doc" ~xpath in
  check Alcotest.bool "parallel path taken" true
    (List.assoc_opt "exec.parallel_scans" r_par.Database.profile = Some 1);
  Database.set_config db { (Database.config db) with parallelism = 1 };
  let r_seq = Database.run db ~table:"books" ~column:"doc" ~xpath in
  (* identical matches in identical (document) order *)
  check Alcotest.(list string) "matches equal and ordered"
    (serialize_all r_seq) (serialize_all r_par);
  check Alcotest.bool "non-trivial result" true
    (List.length r_par.Database.matches > 10);
  Database.close db

let test_parallel_txn_snapshot_scan () =
  let db = Database.create_in_memory ~config:par_config () in
  ignore
    (Database.create_table db ~name:"books" ~columns:[ ("doc", Value.T_xml) ]);
  ignore
    (Database.insert_many db ~table:"books" ~column:"doc" (List.init 60 doc));
  let txn = Database.begin_txn db in
  (* staged rows are visible to the transaction's own scans only *)
  ignore
    (Database.insert db ~txn ~table:"books"
       ~xml:[ ("doc", "<book><title>Staged</title><price>30.0</price></book>") ]
       ());
  let r_par = Database.run db ~txn ~table:"books" ~column:"doc" ~xpath in
  Database.set_config db { (Database.config db) with parallelism = 1 };
  let r_seq = Database.run db ~txn ~table:"books" ~column:"doc" ~xpath in
  check Alcotest.(list string) "txn snapshot matches equal"
    (serialize_all r_seq) (serialize_all r_par);
  check Alcotest.bool "staged row visible in txn" true
    (List.exists
       (fun s -> s = "<title>Staged</title>")
       (serialize_all r_par));
  Database.rollback db txn;
  Database.close db

let test_parallel_insert_many_equivalence () =
  let mk config =
    let db = Database.create_in_memory ~config () in
    ignore
      (Database.create_table db ~name:"books"
         ~columns:[ ("doc", Value.T_xml) ]);
    db
  in
  let db_par = mk par_config in
  let db_seq = mk { par_config with parallelism = 1 } in
  let docs = List.init 40 doc in
  let ids_par = Database.insert_many db_par ~table:"books" ~column:"doc" docs in
  let ids_seq = Database.insert_many db_seq ~table:"books" ~column:"doc" docs in
  check Alcotest.(list int) "same docids" ids_seq ids_par;
  List.iter
    (fun docid ->
      check Alcotest.string
        (Printf.sprintf "doc %d round-trips identically" docid)
        (Database.document db_seq ~table:"books" ~column:"doc" ~docid)
        (Database.document db_par ~table:"books" ~column:"doc" ~docid))
    ids_par;
  (* a bad document rejects the whole batch with the same error, parallel
     or not — the parallel parse reports the first error in batch order *)
  let bad = List.init 10 doc @ [ "<broken><a></broken>" ] @ List.init 10 doc in
  let msg db =
    match Database.insert_many db ~table:"books" ~column:"doc" bad with
    | _ -> Alcotest.fail "bad batch must be rejected"
    | exception e -> Database.error_message e
  in
  check Alcotest.string "same parse error" (msg db_seq) (msg db_par);
  check Alcotest.int "parallel batch fully rolled back" 40
    (Database.row_count db_par ~table:"books");
  Database.close db_par;
  Database.close db_seq

let test_parallel_index_build_equivalence () =
  let mk config =
    let db = Database.create_in_memory ~config () in
    ignore
      (Database.create_table db ~name:"books"
         ~columns:[ ("doc", Value.T_xml) ]);
    ignore
      (Database.insert_many db ~table:"books" ~column:"doc"
         (List.init 120 doc));
    (* backfill over the existing 120 documents is what parallelizes *)
    ignore
    (Database.Index.await
       (Database.Index.build db ~table:"books" ~column:"doc" ~name:"price_ix"
      ~path:"/book/price" ~key_type:Rx_xindex.Index_def.K_double));
    db
  in
  let db_par = mk par_config in
  let db_seq = mk { par_config with parallelism = 1 } in
  let q = "/book[price >= 33.0 and price <= 55.0]/title" in
  let r_par = Database.run db_par ~table:"books" ~column:"doc" ~xpath:q in
  let r_seq = Database.run db_seq ~table:"books" ~column:"doc" ~xpath:q in
  (* both went through the value index, and saw identical entries *)
  check Alcotest.string "same plan" r_seq.Database.plan.Database.description
    r_par.Database.plan.Database.description;
  check Alcotest.bool "index plan chosen" true
    r_par.Database.plan.Database.uses_index;
  check Alcotest.(list string) "same results via index"
    (serialize_all r_seq) (serialize_all r_par);
  check Alcotest.bool "non-trivial result" true
    (List.length r_par.Database.matches > 0);
  Database.close db_par;
  Database.close db_seq

let () =
  Alcotest.run "parallel"
    [
      ( "domain_pool",
        [
          Alcotest.test_case "results in task order" `Quick
            test_pool_results_in_order;
          Alcotest.test_case "first error wins" `Quick
            test_pool_first_error_wins;
          Alcotest.test_case "nested run" `Quick test_pool_nested_run;
          Alcotest.test_case "index ranges" `Quick test_pool_run_ranges;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter race" `Quick test_metrics_counter_race;
          Alcotest.test_case "concurrent registration" `Quick
            test_metrics_concurrent_registration;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "shard eviction pressure" `Quick
            test_shard_eviction_pressure;
          Alcotest.test_case "pool exhausted under concurrent pins" `Quick
            test_pool_exhausted_concurrent_pins;
          Alcotest.test_case "readahead wasted across domains" `Quick
            test_readahead_wasted_two_domains;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parallel scan equivalence" `Quick
            test_parallel_scan_equivalence;
          Alcotest.test_case "parallel txn snapshot scan" `Quick
            test_parallel_txn_snapshot_scan;
          Alcotest.test_case "parallel insert_many equivalence" `Quick
            test_parallel_insert_many_equivalence;
          Alcotest.test_case "parallel index build equivalence" `Quick
            test_parallel_index_build_equivalence;
        ] );
    ]
