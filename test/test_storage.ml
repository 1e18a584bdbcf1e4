open Rx_storage

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let mem_pool ?(capacity = 64) ?(page_size = 4096) () =
  Buffer_pool.create ~capacity (Pager.create_in_memory ~page_size ())

(* --- Pager --- *)

let test_pager_alloc_rw () =
  let pager = Pager.create_in_memory ~page_size:512 () in
  let p1 = Pager.alloc pager in
  let p2 = Pager.alloc pager in
  check Alcotest.bool "distinct pages" true (p1 <> p2);
  let buf = Bytes.make 512 'x' in
  Pager.write pager p1 buf;
  let out = Bytes.create 512 in
  Pager.read pager p1 out;
  check Alcotest.string "roundtrip" (Bytes.to_string buf) (Bytes.to_string out);
  Pager.read pager p2 out;
  (* the header now carries a version byte and checksum; the body is zero *)
  check Alcotest.string "fresh page body zeroed"
    (String.make (512 - Page.header_size) '\000')
    (Bytes.sub_string out Page.header_size (512 - Page.header_size));
  check Alcotest.int "fresh page stamped with current format"
    Page.format_version (Page.get_version out)

let test_pager_file_backend () =
  let path = Filename.temp_file "rxpager" ".db" in
  let pager = Pager.open_file ~page_size:512 path in
  let p = Pager.alloc pager in
  let buf = Bytes.make 512 'y' in
  Pager.write pager p buf;
  Pager.sync pager;
  Pager.close pager;
  let pager2 = Pager.open_file ~page_size:512 path in
  let out = Bytes.create 512 in
  Pager.read pager2 p out;
  check Alcotest.string "persisted" (Bytes.to_string buf) (Bytes.to_string out);
  Pager.close pager2;
  Sys.remove path

let test_pager_page_size_mismatch () =
  let path = Filename.temp_file "rxpager" ".db" in
  let pager = Pager.open_file ~page_size:512 path in
  Pager.close pager;
  Alcotest.check_raises "mismatch"
    (Failure "Pager.open_file: page size mismatch (512 vs 1024)") (fun () ->
      ignore (Pager.open_file ~page_size:1024 path));
  Sys.remove path

(* --- Buffer pool --- *)

let test_buffer_pool_caching () =
  let pager = Pager.create_in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~capacity:4 pager in
  let p = Buffer_pool.alloc pool Page.Heap in
  Buffer_pool.update pool p (fun page -> Bytes.set page 100 'z');
  (* the write must not have reached the pager yet *)
  let direct = Bytes.create 512 in
  Pager.read pager p direct;
  check Alcotest.char "not yet flushed" '\000' (Bytes.get direct 100);
  Buffer_pool.flush_all pool;
  Pager.read pager p direct;
  check Alcotest.char "flushed" 'z' (Bytes.get direct 100)

let test_buffer_pool_eviction_flushes () =
  let pager = Pager.create_in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~capacity:2 pager in
  let pages = List.init 5 (fun _ -> Buffer_pool.alloc pool Page.Heap) in
  List.iteri
    (fun i p -> Buffer_pool.update pool p (fun page -> Bytes.set page 64 (Char.chr (65 + i))))
    pages;
  (* earlier pages were evicted; reading them again must return the data *)
  List.iteri
    (fun i p ->
      let c = Buffer_pool.with_page pool p (fun page -> Bytes.get page 64) in
      check Alcotest.char "evicted page data survives" (Char.chr (65 + i)) c)
    pages;
  check Alcotest.bool "evictions happened" true
    ((Buffer_pool.snapshot pool).Buffer_pool.evictions > 0)

let test_buffer_pool_drop_cache () =
  let pager = Pager.create_in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~capacity:4 pager in
  let p = Buffer_pool.alloc pool Page.Heap in
  Buffer_pool.flush_all pool;
  Buffer_pool.update pool p (fun page -> Bytes.set page 100 'q');
  Buffer_pool.drop_cache pool;
  let c = Buffer_pool.with_page pool p (fun page -> Bytes.get page 100) in
  check Alcotest.char "unflushed update lost" '\000' c

let test_buffer_pool_lsn_stamped () =
  let pool = mem_pool () in
  let lsns = ref [] in
  Buffer_pool.set_journal pool
    (Some
       {
         Buffer_pool.log_update =
           (fun ~page_no:_ ~off:_ ~before:_ ~after:_ ->
             let lsn = Int64.of_int (1000 + List.length !lsns) in
             lsns := lsn :: !lsns;
             lsn);
         ensure_durable = (fun _ -> ());
       });
  let p = Buffer_pool.alloc pool Page.Heap in
  Buffer_pool.update pool p (fun page -> Bytes.set page 32 'a');
  let lsn = Buffer_pool.with_page pool p Page.get_lsn in
  check Alcotest.int64 "page stamped with journal LSN" 1001L lsn;
  (* no-op update must not log *)
  let before = List.length !lsns in
  Buffer_pool.update pool p (fun _ -> ());
  check Alcotest.int "no-op not logged" before (List.length !lsns)

let test_buffer_pool_failed_update_restored () =
  let pager = Pager.create_in_memory ~page_size:512 () in
  let pool = Buffer_pool.create ~capacity:4 pager in
  let logged = ref 0 in
  Buffer_pool.set_journal pool
    (Some
       {
         Buffer_pool.log_update =
           (fun ~page_no:_ ~off:_ ~before:_ ~after:_ ->
             incr logged;
             Int64.of_int !logged);
         ensure_durable = (fun _ -> ());
       });
  let p = Buffer_pool.alloc pool Page.Heap in
  (* a logged change leaves the frame dirty, so a later flush writes it *)
  Buffer_pool.update pool p (fun page -> Bytes.set page 32 'a');
  let image () = Buffer_pool.with_page pool p Bytes.to_string in
  let before = image () and logged_before = !logged in
  Alcotest.check_raises "callback failure propagates" (Failure "half done")
    (fun () ->
      Buffer_pool.update pool p (fun page ->
          Bytes.set page 40 'x';
          Bytes.set page 400 'y';
          failwith "half done"));
  check Alcotest.string "page bytes restored" before (image ());
  check Alcotest.int "nothing logged" logged_before !logged;
  Buffer_pool.flush_all pool;
  let disk = Bytes.create 512 in
  Pager.read pager p disk;
  check Alcotest.char "flushed page holds the logged change" 'a'
    (Bytes.get disk 32);
  check Alcotest.char "flushed page lacks the failed change" '\000'
    (Bytes.get disk 40)

(* --- Slotted page --- *)

let fresh_page ?(page_size = 512) () =
  let page = Bytes.make page_size '\000' in
  Slotted_page.init page;
  page

let test_slotted_insert_get () =
  let page = fresh_page () in
  let s1 = Option.get (Slotted_page.insert page "hello") in
  let s2 = Option.get (Slotted_page.insert page "world!") in
  check (Alcotest.option Alcotest.string) "s1" (Some "hello") (Slotted_page.get page s1);
  check (Alcotest.option Alcotest.string) "s2" (Some "world!") (Slotted_page.get page s2);
  check Alcotest.int "live" 2 (Slotted_page.live_count page)

let test_slotted_delete_reuse () =
  let page = fresh_page () in
  let s1 = Option.get (Slotted_page.insert page "aaaa") in
  let _s2 = Option.get (Slotted_page.insert page "bbbb") in
  Slotted_page.delete page s1;
  check (Alcotest.option Alcotest.string) "deleted" None (Slotted_page.get page s1);
  let s3 = Option.get (Slotted_page.insert page "cccc") in
  check Alcotest.int "slot reused" s1 s3

let test_slotted_full_page () =
  let page = fresh_page ~page_size:256 () in
  let payload = String.make 50 'x' in
  let rec fill n =
    match Slotted_page.insert page payload with
    | Some _ -> fill (n + 1)
    | None -> n
  in
  let n = fill 0 in
  check Alcotest.bool "some inserts fit" true (n >= 3);
  check Alcotest.int "live count" n (Slotted_page.live_count page)

let test_slotted_compaction () =
  let page = fresh_page ~page_size:256 () in
  (* fill, delete alternating, then insert something that only fits after
     compaction *)
  let slots = ref [] in
  (try
     while true do
       match Slotted_page.insert page (String.make 30 'a') with
       | Some s -> slots := s :: !slots
       | None -> raise Exit
     done
   with Exit -> ());
  let slots = List.rev !slots in
  List.iteri (fun i s -> if i mod 2 = 0 then Slotted_page.delete page s) slots;
  (match Slotted_page.insert page (String.make 55 'b') with
  | Some s ->
      check (Alcotest.option Alcotest.string) "compacted insert"
        (Some (String.make 55 'b'))
        (Slotted_page.get page s)
  | None -> Alcotest.fail "insert after compaction failed");
  (* survivors unharmed *)
  List.iteri
    (fun i s ->
      if i mod 2 = 1 then
        check (Alcotest.option Alcotest.string) "survivor"
          (Some (String.make 30 'a'))
          (Slotted_page.get page s))
    slots

let test_slotted_update () =
  let page = fresh_page () in
  let s = Option.get (Slotted_page.insert page "short") in
  check Alcotest.bool "grow" true (Slotted_page.update page s (String.make 100 'g'));
  check (Alcotest.option Alcotest.string) "grown" (Some (String.make 100 'g'))
    (Slotted_page.get page s);
  check Alcotest.bool "shrink" true (Slotted_page.update page s "tiny");
  check (Alcotest.option Alcotest.string) "shrunk" (Some "tiny") (Slotted_page.get page s)

let test_slotted_update_too_big () =
  let page = fresh_page ~page_size:256 () in
  let s = Option.get (Slotted_page.insert page "x") in
  ignore (Option.get (Slotted_page.insert page (String.make 150 'y')));
  check Alcotest.bool "update too big fails" false
    (Slotted_page.update page s (String.make 200 'z'));
  check (Alcotest.option Alcotest.string) "old value intact" (Some "x")
    (Slotted_page.get page s)

(* model-based property: a slotted page behaves like a map slot->payload *)
let slotted_model_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun n -> `Insert (String.make (1 + (n mod 40)) 'p')) nat);
          (3, map (fun i -> `Delete i) (int_bound 30));
          (2, map2 (fun i n -> `Update (i, String.make (1 + (n mod 40)) 'u')) (int_bound 30) nat);
        ])
  in
  QCheck.Test.make ~name:"slotted page matches model" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 60) op_gen))
    (fun ops ->
      let page = fresh_page ~page_size:1024 () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun op ->
          match op with
          | `Insert payload -> (
              match Slotted_page.insert page payload with
              | Some slot -> Hashtbl.replace model slot payload
              | None -> ())
          | `Delete slot ->
              if Hashtbl.mem model slot then begin
                Slotted_page.delete page slot;
                Hashtbl.remove model slot
              end
          | `Update (slot, payload) ->
              if Hashtbl.mem model slot then
                if Slotted_page.update page slot payload then
                  Hashtbl.replace model slot payload)
        ops;
      Hashtbl.fold
        (fun slot payload acc ->
          acc && Slotted_page.get page slot = Some payload)
        model true
      && Slotted_page.live_count page = Hashtbl.length model)

(* --- Heap file --- *)

let test_heap_insert_read () =
  let pool = mem_pool () in
  let heap = Heap_file.create pool in
  let r1 = Heap_file.insert heap "alpha" in
  let r2 = Heap_file.insert heap "beta" in
  check Alcotest.string "r1" "alpha" (Heap_file.read heap r1);
  check Alcotest.string "r2" "beta" (Heap_file.read heap r2);
  check Alcotest.int "count" 2 (Heap_file.record_count heap)

let test_heap_many_pages () =
  let pool = mem_pool ~page_size:512 () in
  let heap = Heap_file.create pool in
  let rids =
    List.init 200 (fun i -> (i, Heap_file.insert heap (Printf.sprintf "record-%04d" i)))
  in
  check Alcotest.bool "spans pages" true (Heap_file.data_pages heap > 1);
  List.iter
    (fun (i, rid) ->
      check Alcotest.string "content" (Printf.sprintf "record-%04d" i)
        (Heap_file.read heap rid))
    rids

let test_heap_overflow_record () =
  let pool = mem_pool ~page_size:512 () in
  let heap = Heap_file.create pool in
  let big = String.init 5000 (fun i -> Char.chr (65 + (i mod 26))) in
  let rid = Heap_file.insert heap big in
  check Alcotest.string "overflow roundtrip" big (Heap_file.read heap rid);
  check Alcotest.bool "overflow pages used" true (Heap_file.overflow_pages heap > 0);
  Heap_file.delete heap rid;
  check Alcotest.int "overflow pages freed" 0 (Heap_file.overflow_pages heap)

let test_heap_overflow_recycling () =
  let pool = mem_pool ~page_size:512 () in
  let heap = Heap_file.create pool in
  let big = String.make 3000 'R' in
  let rid = Heap_file.insert heap big in
  let pages_after_first = Pager.page_count (Buffer_pool.pager pool) in
  Heap_file.delete heap rid;
  (* a same-size record must reuse the freed overflow chain *)
  let rid2 = Heap_file.insert heap big in
  check Alcotest.int "no new pages allocated" pages_after_first
    (Pager.page_count (Buffer_pool.pager pool));
  check Alcotest.string "content correct" big (Heap_file.read heap rid2)

let test_heap_delete_and_iter () =
  let pool = mem_pool () in
  let heap = Heap_file.create pool in
  let r1 = Heap_file.insert heap "one" in
  let _r2 = Heap_file.insert heap "two" in
  let r3 = Heap_file.insert heap "three" in
  Heap_file.delete heap r1;
  let seen = ref [] in
  Heap_file.iter (fun _ payload -> seen := payload :: !seen) heap;
  check
    (Alcotest.slist Alcotest.string String.compare)
    "iter after delete" [ "two"; "three" ] !seen;
  check Alcotest.string "r3 unaffected" "three" (Heap_file.read heap r3);
  Alcotest.check_raises "read deleted"
    (Invalid_argument
       (Printf.sprintf "Heap_file.read: no record at %s" (Rid.to_string r1)))
    (fun () -> ignore (Heap_file.read heap r1))

let test_heap_update () =
  let pool = mem_pool ~page_size:512 () in
  let heap = Heap_file.create pool in
  let rid = Heap_file.insert heap "initial" in
  let rid2 = Heap_file.update heap rid "changed" in
  check Alcotest.string "after update" "changed" (Heap_file.read heap rid2);
  (* grow past inline limit: record must move to overflow but stay readable *)
  let big = String.make 4000 'B' in
  let rid3 = Heap_file.update heap rid2 big in
  check Alcotest.string "grown" big (Heap_file.read heap rid3);
  check Alcotest.int "still one record" 1 (Heap_file.record_count heap)

let test_heap_attach () =
  let pool = mem_pool () in
  let heap = Heap_file.create pool in
  let rid = Heap_file.insert heap "persisted" in
  let hdr = Heap_file.header_page heap in
  let heap2 = Heap_file.attach pool ~header_page:hdr in
  check Alcotest.string "read after attach" "persisted" (Heap_file.read heap2 rid);
  check Alcotest.int "count after attach" 1 (Heap_file.record_count heap2);
  (* inserts after attach reuse free space correctly *)
  let rid2 = Heap_file.insert heap2 "more" in
  check Alcotest.string "insert after attach" "more" (Heap_file.read heap2 rid2)

let heap_model_prop =
  QCheck.Test.make ~name:"heap file matches model" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 120)
           (frequency
              [
                (6, map (fun n -> `Insert (n mod 900)) nat);
                (3, map (fun i -> `Delete i) nat);
                (2, map2 (fun i n -> `Update (i, n mod 900)) nat nat);
              ])))
    (fun ops ->
      let pool = mem_pool ~page_size:512 ~capacity:128 () in
      let heap = Heap_file.create pool in
      let model : (Rid.t, string) Hashtbl.t = Hashtbl.create 16 in
      let rids = ref [||] in
      let payload n = String.make (1 + n) 'r' in
      List.iter
        (fun op ->
          match op with
          | `Insert n ->
              let rid = Heap_file.insert heap (payload n) in
              Hashtbl.replace model rid (payload n);
              rids := Array.append !rids [| rid |]
          | `Delete i ->
              if Array.length !rids > 0 then begin
                let rid = !rids.(i mod Array.length !rids) in
                if Hashtbl.mem model rid then begin
                  Heap_file.delete heap rid;
                  Hashtbl.remove model rid
                end
              end
          | `Update (i, n) ->
              if Array.length !rids > 0 then begin
                let rid = !rids.(i mod Array.length !rids) in
                if Hashtbl.mem model rid then begin
                  let rid' = Heap_file.update heap rid (payload n) in
                  Hashtbl.remove model rid;
                  Hashtbl.replace model rid' (payload n);
                  rids := Array.append !rids [| rid' |]
                end
              end)
        ops;
      Hashtbl.fold
        (fun rid payload acc -> acc && Heap_file.read heap rid = payload)
        model true
      && Heap_file.record_count heap = Hashtbl.length model)

let () =
  Alcotest.run "rx_storage"
    [
      ( "pager",
        [
          Alcotest.test_case "alloc/read/write" `Quick test_pager_alloc_rw;
          Alcotest.test_case "file backend" `Quick test_pager_file_backend;
          Alcotest.test_case "page size mismatch" `Quick test_pager_page_size_mismatch;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "write-back caching" `Quick test_buffer_pool_caching;
          Alcotest.test_case "eviction flushes" `Quick test_buffer_pool_eviction_flushes;
          Alcotest.test_case "drop_cache loses dirty pages" `Quick test_buffer_pool_drop_cache;
          Alcotest.test_case "journal LSN stamping" `Quick test_buffer_pool_lsn_stamped;
          Alcotest.test_case "failed update restored, not logged" `Quick
            test_buffer_pool_failed_update_restored;
        ] );
      ( "slotted_page",
        [
          Alcotest.test_case "insert/get" `Quick test_slotted_insert_get;
          Alcotest.test_case "delete + slot reuse" `Quick test_slotted_delete_reuse;
          Alcotest.test_case "full page" `Quick test_slotted_full_page;
          Alcotest.test_case "compaction" `Quick test_slotted_compaction;
          Alcotest.test_case "update" `Quick test_slotted_update;
          Alcotest.test_case "update too big" `Quick test_slotted_update_too_big;
          qcheck slotted_model_prop;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "insert/read" `Quick test_heap_insert_read;
          Alcotest.test_case "many pages" `Quick test_heap_many_pages;
          Alcotest.test_case "overflow record" `Quick test_heap_overflow_record;
          Alcotest.test_case "overflow recycling" `Quick test_heap_overflow_recycling;
          Alcotest.test_case "delete + iter" `Quick test_heap_delete_and_iter;
          Alcotest.test_case "update" `Quick test_heap_update;
          Alcotest.test_case "attach" `Quick test_heap_attach;
          qcheck heap_model_prop;
        ] );
    ]
