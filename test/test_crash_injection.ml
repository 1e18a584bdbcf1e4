(* Crash-safety tests: page/WAL checksums, torn-tail healing, degraded
   read-only mode, checkpoint durability, and a short seeded run of the
   full crash-injection harness. *)

open Rx_storage
open Systemrx

let check = Alcotest.check

let with_temp_dir f =
  let base = Filename.get_temp_dir_name () in
  let rec fresh i =
    let dir = Filename.concat base (Printf.sprintf "rx_crash_%d_%d" (Unix.getpid ()) i) in
    if Sys.file_exists dir then fresh (i + 1) else dir
  in
  let dir = fresh 0 in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun x -> rm_rf (Filename.concat path x)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

(* flip one byte of [file] at [off] *)
let flip_byte file off =
  let fd = Unix.openfile file [ Unix.O_RDWR ] 0o644 in
  let b = Bytes.create 1 in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd

(* --- CRC32 --- *)

let test_crc32_vector () =
  (* the standard CRC-32/IEEE check value *)
  check Alcotest.int32 "123456789" 0xCBF43926l
    (Rx_util.Crc32.of_string "123456789");
  let crc = Rx_util.Crc32.string ~crc:Rx_util.Crc32.start "1234" ~pos:0 ~len:4 in
  let crc = Rx_util.Crc32.string ~crc "56789" ~pos:0 ~len:5 in
  check Alcotest.int32 "incremental = one-shot" 0xCBF43926l
    (Rx_util.Crc32.finish crc)

(* The definition the table-driven kernel must reproduce: one bit per
   step, no tables. *)
let crc32_bitwise s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 1 to 8 do
        crc :=
          if !crc land 1 = 1 then (!crc lsr 1) lxor 0xEDB88320 else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

(* a random string, a range [pos, pos + len) in it, and a split [k] of the
   range for incremental feeding *)
let crc_case_gen =
  QCheck.Gen.(
    string_size ~gen:char (0 -- 300) >>= fun s ->
    0 -- String.length s >>= fun pos ->
    0 -- (String.length s - pos) >>= fun len ->
    0 -- len >>= fun k -> return (s, pos, len, k))

let crc32_matches_bitwise =
  QCheck.Test.make ~name:"crc32 = a bit-at-a-time reference"
    ~count:2000
    (QCheck.make
       ~print:(fun (s, pos, len, k) ->
         Printf.sprintf "%S pos=%d len=%d split=%d" s pos len k)
       crc_case_gen)
    (fun (s, pos, len, k) ->
      let open Rx_util.Crc32 in
      let want = crc32_bitwise (String.sub s pos len) in
      let split =
        string ~crc:(bytes (Bytes.of_string s) ~pos ~len:k) s ~pos:(pos + k)
          ~len:(len - k)
      in
      Int32.equal want (finish (string s ~pos ~len))
      && Int32.equal want (finish split)
      && (pos > 0 || len < String.length s
         || Int32.equal want (of_string s)))

let test_crc32_bounds () =
  let b = Bytes.make 16 'x' in
  List.iter
    (fun (pos, len) ->
      match Rx_util.Crc32.bytes b ~pos ~len with
      | _ -> Alcotest.failf "range (%d, %d) accepted" pos len
      | exception Invalid_argument _ -> ())
    [ (-1, 4); (0, -1); (8, 9); (17, 0); (1, max_int) ]

(* minor words one call of [f] allocates, averaged over [n] calls *)
let words_per_call ?(n = 1000) f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_crc32_no_allocation () =
  let page = Bytes.make 4096 'p' in
  let words =
    words_per_call (fun () ->
        ignore (Sys.opaque_identity (Page.compute_checksum page)))
  in
  if words > 16. then
    Alcotest.failf "a 4 KiB page checksum allocated %.1f words (max 16)" words

(* Fixtures written by the byte-at-a-time kernel this one replaced: the
   checksums are part of page format v1 and of RXWAL001 frames, so these
   bytes must keep opening, verifying and replaying. *)

let pinned_page () =
  let page = Bytes.init 4096 (fun i -> Char.chr (((i * 131) + 7) land 0xFF)) in
  Page.set_lsn page 0x0102030405060708L;
  Page.set_kind page Page.Heap;
  Bytes.set page 9 (Char.chr Page.format_version);
  Bytes.set_int32_be page 12 0x8653099bl;
  page

let test_pinned_page_checksum () =
  let page = pinned_page () in
  check Alcotest.int32 "stored checksum recomputes" 0x8653099bl
    (Page.compute_checksum page);
  check Alcotest.bool "verifies" true (Page.verify page);
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "p.db" in
      let pager = Pager.open_file path in
      let p = Pager.alloc pager in
      Pager.sync pager;
      Pager.close pager;
      (* lay the image down as raw bytes, as an older build wrote it *)
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.lseek fd (p * 4096) Unix.SEEK_SET);
      ignore (Unix.write fd page 0 4096);
      Unix.close fd;
      let pager = Pager.open_file path in
      let out = Bytes.create 4096 in
      Pager.read pager p out;
      check Alcotest.bool "read back verified" true (Bytes.equal out page);
      Pager.close pager)

let pinned_records =
  Rx_wal.Log_record.
    [
      Update
        { txid = 7; page_no = 42; off = 100; before = "old<b/>";
          after = "new<a x=\"1\"/>" };
      Commit { txid = 7 };
    ]

let pinned_frames =
  String.init 44 (fun i ->
      Char.chr
        (int_of_string
           ("0x"
           ^ String.sub
               "0000001aa822939701072a64076f6c643c622f3e0d6e65773c6120783d2231\
                222f3e00000002f490d49f0307"
               (2 * i) 2)))

let test_pinned_wal_frames () =
  let log = Rx_wal.Log_manager.create_in_memory () in
  List.iter (fun r -> ignore (Rx_wal.Log_manager.append log r)) pinned_records;
  Rx_wal.Log_manager.flush log;
  check Alcotest.string "framed bytes" pinned_frames
    (snd (Rx_wal.Log_manager.raw_since log 0L));
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "w.rxlog" in
      let oc = open_out_bin path in
      output_string oc "RXWAL001\000\000\000\000\000\000\000\000";
      output_string oc pinned_frames;
      close_out oc;
      let log = Rx_wal.Log_manager.open_file path in
      check Alcotest.int "nothing torn" 0
        (Rx_wal.Log_manager.torn_tail_bytes log);
      check Alcotest.bool "replays the records" true
        (List.map snd (List.rev (Rx_wal.Log_manager.records_rev log))
        = pinned_records);
      Rx_wal.Log_manager.close log);
  check Alcotest.bool "decode_frames" true
    (List.map snd (Rx_wal.Log_manager.decode_frames ~base:0L pinned_frames)
    = pinned_records)

(* --- page checksums --- *)

let test_corrupt_page_detected () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "p.db" in
      Unix.mkdir dir 0o755;
      let pager = Pager.open_file ~page_size:512 path in
      let p = Pager.alloc pager in
      let buf = Bytes.make 512 'a' in
      Pager.write pager p buf;
      Pager.sync pager;
      Pager.close pager;
      (* damage one byte in the page body, on disk *)
      flip_byte path ((p * 512) + 100);
      let pager2 = Pager.open_file ~page_size:512 path in
      let out = Bytes.create 512 in
      (match Pager.read pager2 p out with
      | () -> Alcotest.fail "corrupt page served without error"
      | exception Pager.Corrupt_page { page_no; _ } ->
          check Alcotest.int "error names the damaged page" p page_no);
      Pager.close pager2)

(* --- torn WAL tail --- *)

let test_torn_tail_replays_prefix () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "w.rxlog" in
      let log = Rx_wal.Log_manager.open_file path in
      for txid = 1 to 5 do
        ignore (Rx_wal.Log_manager.append log (Rx_wal.Log_record.Commit { txid }))
      done;
      Rx_wal.Log_manager.flush log;
      Rx_wal.Log_manager.close log;
      (* tear the file mid-way through the last record *)
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      Unix.ftruncate fd (size - 3);
      Unix.close fd;
      let log2 = Rx_wal.Log_manager.open_file path in
      check Alcotest.int "intact prefix replays" 4
        (Rx_wal.Log_manager.record_count log2);
      check Alcotest.bool "torn bytes accounted" true
        (Rx_wal.Log_manager.torn_tail_bytes log2 > 0);
      let seen = ref 0 in
      Rx_wal.Log_manager.iter log2 (fun _ _ -> incr seen);
      check Alcotest.int "iter stops at the tear" 4 !seen;
      (* the tear was healed on open: a fresh handle sees a clean log *)
      Rx_wal.Log_manager.close log2;
      let log3 = Rx_wal.Log_manager.open_file path in
      check Alcotest.int "healed: no torn bytes on re-open" 0
        (Rx_wal.Log_manager.torn_tail_bytes log3);
      Rx_wal.Log_manager.close log3)

(* a mid-file bit flip (CRC-valid prefix before it) raises Corrupt_record *)
let test_midfile_corruption_raises () =
  with_temp_dir (fun dir ->
      Unix.mkdir dir 0o755;
      let path = Filename.concat dir "w.rxlog" in
      let log = Rx_wal.Log_manager.open_file path in
      for txid = 1 to 5 do
        ignore (Rx_wal.Log_manager.append log (Rx_wal.Log_record.Commit { txid }))
      done;
      Rx_wal.Log_manager.flush log;
      Rx_wal.Log_manager.close log;
      (* flip a payload byte of the SECOND record: everything after the
         first invalid frame is discarded as a torn tail at open *)
      let frame = ((Unix.stat path).Unix.st_size - 16) / 5 in
      flip_byte path (16 + frame + 8);
      let log2 = Rx_wal.Log_manager.open_file path in
      check Alcotest.int "only the prefix before the flip survives" 1
        (Rx_wal.Log_manager.record_count log2);
      Rx_wal.Log_manager.close log2)

(* --- database-level crash behavior --- *)

let insert_doc db i =
  Database.insert db ~table:"t"
    ~xml:[ ("doc", Printf.sprintf "<d><k>k%d</k></d>" i) ]
    ()

let make_table db =
  ignore
    (Database.create_table db ~name:"t"
       ~columns:[ ("doc", Rx_relational.Value.T_xml) ])

let test_checkpoint_then_crash () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      make_table db;
      let docids = List.init 5 (fun i -> insert_doc db i) in
      Database.checkpoint db;
      Database.crash db;
      let db2 = Database.open_dir ~page_size:1024 dir in
      (* nothing to redo: the checkpoint made everything durable in pages *)
      (match Database.last_recovery db2 with
      | Some rep -> check Alcotest.int "nothing to redo" 0 rep.Rx_wal.Recovery.redone
      | None -> Alcotest.fail "expected a recovery report");
      check Alcotest.int "all rows survive" 5 (Database.row_count db2 ~table:"t");
      List.iteri
        (fun i docid ->
          let doc = Database.document db2 ~table:"t" ~column:"doc" ~docid in
          check Alcotest.bool
            (Printf.sprintf "doc %d content intact" docid)
            true
            (String.length doc > 0
            && doc = Printf.sprintf "<d><k>k%d</k></d>" i))
        docids;
      Database.close db2)

let test_recovery_idempotent () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      make_table db;
      ignore (insert_doc db 0);
      ignore (insert_doc db 1);
      (* crash without checkpointing: recovery must redo from the WAL *)
      Database.crash db;
      let db2 = Database.open_dir ~page_size:1024 dir in
      check Alcotest.int "rows after first recovery" 2
        (Database.row_count db2 ~table:"t");
      (* crash again immediately: re-running recovery changes nothing *)
      Database.crash db2;
      let db3 = Database.open_dir ~page_size:1024 dir in
      check Alcotest.int "rows after second recovery" 2
        (Database.row_count db3 ~table:"t");
      check Alcotest.bool "pages all clean" true
        ((Database.verify db3).Database.corrupt_pages = []);
      Database.close db3)

let test_docids_not_reused_after_crash () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      make_table db;
      let d1 = insert_doc db 1 in
      let d2 = insert_doc db 2 in
      (* crash with the WAL ahead of the catalog's next_docid snapshot *)
      Database.crash db;
      let db2 = Database.open_dir ~page_size:1024 dir in
      let d3 = insert_doc db2 3 in
      check Alcotest.bool "fresh docid after recovery" true
        (d3 <> d1 && d3 <> d2 && d3 > d2);
      Database.close db2)

let test_degraded_read_only () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      make_table db;
      let docid = insert_doc db 7 in
      ignore docid;
      Database.close db;
      (* damage the catalog heap's header page (page 1) on disk: the next
         open must detect it and degrade rather than fail or serve junk *)
      flip_byte (Filename.concat dir "data.rxdb") ((1 * 1024) + 200);
      let db2 = Database.open_dir ~page_size:1024 dir in
      (match Database.health db2 with
      | `Degraded _ -> ()
      | `Healthy -> Alcotest.fail "corruption not detected at open");
      let report = Database.verify db2 in
      check Alcotest.bool "verify pinpoints page 1" true
        (List.mem 1 report.Database.corrupt_pages);
      (match make_table db2 with
      | exception Database.Read_only _ -> ()
      | exception _ -> Alcotest.fail "expected Read_only"
      | () -> Alcotest.fail "mutation allowed on degraded handle");
      (match Database.checkpoint db2 with
      | exception Database.Read_only _ -> ()
      | exception _ -> Alcotest.fail "expected Read_only from checkpoint"
      | () -> Alcotest.fail "checkpoint allowed on degraded handle");
      (* close must not checkpoint (it would overwrite durable state) *)
      Database.close db2;
      (* the damage is still there for forensics: nothing overwrote it *)
      let db3 = Database.open_dir ~page_size:1024 dir in
      (match Database.health db3 with
      | `Degraded _ -> ()
      | `Healthy -> Alcotest.fail "damage silently healed");
      Database.close db3)

(* a damaged WAL header (bad magic) is corruption, not a user error, and
   the failed open leaves no file descriptor behind *)
let test_damaged_wal_header () =
  with_temp_dir (fun dir ->
      let db = Database.open_dir ~page_size:1024 dir in
      make_table db;
      ignore (insert_doc db 1);
      Database.close db;
      let wal = Filename.concat dir "wal.rxlog" in
      let fd = Unix.openfile wal [ Unix.O_RDWR ] 0o644 in
      ignore (Unix.write_substring fd "XXXXXXXX" 0 8);
      Unix.close fd;
      let open_fds () =
        if Sys.file_exists "/proc/self/fd" then
          Some (Array.length (Sys.readdir "/proc/self/fd"))
        else None
      in
      let before = open_fds () in
      (match Database.open_dir ~page_size:1024 dir with
      | db2 ->
          Database.close db2;
          Alcotest.fail "opened a WAL with a damaged header"
      | exception e ->
          check Alcotest.int "error_code is corruption" 6
            (Database.error_code e));
      check Alcotest.(option int) "no descriptor leaked" before (open_fds ()))

(* --- fault hooks --- *)

let test_fault_fires_and_latches () =
  let fault = Fault.create () in
  Fault.arm fault ~after:2 Fault.Fail_write;
  let writes = ref 0 in
  let w () =
    Fault.wrap_write (Some fault) ~op:"test" ~len:4 ~write:(fun _ -> incr writes)
  in
  w ();
  (match w () with
  | () -> Alcotest.fail "fault did not fire"
  | exception Fault.Injected _ -> ());
  (* latched: every later operation fails too *)
  (match w () with
  | () -> Alcotest.fail "fault did not latch"
  | exception Fault.Injected _ -> ());
  check Alcotest.int "only the first write happened" 1 !writes;
  check Alcotest.bool "fired" true (Fault.fired fault)

let test_fsync_fault_skips_writes () =
  let fault = Fault.create () in
  Fault.arm fault ~after:1 Fault.Fail_fsync;
  let writes = ref 0 in
  (* writes pass through an armed fsync fault *)
  Fault.wrap_write (Some fault) ~op:"test" ~len:4 ~write:(fun _ -> incr writes);
  Fault.wrap_write (Some fault) ~op:"test" ~len:4 ~write:(fun _ -> incr writes);
  check Alcotest.int "writes unaffected" 2 !writes;
  match Fault.wrap_fsync (Some fault) ~op:"test" ~sync:(fun () -> ()) with
  | () -> Alcotest.fail "fsync fault did not fire"
  | exception Fault.Injected _ -> ()

(* --- the full harness, briefly --- *)

let test_crash_loop_quick () =
  with_temp_dir (fun dir ->
      let o = Crash_harness.run ~iters:30 ~seed:7 ~dir () in
      check Alcotest.(list string) "no invariant violations" [] o.Crash_harness.violations;
      check Alcotest.bool "faults actually fired" true (o.Crash_harness.crashes > 0))

let () =
  Alcotest.run "crash_injection"
    [
      ( "integrity",
        [
          Alcotest.test_case "crc32 check vector" `Quick test_crc32_vector;
          Alcotest.test_case "corrupt page detected" `Quick test_corrupt_page_detected;
          Alcotest.test_case "torn WAL tail replays prefix" `Quick
            test_torn_tail_replays_prefix;
          Alcotest.test_case "mid-file WAL corruption" `Quick
            test_midfile_corruption_raises;
        ] );
      ( "checksum",
        [
          QCheck_alcotest.to_alcotest crc32_matches_bitwise;
          Alcotest.test_case "crc32 rejects bad ranges" `Quick test_crc32_bounds;
          Alcotest.test_case "page checksum allocates <= 16 words" `Quick
            test_crc32_no_allocation;
          Alcotest.test_case "pinned page image verifies" `Quick
            test_pinned_page_checksum;
          Alcotest.test_case "pinned WAL frames replay" `Quick
            test_pinned_wal_frames;
        ] );
      ( "crash",
        [
          Alcotest.test_case "checkpoint then crash loses nothing" `Quick
            test_checkpoint_then_crash;
          Alcotest.test_case "recovery idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "docids not reused after crash" `Quick
            test_docids_not_reused_after_crash;
          Alcotest.test_case "degraded read-only on corruption" `Quick
            test_degraded_read_only;
          Alcotest.test_case "damaged WAL header is corruption" `Quick
            test_damaged_wal_header;
        ] );
      ( "faults",
        [
          Alcotest.test_case "fault fires and latches" `Quick
            test_fault_fires_and_latches;
          Alcotest.test_case "fsync fault skips writes" `Quick
            test_fsync_fault_skips_writes;
        ] );
      ( "harness",
        [ Alcotest.test_case "30-cycle crash loop" `Quick test_crash_loop_quick ] );
    ]
