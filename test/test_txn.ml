open Rx_txn

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let all_modes = [ Lock_modes.IS; IX; S; SIX; U; X ]

(* --- lock modes --- *)

let test_compat_matrix () =
  let expect held req v =
    check Alcotest.bool
      (Printf.sprintf "%s/%s" (Lock_modes.to_string held) (Lock_modes.to_string req))
      v
      (Lock_modes.compatible held req)
  in
  expect IS IS true;
  expect IS X false;
  expect IX IX true;
  expect IX S false;
  expect S S true;
  expect S IX false;
  expect S U true;
  expect U S true;
  expect U U false;
  expect SIX IS true;
  expect SIX S false;
  expect X IS false

let compat_symmetric_except_u =
  (* the matrix is symmetric except for the U asymmetry (U admits new S
     readers, S admits a U request) — here both directions happen to hold;
     the real asymmetry is U/U vs upgrade handling. Verify reflexive cases
     and X totality instead. *)
  QCheck.Test.make ~name:"X is incompatible with everything" ~count:36
    (QCheck.make (QCheck.Gen.oneofl all_modes)) (fun m ->
      (not (Lock_modes.compatible Lock_modes.X m))
      && not (Lock_modes.compatible m Lock_modes.X))

let supremum_is_lub_prop =
  (* semantic characterization: a third mode is compatible with sup(a,b)
     iff compatible with both *)
  QCheck.Test.make ~name:"supremum behaves as combined mode" ~count:300
    QCheck.(
      triple
        (make (Gen.oneofl all_modes))
        (make (Gen.oneofl all_modes))
        (make (Gen.oneofl all_modes)))
    (fun (a, b, c) ->
      let s = Lock_modes.supremum a b in
      Lock_modes.compatible s c = (Lock_modes.compatible a c && Lock_modes.compatible b c))

let supremum_props =
  QCheck.Test.make ~name:"supremum is commutative, idempotent, monotone" ~count:100
    QCheck.(pair (make (Gen.oneofl all_modes)) (make (Gen.oneofl all_modes)))
    (fun (a, b) ->
      Lock_modes.supremum a b = Lock_modes.supremum b a
      && Lock_modes.supremum a a = a
      && Lock_modes.stronger_or_equal (Lock_modes.supremum a b) a)

(* --- resources --- *)

let doc1 = Resource.Document { table = 1; docid = 10 }
let node id = Resource.Node { table = 1; docid = 10; node = id }

let test_resource_overlap () =
  check Alcotest.bool "same doc" true (Resource.overlaps doc1 doc1);
  check Alcotest.bool "different doc" false
    (Resource.overlaps doc1 (Resource.Document { table = 1; docid = 11 }));
  check Alcotest.bool "ancestor node" true
    (Resource.overlaps (node "\x02") (node "\x02\x04"));
  check Alcotest.bool "descendant node" true
    (Resource.overlaps (node "\x02\x04") (node "\x02"));
  check Alcotest.bool "sibling nodes" false
    (Resource.overlaps (node "\x02") (node "\x04"));
  check Alcotest.bool "self" true (Resource.overlaps (node "\x02") (node "\x02"));
  check Alcotest.bool "cross granularity" false (Resource.overlaps doc1 (node "\x02"));
  check Alcotest.bool "other doc node" false
    (Resource.overlaps (node "\x02")
       (Resource.Node { table = 1; docid = 11; node = "\x02" }))

let test_resource_parents () =
  check Alcotest.bool "node -> doc" true (Resource.parent (node "\x02") = Some doc1);
  check Alcotest.bool "doc -> table" true
    (Resource.parent doc1 = Some (Resource.Table 1));
  check Alcotest.bool "table -> none" true (Resource.parent (Resource.Table 1) = None)

(* --- lock manager --- *)

let test_grant_and_conflict () =
  let lm = Lock_manager.create () in
  check Alcotest.bool "t1 S granted" true
    (Lock_manager.request lm ~txid:1 doc1 Lock_modes.S = Lock_manager.Granted);
  check Alcotest.bool "t2 S granted" true
    (Lock_manager.request lm ~txid:2 doc1 Lock_modes.S = Lock_manager.Granted);
  (match Lock_manager.request lm ~txid:3 doc1 Lock_modes.X with
  | Lock_manager.Blocked blockers ->
      check (Alcotest.list Alcotest.int) "blockers" [ 1; 2 ] blockers
  | Lock_manager.Granted -> Alcotest.fail "X should block");
  check Alcotest.bool "t3 waiting" true (Lock_manager.is_waiting lm ~txid:3);
  (* releases promote the waiter *)
  ignore (Lock_manager.release_all lm ~txid:1);
  let promoted = Lock_manager.release_all lm ~txid:2 in
  check (Alcotest.list Alcotest.int) "t3 promoted" [ 3 ] promoted;
  check (Alcotest.option (Alcotest.testable (fun fmt m -> Format.pp_print_string fmt (Lock_modes.to_string m)) ( = )))
    "t3 holds X" (Some Lock_modes.X)
    (Lock_manager.holds lm ~txid:3 doc1)

let test_upgrade () =
  let lm = Lock_manager.create () in
  ignore (Lock_manager.request lm ~txid:1 doc1 Lock_modes.S);
  check Alcotest.bool "upgrade to X while alone" true
    (Lock_manager.request lm ~txid:1 doc1 Lock_modes.X = Lock_manager.Granted);
  check Alcotest.bool "holds X" true
    (Lock_manager.holds lm ~txid:1 doc1 = Some Lock_modes.X);
  (* S + IX = SIX *)
  let lm2 = Lock_manager.create () in
  ignore (Lock_manager.request lm2 ~txid:1 doc1 Lock_modes.S);
  ignore (Lock_manager.request lm2 ~txid:1 doc1 Lock_modes.IX);
  check Alcotest.bool "holds SIX" true
    (Lock_manager.holds lm2 ~txid:1 doc1 = Some Lock_modes.SIX)

let test_node_prefix_locking () =
  let lm = Lock_manager.create () in
  check Alcotest.bool "t1 X on subtree" true
    (Lock_manager.request lm ~txid:1 (node "\x02\x04") Lock_modes.X = Lock_manager.Granted);
  (* descendant blocked *)
  check Alcotest.bool "descendant blocked" true
    (Lock_manager.request lm ~txid:2 (node "\x02\x04\x02") Lock_modes.S
    <> Lock_manager.Granted);
  (* ancestor blocked *)
  check Alcotest.bool "ancestor blocked" true
    (Lock_manager.request lm ~txid:3 (node "\x02") Lock_modes.X <> Lock_manager.Granted);
  (* disjoint subtree fine *)
  check Alcotest.bool "sibling subtree ok" true
    (Lock_manager.request lm ~txid:4 (node "\x02\x06") Lock_modes.X = Lock_manager.Granted)

let test_deadlock_detection () =
  let lm = Lock_manager.create () in
  let r1 = node "\x02" and r2 = node "\x04" in
  ignore (Lock_manager.request lm ~txid:1 r1 Lock_modes.X);
  ignore (Lock_manager.request lm ~txid:2 r2 Lock_modes.X);
  check (Alcotest.option Alcotest.int) "no deadlock yet" None (Lock_manager.find_deadlock lm);
  ignore (Lock_manager.request lm ~txid:1 r2 Lock_modes.X);
  check (Alcotest.option Alcotest.int) "still a chain" None (Lock_manager.find_deadlock lm);
  ignore (Lock_manager.request lm ~txid:2 r1 Lock_modes.X);
  check (Alcotest.option Alcotest.int) "cycle found, youngest victim" (Some 2)
    (Lock_manager.find_deadlock lm);
  (* abort the victim: cancel waits + release; the survivor gets the lock *)
  Lock_manager.cancel_waits lm ~txid:2;
  let promoted = Lock_manager.release_all lm ~txid:2 in
  check (Alcotest.list Alcotest.int) "t1 unblocked" [ 1 ] promoted;
  check (Alcotest.option Alcotest.int) "deadlock cleared" None
    (Lock_manager.find_deadlock lm)

let test_txn_deadlock_cycle () =
  let mgr = Transaction.create_manager () in
  let t1 = Transaction.begin_txn mgr in
  let t2 = Transaction.begin_txn mgr in
  let d1 = Resource.Document { table = 1; docid = 1 }
  and d2 = Resource.Document { table = 1; docid = 2 } in
  check Alcotest.bool "t1 X on doc1" true
    (Transaction.lock_detect t1 d1 Lock_modes.X = `Granted);
  check Alcotest.bool "t2 X on doc2" true
    (Transaction.lock_detect t2 d2 Lock_modes.X = `Granted);
  (match Transaction.lock_detect t1 d2 Lock_modes.X with
  | `Blocked blockers ->
      check (Alcotest.list Alcotest.int) "t1 waits on t2"
        [ Transaction.txid t2 ] blockers
  | `Granted -> Alcotest.fail "t1 should block on doc2"
  | `Deadlock _ -> Alcotest.fail "no cycle yet");
  (match Transaction.lock_detect t2 d1 Lock_modes.X with
  | `Deadlock (victim, cycle) ->
      check Alcotest.int "victim is the youngest" (Transaction.txid t2) victim;
      check (Alcotest.list Alcotest.int) "cycle members"
        [ Transaction.txid t1; Transaction.txid t2 ]
        (List.sort_uniq compare cycle)
  | `Granted -> Alcotest.fail "t2 should not be granted doc1"
  | `Blocked _ -> Alcotest.fail "cycle should be detected");
  (* abort the victim: the survivor's queued request is promoted *)
  ignore (Transaction.abort t2);
  let lm = Transaction.lock_manager mgr in
  check Alcotest.bool "t1 holds doc2 after victim abort" true
    (Lock_manager.holds lm ~txid:(Transaction.txid t1) d2 = Some Lock_modes.X);
  check (Alcotest.option Alcotest.int) "graph clear" None
    (Lock_manager.find_deadlock lm);
  ignore (Transaction.commit t1)

(* --- transactions with multiple granularity --- *)

let test_txn_intention_locks () =
  let mgr = Transaction.create_manager () in
  let t1 = Transaction.begin_txn mgr in
  check Alcotest.bool "node X granted" true
    (Transaction.lock t1 (node "\x02") Lock_modes.X = `Granted);
  let lm = Transaction.lock_manager mgr in
  check Alcotest.bool "table IX" true
    (Lock_manager.holds lm ~txid:(Transaction.txid t1) (Resource.Table 1)
    = Some Lock_modes.IX);
  check Alcotest.bool "doc IX" true
    (Lock_manager.holds lm ~txid:(Transaction.txid t1) doc1 = Some Lock_modes.IX);
  (* another txn can read a different document in the same table *)
  let t2 = Transaction.begin_txn mgr in
  check Alcotest.bool "other doc readable" true
    (Transaction.lock t2 (Resource.Document { table = 1; docid = 99 }) Lock_modes.S
    = `Granted);
  (* but a table-level S is blocked by the IX *)
  let t3 = Transaction.begin_txn mgr in
  check Alcotest.bool "table S blocked" true
    (Transaction.lock t3 (Resource.Table 1) Lock_modes.S <> `Granted);
  ignore (Transaction.commit t1);
  ignore (Transaction.commit t2);
  check Alcotest.bool "after commits, table S" true
    (Transaction.lock t3 (Resource.Table 1) Lock_modes.S = `Granted);
  ignore (Transaction.commit t3)

let test_txn_rollback_storage () =
  let pool =
    Rx_storage.Buffer_pool.create ~capacity:64
      (Rx_storage.Pager.create_in_memory ~page_size:512 ())
  in
  let log = Rx_wal.Log_manager.create_in_memory () in
  let mgr = Transaction.create_manager ~log ~pool () in
  Transaction.install_journal mgr;
  let heap = Rx_storage.Heap_file.create pool in
  let t1 = Transaction.begin_txn mgr in
  let rid1 = Transaction.run_as t1 (fun () -> Rx_storage.Heap_file.insert heap "keep") in
  ignore (Transaction.commit t1);
  let t2 = Transaction.begin_txn mgr in
  let _ = Transaction.run_as t2 (fun () -> Rx_storage.Heap_file.insert heap "discard") in
  ignore (Transaction.abort t2);
  check Alcotest.string "committed row intact" "keep" (Rx_storage.Heap_file.read heap rid1);
  check Alcotest.int "aborted insert undone" 1 (Rx_storage.Heap_file.record_count heap)

(* --- MVCC --- *)

let dict = Rx_xml.Name_dict.create ()

let make_mvcc () =
  let pool =
    Rx_storage.Buffer_pool.create ~capacity:256 (Rx_storage.Pager.create_in_memory ())
  in
  Mvcc_store.create pool dict

let test_mvcc_snapshot_isolation () =
  let m = make_mvcc () in
  let s0 = Mvcc_store.snapshot m in
  let staged = Mvcc_store.stage_write m ~docid:1 (Rx_xml.Parser.parse dict "<v>1</v>") in
  (* invisible before commit *)
  check Alcotest.bool "invisible before commit" true
    (Mvcc_store.version_at m ~snapshot:(Mvcc_store.snapshot m) ~docid:1 = None);
  ignore (Mvcc_store.commit m [ staged ]);
  let s1 = Mvcc_store.snapshot m in
  check Alcotest.string "v1 visible at s1" "<v>1</v>"
    (Mvcc_store.serialize_at m ~snapshot:s1 ~docid:1);
  (* writer updates; old snapshot still sees v1 *)
  let staged2 = Mvcc_store.stage_write m ~docid:1 (Rx_xml.Parser.parse dict "<v>2</v>") in
  ignore (Mvcc_store.commit m [ staged2 ]);
  let s2 = Mvcc_store.snapshot m in
  check Alcotest.string "old snapshot sees v1" "<v>1</v>"
    (Mvcc_store.serialize_at m ~snapshot:s1 ~docid:1);
  check Alcotest.string "new snapshot sees v2" "<v>2</v>"
    (Mvcc_store.serialize_at m ~snapshot:s2 ~docid:1);
  check Alcotest.bool "not visible at s0" true
    (Mvcc_store.version_at m ~snapshot:s0 ~docid:1 = None);
  check Alcotest.int "two committed versions" 2 (Mvcc_store.version_count m ~docid:1)

let test_mvcc_abort () =
  let m = make_mvcc () in
  let staged = Mvcc_store.stage_write m ~docid:7 (Rx_xml.Parser.parse dict "<x/>") in
  Mvcc_store.abort m [ staged ];
  check Alcotest.bool "nothing visible" true
    (Mvcc_store.version_at m ~snapshot:(Mvcc_store.snapshot m) ~docid:7 = None);
  check Alcotest.int "no versions" 0 (Mvcc_store.version_count m ~docid:7)

let test_mvcc_delete_tombstone () =
  let m = make_mvcc () in
  ignore (Mvcc_store.commit m [ Mvcc_store.stage_write m ~docid:1 (Rx_xml.Parser.parse dict "<a/>") ]);
  let s1 = Mvcc_store.snapshot m in
  ignore (Mvcc_store.commit m [ Mvcc_store.stage_delete m ~docid:1 ]);
  let s2 = Mvcc_store.snapshot m in
  check Alcotest.bool "visible at s1" true
    (Mvcc_store.version_at m ~snapshot:s1 ~docid:1 <> None);
  check Alcotest.bool "deleted at s2" true
    (Mvcc_store.version_at m ~snapshot:s2 ~docid:1 = None)

let test_mvcc_gc () =
  let m = make_mvcc () in
  for i = 1 to 5 do
    ignore
      (Mvcc_store.commit m
         [ Mvcc_store.stage_write m ~docid:1
             (Rx_xml.Parser.parse dict (Printf.sprintf "<v>%d</v>" i)) ])
  done;
  check Alcotest.int "five versions" 5 (Mvcc_store.version_count m ~docid:1);
  let s = Mvcc_store.snapshot m in
  let reclaimed = Mvcc_store.gc m ~oldest_snapshot:s in
  check Alcotest.int "four reclaimed" 4 reclaimed;
  check Alcotest.string "latest still readable" "<v>5</v>"
    (Mvcc_store.serialize_at m ~snapshot:s ~docid:1)

let test_mvcc_gc_keeps_older_snapshot_versions () =
  let m = make_mvcc () in
  ignore (Mvcc_store.commit m [ Mvcc_store.stage_write m ~docid:1 (Rx_xml.Parser.parse dict "<v>1</v>") ]);
  let s1 = Mvcc_store.snapshot m in
  ignore (Mvcc_store.commit m [ Mvcc_store.stage_write m ~docid:1 (Rx_xml.Parser.parse dict "<v>2</v>") ]);
  let reclaimed = Mvcc_store.gc m ~oldest_snapshot:s1 in
  check Alcotest.int "nothing reclaimed while s1 lives" 0 reclaimed;
  check Alcotest.string "s1 still sees v1" "<v>1</v>"
    (Mvcc_store.serialize_at m ~snapshot:s1 ~docid:1)

(* version-history model property: every snapshot taken during a random
   run of writes, deletes and aborts reads the state a plain map held at
   that moment, before and after gc at the oldest snapshot *)
type history_op = Write of int * int | Delete of int | Abort of int | Snap

let mvcc_history_prop =
  let op_gen =
    QCheck.Gen.(
      frequency
        [ (4, map2 (fun d v -> Write (d mod 3, v mod 100)) nat nat);
          (1, map (fun d -> Delete (d mod 3)) nat);
          (1, map (fun d -> Abort (d mod 3)) nat);
          (2, return Snap) ])
  in
  QCheck.Test.make ~name:"snapshots read the model" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 30) op_gen))
    (fun ops ->
      let m = make_mvcc () in
      let xml v = Printf.sprintf "<v>%d</v>" v in
      let state = Hashtbl.create 3 in
      let snaps = ref [] in
      List.iter
        (function
          | Write (d, v) ->
              ignore
                (Mvcc_store.commit m
                   [ Mvcc_store.stage_write m ~docid:d (Rx_xml.Parser.parse dict (xml v)) ]);
              Hashtbl.replace state d v
          | Delete d ->
              if Hashtbl.mem state d then begin
                ignore (Mvcc_store.commit m [ Mvcc_store.stage_delete m ~docid:d ]);
                Hashtbl.remove state d
              end
          | Abort d ->
              Mvcc_store.abort m
                [ Mvcc_store.stage_write m ~docid:d (Rx_xml.Parser.parse dict "<aborted/>") ]
          | Snap ->
              snaps :=
                (Mvcc_store.snapshot m, List.init 3 (Hashtbl.find_opt state)) :: !snaps)
        ops;
      let reads_model () =
        List.for_all
          (fun (snapshot, docs) ->
            List.for_all2
              (fun docid expected ->
                match (expected, Mvcc_store.lookup_at m ~snapshot ~docid) with
                | Some v, `Version _ -> Mvcc_store.serialize_at m ~snapshot ~docid = xml v
                | Some _, _ -> false
                | None, `Version _ -> false
                | None, _ -> true)
              (List.init 3 Fun.id) docs)
          !snaps
      in
      let before_gc = reads_model () in
      let oldest =
        List.fold_left (fun acc (s, _) -> min acc s) (Mvcc_store.snapshot m) !snaps
      in
      ignore (Mvcc_store.gc m ~oldest_snapshot:oldest);
      before_gc && reads_model ())

(* lock-manager model property: grants never violate compatibility *)
let lock_manager_invariant_prop =
  let op_gen =
    QCheck.Gen.(
      map3
        (fun txid res mode -> (1 + (txid mod 4), res mod 6, mode))
        nat nat (oneofl all_modes))
  in
  QCheck.Test.make ~name:"granted locks are pairwise compatible" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) op_gen))
    (fun ops ->
      let lm = Lock_manager.create () in
      let resources =
        [| doc1; node "\x02"; node "\x04"; node "\x02\x02";
           Resource.Document { table = 1; docid = 11 }; Resource.Table 1 |]
      in
      List.iter
        (fun (txid, r, mode) ->
          ignore (Lock_manager.request lm ~txid resources.(r) mode))
        ops;
      (* check the invariant over every pair of granted locks *)
      let all =
        List.concat_map
          (fun txid ->
            List.map (fun (r, m) -> (txid, r, m)) (Lock_manager.locks_held lm ~txid))
          [ 1; 2; 3; 4 ]
      in
      List.for_all
        (fun (t1, r1, m1) ->
          List.for_all
            (fun (t2, r2, m2) ->
              t1 = t2
              || (not (Resource.overlaps r1 r2))
              || (Lock_modes.compatible m1 m2 && Lock_modes.compatible m2 m1))
            all)
        all)

let () =
  Alcotest.run "rx_txn"
    [
      ( "lock_modes",
        [
          Alcotest.test_case "compatibility matrix" `Quick test_compat_matrix;
          qcheck compat_symmetric_except_u;
          qcheck supremum_is_lub_prop;
          qcheck supremum_props;
        ] );
      ( "resources",
        [
          Alcotest.test_case "overlap" `Quick test_resource_overlap;
          Alcotest.test_case "parents" `Quick test_resource_parents;
        ] );
      ( "lock_manager",
        [
          Alcotest.test_case "grant and conflict" `Quick test_grant_and_conflict;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "node prefix locking" `Quick test_node_prefix_locking;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          qcheck lock_manager_invariant_prop;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "intention locks" `Quick test_txn_intention_locks;
          Alcotest.test_case "rollback storage" `Quick test_txn_rollback_storage;
          Alcotest.test_case "deadlock cycle (two txns)" `Quick
            test_txn_deadlock_cycle;
        ] );
      ( "mvcc",
        [
          Alcotest.test_case "snapshot isolation" `Quick test_mvcc_snapshot_isolation;
          Alcotest.test_case "abort discards" `Quick test_mvcc_abort;
          Alcotest.test_case "delete tombstone" `Quick test_mvcc_delete_tombstone;
          Alcotest.test_case "gc" `Quick test_mvcc_gc;
          Alcotest.test_case "gc respects snapshots" `Quick
            test_mvcc_gc_keeps_older_snapshot_versions;
        ] );
      (* the suite name's length sets Alcotest's name column; the other
         suites' printed test names depend on it *)
      ("mvcc_version_history", [ qcheck mvcc_history_prop ]);
    ]
