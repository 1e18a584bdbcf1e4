(* Deterministic crash-loop harness over a real on-disk database.

   Each iteration opens the database, checks every invariant against an
   in-process model of the committed state, then runs a mixed
   insert/update/delete workload with a randomly armed fault on the
   physical I/O path. When the fault fires the process "dies"
   (Fault.Injected propagates out of the DML call and the file descriptors
   are dropped with no flush); the next iteration reopens, which runs
   crash recovery, and the invariants are checked again.

   The one operation in flight at the crash has either-outcome semantics:
   auto-commit DML is durable exactly when the call returned, so a crashed
   call may or may not have committed. The model tracks that single
   pending operation and accepts either outcome — anything else (a lost
   committed document, a surviving loser, a mismatched serialization, a
   checksum failure) is a violation. *)

open Rx_storage

type outcome = {
  iterations : int;
  crashes : int;
  injected : (string * int) list; (* fault kind -> times fired *)
  torn_tail_bytes : int; (* WAL bytes healed across all reopens *)
  replayed : int; (* redo records applied across all recoveries *)
  undone : int; (* loser updates rolled back across all recoveries *)
  auto_checkpoints : int;
  survivors : int; (* committed documents alive at the end *)
  final_ops : int; (* committed operations applied over the run *)
  violations : string list; (* empty = every invariant held *)
}

type pending =
  | P_none
  | P_insert of { key : string; xml : string }
  | P_update of { docid : int; old_xml : string; new_xml : string }
  | P_delete of { docid : int }

type state = {
  rng : Rx_util.Prng.t;
  dir : string;
  parallelism : int; (* worker domains for the reopened database *)
  model : (int, string) Hashtbl.t; (* docid -> exact serialized document *)
  mutable pending : pending;
  mutable next_key : int; (* unique content marker for inserts *)
  mutable max_docid_bound : int; (* docids never exceed this *)
  mutable violations : string list;
}

let table = "t"
let column = "doc"

let violation st fmt =
  Printf.ksprintf
    (fun msg -> if List.length st.violations < 20 then st.violations <- msg :: st.violations)
    fmt

let doc_xml ~key ~value = Printf.sprintf "<d><k>%s</k><v>%s</v></d>" key value

(* replace the <v>...</v> payload in a model document *)
let splice_value xml value =
  match (String.index_opt xml 'v', String.rindex_opt xml 'v') with
  | Some _, Some _ -> (
      let open_tag = "<v>" and close_tag = "</v>" in
      let find sub =
        let n = String.length sub in
        let rec go i =
          if i + n > String.length xml then None
          else if String.sub xml i n = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      match (find open_tag, find close_tag) with
      | Some o, Some c ->
          String.sub xml 0 (o + String.length open_tag)
          ^ value
          ^ String.sub xml c (String.length xml - c)
      | _ -> xml)
  | _ -> xml

(* documents are always <d><k>KEY</k>...; extract KEY *)
let key_of_doc xml =
  let find sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length xml then None
      else if String.sub xml i n = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  match (find "<k>", find "</k>") with
  | Some o, Some c when c > o -> String.sub xml (o + 3) (c - o - 3)
  | _ -> ""

let open_db st =
  let db = Database.open_dir ~page_size:1024 st.dir in
  Database.set_config db
    {
      Database.default_config with
      auto_checkpoint = true;
      checkpoint_wal_bytes = 2048;
      checkpoint_wal_records = 48;
      commit_window_us = 100;
      wal_buffer_bytes = 512;
      parallelism = st.parallelism;
      (* the workload's documents are tiny, so force the partitioned scan
         path on when the harness runs with extra domains *)
      parallel_scan_min_pages = (if st.parallelism > 1 then 1 else 64);
    };
  if Database.table db table = None then begin
    ignore
      (Database.create_table db ~name:table
         ~columns:[ ("doc", Rx_relational.Value.T_xml) ]);
    match Rx_xindex.Index_def.key_type_of_string "string" with
    | Some kt ->
        ignore
          (Database.Index.await
             (Database.Index.build db ~table ~column ~name:"idx_k"
                ~path:"/d/k" ~key_type:kt))
    | None -> ()
  end;
  db

(* scan the heap for every live document, via the docid index *)
let present_docs db st =
  let acc = ref [] in
  for docid = 1 to st.max_docid_bound do
    match Database.fetch_row db ~table ~docid with
    | Some _ -> acc := (docid, Database.document db ~table ~column ~docid) :: !acc
    | None -> ()
  done;
  List.rev !acc

(* Reconcile reality with the model: committed documents must survive
   byte-for-byte, losers must be gone, and the single pending operation
   may have gone either way. *)
let check_invariants db st =
  let present = present_docs db st in
  (* resolve the in-flight operation first, against what actually survived *)
  (match st.pending with
  | P_none -> ()
  | P_insert { key; xml = _ } -> (
      let extra =
        List.find_opt (fun (d, _) -> not (Hashtbl.mem st.model d)) present
      in
      match extra with
      | Some (docid, xml) ->
          if key_of_doc xml = key then Hashtbl.replace st.model docid xml
          else
            violation st
              "pending insert: surviving extra doc %d has key %S, expected %S"
              docid (key_of_doc xml) key
      | None -> (* the insert died before commit: fine *) ())
  | P_update { docid; old_xml; new_xml } -> (
      match List.assoc_opt docid present with
      | Some xml when xml = old_xml -> ()
      | Some xml when xml = new_xml -> Hashtbl.replace st.model docid xml
      | Some xml ->
          violation st
            "pending update of doc %d resolved to neither old nor new image: %S"
            docid xml
      | None -> violation st "pending update: doc %d vanished entirely" docid)
  | P_delete { docid } ->
      if not (List.mem_assoc docid present) then Hashtbl.remove st.model docid);
  st.pending <- P_none;
  (* every committed document survives, exactly *)
  Hashtbl.iter
    (fun docid expected ->
      match List.assoc_opt docid present with
      | Some xml when xml = expected -> ()
      | Some xml ->
          violation st "doc %d corrupted: expected %S, got %S" docid expected xml
      | None -> violation st "committed doc %d lost" docid)
    st.model;
  (* nothing extra survives *)
  List.iter
    (fun (docid, xml) ->
      if not (Hashtbl.mem st.model docid) then
        violation st "loser doc %d survived recovery: %S" docid xml)
    present;
  (* heap and row count agree *)
  let rc = Database.row_count db ~table in
  if rc <> Hashtbl.length st.model then
    violation st "row_count %d but model has %d docs" rc (Hashtbl.length st.model);
  (* the node index agrees with the heap: one <k> element per live doc *)
  let r = Database.run db ~table ~column ~xpath:"/d/k" in
  let matched = List.sort_uniq compare (List.map (fun m -> m.Database.docid) r.Database.matches) in
  if List.length matched <> Hashtbl.length st.model then
    violation st "query /d/k sees %d docs, model has %d" (List.length matched)
      (Hashtbl.length st.model);
  List.iter
    (fun d ->
      if not (Hashtbl.mem st.model d) then
        violation st "query /d/k returned unknown doc %d" d)
    matched;
  (* every physical page checksums clean and the handle is healthy *)
  let report = Database.verify db in
  (match report.Database.corrupt_pages with
  | [] -> ()
  | ps ->
      violation st "corrupt pages after recovery: %s"
        (String.concat "," (List.map string_of_int ps)));
  (match report.Database.stale_index_stats with
  | [] -> ()
  | names ->
      violation st "index multi-value statistic stale after recovery: %s"
        (String.concat "," names));
  match Database.health db with
  | `Healthy -> ()
  | `Degraded reason -> violation st "database degraded: %s" reason

(* one workload operation; returns [true] if the fault fired (crash) *)
let run_op db st =
  let committed = Hashtbl.fold (fun d _ acc -> d :: acc) st.model [] in
  let pick_committed () =
    List.nth committed (Rx_util.Prng.int st.rng (List.length committed))
  in
  let choice =
    if committed = [] then 0 else Rx_util.Prng.int st.rng 10 (* 0-4 insert, 5-7 update, 8-9 delete *)
  in
  try
    if choice <= 4 then begin
      let key = Printf.sprintf "k%d" st.next_key in
      st.next_key <- st.next_key + 1;
      st.max_docid_bound <- st.max_docid_bound + 1;
      let xml = doc_xml ~key ~value:(Rx_util.Prng.word st.rng ()) in
      st.pending <- P_insert { key; xml };
      let docid = Database.insert db ~table ~xml:[ (column, xml) ] () in
      (* read back the canonical serialization; later opens must preserve it *)
      Hashtbl.replace st.model docid (Database.document db ~table ~column ~docid);
      st.max_docid_bound <- max st.max_docid_bound docid;
      st.pending <- P_none
    end
    else if choice <= 7 then begin
      let docid = pick_committed () in
      let old_xml = Hashtbl.find st.model docid in
      let value = Rx_util.Prng.word st.rng () in
      let new_xml = splice_value old_xml value in
      (* locate this document's <v> element through the query path *)
      let r = Database.run db ~table ~column ~xpath:"/d/v" in
      match
        List.find_opt (fun m -> m.Database.docid = docid) r.Database.matches
      with
      | None -> violation st "doc %d has no /d/v node to update" docid
      | Some m ->
          st.pending <- P_update { docid; old_xml; new_xml };
          Database.update_xml_text db ~table ~column ~docid m.Database.node value;
          Hashtbl.replace st.model docid
            (Database.document db ~table ~column ~docid);
          st.pending <- P_none
    end
    else begin
      let docid = pick_committed () in
      st.pending <- P_delete { docid };
      Database.delete db ~table ~docid;
      Hashtbl.remove st.model docid;
      st.pending <- P_none
    end;
    false
  with Fault.Injected _ -> true

let run ?(iters = 200) ?(seed = 42) ?(ops_per_iter = 14) ?(parallelism = 1)
    ?on_cycle ~dir () =
  let st =
    {
      rng = Rx_util.Prng.create ~seed;
      dir;
      parallelism;
      model = Hashtbl.create 64;
      pending = P_none;
      next_key = 0;
      max_docid_bound = 0;
      violations = [];
    }
  in
  let crashes = ref 0 in
  let injected = Hashtbl.create 4 in
  let torn = ref 0 in
  let replayed = ref 0 in
  let undone = ref 0 in
  let auto_ckpts = ref 0 in
  let final_ops = ref 0 in
  let max_ops = ref 60 in
  for i = 1 to iters do
    let db = open_db st in
    let r = Database.verify db in
    torn := !torn + r.Database.wal_torn_bytes;
    (match Database.last_recovery db with
    | Some rep ->
        replayed := !replayed + rep.Rx_wal.Recovery.redone;
        undone := !undone + rep.Rx_wal.Recovery.undone
    | None -> ());
    check_invariants db st;
    (* observer hook: the database is open, recovered and fault-free here *)
    (match on_cycle with
    | Some f ->
        f ~db
          ~committed:(Hashtbl.fold (fun d x acc -> (d, x) :: acc) st.model [])
          ~violation:(fun msg -> violation st "%s" msg)
    | None -> ());
    (* arm a fresh fault for this iteration, seeded from the run PRNG *)
    let fault = Fault.create () in
    let kind = Fault.arm_random fault st.rng ~max_ops:!max_ops in
    let scope =
      (* torn data pages are unrecoverable by design (the WAL carries
         byte-range images, not full pages), so torn writes are armed on
         the WAL device only — where the torn-tail rule heals them *)
      match kind with Fault.Torn_write _ -> `Wal_only | _ -> `All
    in
    Database.set_fault ~scope db (Some fault);
    let ops = if i = 1 then ops_per_iter * 2 else ops_per_iter in
    let crashed = ref false in
    (try
       for _ = 1 to ops do
         if not !crashed then
           if run_op db st then crashed := true else incr final_ops
       done
     with Fault.Injected _ -> crashed := true);
    auto_ckpts :=
      !auto_ckpts
      + Rx_obs.Metrics.(value (counter (Database.metrics db) "ckpt.auto"));
    (* size the next window to the I/O volume actually observed, with
       headroom so a fair share of iterations completes crash-free *)
    max_ops := max 40 (min 1000 (3 * Fault.ops_seen fault));
    if !crashed then begin
      incr crashes;
      let k = Fault.kind_to_string kind in
      Hashtbl.replace injected k (1 + Option.value ~default:0 (Hashtbl.find_opt injected k));
      Database.crash db
    end
    else begin
      Database.set_fault db None;
      if Rx_util.Prng.int st.rng 4 = 0 then begin
        (* checkpoint-then-crash: everything must survive via pages alone *)
        Database.checkpoint db;
        Database.crash db
      end
      else Database.close db
    end
  done;
  (* final clean pass: reopen once more and verify everything *)
  let db = open_db st in
  let r = Database.verify db in
  torn := !torn + r.Database.wal_torn_bytes;
  (match Database.last_recovery db with
  | Some rep ->
      replayed := !replayed + rep.Rx_wal.Recovery.redone;
      undone := !undone + rep.Rx_wal.Recovery.undone
  | None -> ());
  check_invariants db st;
  (match on_cycle with
  | Some f ->
      f ~db
        ~committed:(Hashtbl.fold (fun d x acc -> (d, x) :: acc) st.model [])
        ~violation:(fun msg -> violation st "%s" msg)
  | None -> ());
  let survivors = Hashtbl.length st.model in
  Database.close db;
  {
    iterations = iters;
    crashes = !crashes;
    injected = Hashtbl.fold (fun k v acc -> (k, v) :: acc) injected [];
    torn_tail_bytes = !torn;
    replayed = !replayed;
    undone = !undone;
    auto_checkpoints = !auto_ckpts;
    survivors;
    final_ops = !final_ops;
    violations = List.rev st.violations;
  }
