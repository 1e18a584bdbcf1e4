(* The online, generational XPath value-index lifecycle: build (side log,
   sliced scan and load, quiesce swap), status, rollback to the retained
   generation, and drop — immediate, or staged in a transaction. *)

open Rx_xmlstore
open Rx_relational
open Rx_xindex
open Engine

let find_value_index xc name =
  List.find_opt (fun idx -> (Value_index.def idx).Index_def.name = name) xc.indexes

let drop_index t xc name =
  let dropped, kept =
    List.partition
      (fun idx -> (Value_index.def idx).Index_def.name = name)
      xc.indexes
  in
  (* detach maintenance observers; B+tree pages are not reclaimed
     (deletion is lazy engine-wide) *)
  List.iter (fun idx -> Value_index.unhook idx xc.store) dropped;
  (* a retained prior generation goes with its name *)
  (match List.assoc_opt name xc.gens with
  | Some { g_prior = Some p; _ } -> Value_index.unhook p xc.store
  | _ -> ());
  xc.gens <- List.remove_assoc name xc.gens;
  xc.indexes <- kept;
  invalidate_plans t

(* index DDL resolves names through typed errors (the "small fix" of the
   stable error table: unknown targets are application errors with a
   recognizable shape, not generic failures) *)
let index_table_exn t name =
  match find_table t name with
  | Some tbl -> tbl
  | None -> raise (Unknown_index { kind = `Table; name })

let index_column_exn tbl column =
  match List.assoc_opt column tbl.xml_columns with
  | Some xc -> xc
  | None -> raise (Unknown_index { kind = `Column; name = column })

let gen_state_of xc name =
  match List.assoc_opt name xc.gens with
  | Some gs -> gs
  | None ->
      let gs = { g_build_ms = 0; g_prior = None } in
      xc.gens <- xc.gens @ [ (name, gs) ];
      gs

let find_build t ~table ~column ~name =
  List.find_opt
    (fun b -> b.b_table = table && b.b_column = column && b.b_name = name)
    t.builds

let build_in_flight t ~table ~column ~name =
  match find_build t ~table ~column ~name with
  | Some { b_state = `Scanning; _ } -> true
  | _ -> false

type state =
  | Building of { scanned : int; total : int; side_log : int }
  | Live
  | Failed of string

type info = {
  ix_name : string;
  ix_path : string;
  ix_key_type : Index_def.key_type;
  ix_generation : int;
  ix_state : state;
  ix_entries : int;
  ix_build_ms : int;
  ix_prior_generation : int option;
}

type handle = {
  h_progress : build_progress;
  h_result : (info, exn) Stdlib.result option ref;
      (* parked by the build thread *)
  h_thread : Thread.t;
}

let live_info xc idx =
  let def = Value_index.def idx in
  let iname = def.Index_def.name in
  let gs = List.assoc_opt iname xc.gens in
  {
    ix_name = iname;
    ix_path = Rx_xpath.Ast.to_string def.Index_def.path;
    ix_key_type = def.Index_def.key_type;
    ix_generation = Value_index.generation idx;
    ix_state = Live;
    ix_entries = Value_index.entry_count idx;
    ix_build_ms = (match gs with Some g -> g.g_build_ms | None -> 0);
    ix_prior_generation =
      (match gs with
      | Some { g_prior = Some p; _ } -> Some (Value_index.generation p)
      | _ -> None);
  }

let progress_info xc bp =
  {
    ix_name = bp.b_name;
    ix_path = bp.b_path;
    ix_key_type = bp.b_key_type;
    ix_generation = bp.b_generation;
    ix_state =
      (match bp.b_state with
      | `Scanning ->
          Building
            {
              scanned = bp.b_scanned;
              total = bp.b_total;
              side_log = bp.b_pending;
            }
      | `Failed msg -> Failed msg
      | `Live -> Live);
    ix_entries = 0;
    ix_build_ms = 0;
    (* for a rebuild, the generation that will become prior at swap *)
    ix_prior_generation =
      Option.map Value_index.generation (find_value_index xc bp.b_name);
  }

(* Documents per scan slice and side-log events per drain slice; a load
   slice appends [16 * build_slice] sorted entries, about what a scan
   slice of eight-entry documents yields. Each slice is one critical
   section, so a concurrent write waits out at most one. *)
let build_slice = 256

(* The build proper; runs on its own thread. Four phases:
   1. registration (one short critical section): create the new
      generation's empty tree, hook the side log, capture the docid
      snapshot — the side log is live *before* the snapshot is taken, so
      no DML can fall between them;
   2. scan: slices of up to 256 documents, each its own critical section
      — extract and encode each record's entries as the store yields
      it. Nothing is written; each slice's entries are kept as one
      array;
   3. load ([Index_build.sort_entries], [Index_build.load]): sort the
      entries and fill the empty tree bottom-up, then replay the side log
      (every DML since registration, in order) — both in slices, each its
      own critical section and micro-transaction, so every page is
      WAL-logged. Replaying the whole log over the scanned state is
      exact: per key the last logged operation wins, and a document's
      scanned state already reflects everything logged before its scan.
      Between slices of every phase the engine is free: concurrent
      queries and writers proceed against the old generation;
   4. quiesce (one short critical section): final drain, stop the log,
      swap the new generation into the planner's view, retire the old
      one for rollback, bump the DDL epoch and save the catalog — the
      WAL-logged save is the swap's durability point, so a crash at any
      earlier moment recovers to the old generation and the new tree's
      pages are mere orphans (reclamation is lazy engine-wide). *)
let run_build ?on_slice t tbl xc ~name ~def bp started =
  let idx, side_log, docids =
    locked t (fun () ->
        in_txn t (fun () ->
            let idx = Value_index.create t.pool t.dict def in
            Value_index.set_generation idx bp.b_generation;
            let sl = Index_build.start idx xc.store in
            xc.side_logs <- xc.side_logs @ [ (name, sl) ];
            let docids = ref [] in
            Base_table.iter
              (fun docid _ ->
                if Doc_store.mem xc.store ~docid then
                  docids := docid :: !docids)
              tbl.base;
            (idx, sl, List.rev !docids)))
  in
  bp.b_total <- List.length docids;
  let slice_no = ref 0 in
  let slice f =
    locked t f;
    bp.b_pending <- Index_build.pending side_log;
    (match on_slice with Some f -> f !slice_no | None -> ());
    incr slice_no
  in
  let rec chunks n = function
    | [] -> []
    | l ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | d :: rest -> take (n - 1) (d :: acc) rest
        in
        let chunk, rest = take n [] l in
        chunk :: chunks n rest
  in
  let slices = ref [] in
  List.iter
    (fun ids ->
      slice (fun () ->
          let entries = ref [] in
          List.iter
            (fun docid ->
              Index_build.scanned side_log ~docid;
              (* deleted since the snapshot: the side log recorded it *)
              if Doc_store.mem xc.store ~docid then
                Doc_store.iter_records xc.store ~docid
                  (fun ~rid ~record ->
                    entries :=
                      List.rev_append
                        (Index_build.entries side_log ~docid ~rid ~record)
                        !entries))
            ids;
          slices := Array.of_list (List.rev !entries) :: !slices;
          bp.b_scanned <- bp.b_scanned + List.length ids))
    (chunks build_slice docids);
  let sorted = Index_build.sort_entries (List.rev !slices) in
  slices := [];
  let n = Array.length sorted and per_slice = 16 * build_slice in
  let rec load lo =
    let hi = min n (lo + per_slice) in
    slice (fun () ->
        in_txn t (fun () -> Index_build.load side_log sorted ~lo ~hi));
    if hi < n then load hi
  in
  load 0;
  while Index_build.pending side_log > build_slice do
    slice (fun () ->
        in_txn t (fun () ->
            ignore (Index_build.drain ~max:build_slice side_log)))
  done;
  (* quiesce: the swap itself *)
  locked t (fun () ->
      in_txn t (fun () -> ignore (Index_build.drain side_log));
      Index_build.stop side_log;
      xc.side_logs <- List.filter (fun (n, _) -> n <> name) xc.side_logs;
      bp.b_pending <- 0;
      let gs = gen_state_of xc name in
      (match find_value_index xc name with
      | Some old ->
          (* retire the old generation: it stays hooked (so DML keeps it
             correct for rollback) but leaves the planner's view; the
             generation it displaces leaks its pages, like a drop *)
          (match gs.g_prior with
          | Some dead -> Value_index.unhook dead xc.store
          | None -> ());
          gs.g_prior <- Some old;
          xc.indexes <-
            List.map (fun i -> if i == old then idx else i) xc.indexes
      | None -> xc.indexes <- xc.indexes @ [ idx ]);
      Value_index.hook idx xc.store;
      gs.g_build_ms <-
        int_of_float ((Unix.gettimeofday () -. started) *. 1000.);
      bp.b_state <- `Live;
      t.builds <- List.filter (fun b -> b != bp) t.builds;
      invalidate_plans t;
      (* the WAL-logged catalog save is the durability point of the swap *)
      save_catalog t;
      live_info xc idx)

let build ?on_slice t ~table ~column ~name ~path ~key_type =
  ensure_writable t;
  let tbl = index_table_exn t table in
  let xc = index_column_exn tbl column in
  let def = Index_def.make ~name ~path ~key_type in
  let bp =
    {
      b_table = table;
      b_column = column;
      b_name = name;
      b_path = Rx_xpath.Ast.to_string def.Index_def.path;
      b_key_type = key_type;
      b_generation = 1;
      b_total = 0;
      b_scanned = 0;
      b_pending = 0;
      b_state = `Scanning;
    }
  in
  locked t (fun () ->
      if build_in_flight t ~table ~column ~name then
        invalid_arg
          (Printf.sprintf "Database: index %s is already being built" name);
      bp.b_generation <-
        (match find_value_index xc name with
        | Some live -> Value_index.generation live + 1
        | None -> 1);
      (* replace a stale failed entry for the same name *)
      t.builds <-
        bp
        :: List.filter
             (fun b ->
               not
                 (b.b_table = table && b.b_column = column
                && b.b_name = name))
             t.builds);
  let started = Unix.gettimeofday () in
  let result = ref None in
  let thread =
    Thread.create
      (fun () ->
        match run_build ?on_slice t tbl xc ~name ~def bp started with
        | info -> result := Some (Ok info)
        | exception e ->
            bp.b_state <- `Failed (Printexc.to_string e);
            (* detach the orphan generation's side log; its tree pages
               are unreferenced and reclaim lazily *)
            (try
               locked t (fun () ->
                   match List.assoc_opt name xc.side_logs with
                   | Some sl ->
                       Index_build.stop sl;
                       xc.side_logs <-
                         List.filter (fun (n, _) -> n <> name) xc.side_logs
                   | None -> ())
             with _ -> ());
            result := Some (Error e))
      ()
  in
  { h_progress = bp; h_result = result; h_thread = thread }

let await h =
  Thread.join h.h_thread;
  match !(h.h_result) with
  | Some (Ok info) -> info
  | Some (Error e) -> raise e
  | None -> failwith "Database.Index.await: build thread left no result"

let status t ~table ~column ~name =
  let tbl = index_table_exn t table in
  let xc = index_column_exn tbl column in
  match find_build t ~table ~column ~name with
  | Some ({ b_state = `Scanning | `Failed _; _ } as bp) ->
      progress_info xc bp
  | _ -> (
      match find_value_index xc name with
      | Some idx -> live_info xc idx
      | None -> raise (Unknown_index { kind = `Index; name }))

let list t ~table ~column =
  let tbl = index_table_exn t table in
  let xc = index_column_exn tbl column in
  let live = List.map (live_info xc) xc.indexes in
  let pending =
    List.filter_map
      (fun bp ->
        if
          bp.b_table = table && bp.b_column = column
          && not (List.exists (fun i -> i.ix_name = bp.b_name) live)
        then Some (progress_info xc bp)
        else None)
      t.builds
  in
  live @ pending

let rollback t ~table ~column ~name =
  ensure_writable t;
  let tbl = index_table_exn t table in
  let xc = index_column_exn tbl column in
  if build_in_flight t ~table ~column ~name then
    invalid_arg
      (Printf.sprintf "Database: index %s is being built (rollback later)"
         name);
  locked t (fun () ->
      match find_value_index xc name with
      | None -> raise (Unknown_index { kind = `Index; name })
      | Some live -> (
          match List.assoc_opt name xc.gens with
          | Some ({ g_prior = Some prior; _ } as gs) ->
              (* symmetric swap — the rolled-back generation is retained
                 in turn, so a rollback can itself be rolled back; both
                 trees are hooked throughout, so neither goes stale *)
              gs.g_prior <- Some live;
              xc.indexes <-
                List.map (fun i -> if i == live then prior else i) xc.indexes;
              invalidate_plans t;
              save_catalog t;
              live_info xc prior
          | _ ->
              invalid_arg
                (Printf.sprintf
                   "Database: index %s has no prior generation to roll back \
                    to"
                   name)))

let drop ?txn t ~table ~column ~name =
  ensure_writable t;
  let tbl = index_table_exn t table in
  let xc = index_column_exn tbl column in
  if build_in_flight t ~table ~column ~name then
    invalid_arg
      (Printf.sprintf "Database: index %s is being built (drop later)" name);
  if find_value_index xc name = None then
    raise (Unknown_index { kind = `Index; name });
  match txn with
  | Some txn ->
      ensure_txn_open txn;
      (* staged DDL: applied at commit; until then the index keeps
         maintaining itself, but this transaction's own queries must not
         plan against it (see [txn_staged_drop]) *)
      txn.pending <-
        P_drop_index { p_table = table; p_column = column; p_name = name }
        :: txn.pending
  | None ->
      (* immediate drop: self-locking, like [rollback] — callers must
         not already hold the engine lock *)
      locked t (fun () ->
          drop_index t xc name;
          save_catalog t)
