open Rx_xmlstore
module Mvcc = Rx_txn.Mvcc_store

type column = {
  main : Doc_store.t; (* the current committed version of every document *)
  (* staged working copies and retained pre-images; created on first use *)
  mutable store : Mvcc.t option;
  (* docid -> commit timestamp at which its current version became
     current; absent = since forever. Filled only while a snapshot is
     open. *)
  created : (int, int) Hashtbl.t;
}

type t = {
  (* private, unjournaled and in memory: a version is needed only while a
     snapshot that can see it is open, so nothing here survives a crash *)
  pool : Rx_storage.Buffer_pool.t;
  record_threshold : int;
  mutable commit_ts : int; (* the newest published commit *)
  mutable live : int; (* open snapshots *)
  mutable touched : column list; (* columns holding something to purge *)
}

type staged = { m : Mvcc.t; s : Mvcc.staged }

let create ~page_size ~record_threshold =
  (* a registry of its own, so the data file's [bufpool.*] counters and
     [bufpool.shards] gauge describe the data file alone *)
  let metrics = Rx_obs.Metrics.create () in
  let pool =
    Rx_storage.Buffer_pool.create ~metrics
      (Rx_storage.Pager.create_in_memory ~metrics ~page_size ())
  in
  { pool; record_threshold; commit_ts = 0; live = 0; touched = [] }

let column main = { main; store = None; created = Hashtbl.create 16 }

let begin_snapshot v =
  v.live <- v.live + 1;
  v.commit_ts

(* once the last snapshot ends nothing can read an old version anymore:
   drop retained versions and creation timestamps *)
let end_snapshot v f =
  v.live <- v.live - 1;
  Fun.protect f ~finally:(fun () ->
      if v.live = 0 then begin
        List.iter
          (fun col ->
            Option.iter Mvcc.clear col.store;
            Hashtbl.reset col.created)
          v.touched;
        v.touched <- []
      end)

let publish v f =
  let ts = v.commit_ts + 1 in
  let result = f ts in
  v.commit_ts <- ts;
  result

let touch v col = if not (List.memq col v.touched) then v.touched <- col :: v.touched

let store_of v col =
  match col.store with
  | Some m -> m
  | None ->
      let m =
        Mvcc.create ~record_threshold:v.record_threshold v.pool (Doc_store.dict col.main)
      in
      col.store <- Some m;
      m

(* Before the current version of [docid] is overwritten or deleted at
   [ts], retain a copy for the snapshots that could still need it,
   published at the timestamp the current version became current, so
   visibility is unchanged for every older snapshot. A document already
   changed at [ts] has had its pre-image retained. *)
let retain v col ~docid ~ts =
  if Doc_store.mem col.main ~docid && Hashtbl.find_opt col.created docid <> Some ts
  then begin
    let m = store_of v col in
    let old_ts = Option.value ~default:0 (Hashtbl.find_opt col.created docid) in
    let tokens = Doc_store.tokens col.main ~docid in
    ignore (Mvcc.commit ~at:old_ts m [ Mvcc.stage_write m ~docid tokens ]);
    touch v col
  end

let stamp v col docid ts =
  Hashtbl.replace col.created docid ts;
  touch v col

let change v col ~docid ~ts ?(delete = false) f =
  let versioned = v.live > 0 in
  if versioned then retain v col ~docid ~ts;
  let result = f () in
  (if delete then begin
     Hashtbl.remove col.created docid;
     (* older snapshots may still read a retained version: a non-empty
        chain needs a tombstone at the deletion timestamp *)
     match col.store with
     | Some m when versioned && Mvcc.tracked m ~docid ->
         ignore (Mvcc.commit ~at:ts m [ Mvcc.stage_delete m ~docid ])
     | _ -> ()
   end
   else if versioned then stamp v col docid ts);
  result

let inserted v ~ts docs =
  if v.live > 0 then List.iter (fun (col, docid) -> stamp v col docid ts) docs

let conflict_check col ~snapshot ~docid =
  match Hashtbl.find_opt col.created docid with
  | Some ts when ts > snapshot ->
      failwith
        (Printf.sprintf
           "Database: write-write conflict on DocID %d (updated since \
            transaction began)"
           docid)
  | _ -> ()

let stage v col ~docid tokens =
  let m = store_of v col in
  { m; s = Mvcc.stage_write m ~docid tokens }

let staged_doc { m; s } =
  match Mvcc.staged_internal s with
  | Some i -> (Mvcc.store m, i)
  | None -> assert false (* [stage] never stages a deletion *)

let discard { m; s } = Mvcc.abort m [ s ]

let resolve col ~snapshot ~docid =
  let current_visible =
    Doc_store.mem col.main ~docid
    &&
    match Hashtbl.find_opt col.created docid with
    | Some ts -> ts <= snapshot
    | None -> true
  in
  if current_visible then `Main
  else
    match col.store with
    | None -> `Absent
    | Some m -> (
        match Mvcc.lookup_at m ~snapshot ~docid with
        | `Version i -> `Internal (Mvcc.store m, i)
        | `Tombstone | `Invisible | `Untracked -> `Absent)

let candidates col docids =
  let all = ref docids in
  Option.iter (fun m -> Mvcc.iter_tracked m (fun d -> all := d :: !all)) col.store;
  List.sort_uniq compare !all
