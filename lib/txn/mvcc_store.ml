open Rx_xmlstore

(* A version record: commit timestamp and the internal docid holding its
   packed records. [ts] is -1 while the version is staged (invisible to
   every snapshot), 0 for versions that predate version tracking ("visible
   since forever"), and >= 1 for versions published at that commit
   timestamp. [None] internal id encodes a committed deletion
   (tombstone). *)
type version = { mutable ts : int; internal : int option }

type t = {
  ds : Doc_store.t;
  mutable next_ts : int;
  mutable next_internal : int;
  versions : (int, version list ref) Hashtbl.t; (* newest (highest ts) first *)
}

type staged = { docid : int; version : version }

let create ?record_threshold pool dict =
  {
    ds = Doc_store.create ?record_threshold pool dict;
    next_ts = 0;
    next_internal = 1;
    versions = Hashtbl.create 32;
  }

let store t = t.ds

let chain t docid =
  match Hashtbl.find_opt t.versions docid with
  | Some c -> c
  | None ->
      let c = ref [] in
      Hashtbl.replace t.versions docid c;
      c

let stage_write t ~docid tokens =
  let internal = t.next_internal in
  t.next_internal <- internal + 1;
  Doc_store.insert_tokens t.ds ~docid:internal tokens;
  { docid; version = { ts = -1; internal = Some internal } }

let stage_delete _t ~docid = { docid; version = { ts = -1; internal = None } }

let staged_internal s = s.version.internal

(* Insert keeping the chain sorted newest-first; among equal timestamps the
   most recently published version wins (goes first). *)
let insert_sorted c v =
  let rec go = function
    | older :: _ as rest when older.ts <= v.ts -> v :: rest
    | newer :: rest -> newer :: go rest
    | [] -> [ v ]
  in
  c := go !c

let commit ?at t staged =
  let ts =
    match at with
    | None ->
        t.next_ts <- t.next_ts + 1;
        t.next_ts
    | Some ts ->
        if ts < 0 then invalid_arg "Mvcc_store.commit: negative timestamp";
        if ts > t.next_ts then t.next_ts <- ts;
        ts
  in
  List.iter
    (fun s ->
      s.version.ts <- ts;
      insert_sorted (chain t s.docid) s.version)
    staged;
  ts

let abort t staged =
  List.iter
    (fun s ->
      match s.version.internal with
      | Some internal when s.version.ts < 0 ->
          Doc_store.delete_document t.ds ~docid:internal
      | _ -> ())
    staged

let snapshot t = t.next_ts

let version_at t ~snapshot ~docid =
  match Hashtbl.find_opt t.versions docid with
  | None -> None
  | Some c -> (
      match
        List.find_opt (fun v -> v.ts >= 0 && v.ts <= snapshot) !c
      with
      | Some { internal; _ } -> internal
      | None -> None)

let lookup_at t ~snapshot ~docid =
  match Hashtbl.find_opt t.versions docid with
  | None -> `Untracked
  | Some c -> (
      match List.find_opt (fun v -> v.ts >= 0 && v.ts <= snapshot) !c with
      | Some { internal = Some i; _ } -> `Version i
      | Some { internal = None; _ } -> `Tombstone
      | None ->
          if List.exists (fun v -> v.ts >= 0) !c then `Invisible
          else `Untracked)

let tracked t ~docid =
  match Hashtbl.find_opt t.versions docid with
  | None -> false
  | Some c -> List.exists (fun v -> v.ts >= 0) !c

let iter_tracked t f =
  Hashtbl.iter
    (fun docid c -> if List.exists (fun v -> v.ts >= 0) !c then f docid)
    t.versions

let events_at t ~snapshot ~docid f =
  match version_at t ~snapshot ~docid with
  | Some internal -> Doc_store.events t.ds ~docid:internal f
  | None ->
      invalid_arg
        (Printf.sprintf "Mvcc_store: document %d not visible at snapshot %d" docid
           snapshot)

let serialize_at t ~snapshot ~docid =
  match version_at t ~snapshot ~docid with
  | Some internal -> Doc_store.serialize t.ds ~docid:internal
  | None ->
      invalid_arg
        (Printf.sprintf "Mvcc_store: document %d not visible at snapshot %d" docid
           snapshot)

let gc t ~oldest_snapshot =
  let reclaimed = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      (* keep every version a snapshot >= oldest could still read: all
         versions newer than the first one visible at [oldest_snapshot] *)
      let rec split kept = function
        | [] -> (List.rev kept, [])
        | v :: rest ->
            if v.ts >= 0 && v.ts <= oldest_snapshot then
              (List.rev (v :: kept), rest)
            else split (v :: kept) rest
      in
      let keep, drop = split [] !c in
      List.iter
        (fun v ->
          match v.internal with
          | Some internal ->
              Doc_store.delete_document t.ds ~docid:internal;
              incr reclaimed
          | None -> incr reclaimed)
        drop;
      c := keep)
    t.versions;
  !reclaimed

let clear t =
  Hashtbl.iter
    (fun _ c ->
      List.iter
        (fun v ->
          match v.internal with
          | Some internal when v.ts >= 0 ->
              Doc_store.delete_document t.ds ~docid:internal
          | _ -> ())
        !c)
    t.versions;
  Hashtbl.reset t.versions

let version_count t ~docid =
  match Hashtbl.find_opt t.versions docid with
  | None -> 0
  | Some c -> List.length (List.filter (fun v -> v.ts >= 0) !c)
