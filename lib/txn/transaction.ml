type state = Active | Committed | Aborted

type manager = {
  locks : Lock_manager.t;
  log : Rx_wal.Log_manager.t option;
  pool : Rx_storage.Buffer_pool.t option;
  mutable next_txid : int;
  mutable current : int; (* txid attributed to page updates *)
  mutable active : int;
}

type t = { mgr : manager; id : int; mutable state : state }

let create_manager ?log ?pool () =
  (* lock counters land in the pool's registry so the whole database
     instance reports to one place *)
  let metrics =
    match pool with
    | Some pool -> Rx_storage.Buffer_pool.metrics pool
    | None -> Rx_obs.Metrics.default
  in
  { locks = Lock_manager.create ~metrics (); log; pool; next_txid = 0; current = 0; active = 0 }

let lock_manager mgr = mgr.locks

let install_journal mgr =
  match (mgr.log, mgr.pool) with
  | Some log, Some pool ->
      Rx_wal.Journal.install pool log ~current_txid:(fun () -> mgr.current)
  | _ -> invalid_arg "Transaction.install_journal: manager has no log or pool"

let begin_txn mgr =
  mgr.next_txid <- mgr.next_txid + 1;
  mgr.active <- mgr.active + 1;
  { mgr; id = mgr.next_txid; state = Active }

let seed_txids mgr txid = if txid > mgr.next_txid then mgr.next_txid <- txid

let txid t = t.id
let is_active t = t.state = Active

let run_as t f =
  let saved = t.mgr.current in
  t.mgr.current <- t.id;
  Fun.protect ~finally:(fun () -> t.mgr.current <- saved) f

let ensure_active t =
  if t.state <> Active then invalid_arg "Transaction: not active"

let lock t resource mode =
  ensure_active t;
  (* ancestors first, coarsest first *)
  let rec ancestors r acc =
    match Resource.parent r with Some p -> ancestors p (p :: acc) | None -> acc
  in
  let intention = Lock_modes.intention_for mode in
  let rec acquire = function
    | [] -> Lock_manager.request t.mgr.locks ~txid:t.id resource mode
    | anc :: rest -> (
        match Lock_manager.request t.mgr.locks ~txid:t.id anc intention with
        | Lock_manager.Granted -> acquire rest
        | Lock_manager.Blocked blockers -> Lock_manager.Blocked blockers)
  in
  match acquire (ancestors resource []) with
  | Lock_manager.Granted -> `Granted
  | Lock_manager.Blocked blockers -> `Blocked blockers

let lock_detect t resource mode =
  match lock t resource mode with
  | `Granted -> `Granted
  | `Blocked blockers -> (
      (* the blocked request stays queued, so its waits-for edges are part
         of the graph we search *)
      match Lock_manager.find_deadlock_cycle t.mgr.locks with
      | Some (victim, cycle) -> `Deadlock (victim, cycle)
      | None -> `Blocked blockers)

let finish t =
  t.mgr.active <- t.mgr.active - 1;
  Lock_manager.cancel_waits t.mgr.locks ~txid:t.id;
  Lock_manager.release_all t.mgr.locks ~txid:t.id

let precommit t =
  ensure_active t;
  let durability =
    match t.mgr.log with
    | Some log ->
        let lsn =
          Rx_wal.Log_manager.append log
            (Rx_wal.Log_record.Commit { txid = t.id })
        in
        Some (log, lsn)
    | None -> None
  in
  t.state <- Committed;
  let unlocked = finish t in
  (* the wait hint is taken *after* [finish] decremented us: a window is
     only worth holding open when other committers may still arrive *)
  let wait = t.mgr.active > 0 in
  let await () =
    match durability with
    | Some (log, lsn) -> Rx_wal.Log_manager.group_commit log ~wait lsn
    | None -> ()
  in
  (unlocked, await)

let commit t =
  let unlocked, await = precommit t in
  await ();
  unlocked

let abort ?undo t =
  ensure_active t;
  (match undo with
  | Some discard -> discard ()
  | None -> (
      match (t.mgr.log, t.mgr.pool) with
      | Some log, Some pool ->
          ignore (Rx_wal.Recovery.rollback log pool ~txid:t.id);
          ignore
            (Rx_wal.Log_manager.append log (Rx_wal.Log_record.Abort { txid = t.id }))
      | _ -> ()));
  t.state <- Aborted;
  finish t

let active_count mgr = mgr.active
