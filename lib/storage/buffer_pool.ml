open Rx_util

type journal = {
  log_update :
    page_no:int -> off:int -> before:string -> after:string -> int64;
  ensure_durable : int64 -> unit;
}

type snapshot = {
  hits : int;
  misses : int;
  evictions : int;
  page_flushes : int;
}

exception Pool_exhausted of { page_no : int; capacity : int }

let () =
  Printexc.register_printer (function
    | Pool_exhausted { page_no; capacity } ->
        Some
          (Printf.sprintf
             "Buffer_pool.Pool_exhausted(page %d: all %d frames pinned)"
             page_no capacity)
    | _ -> None)

(* sync: every frame field is read and written under its shard's lock,
   except [data]/[dirty] inside [update]'s callback window where the frame
   is pinned and the caller holds the engine write lock (single-writer
   rule) — eviction never selects a pinned frame, so no flush can race the
   mutation.
   sync: all frame fields are guarded by the owning shard's [s_lock],
   modulo that pinned-callback window *)
type frame = {
  data : bytes;
  mutable dirty : bool;
  mutable pins : int;
  (* set when the frame was filled by readahead and not yet demanded; an
     eviction while still set counts as bufpool.readahead.wasted *)
  mutable prefetched : bool;
}

(* Per-shard tallies back the immutable [snapshot] API; the registry counters
   mirror them so the pool shows up in the Rx_obs report (shared registries
   merge pools, per-database registries stay isolated). *)
(* sync: tally fields are mutated under the owning shard's lock *)
type tally = {
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_evictions : int;
  mutable t_flushes : int;
}

(* One latch-striped partition of the pool: pages are assigned by
   [page_no land mask], so consecutive heap pages round-robin across
   shards and concurrent scan domains contend on different latches. *)
type shard = {
  s_lock : Mutex.t;
  s_frames : (int, frame) Lru.t; (* sync: guarded by s_lock *)
  s_tally : tally;
}

type t = {
  pager : Pager.t;
  shards : shard array; (* length is a power of two *)
  mask : int;
  mutable journal : journal option;
      (* sync: installed at open time, before any concurrent reader exists *)
  mutable fallback_lsn : int64;
      (* sync: when no journal is installed; bumped only inside [update],
         which the single-writer rule already serializes *)
  metrics : Rx_obs.Metrics.t;
  c_hits : Rx_obs.Metrics.counter;
  c_misses : Rx_obs.Metrics.counter;
  c_evictions : Rx_obs.Metrics.counter;
  c_flushes : Rx_obs.Metrics.counter;
  c_ra_batches : Rx_obs.Metrics.counter;
  c_ra_pages : Rx_obs.Metrics.counter;
  c_ra_wasted : Rx_obs.Metrics.counter;
}

(* Small pools (tests, throwaway catalogs) keep one shard so their exact
   LRU/eviction semantics are unchanged; engine-sized pools stripe 16
   ways. Must be a power of two for the page-number mask. *)
let default_shards ~capacity = if capacity >= 1024 then 16 else 1

let create ?(metrics = Rx_obs.Metrics.default) ?(capacity = 256) ?shards pager =
  let n_shards =
    let requested = match shards with Some n -> n | None -> default_shards ~capacity in
    if requested < 1 then invalid_arg "Buffer_pool.create: shards must be >= 1";
    if requested land (requested - 1) <> 0 then
      invalid_arg "Buffer_pool.create: shards must be a power of two";
    if requested > capacity then
      invalid_arg "Buffer_pool.create: more shards than frames";
    requested
  in
  let per_shard = max 1 (capacity / n_shards) in
  let t =
    {
      pager;
      shards =
        Array.init n_shards (fun _ ->
            {
              s_lock = Mutex.create ();
              s_frames = Lru.create ~capacity:per_shard;
              s_tally = { t_hits = 0; t_misses = 0; t_evictions = 0; t_flushes = 0 };
            });
      mask = n_shards - 1;
      journal = None;
      fallback_lsn = 0L;
      metrics;
      c_hits = Rx_obs.Metrics.counter metrics "bufpool.hits";
      c_misses = Rx_obs.Metrics.counter metrics "bufpool.misses";
      c_evictions = Rx_obs.Metrics.counter metrics "bufpool.evictions";
      c_flushes = Rx_obs.Metrics.counter metrics "bufpool.page_flushes";
      c_ra_batches = Rx_obs.Metrics.counter metrics "bufpool.readahead.batches";
      c_ra_pages = Rx_obs.Metrics.counter metrics "bufpool.readahead.pages";
      c_ra_wasted = Rx_obs.Metrics.counter metrics "bufpool.readahead.wasted";
    }
  in
  Rx_obs.Metrics.set (Rx_obs.Metrics.gauge metrics "bufpool.shards") n_shards;
  t

let pager t = t.pager
let page_size t = Pager.page_size t.pager
let set_journal t j = t.journal <- j
let metrics t = t.metrics
let shards t = Array.length t.shards

let shard_of t page_no = t.shards.(page_no land t.mask)

let locked s f =
  Mutex.lock s.s_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.s_lock) f

(* Tally reads are unlocked: each field is a word-sized int mutated under
   its shard lock, so a snapshot is approximately consistent under
   concurrency and exact whenever the caller has quiesced the pool (every
   existing test and the profile path). *)
let snapshot t =
  Array.fold_left
    (fun acc s ->
      {
        hits = acc.hits + s.s_tally.t_hits;
        misses = acc.misses + s.s_tally.t_misses;
        evictions = acc.evictions + s.s_tally.t_evictions;
        page_flushes = acc.page_flushes + s.s_tally.t_flushes;
      })
    { hits = 0; misses = 0; evictions = 0; page_flushes = 0 }
    t.shards

let diff ~before ~after =
  {
    hits = after.hits - before.hits;
    misses = after.misses - before.misses;
    evictions = after.evictions - before.evictions;
    page_flushes = after.page_flushes - before.page_flushes;
  }

(* Write back one dirty frame. Called with the owning shard's lock held;
   takes the WAL lock (ensure_durable) and the pager I/O lock inside it —
   the engine-wide lock order is shard -> wal/pager, and neither the WAL
   nor the pager ever calls back into the pool. *)
let flush_frame t s page_no frame =
  if frame.dirty then begin
    (match t.journal with
    | Some j -> j.ensure_durable (Page.get_lsn frame.data)
    | None -> ());
    Pager.write t.pager page_no frame.data;
    frame.dirty <- false;
    s.s_tally.t_flushes <- s.s_tally.t_flushes + 1;
    Rx_obs.Metrics.incr t.c_flushes
  end

(* Insert a freshly read frame, evicting an unpinned victim if the shard is
   full. Shard lock held. @raise Pool_exhausted when every frame is pinned. *)
let insert_frame t s page_no frame =
  match
    Lru.put_evict_if s.s_frames ~can_evict:(fun _ f -> f.pins = 0) page_no frame
  with
  | None ->
      raise (Pool_exhausted { page_no; capacity = Lru.capacity s.s_frames })
  | Some None -> ()
  | Some (Some (victim_no, victim)) ->
      s.s_tally.t_evictions <- s.s_tally.t_evictions + 1;
      Rx_obs.Metrics.incr t.c_evictions;
      if victim.prefetched then Rx_obs.Metrics.incr t.c_ra_wasted;
      flush_frame t s victim_no victim

(* Fetch the frame for [page_no], pinning it. The shard lock is held across
   the miss read so two domains demanding the same cold page produce one
   physical read and one frame; other shards stay fully concurrent. *)
let pin t page_no =
  let s = shard_of t page_no in
  locked s (fun () ->
      match Lru.find s.s_frames page_no with
      | Some frame ->
          s.s_tally.t_hits <- s.s_tally.t_hits + 1;
          Rx_obs.Metrics.incr t.c_hits;
          frame.prefetched <- false;
          frame.pins <- frame.pins + 1;
          frame
      | None ->
          s.s_tally.t_misses <- s.s_tally.t_misses + 1;
          Rx_obs.Metrics.incr t.c_misses;
          let data = Bytes.create (page_size t) in
          Pager.read t.pager page_no data;
          let frame = { data; dirty = false; pins = 1; prefetched = false } in
          insert_frame t s page_no frame;
          frame)

let unpin t page_no frame =
  let s = shard_of t page_no in
  locked s (fun () -> frame.pins <- frame.pins - 1)

let cached t page_no =
  let s = shard_of t page_no in
  locked s (fun () -> Lru.mem s.s_frames page_no)

(* Group a sorted page list into maximal runs of consecutive numbers. *)
let contiguous_runs pages =
  let flush cur acc = match cur with [] -> acc | _ -> List.rev cur :: acc in
  let rec go acc cur = function
    | [] -> List.rev (flush cur acc)
    | p :: rest -> (
        match cur with
        | q :: _ when p = q + 1 -> go acc (p :: cur) rest
        | [] -> go acc [ p ] rest
        | _ -> go (flush cur acc) [ p ] rest)
  in
  go [] [] pages

let prefetch t pages =
  let limit = Pager.page_count t.pager in
  let wanted =
    List.sort_uniq compare pages
    |> List.filter (fun p -> p > 0 && p < limit && not (cached t p))
  in
  let fetch_run run =
    match run with
    | [] -> ()
    | first :: _ ->
        let n = List.length run in
        let bufs = Array.init n (fun _ -> Bytes.create (page_size t)) in
        (* batched physical read outside any shard lock (Pager.read_run is
           reentrant); frames are then published shard by shard *)
        Pager.read_run t.pager ~first bufs;
        Rx_obs.Metrics.incr t.c_ra_batches;
        Rx_obs.Metrics.add t.c_ra_pages n;
        Array.iteri
          (fun i data ->
            let page_no = first + i in
            let s = shard_of t page_no in
            locked s (fun () ->
                (* a demand read (or another domain's prefetch of the same
                   run) may have won the race: never replace a live frame *)
                if not (Lru.mem s.s_frames page_no) then
                  insert_frame t s page_no
                    { data; dirty = false; pins = 0; prefetched = true }))
          bufs
  in
  let fetch_run_advisory run =
    try fetch_run run with
    | Pool_exhausted _ ->
        (* advisory: this shard has no evictable frame left; other shards
           may still have room, so keep going with the remaining runs *)
        ()
    | Pager.Corrupt_page _ ->
        (* leave the corruption for a demand read to surface with full context *)
        ()
  in
  List.iter fetch_run_advisory (contiguous_runs wanted)

let with_page t page_no f =
  let frame = pin t page_no in
  Fun.protect ~finally:(fun () -> unpin t page_no frame) (fun () -> f frame.data)

(* An equal gap shorter than this is cheaper to log inside one run than to
   split around: each extra [Update] record costs about this much in frame
   header, record tag, txid, page number, offset and image lengths. *)
let run_gap = 20

(* The changed byte runs of a page image, outside the LSN field (bytes
   0..7), as [(off, len)] in ascending order. Equal stretches are skipped a
   word at a time; two changes separated by at most [run_gap] equal bytes
   stay one run. A slotted page grows its pointer array forward and its
   cells backward, so one mutation typically yields two short runs at the
   two ends of the free gap rather than one run spanning it. *)
let changed_runs before after =
  let n = Bytes.length after in
  let rec skip_equal i =
    if
      i + 8 <= n
      && Int64.equal (Bytes.get_int64_ne before i) (Bytes.get_int64_ne after i)
    then skip_equal (i + 8)
    else if i < n && Bytes.get before i = Bytes.get after i then
      skip_equal (i + 1)
    else i
  in
  let rec skip_diff i =
    if i < n && Bytes.get before i <> Bytes.get after i then skip_diff (i + 1)
    else i
  in
  (* [lo] starts a run; [i] is a differing byte inside it *)
  let rec runs lo i acc =
    let eq = skip_diff i in
    let next = skip_equal eq in
    if next = n then List.rev ((lo, eq - lo) :: acc)
    else if next - eq > run_gap then runs next next ((lo, eq - lo) :: acc)
    else runs lo next acc
  in
  let first = skip_equal Page.lsn_size in
  if first = n then [] else runs first first []

(* One [Update] record per changed run; the page carries the last LSN, so
   redo's [lsn >= page LSN] test replays either all of the runs or only
   those a flushed image does not already hold. If [f] (or the journal)
   raises, the frame gets its old bytes back: a half-applied mutation with
   no log record must never reach disk through a later flush. *)
let update t page_no f =
  let frame = pin t page_no in
  Fun.protect
    ~finally:(fun () -> unpin t page_no frame)
    (fun () ->
      let before = Bytes.copy frame.data in
      match
        let result = f frame.data in
        (match changed_runs before frame.data with
        | [] -> ()
        | runs ->
            let log_run _ (off, len) =
              match t.journal with
              | Some j ->
                  j.log_update ~page_no ~off
                    ~before:(Bytes.sub_string before off len)
                    ~after:(Bytes.sub_string frame.data off len)
              | None ->
                  t.fallback_lsn <- Int64.add t.fallback_lsn 1L;
                  t.fallback_lsn
            in
            Page.set_lsn frame.data (List.fold_left log_run 0L runs);
            frame.dirty <- true);
        result
      with
      | result -> result
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Bytes.blit before 0 frame.data 0 (Bytes.length before);
          Printexc.raise_with_backtrace e bt)

let modify_unlogged t page_no f =
  let frame = pin t page_no in
  Fun.protect
    ~finally:(fun () -> unpin t page_no frame)
    (fun () ->
      let result = f frame.data in
      frame.dirty <- true;
      result)

let alloc t kind =
  let page_no = Pager.alloc t.pager in
  update t page_no (fun data -> Page.set_kind data kind);
  page_no

let flush_all t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Lru.iter (fun page_no frame -> flush_frame t s page_no frame) s.s_frames))
    t.shards;
  Pager.sync t.pager

let drop_cache t =
  Array.iter
    (fun s ->
      locked s (fun () ->
          Lru.iter
            (fun page_no frame ->
              if frame.pins > 0 then
                raise
                  (Pool_exhausted { page_no; capacity = Lru.capacity s.s_frames }))
            s.s_frames;
          let keys = List.map fst (Lru.to_list s.s_frames) in
          List.iter (Lru.remove s.s_frames) keys))
    t.shards
