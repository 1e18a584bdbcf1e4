(* A process-wide, grow-only pool of worker domains.

   OCaml 5 caps the number of live domains (128) and spawning one costs a
   few hundred microseconds, so every Database handle sharing one lazily
   grown pool beats a pool per handle: tests open dozens of handles, and a
   server opens one per process anyway.  Workers are spawned on demand up
   to [max_workers] and then live until process exit (an [at_exit] hook
   drains and joins them so the runtime shuts down cleanly).

   [run] executes a batch of independent thunks with the *caller
   participating*: the caller drains the shared queue alongside the
   workers, so a batch always makes progress even when every worker is
   busy with someone else's tasks — which also makes nested [run] calls
   deadlock-free. *)

type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  mutable b_remaining : int;
}

type t = {
  lock : Mutex.t; (* guards queue / workers / shutdown *)
  work : Condition.t; (* signaled when queue grows or shutdown flips *)
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable shutdown : bool;
}

(* keep well under the runtime's domain cap while still covering any
   realistic core count for one process; parallelism knobs above this
   still work, the extra chunks just queue *)
let max_workers = 15

let create () =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    queue = Queue.create ();
    workers = [];
    n_workers = 0;
    shutdown = false;
  }

let worker_loop t () =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.shutdown do
      Condition.wait t.work t.lock
    done;
    if Queue.is_empty t.queue && t.shutdown then Mutex.unlock t.lock
    else begin
      let task = Queue.pop t.queue in
      Mutex.unlock t.lock;
      task ();
      loop ()
    end
  in
  loop ()

let ensure t n =
  let target = min (n - 1) max_workers in
  if t.n_workers < target then begin
    Mutex.lock t.lock;
    while t.n_workers < target && not t.shutdown do
      t.workers <- Domain.spawn (worker_loop t) :: t.workers;
      t.n_workers <- t.n_workers + 1
    done;
    Mutex.unlock t.lock
  end

let size t = t.n_workers + 1

let stop t =
  Mutex.lock t.lock;
  t.shutdown <- true;
  Condition.broadcast t.work;
  let workers = t.workers in
  t.workers <- [];
  t.n_workers <- 0;
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let shared_pool = lazy (let t = create () in at_exit (fun () -> stop t); t)
let shared () = Lazy.force shared_pool

let run_inline tasks = Array.map (fun f -> f ()) tasks

let run t ~parallelism tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else if parallelism <= 1 || n = 1 then run_inline tasks
  else begin
    ensure t parallelism;
    if t.n_workers = 0 then run_inline tasks
    else begin
      let results = Array.make n None in
      let batch =
        { b_lock = Mutex.create (); b_done = Condition.create (); b_remaining = n }
      in
      let wrap i f () =
        let r =
          match f () with
          | v -> Ok v
          | exception e -> Error (e, Printexc.get_raw_backtrace ())
        in
        Mutex.lock batch.b_lock;
        results.(i) <- Some r;
        batch.b_remaining <- batch.b_remaining - 1;
        if batch.b_remaining = 0 then Condition.broadcast batch.b_done;
        Mutex.unlock batch.b_lock
      in
      Mutex.lock t.lock;
      Array.iteri (fun i f -> Queue.push (wrap i f) t.queue) tasks;
      Condition.broadcast t.work;
      Mutex.unlock t.lock;
      (* caller participation: drain the shared queue until it is empty,
         then wait for in-flight tasks of this batch to land *)
      let rec drain () =
        Mutex.lock t.lock;
        match Queue.pop t.queue with
        | task ->
            Mutex.unlock t.lock;
            task ();
            drain ()
        | exception Queue.Empty -> Mutex.unlock t.lock
      in
      drain ();
      Mutex.lock batch.b_lock;
      while batch.b_remaining > 0 do
        Condition.wait batch.b_done batch.b_lock
      done;
      Mutex.unlock batch.b_lock;
      let first_error = ref None in
      Array.iter
        (function
          | Some (Error (e, bt)) when !first_error = None ->
              first_error := Some (e, bt)
          | _ -> ())
        results;
      match !first_error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None ->
          Array.map
            (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
            results
    end
  end

let run_ranges t ~parallelism n f =
  let k = max 0 (min (max 1 parallelism) n) in
  run t ~parallelism:k
    (Array.init k (fun c () -> f ~lo:(c * n / k) ~hi:((c + 1) * n / k)))
