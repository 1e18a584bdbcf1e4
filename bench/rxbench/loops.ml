(* The closed loops every workload runs, written once against a backend so
   the served run (Rx_client over the wire) and the traced replay (the
   embedded engine) issue the same requests and check them the same way. *)

open Util

type backend = {
  query : string -> string * Gen.answer;  (* xpath -> plan, rows *)
  insert : string -> int;  (* document -> docid *)
  delete : int -> unit;
}

let client c =
  let table = Gen.table and column = Gen.column in
  {
    query =
      (fun xpath ->
        let r = Rx_client.query c ~table ~column ~xpath in
        (r.Rx_client.plan, r.Rx_client.matches));
    insert = (fun xml -> Rx_client.insert c ~table ~xml:[ (column, xml) ] ());
    delete = (fun docid -> Rx_client.delete c ~table ~docid);
  }

type tally = {
  mutable reads : float list;  (* ms *)
  mutable writes : float list;
  mutable attempted : int;
  mutable failed : int;  (* errors and Busy replies *)
  mutable wrong : int;  (* answers that disagree with the model *)
  mutable rows : int;
  mutable plans : string list;
  mutable owned : int;  (* churn documents still live at the end *)
}

let tally () =
  {
    reads = []; writes = []; attempted = 0; failed = 0; wrong = 0; rows = 0;
    plans = []; owned = 0;
  }

let merge a b =
  {
    reads = a.reads @ b.reads;
    writes = a.writes @ b.writes;
    attempted = a.attempted + b.attempted;
    failed = a.failed + b.failed;
    wrong = a.wrong + b.wrong;
    rows = a.rows + b.rows;
    plans = List.sort_uniq compare (a.plans @ b.plans);
    owned = a.owned + b.owned;
  }

let timed t ~kind f =
  t.attempted <- t.attempted + 1;
  let t0 = now_ns () in
  match f () with
  | v ->
      let ms = float_of_int (now_ns () - t0) /. 1e6 in
      (match kind with
      | `Read -> t.reads <- ms :: t.reads
      | `Write -> t.writes <- ms :: t.writes);
      Some v
  | exception e ->
      t.failed <- t.failed + 1;
      Printf.eprintf "rxbench: request failed: %s\n%!"
        (Systemrx.Database.error_message e);
      None

(* a timed read; [ok] judges the normalized rows *)
let read b t xpath ~ok =
  match timed t ~kind:`Read (fun () -> b.query xpath) with
  | None -> ()
  | Some (plan, rows) ->
      if not (List.mem plan t.plans) then t.plans <- plan :: t.plans;
      let got = Gen.normalize rows in
      t.rows <- t.rows + List.length got;
      if not (ok got) then t.wrong <- t.wrong + 1

let read_loop b t ~model ~next ~stop =
  let i = ref 0 in
  while not (stop !i) do
    incr i;
    let r : Gen.read = next () in
    let expect = r.expect model in
    read b t r.xpath ~ok:(fun got -> got = expect)
  done

(* The rows of every churn document, by price, so a read-your-writes
   lookup can tell a concurrent writer's row (allowed) from a row no one
   wrote. A document is logged before its insert is sent: any reply that
   can show it is read after it is logged. Names are unique per document. *)
type churn_log = { lock : Mutex.t; written : (int, string) Hashtbl.t }

let churn_log () = { lock = Mutex.create (); written = Hashtbl.create 4096 }

let window_docs = 64
let read_every = 4

let rows_at cents docid (rows : Gen.row array) acc =
  Array.fold_left
    (fun acc (r : Gen.row) ->
      if r.cents = cents then (docid, Gen.name_element r.name) :: acc else acc)
    acc rows

(* One churn connection. Each loop inserts a new document (auto-commit);
   once the connection owns [window_docs], it also deletes its oldest.
   Every [read_every]-th loop looks up its newest document's first price:
   the answer must hold every base row and every live own row at that
   price, no row of a document it deleted, and nothing no one wrote.
   [reads:false] makes it a pure write probe that deletes what it inserted
   before returning, leaving the table as it found it. *)
let churn b t ~seed ~conn ~model ~log ?(reads = true) ~stop () =
  let rng = Rx_util.Prng.create ~seed:(seed + (7919 * (conn + 1))) in
  let owned = Queue.create () in
  let deleted = Hashtbl.create 256 in
  let newest = ref [||] in
  let i = ref 0 in
  let delete docid =
    match timed t ~kind:`Write (fun () -> b.delete docid) with
    | Some () -> Hashtbl.replace deleted docid ()
    | None -> ()
  in
  while not (stop !i) do
    incr i;
    let xml, rows = Gen.document rng ~tag:(Printf.sprintf "w%d.%d.%d." seed conn !i) in
    Mutex.protect log.lock (fun () ->
        Array.iter
          (fun (r : Gen.row) ->
            Hashtbl.add log.written r.cents (Gen.name_element r.name))
          rows);
    (match timed t ~kind:`Write (fun () -> b.insert xml) with
    | Some docid ->
        Queue.push (docid, rows) owned;
        newest := rows
    | None -> ());
    if Queue.length owned > window_docs then delete (fst (Queue.pop owned));
    if reads && !i mod read_every = 0 && !newest <> [||] then begin
      let cents = !newest.(0).Gen.cents in
      let base = Gen.lookup model cents in
      let mine = Queue.fold (fun acc (d, rows) -> rows_at cents d rows acc) [] owned in
      read b t (Gen.lookup_xpath cents) ~ok:(fun got ->
          let written =
            Mutex.protect log.lock (fun () -> Hashtbl.find_all log.written cents)
          in
          List.for_all (fun row -> List.mem row got) (base @ mine)
          && List.for_all
               (fun ((d, name) as row) ->
                 List.mem row base
                 || (List.mem name written && not (Hashtbl.mem deleted d)))
               got)
    end
  done;
  if not reads then Queue.iter (fun (docid, _) -> delete docid) owned
  else t.owned <- t.owned + Queue.length owned

(* A read workload's writes: after its read window, on a connection of its
   own, [probe_docs] auto-commit inserts, with the churn window's deletes,
   and then the deletes of the rest, so the audit finds the loaded table.
   2,048 writes take ~2.5 s on a 2-core host: a host's slow spell of a
   second or two moves their median less than it moves a shorter probe's. *)
let probe_docs = 1024

let write_probe b t ~seed ~model ~log =
  churn b t ~seed ~conn:100 ~model ~log ~reads:false ~stop:(fun i -> i >= probe_docs) ()
