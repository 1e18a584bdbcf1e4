(* E17 — the event-loop server core: idle-connection scale, request
   pipelining and streamed result cursors.

   A fresh on-disk database is served by the reactor [Rx_server]; a herd
   of mostly-idle connections (default 256) is held open for the whole
   run — under the old thread-per-connection core each would have pinned
   a thread; under the reactor they cost only their buffers — while a
   few hot clients (default 8) drive the engine. Three phases:

   - sequential: the hot clients issue their mixed workload (auto-commit
     inserts + indexed queries) one request per round trip;
   - pipelined:  the same clients issue the same workload through
     [Rx_client.pipeline] in flights (default 16) — one round of writes
     per flight, and the server absorbs each flight's independent
     commits into shared group-commit fsyncs;
   - streaming:  a table whose full query result exceeds the 16 MiB wire
     frame cap. The one-frame [Query] path must fail with the frame-cap
     error (pointing at cursors), and the same result must then stream
     completely through [fold_query]-style chunks with every chunk
     bounded by the requested budget — bounded memory however large the
     result.

   Gates: zero protocol/unexpected errors in the hot phases; the idle
   herd is still fully serviceable afterwards (every idle connection
   answers a query); peak [net.conns] covers herd + hot clients;
   pipelined req/sec >= sequential; pipelined commits/fsync >
   sequential; streaming returns every row with no chunk above budget +
   one row's slack.

   Emits BENCH_E17.json and exits non-zero if a gate fails.

     RX_E17_IDLE     idle connections held open      (default 256)
     RX_E17_CLIENTS  hot pipelining clients          (default 8)
     RX_E17_OPS      requests per hot client/phase   (default 240)
     RX_E17_FLIGHT   ops per pipelined flight        (default 16)
     RX_E17_DOCS     documents in the streaming table (default 18)
     RX_E17_DOC_KB   size of each streamed document  (default 1024) *)

open Systemrx
open Rx_relational

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_n i =
    let dir =
      Filename.concat base (Printf.sprintf "rx_e17_%d_%d" (Unix.getpid ()) i)
    in
    if Sys.file_exists dir then try_n (i + 1) else dir
  in
  try_n 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_fresh_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () ->
      try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ())
  @@ fun () -> f dir

let doc i =
  Printf.sprintf "<book><title>Book %d</title><price>%d.5</price></book>" i
    (i mod 100)

let big_doc i kb =
  Printf.sprintf "<book><title>Blob %d</title><blob>%s</blob></book>" i
    (String.make (kb * 1024) 'x')

let cval db name = Rx_obs.Metrics.(value (counter (Database.metrics db) name))
let gval db name = Rx_obs.Metrics.(get (gauge (Database.metrics db) name))

let seed = 8

let with_served_db f =
  with_fresh_dir @@ fun dir ->
  let db = Database.open_dir dir in
  Fun.protect ~finally:(fun () -> Database.close db) @@ fun () ->
  (* one table per hot phase, seeded identically: the workload's queries
     return every match, so sharing a table would hand the later phase a
     larger (insert-grown) result set than the earlier one *)
  List.iter
    (fun name ->
      ignore
        (Database.create_table db ~name ~columns:[ ("doc", Value.T_xml) ]);
      ignore
    (Database.Index.await
       (Database.Index.build db ~table:name ~column:"doc"
        ~name:("by_price_" ^ name) ~path:"/book/price"
        ~key_type:Rx_xindex.Index_def.K_double));
      for i = 1 to seed do
        ignore (Database.insert db ~table:name ~xml:[ ("doc", doc i) ] ())
      done)
    [ "books_seq"; "books_pl" ];
  ignore
    (Database.create_table db ~name:"blobs" ~columns:[ ("doc", Value.T_xml) ]);
  Database.set_config db { (Database.config db) with commit_window_us = 2500 };
  let config =
    {
      Rx_server.default_config with
      max_connections = 4096;
      max_queue_depth = 4096;
    }
  in
  let srv = Rx_server.start ~config db in
  Fun.protect ~finally:(fun () -> Rx_server.stop srv) @@ fun () ->
  f db (Rx_server.port srv)

(* the mixed hot workload: 2/3 auto-commit inserts (the group-commit
   absorption target), 1/3 indexed queries *)
let op_of ~table ~id i =
  if (id + i) mod 3 = 2 then
    Rx_wire.Query
      { table; column = "doc"; xpath = "/book[price > 50]"; ns_env = [] }
  else
    Rx_wire.Insert
      { table; values = []; xml = [ ("doc", doc ((id * 100_000) + i)) ] }

type phase = {
  clients : int;
  requests : int;
  elapsed : float;
  rps : float;
  commits : int;
  fsyncs : int;
  per_fsync : float;
  errors : int;
}

let fan_out ~clients f =
  let results = Array.make clients 0 in
  let threads =
    List.init clients (fun id ->
        Thread.create (fun () -> results.(id) <- f id) ())
  in
  List.iter Thread.join threads;
  Array.fold_left ( + ) 0 results

(* one request per round trip *)
let sequential_client ~port ~ops id =
  let errors = ref 0 in
  (try
     let c = Rx_client.connect ~port ~client:(Printf.sprintf "e17-seq-%d" id) () in
     Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
     for i = 1 to ops do
       try
         match op_of ~table:"books_seq" ~id i with
         | Rx_wire.Insert { table; values; xml } ->
             ignore (Rx_client.insert c ~table ~values ~xml ())
         | Rx_wire.Query { table; column; xpath; ns_env } ->
             ignore (Rx_client.query ~ns_env c ~table ~column ~xpath)
         | _ -> assert false
       with _ -> incr errors
     done
   with _ -> incr errors);
  !errors

(* the same ops in pipelined flights *)
let pipelined_client ~port ~ops ~flight id =
  let errors = ref 0 in
  (try
     let c = Rx_client.connect ~port ~client:(Printf.sprintf "e17-pl-%d" id) () in
     Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
     let sent = ref 0 in
     while !sent < ops do
       let n = min flight (ops - !sent) in
       let batch =
         List.init n (fun k -> op_of ~table:"books_pl" ~id (!sent + k + 1))
       in
       sent := !sent + n;
       List.iter
         (function Ok _ -> () | Error _ -> incr errors)
         (Rx_client.pipeline c batch)
     done
   with _ -> incr errors);
  !errors

let run_phase ~label:_ ~db ~port ~clients ~ops run_client =
  let commits0 = cval db "txn.commit" in
  let fsyncs0 = cval db "wal.forced_syncs" in
  let t0 = Unix.gettimeofday () in
  let errors = fan_out ~clients (run_client ~port ~ops) in
  let elapsed = Unix.gettimeofday () -. t0 in
  let commits = cval db "txn.commit" - commits0 in
  let fsyncs = cval db "wal.forced_syncs" - fsyncs0 in
  let requests = clients * ops in
  {
    clients;
    requests;
    elapsed;
    rps = float_of_int requests /. elapsed;
    commits;
    fsyncs;
    per_fsync =
      (if fsyncs = 0 then float_of_int commits
       else float_of_int commits /. float_of_int fsyncs);
    errors;
  }

type stream_result = {
  s_docs : int;
  s_rows : int;
  s_bytes : int;
  s_max_chunk : int;
  s_budget : int;
  s_cap_error : bool;
  s_heap_delta_mb : float;
}

(* load > max_frame of documents, show the one-frame path failing
   cleanly and the cursor path streaming it whole in bounded chunks *)
let run_streaming ~db ~port ~docs ~doc_kb =
  let (), wait =
    Database.exclusively db (fun () ->
        ignore
          (Database.insert_many db ~table:"blobs" ~column:"doc"
             (List.init docs (fun i -> big_doc i doc_kb))))
  in
  wait ();
  let c = Rx_client.connect ~port ~client:"e17-stream" () in
  Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
  let cap_error =
    match Rx_client.query c ~table:"blobs" ~column:"doc" ~xpath:"/book" with
    | exception Rx_client.Error { status = 1; _ } -> true
    | _ -> false
  in
  let budget = 2 * 1024 * 1024 in
  let heap0 = (Gc.quick_stat ()).Gc.heap_words in
  let cur =
    Rx_client.open_cursor ~chunk_bytes:budget c ~table:"blobs" ~column:"doc"
      ~xpath:"/book"
  in
  let rows = ref 0 and bytes = ref 0 and max_chunk = ref 0 in
  let rec drain () =
    match Rx_client.fetch c cur with
    | [] -> ()
    | chunk ->
        let sz = List.fold_left (fun a (_, s) -> a + String.length s) 0 chunk in
        rows := !rows + List.length chunk;
        bytes := !bytes + sz;
        max_chunk := max !max_chunk sz;
        drain ()
  in
  drain ();
  let heap1 = (Gc.quick_stat ()).Gc.heap_words in
  {
    s_docs = docs;
    s_rows = !rows;
    s_bytes = !bytes;
    s_max_chunk = !max_chunk;
    s_budget = budget;
    s_cap_error = cap_error;
    s_heap_delta_mb =
      float_of_int ((heap1 - heap0) * (Sys.word_size / 8)) /. 1048576.;
  }

let write_json path ~idle ~peak_conns ~idle_alive ~sequential ~pipelined ~stream
    ~pass =
  let phase_json p =
    Printf.sprintf
      {|{
    "clients": %d,
    "requests": %d,
    "elapsed_s": %.3f,
    "requests_per_sec": %.1f,
    "commits": %d,
    "wal_fsyncs": %d,
    "commits_per_fsync": %.2f,
    "errors": %d
  }|}
      p.clients p.requests p.elapsed p.rps p.commits p.fsyncs p.per_fsync
      p.errors
  in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "experiment": "e17_reactor",
  %s,
  "idle_connections": %d,
  "peak_net_conns": %d,
  "idle_alive_after": %d,
  "sequential": %s,
  "pipelined": %s,
  "pipelining_speedup": %.2f,
  "absorption_gain": %.2f,
  "streaming": {
    "docs": %d,
    "rows_streamed": %d,
    "bytes_streamed": %d,
    "chunk_budget": %d,
    "max_chunk_bytes": %d,
    "frame_cap_error_on_query": %b,
    "client_heap_delta_mb": %.1f
  },
  "pass": %b
}
|}
    (Report.json_meta ()) idle peak_conns idle_alive (phase_json sequential)
    (phase_json pipelined)
    (pipelined.rps /. sequential.rps)
    (pipelined.per_fsync /. sequential.per_fsync)
    stream.s_docs stream.s_rows stream.s_bytes stream.s_budget
    stream.s_max_chunk stream.s_cap_error stream.s_heap_delta_mb pass;
  close_out oc

let row name p =
  [
    name;
    string_of_int p.clients;
    Printf.sprintf "%.0f" p.rps;
    string_of_int p.commits;
    string_of_int p.fsyncs;
    Printf.sprintf "%.2f" p.per_fsync;
  ]

let run () =
  Report.print_header "E17: event-loop server (idle scale, pipelining, cursors)";
  let idle = getenv_int "RX_E17_IDLE" 256 in
  let clients = getenv_int "RX_E17_CLIENTS" 8 in
  let ops = getenv_int "RX_E17_OPS" 240 in
  let flight = getenv_int "RX_E17_FLIGHT" 16 in
  let docs = getenv_int "RX_E17_DOCS" 18 in
  let doc_kb = getenv_int "RX_E17_DOC_KB" 1024 in
  with_served_db @@ fun db port ->
  (* the idle herd: held open across every phase *)
  let herd =
    List.init idle (fun i ->
        Rx_client.connect ~port ~client:(Printf.sprintf "e17-idle-%d" i) ())
  in
  Fun.protect ~finally:(fun () -> List.iter (fun c -> try Rx_client.close c with _ -> ()) herd)
  @@ fun () ->
  let peak_conns = gval db "net.conns" in
  let sequential =
    run_phase ~label:"sequential" ~db ~port ~clients ~ops sequential_client
  in
  let pipelined =
    run_phase ~label:"pipelined" ~db ~port ~clients ~ops
      (fun ~port ~ops id -> pipelined_client ~port ~ops ~flight id)
  in
  let stream = run_streaming ~db ~port ~docs ~doc_kb in
  (* every idle connection must still be serviceable after the storm *)
  let idle_alive =
    List.fold_left
      (fun n c ->
        match
          Rx_client.query c ~table:"books_seq" ~column:"doc" ~xpath:"/book"
        with
        | _ -> n + 1
        | exception _ -> n)
      0 herd
  in
  Report.print_table
    ~columns:
      [ "phase"; "clients"; "req/sec"; "commits"; "wal fsyncs"; "commits/fsync" ]
    [ row "sequential" sequential; row "pipelined" pipelined ];
  Report.print_note
    "  %d idle conns (peak net.conns %d, alive after %d), pipelining %s, \
     absorption %.2f -> %.2f commits/fsync"
    idle peak_conns idle_alive
    (Report.fmt_ratio (pipelined.rps /. sequential.rps))
    sequential.per_fsync pipelined.per_fsync;
  Report.print_note
    "  streamed %d rows / %s in chunks <= %s (budget %s), heap delta %.1f MB"
    stream.s_rows
    (Report.fmt_bytes stream.s_bytes)
    (Report.fmt_bytes stream.s_max_chunk)
    (Report.fmt_bytes stream.s_budget)
    stream.s_heap_delta_mb;
  let stream_ok =
    stream.s_cap_error
    && stream.s_rows = stream.s_docs
    && stream.s_bytes > Rx_wire.max_frame
    && stream.s_max_chunk <= stream.s_budget + (doc_kb * 1024) + 4096
  in
  let pass =
    sequential.errors = 0 && pipelined.errors = 0
    && idle_alive = idle
    && peak_conns >= idle
    && pipelined.rps >= sequential.rps
    && pipelined.per_fsync > sequential.per_fsync
    && stream_ok
  in
  write_json "BENCH_E17.json" ~idle ~peak_conns ~idle_alive ~sequential
    ~pipelined ~stream ~pass;
  Report.print_note "  wrote BENCH_E17.json (pass=%b)" pass;
  if not pass then begin
    if sequential.errors + pipelined.errors > 0 then
      Printf.eprintf "E17 GATE FAILED: %d errors in hot phases\n"
        (sequential.errors + pipelined.errors);
    if idle_alive <> idle then
      Printf.eprintf "E17 GATE FAILED: only %d/%d idle connections alive\n"
        idle_alive idle;
    if peak_conns < idle then
      Printf.eprintf "E17 GATE FAILED: peak net.conns %d below herd size %d\n"
        peak_conns idle;
    if pipelined.rps < sequential.rps then
      Printf.eprintf "E17 GATE FAILED: pipelined %.0f req/s < sequential %.0f\n"
        pipelined.rps sequential.rps;
    if pipelined.per_fsync <= sequential.per_fsync then
      Printf.eprintf
        "E17 GATE FAILED: commits/fsync %.2f (pipelined) <= %.2f (sequential)\n"
        pipelined.per_fsync sequential.per_fsync;
    if not stream_ok then
      Printf.eprintf
        "E17 GATE FAILED: streaming (cap_error=%b rows=%d/%d bytes=%d \
         max_chunk=%d)\n"
        stream.s_cap_error stream.s_rows stream.s_docs stream.s_bytes
        stream.s_max_chunk;
    exit 1
  end
