(* rxd — the System R/X network server: one embedded engine, many client
   sessions over the length-prefixed binary wire protocol (see Rx_wire).

     rxd serve --db DIR [--host H] [--port P] [--max-connections N]
               [--max-queue-depth N] [--max-pipeline N] [--io-threads N]
               [--idle-timeout S] [--auth-token SECRET]
               [--commit-window-us USEC] [--parallelism N]
               [--replicate-from HOST:PORT [--leader-token SECRET]]
     rxd promote --db DIR

   Runs until SIGINT/SIGTERM or a client's Shutdown request, then drains
   in-flight sessions, checkpoints and exits. Exit codes follow the same
   stable error table as rx (Database.error_code).

   With --replicate-from, the directory opens as a read-only replica: a
   puller thread streams durable WAL frames from the leader (reconnecting
   with backoff if it drops) while the server answers snapshot queries;
   mutating requests get the Read_only status. `rxd promote` then makes a
   cleanly stopped replica directory a writable leader. *)

open Cmdliner
open Systemrx

let handle_errors f =
  try
    f ();
    0
  with e ->
    Printf.eprintf "error: %s\n" (Database.error_message e);
    Database.error_code e

let db_arg =
  let doc = "Database directory (created if absent)." in
  Arg.(required & opt (some string) None & info [ "db" ] ~docv:"DIR" ~doc)

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")

let port_arg =
  Arg.(
    value & opt int 7644
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port (0 picks an ephemeral one).")

let max_conns_arg =
  Arg.(
    value & opt int 64
    & info [ "max-connections" ] ~docv:"N"
        ~doc:"Concurrent sessions; further connects are refused Busy.")

let max_queue_arg =
  Arg.(
    value & opt int 64
    & info [ "max-queue-depth" ] ~docv:"N"
        ~doc:
          "Requests in service concurrently; excess requests are answered \
           with the Busy status instead of queueing.")

let max_pipeline_arg =
  Arg.(
    value & opt int 32
    & info [ "max-pipeline" ] ~docv:"N"
        ~doc:
          "Requests one connection may pipeline (queued + in service) \
           before the server stops reading it and TCP flow control paces \
           the client.")

let io_threads_arg =
  Arg.(
    value & opt int 0
    & info [ "io-threads" ] ~docv:"N"
        ~doc:
          "Worker threads servicing parsed requests; 0 auto-sizes to the \
           host.")

let idle_timeout_arg =
  Arg.(
    value & opt float 0.
    & info [ "idle-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Close a session idle longer than this, rolling back its open \
           transaction and freeing its cursors; 0 disables (the default).")

let token_arg =
  Arg.(
    value & opt (some string) None
    & info [ "auth-token" ] ~docv:"SECRET"
        ~doc:"Require this token in the Hello handshake.")

let window_arg =
  Arg.(
    value & opt (some int) None
    & info [ "commit-window-us" ] ~docv:"USEC"
        ~doc:
          "Group-commit gathering window (microseconds); under concurrent \
           committers a few thousand lets one fsync absorb many commits. \
           Default: leave the database's configuration unchanged.")

let parallelism_arg =
  Arg.(
    value & opt (some int) None
    & info [ "parallelism" ] ~docv:"N"
        ~doc:
          "Worker domains for parallel scans: 0 picks one per core, 1 \
           forces sequential execution. Default: the RX_PARALLELISM \
           environment variable, or 0.")

let replicate_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replicate-from" ] ~docv:"HOST:PORT"
        ~doc:
          "Serve as a read-only replica of the leader rxd at this address: \
           stream its durable WAL, apply continuously, answer snapshot \
           queries; writes are refused Read_only until $(b,rxd promote).")

let leader_token_arg =
  Arg.(
    value & opt string ""
    & info [ "leader-token" ] ~docv:"SECRET"
        ~doc:"Auth token for the leader's Hello handshake (with --replicate-from).")

let parse_addr s =
  match String.rindex_opt s ':' with
  | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 -> (host, p)
      | _ -> invalid_arg (Printf.sprintf "bad port in %S" s))
  | None -> invalid_arg (Printf.sprintf "expected HOST:PORT, got %S" s)

(* A self-healing leader transport: one long-lived connection, rebuilt on
   the next fetch after an error. The fetch runs outside the engine lock
   (Replica.pull's network phase), so connecting never blocks serving. *)
let leader_fetch ~host ~port ~token =
  let conn = ref None in
  let drop () =
    match !conn with
    | Some c ->
        conn := None;
        (try Rx_client.close c with _ -> ())
    | None -> ()
  in
  let fetch ~from_lsn ~max_bytes =
    try
      let c =
        match !conn with
        | Some c -> c
        | None ->
            let c =
              Rx_client.connect ~host ~token ~client:"rxd-replica" ~port ()
            in
            conn := Some c;
            c
      in
      Rx_client.repl_fetch c ~from_lsn ~max_bytes
    with e ->
      drop ();
      raise e
  in
  (fetch, drop)

let puller repl stop =
  let pulls_since_checkpoint = ref 0 in
  let rec loop backoff =
    if Atomic.get stop then ()
    else
      match Replica.pull repl with
      | report ->
          incr pulls_since_checkpoint;
          (* persist the restart point when idle or every so often while
             streaming: bounds re-fetch after a replica restart *)
          if report.Replica.caught_up || !pulls_since_checkpoint >= 64 then begin
            Replica.checkpoint repl;
            pulls_since_checkpoint := 0
          end;
          if report.Replica.caught_up then Thread.delay 0.05;
          loop 0.1
      | exception e ->
          Printf.eprintf "rxd: replication pull failed: %s (retrying in %.1fs)\n%!"
            (Database.error_message e) backoff;
          let rec wait left =
            if left > 0. && not (Atomic.get stop) then begin
              Thread.delay (Float.min left 0.1);
              wait (left -. 0.1)
            end
          in
          wait backoff;
          loop (Float.min (backoff *. 2.) 5.)
  in
  loop 0.1

let serve_cmd =
  let run dir host port max_connections max_queue_depth max_pipeline io_threads
      idle_timeout auth_token window parallelism replicate_from leader_token =
    handle_errors (fun () ->
        let leader = Option.map parse_addr replicate_from in
        let repl =
          Option.map
            (fun (lh, lp) ->
              let fetch, drop_conn =
                leader_fetch ~host:lh ~port:lp ~token:leader_token
              in
              (* a fresh replica must adopt the leader's page geometry;
                 an existing one re-detects its own from the data file *)
              let page_size =
                if Sys.file_exists (Filename.concat dir "data.rxdb") then None
                else begin
                  let c =
                    Rx_client.connect ~host:lh ~token:leader_token
                      ~client:"rxd-replica" ~port:lp ()
                  in
                  Fun.protect
                    ~finally:(fun () -> Rx_client.close c)
                    (fun () -> Some (Rx_client.repl_state c).Rx_client.page_size)
                end
              in
              (Replica.attach ?page_size ~fetch dir, drop_conn))
            leader
        in
        let db =
          match repl with
          | Some (r, _) -> Replica.db r
          | None -> Database.open_dir dir
        in
        let close () =
          match repl with
          | Some (r, drop_conn) ->
              Replica.close r;
              drop_conn ()
          | None -> Database.close db
        in
        Fun.protect ~finally:close @@ fun () ->
        (match window with
        | Some commit_window_us ->
            Database.set_config db { (Database.config db) with commit_window_us }
        | None -> ());
        (match parallelism with
        | Some parallelism ->
            Database.set_config db { (Database.config db) with parallelism }
        | None -> ());
        let config =
          {
            Rx_server.host;
            port;
            max_connections;
            max_queue_depth;
            auth_token;
            max_pipeline;
            io_threads;
            idle_timeout;
          }
        in
        let srv = Rx_server.start ~config db in
        (match leader with
        | Some (lh, lp) ->
            Printf.printf "rxd: replica of %s:%d serving %s on %s:%d\n%!" lh lp
              dir host (Rx_server.port srv)
        | None ->
            Printf.printf "rxd: serving %s on %s:%d\n%!" dir host
              (Rx_server.port srv));
        let on_signal _ = Rx_server.request_stop srv in
        Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
        let stop_pull = Atomic.make false in
        let pull_thread =
          Option.map
            (fun (r, _) -> Thread.create (fun () -> puller r stop_pull) ())
            repl
        in
        Rx_server.wait srv;
        Atomic.set stop_pull true;
        Option.iter Thread.join pull_thread;
        Rx_server.stop srv;
        Printf.printf "rxd: shut down\n%!")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a database directory to network clients until a Shutdown \
          request or SIGINT/SIGTERM; with $(b,--replicate-from), serve it \
          as a continuously catching-up read-only replica.")
    Term.(
      const run $ db_arg $ host_arg $ port_arg $ max_conns_arg $ max_queue_arg
      $ max_pipeline_arg $ io_threads_arg $ idle_timeout_arg $ token_arg
      $ window_arg $ parallelism_arg $ replicate_arg $ leader_token_arg)

let promote_cmd =
  let run dir =
    handle_errors (fun () ->
        let repl = Replica.attach ~fetch:Replica.no_fetch dir in
        let lsn = Replica.promote repl in
        Database.close (Replica.db repl);
        Printf.printf "promoted %s: writable leader, WAL resumes at LSN %Ld\n"
          dir lsn)
  in
  Cmd.v
    (Cmd.info "promote"
       ~doc:
         "Promote a (stopped) replica directory to a writable leader: its \
          WAL timeline resumes where replication left off and the old \
          leader must never ship to it again.")
    Term.(const run $ db_arg)

let () =
  let info =
    Cmd.info "rxd" ~version:"1.0.0"
      ~doc:
        "System R/X network server: a session-oriented wire protocol over \
         one native XML database engine."
  in
  exit (Cmd.eval' (Cmd.group info [ serve_cmd; promote_cmd ]))
