(* The measured run: rxd as a separate process on a fresh directory, the
   dataset loaded over the wire, the workload driven closed-loop through
   Rx_client, every answer checked against the model. *)

open Util

(* --- the rxd process --- *)

type server = { pid : int; port : int; out : in_channel }

let live_pids = ref []

(* whatever ends the benchmark, no rxd outlives it *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_pids);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

(* Flush policy and every other knob are rxd's defaults (commit window 0). *)
let start_server ~rxd ~dir =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process rxd
      [| rxd; "serve"; "--db"; dir; "--port"; "0" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  live_pids := pid :: !live_pids;
  let out = Unix.in_channel_of_descr r in
  (* "rxd: serving DIR on HOST:PORT" *)
  let line = try input_line out with End_of_file -> failwith "rxd exited at start" in
  match String.rindex_opt line ':' with
  | Some i ->
      { pid; out; port = int_of_string (String.sub line (i + 1) (String.length line - i - 1)) }
  | None -> failwith ("unexpected rxd banner: " ^ line)

(* peak resident memory of the server so far *)
let server_hwm_mb s =
  match line_with_prefix (Printf.sprintf "/proc/%d/status" s.pid) "VmHWM:" with
  | Some v -> Scanf.sscanf v " %d kB" (fun kb -> float_of_int kb /. 1024.)
  | None -> failwith "no VmHWM for rxd"

(* SIGTERM: rxd drains its sessions, checkpoints and exits 0 *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  (try
     while true do
       ignore (input_line s.out)
     done
   with End_of_file -> ());
  close_in s.out;
  let _, status = Unix.waitpid [] s.pid in
  live_pids := List.filter (( <> ) s.pid) !live_pids;
  if status <> Unix.WEXITED 0 then failwith "rxd did not shut down cleanly"

(* --- set-up: DDL, bulk load in batches, online index build --- *)

let batch_docs = 500

(* Returns the docid of every generated document. *)
let load ~(spec : Gen.spec) (docs : (string * Gen.row array) array) ~insert_many
    ~build_index =
  let n = Array.length docs in
  let docids = Array.make n 0 in
  let rec batches i =
    if i < n then begin
      let k = min batch_docs (n - i) in
      List.iteri
        (fun j d -> docids.(i + j) <- d)
        (insert_many (List.init k (fun j -> fst docs.(i + j))));
      batches (i + k)
    end
  in
  batches 0;
  if spec.indexed then build_index ();
  docids

(* The table is created embedded before rxd opens the directory: the wire
   protocol has no DDL. *)
let create_table_in dir =
  let db = Systemrx.Database.open_dir dir in
  ignore
    (Systemrx.Database.create_table db ~name:Gen.table
       ~columns:[ (Gen.column, Rx_relational.Value.T_xml) ]);
  Systemrx.Database.close db

let set_up ~rxd ~dir ~spec docs =
  rm_rf dir;
  let t0 = now_ns () in
  create_table_in dir;
  let server = start_server ~rxd ~dir in
  let c = Rx_client.connect ~port:server.port ~client:"rxbench-load" () in
  let docids =
    Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
    load ~spec docs
      ~insert_many:(Rx_client.insert_many c ~table:Gen.table ~column:Gen.column)
      ~build_index:(fun () ->
        ignore
          (Rx_client.build_index c ~table:Gen.table ~column:Gen.column
             ~name:Gen.index_name ~path:Gen.index_path ~key_type:"double"))
  in
  (server, docids, secs_since t0)

(* --- driving the workload --- *)

(* one thread and connection per [spec.conns] *)
let drive ~(spec : Gen.spec) ~seed ~port ~model ~log ~until =
  let tallies = Array.init spec.conns (fun _ -> Loops.tally ()) in
  let body conn =
    let c = Rx_client.connect ~port ~client:(Printf.sprintf "rxbench-%d" conn) () in
    Fun.protect ~finally:(fun () -> Rx_client.close c) @@ fun () ->
    let b = Loops.client c and stop _ = now_ns () >= until in
    match spec.kind with
    | Gen.Churn -> Loops.churn b tallies.(conn) ~seed ~conn ~model ~log ~stop ()
    | k -> Loops.read_loop b tallies.(conn) ~model ~next:(Gen.read_stream ~seed k model) ~stop
  in
  List.iter Thread.join (List.init spec.conns (fun conn -> Thread.create body conn));
  Array.fold_left Loops.merge (Loops.tally ()) tallies

let stats c = Rx_obs.Json.of_string (Rx_client.stats_json c)

let stat j name =
  match Rx_obs.Json.member name j with Some (Rx_obs.Json.Num v) -> v | _ -> 0.

(* After the run: the table holds every base document plus the churn
   documents still owned, and on a few prices present in the data the
   index probe agrees with a full scan (and, with no churn, the model). *)
let audit c ~seed ~(model : Gen.model) ~docs ~churned =
  let q xpath = Rx_client.query c ~table:Gen.table ~column:Gen.column ~xpath in
  let rng = Rx_util.Prng.create ~seed:(seed lxor 0xa0d1) in
  let probe_ok _ =
    let cents, _, _ = model.sorted.(Rx_util.Prng.int rng (Array.length model.sorted)) in
    let probe = q (Gen.lookup_xpath cents) and scan = q (Gen.audit_scan_xpath cents) in
    let got = Gen.normalize probe.Rx_client.matches in
    String.starts_with ~prefix:"FULL-SCAN" scan.Rx_client.plan
    && got = Gen.normalize scan.Rx_client.matches
    && (churned || got = Gen.lookup model cents)
  in
  let count_ok = int_of_float (stat (stats c) "documents") = docs in
  if not count_ok then prerr_endline "rxbench: audit: document count differs";
  let probes_ok = List.for_all probe_ok [ 1; 2; 3 ] in
  if not probes_ok then prerr_endline "rxbench: audit: index probe and scan disagree";
  count_ok && probes_ok

(* counter values of a stats document; histograms are left out *)
let counters j =
  match Rx_obs.Json.member "counters" j with
  | Some (Rx_obs.Json.Obj cs) ->
      List.filter_map
        (fun (name, c) ->
          match Rx_obs.Json.member "value" c with
          | Some (Rx_obs.Json.Num v) -> Some (name, v)
          | _ -> None)
        cs
  | _ -> []

let value deltas name = Option.value ~default:0. (List.assoc_opt name deltas)

let delta ~before ~after =
  let b = counters before in
  List.map (fun (n, v) -> (n, v -. value b n)) (counters after)

type outcome = {
  setup_s : float;
  window_s : float;  (* measured time *)
  main : Loops.tally;  (* the workload's requests in the measured window *)
  probe : Loops.tally;  (* a read workload's writes, after the window *)
  window : (string * float) list;  (* server counter deltas over the window *)
  load_wal_bytes : float;  (* WAL bytes the set-up appends *)
  heap_pages : float;
  db_pages : float;  (* data.rxdb after the clean shutdown *)
  audit_ok : bool;
  loaded_rss_mb : float;  (* the server's peak RSS once set up *)
  end_rss_mb : float;  (* its peak RSS at the end of the run *)
  disk_bytes : float;  (* data + WAL after the clean shutdown *)
  wal_bytes : float;  (* the WAL at the end of the window *)
  xml_bytes : int;
  plans : string list;
}

(* Set up on a fresh directory and a fresh rxd, warm up on another seed's
   stream, measure for [seconds], give a read workload its write probe,
   audit, and shut down cleanly. *)
let run ~rxd ~workdir ~(spec : Gen.spec) ~seed ~seconds ~warmup =
  let docs = Gen.dataset ~seed ~docs:spec.docs in
  let xml_bytes = Array.fold_left (fun acc (x, _) -> acc + String.length x) 0 docs in
  let dir = Filename.concat workdir spec.name in
  let server, docids, setup_s = set_up ~rxd ~dir ~spec docs in
  let port = server.port in
  let model = Gen.model_of ~docids docs in
  let log = Loops.churn_log () in
  let ctl = Rx_client.connect ~port ~client:"rxbench-ctl" () in
  let loaded = stats ctl in
  let loaded_rss = server_hwm_mb server in
  let for_s s = now_ns () + int_of_float (s *. 1e9) in
  let warm = drive ~spec ~seed:(seed + 1) ~port ~model ~log ~until:(for_s warmup) in
  let before = stats ctl in
  let t0 = now_ns () in
  let main = drive ~spec ~seed ~port ~model ~log ~until:(for_s seconds) in
  let window_s = secs_since t0 in
  let after = stats ctl in
  let path = Filename.concat dir in
  (* the WAL while serving: commits of client writes never trigger a
     checkpoint, so under writes it only grows *)
  let wal = file_size (path "wal.rxlog") in
  let probe = Loops.tally () in
  if spec.kind <> Gen.Churn then Loops.write_probe (Loops.client ctl) probe ~seed ~model ~log;
  let audit_ok =
    audit ctl ~seed ~model
      ~docs:(spec.docs + warm.owned + main.owned)
      ~churned:(spec.kind = Gen.Churn)
  in
  let rss = server_hwm_mb server in
  Rx_client.close ctl;
  stop_server server;
  let data = file_size (path "data.rxdb") in
  let disk = data + file_size (path "wal.rxlog") in
  rm_rf dir;
  {
    setup_s; window_s; main; probe;
    window = delta ~before ~after;
    load_wal_bytes = value (counters loaded) "wal.bytes_appended";
    heap_pages = stat loaded "data_pages";
    db_pages = float_of_int (data / Rx_storage.Pager.default_page_size);
    audit_ok; loaded_rss_mb = loaded_rss; end_rss_mb = rss;
    disk_bytes = float_of_int disk;
    wal_bytes = float_of_int wal; xml_bytes;
    plans = List.sort_uniq compare (main.plans @ warm.plans);
  }
