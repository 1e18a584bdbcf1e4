(* rxbench: the served-database benchmark. See README.md.

     rxbench run [--workload W]... [--seed S] [--seconds N] [--trace 0|1]
     rxbench trace --workload W [--seed S] [--seconds N]
     rxbench compare A.json B.json
     rxbench smoke BENCHMARK.json

   [run] prints every metric by name with its unit, then one record per
   workload on a line of its own ({"rxbench": ...}, what [compare] reads).
   With a single workload the last line is the summary object with the
   keys correct, attempted, failed and metrics. Any wrong answer makes the
   exit code 1. *)

open Util

(* rxd sits at a fixed place relative to this executable in dune's build
   tree: _build/default/{bin/rxd.exe, bench/rxbench/rxbench.exe} *)
let rxd =
  Filename.concat (Filename.dirname Sys.executable_name) "../../bin/rxd.exe"

let workdir = "_rxbench"
let warmup_s = 1.

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let ratio a b = if b = 0. then 0. else a /. b
let q l p = quantile (sorted_floats l) p

(* --- end-to-end metrics, from the untraced served run --- *)

(* a read workload's writes are its write probe, after the window *)
let writes (o : Served.outcome) = o.main.writes @ o.probe.writes

let end_to_end (o : Served.outcome) =
  [
    m "setup_s" "s" o.setup_s;
    m "read_p90_ms" "ms" (q o.main.reads 0.9);
    m "write_p50_ms" "ms" (q (writes o) 0.5);
    m "write_p90_ms" "ms" (q (writes o) 0.9);
    m "server_rss_mb" "MB" o.loaded_rss_mb;
    m "disk_bytes_per_doc_byte" "ratio" (o.disk_bytes /. float_of_int o.xml_bytes);
  ]

(* --- per-layer metrics: server counters over the measured window, span
   self times from the traced replay --- *)

let per_layer (o : Served.outcome) (t : Traced.outcome) =
  (* counters are per request of the measured window, writes per write *)
  let d = Served.value o.window in
  let reqs = float_of_int (List.length o.main.reads + List.length o.main.writes) in
  let writes = float_of_int (List.length o.main.writes) in
  let per_req name = ratio (d name) reqs in
  let self name = Option.value ~default:0. (List.assoc_opt name t.layers.self_us) in
  let span name = m (name ^ "_us") "us" (self name) in
  [
    m "net.bytes_per_req" "bytes" (ratio (d "net.bytes_in" +. d "net.bytes_out") reqs);
    m "net.overhead_ms" "ms" (q o.main.reads 0.5 -. t.embedded_read_p50_ms);
    span "net.codec";
    span "plan.compile";
    m "plancache.hit_ratio" "ratio"
      (ratio (d "plancache.hits")
         (d "plancache.hits" +. d "plancache.misses" +. d "plancache.invalidations"));
    span "exec.run";
    span "serialize";
    span "xpath.parse";
    span "planner.plan";
    span "xindex.probe";
    m "xindex.entries_per_row" "ratio"
      (ratio (d "xindex.entries_fetched") (float_of_int o.main.rows));
    m "btree.lookups_per_req" "count" (per_req "btree.lookups");
    m "bufpool.hit_ratio" "ratio"
      (ratio (d "bufpool.hits") (d "bufpool.hits" +. d "bufpool.misses"));
    m "pager.reads_per_req" "count" (per_req "pager.reads");
    span "qxs.eval";
    m "qxs.events_per_req" "count" (per_req "qxs.events");
    m "exec.docs_scanned_per_req" "count" (per_req "exec.docs_scanned");
    m "exec.parallel_scan_ratio" "ratio" (per_req "exec.parallel_scans");
    span "xmlstore.serialize";
    span "xml.parse";
    span "write.stage";
    span "write.commit";
    m "wal.bytes_per_doc_byte" "ratio"
      (ratio o.load_wal_bytes (float_of_int o.xml_bytes));
    m "wal.live_mb" "MB" (o.wal_bytes /. 1048576.);
    m "wal.commits_per_fsync" "ratio"
      (ratio
         (d "wal.group_commit.groups" +. d "wal.group_commit.absorbed")
         (d "wal.group_commit.fsyncs"));
    m "lock.waits_per_req" "count" (ratio (d "lock.wait") writes);
    m "txn.aborts_per_req" "count" (ratio (d "txn.abort") writes);
    m "ckpt.per_min" "1/min" (ratio (d "ckpt.auto" +. d "ckpt.manual") (o.window_s /. 60.));
    m "disk.fsync_us" "us" t.disk_fsync_us;
    m "unattributed_us" "us" t.layers.unattributed_us;
    m "trace.coverage_pct" "%" (100. *. t.layers.coverage);
    m "trace.overhead_pct" "%"
      (100. *. ((t.traced_read_p50_ms /. t.embedded_read_p50_ms) -. 1.));
  ]

(* --- run metadata --- *)

let shell_line cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>/dev/null") in
  let l = try String.trim (input_line ic) with End_of_file -> "" in
  ignore (Unix.close_process_in ic);
  l

(* the type of the filesystem holding [dir]: its longest mount prefix *)
let fs_type dir =
  let path = Unix.realpath dir in
  let under mnt =
    mnt = "/" || path = mnt || String.starts_with ~prefix:(mnt ^ "/") path
  in
  List.fold_left
    (fun (best, ty) line ->
      match String.split_on_char ' ' line with
      | _ :: mnt :: t :: _ when under mnt && String.length mnt > String.length best ->
          (mnt, t)
      | _ -> (best, ty))
    ("", "unknown")
    (String.split_on_char '\n' (read_file "/proc/mounts"))
  |> snd

let meta (spec : Gen.spec) ~seed (o : Served.outcome) =
  let nproc = Option.value ~default:0 (int_of_string_opt (shell_line "nproc")) in
  let cfg = Systemrx.Database.default_config in
  let revision = shell_line "GIT_DIR=.git git rev-parse --short=12 HEAD" in
  Rx_obs.Json.Obj
    [
      ("nproc", num (float_of_int nproc));
      ("recommended_domain_count", num (float_of_int (Domain.recommended_domain_count ())));
      ( "host",
        str (if nproc < 4 then "under 4 cores: not a scaling result" else "4+ cores") );
      ("rxd_parallelism", num (float_of_int cfg.parallelism));
      ("buffer_pool_pages", num (float_of_int Traced.pool_pages));
      ("commit_window_us", num (float_of_int cfg.commit_window_us));
      ("client_connections", num (float_of_int spec.conns));
      ("dataset_docs", num (float_of_int spec.docs));
      ("dataset_xml_bytes", num (float_of_int o.xml_bytes));
      ("heap_pages", num o.heap_pages);
      ("db_file_pages", num o.db_pages);
      ("db_pages_per_pool_page", num (o.db_pages /. float_of_int Traced.pool_pages));
      ("plans", Rx_obs.Json.Arr (List.map str o.plans));
      ("seed", num (float_of_int seed));
      ("git_revision", str (if revision = "" then "unknown" else revision));
      ("db_filesystem", str (fs_type workdir));
    ]

(* --- output --- *)

let metrics_json ms =
  Rx_obs.Json.Obj
    (List.map
       (fun x -> (x.name, Rx_obs.Json.Obj [ ("value", num x.value); ("unit", str x.unit_) ]))
       ms)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let run_one ~(spec : Gen.spec) ~seed ~seconds ~trace =
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  let o =
    Served.run ~rxd ~workdir ~spec ~seed ~warmup:warmup_s
      ~seconds:(if trace then seconds /. 2. else seconds)
  in
  let t =
    if trace then
      Some
        (Traced.run ~workdir ~spec ~seed ~seconds
           ~trace_file:
             (Filename.concat workdir (Printf.sprintf "trace-%s-%d.json" spec.name seed)))
    else None
  in
  let metrics = match t with Some t -> per_layer o t | None -> end_to_end o in
  let traced f = match t with Some t -> f t | None -> 0 in
  let wrong = o.main.wrong + o.probe.wrong + traced (fun t -> t.wrong) in
  let failed = o.main.failed + o.probe.failed + traced (fun t -> t.failed) in
  let attempted = o.main.attempted + o.probe.attempted + traced (fun t -> t.attempted) in
  let writes = writes o in
  let correct = wrong = 0 && o.audit_ok in
  Printf.printf "%s (seed %d%s): %d requests, %d failed, %d wrong answers, audit %s\n"
    spec.name seed (if trace then ", traced" else "") attempted failed wrong
    (if o.audit_ok then "ok" else "FAILED");
  Printf.printf "  reads %d, writes %d; plans: %s\n" (List.length o.main.reads)
    (List.length writes) (String.concat ", " o.plans);
  (* reported, not bounded: throughput and the read median move with the
     host's fast and slow spells, their run-to-run spread reaching 30%; a
     p99 needs 1,000 samples, which not every workload has; the peak RSS at
     the end follows the WAL's growth under writes, so it moves with
     write_churn's throughput *)
  let served = List.length o.main.reads + List.length o.main.writes in
  let extra =
    m "ops_per_s" "ops/s" (float_of_int served /. o.window_s)
    :: m "read_p50_ms" "ms" (q o.main.reads 0.5)
    :: m "server_end_rss_mb" "MB" o.end_rss_mb
    :: List.filter_map
         (fun (name, xs) ->
           if List.length xs >= 1000 then Some (m name "ms" (q xs 0.99)) else None)
         [ ("read_p99_ms", o.main.reads); ("write_p99_ms", writes) ]
  in
  List.iter
    (fun x -> Printf.printf "  %-28s %14.4f %s\n" x.name x.value x.unit_)
    (extra @ metrics);
  let record =
    Rx_obs.Json.Obj
      [
        ( "rxbench",
          Rx_obs.Json.Obj
            [
              ("workload", str spec.name);
              ("trace", Rx_obs.Json.Bool trace);
              ("correct", Rx_obs.Json.Bool correct);
              ("attempted", num (float_of_int attempted));
              ("failed", num (float_of_int (failed + wrong)));
              ( "error_ratio",
                num (ratio (float_of_int (failed + wrong)) (float_of_int attempted)) );
              ("read_samples", num (float_of_int (List.length o.main.reads)));
              ("write_samples", num (float_of_int (List.length writes)));
              ("metrics", metrics_json metrics);
              ("extra", metrics_json extra);
              ("meta", meta spec ~seed o);
            ] );
      ]
  in
  print_endline (Rx_obs.Json.to_string record);
  { correct; attempted; failed = failed + wrong; metrics }

let summary r =
  Rx_obs.Json.to_string
    (Rx_obs.Json.Obj
       [
         ("correct", Rx_obs.Json.Bool r.correct);
         ("attempted", num (float_of_int r.attempted));
         ("failed", num (float_of_int r.failed));
         ("metrics", metrics_json r.metrics);
       ])

let usage () =
  prerr_endline
    "usage: rxbench run [--workload W]... [--seed S] [--seconds N] [--trace 0|1]\n\
    \       rxbench trace --workload W [--seed S] [--seconds N]\n\
    \       rxbench compare A.json B.json\n\
    \       rxbench smoke BENCHMARK.json";
  exit 2

let spec_named name =
  match List.find_opt (fun (s : Gen.spec) -> s.name = name) Gen.specs with
  | Some s -> s
  | None ->
      Printf.eprintf "rxbench: unknown workload %S\n" name;
      exit 2

let run_cmd args ~trace =
  let workloads = ref [] and seed = ref 1 and seconds = ref 10. and trace = ref trace in
  let rec parse = function
    | "--workload" :: w :: rest -> workloads := spec_named w :: !workloads; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string s; parse rest
    | "--trace" :: t :: rest -> trace := t = "1"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse args;
  let specs = if !workloads = [] then Gen.specs else List.rev !workloads in
  let results =
    List.map (fun spec -> run_one ~spec ~seed:!seed ~seconds:!seconds ~trace:!trace) specs
  in
  (match results with [ r ] -> print_endline (summary r) | _ -> ());
  if not (List.for_all (fun r -> r.correct) results) then exit 1

(* compare's verdicts on hand-made sides, then every workload on
   500-document datasets for 1 s, untraced and traced: the answers check
   out, the metric names emitted are exactly those BENCHMARK.json lists,
   and the trace covers >= 85% of request time. *)
let smoke benchmark =
  let listed section =
    match Rx_obs.Json.member section (Rx_obs.Json.of_string (read_file benchmark)) with
    | Some (Rx_obs.Json.Arr ms) ->
        List.sort compare
          (List.map (fun mj -> Compare.str_of (Compare.field "name" mj)) ms)
    | _ -> []
  in
  let failures = ref (Compare.self_check ()) in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (spec : Gen.spec) ->
      List.iter
        (fun trace ->
          let r = run_one ~spec:{ spec with docs = 500 } ~seed:1 ~seconds:1. ~trace in
          let section = if trace then "per_layer" else "end_to_end" in
          if not r.correct then fail "%s: wrong answers" spec.name;
          if List.sort compare (List.map (fun x -> x.name) r.metrics) <> listed section then
            fail "%s: metric names differ from %s's %s" spec.name benchmark section;
          match List.find_opt (fun x -> x.name = "trace.coverage_pct") r.metrics with
          | Some c when c.value < 85. -> fail "%s: trace covers %.1f%%" spec.name c.value
          | _ -> ())
        [ false; true ])
    Gen.specs;
  List.iter (Printf.eprintf "smoke: %s\n") (List.rev !failures);
  if !failures <> [] then exit 1;
  print_endline "smoke: ok"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run_cmd args ~trace:false
  | "trace" :: args -> run_cmd args ~trace:true
  | [ "compare"; a; b ] -> Compare.run ~benchmark:"BENCHMARK.json" a b
  | [ "smoke"; benchmark ] -> smoke benchmark
  | _ -> usage ()
