(* Benchmark harness: one experiment per measurable table/figure of the
   paper (see DESIGN.md's experiment index and EXPERIMENTS.md for
   paper-vs-measured).

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe e3 e4      # selected experiments
     dune exec bench/main.exe micro      # Bechamel micro-benchmarks *)

let experiments =
  [
    ("e1", E1_storage.run);
    ("e2", E2_access.run);
    ("e3", E3_quickxscan.run);
    ("e4", E4_states.run);
    ("e5", E5_construct.run);
    ("e6", E6_xmlagg.run);
    ("e7", E7_parse.run);
    ("e8", E8_concurrency.run);
    ("e9", E9_updates.run);
    ("e10", E10_txn.run);
    ("e11", E11_crash.run);
    ("e12", E12_hotpath.run);
    ("e13", E13_ingest.run);
    ("e14", E14_server.run);
    ("e15", E15_parallel.run);
    ("e16", E16_repl.run);
    ("e17", E17_reactor.run);
    ("e18", E18_online_index.run);
    ("e21", E21_alloc.run);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--bechamel" && a <> "micro") args in
  let want_micro =
    Array.exists (fun a -> a = "--bechamel" || a = "micro") Sys.argv
  in
  let selected =
    match args with
    | [] -> if want_micro then [] else List.map fst experiments
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %s (known: %s, micro)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    selected;
  if want_micro then Bechamel_suite.run ();
  print_newline ()
