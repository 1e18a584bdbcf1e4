(* E11 — crash-injection durability loop: seeded faults (failed writes,
   torn WAL tails, failed fsyncs) are armed on the physical I/O path while
   a mixed insert/update/delete workload runs against an on-disk database;
   each fired fault "kills the process", the database is reopened through
   crash recovery, and every durability invariant is checked — committed
   documents survive byte-for-byte, losers leave no trace, indexes agree
   with the heap, every page checksums clean. Any violation exits
   non-zero, so CI can use this as a crash-safety gate.

     RX_E11_ITERS        crash/reopen cycles (default 200)
     RX_E11_SEED         PRNG seed (default 42)
     RX_E11_PARALLELISM  worker domains per reopened database (default 1);
                         > 1 drives the fault-injected workload through the
                         partitioned scan path over the sharded pool *)

let getenv_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> default)
  | None -> default

let fresh_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec try_n i =
    let dir = Filename.concat base (Printf.sprintf "rx_e11_%d_%d" (Unix.getpid ()) i) in
    if Sys.file_exists dir then try_n (i + 1) else dir
  in
  try_n 0

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let run () =
  Report.print_header "E11: crash injection (seeded faults + recovery invariants)";
  let iters = getenv_int "RX_E11_ITERS" 200 in
  let seed = getenv_int "RX_E11_SEED" 42 in
  let parallelism = getenv_int "RX_E11_PARALLELISM" 1 in
  let dir = fresh_dir () in
  let t0 = Unix.gettimeofday () in
  let o = Crash_harness.run ~iters ~seed ~parallelism ~dir () in
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (try rm_rf dir with Sys_error _ | Unix.Unix_error _ -> ());
  Report.print_table
    ~columns:[ "metric"; "value" ]
    ([
       [ "seed"; string_of_int seed ];
       [ "parallelism"; string_of_int parallelism ];
       [ "crash/reopen cycles"; string_of_int o.Crash_harness.iterations ];
       [ "faults fired"; string_of_int o.Crash_harness.crashes ];
     ]
    @ List.map
        (fun (kind, n) -> [ "  " ^ kind; string_of_int n ])
        (List.sort compare o.Crash_harness.injected)
    @ [
        [ "WAL records replayed"; string_of_int o.Crash_harness.replayed ];
        [ "loser updates undone"; string_of_int o.Crash_harness.undone ];
        [
          "torn WAL tail bytes healed";
          string_of_int o.Crash_harness.torn_tail_bytes;
        ];
        [
          "auto checkpoints";
          string_of_int o.Crash_harness.auto_checkpoints;
        ];
        [ "committed ops"; string_of_int o.Crash_harness.final_ops ];
        [ "surviving documents"; string_of_int o.Crash_harness.survivors ];
        [
          "invariant violations";
          string_of_int (List.length o.Crash_harness.violations);
        ];
        [ "total"; Report.fmt_ms ms ];
      ]);
  if o.Crash_harness.violations = [] then
    Report.print_note
      "  every committed document survived %d crashes; losers left no trace"
      o.Crash_harness.crashes
  else begin
    List.iter
      (fun v -> Printf.eprintf "E11 DURABILITY VIOLATION: %s\n" v)
      o.Crash_harness.violations;
    exit 1
  end
