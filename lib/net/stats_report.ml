open Systemrx

let ensure_net_instruments m =
  let open Rx_obs.Metrics in
  List.iter (fun n -> ignore (gauge m n)) [ "net.conns"; "net.cursors" ];
  List.iter
    (fun n -> ignore (counter m n))
    [
      "net.conns.accepted"; "net.requests"; "net.errors"; "net.rejected";
      "net.bytes_in"; "net.bytes_out"; "net.idle_timeouts";
      "net.pipeline.batches"; "net.pipeline.requests";
    ];
  List.iter
    (fun op -> ignore (histogram m ("net.latency." ^ op)))
    Rx_wire.op_names

(* On OCaml 5.1 [Gc.quick_stat] sums every domain, those that have exited
   included, but each running domain (the caller too) as sampled at the
   last minor collection, which can lag by a whole minor heap. So a minor
   collection (stop-the-world, every domain) runs first and the counts are
   exact as of this call. The collection counts are global. *)
let set_gc_gauges m =
  Gc.minor ();
  let g = Gc.quick_stat () in
  let set name v = Rx_obs.Metrics.(set (gauge m name) v) in
  set "gc.minor_words" (int_of_float g.Gc.minor_words);
  set "gc.promoted_words" (int_of_float g.Gc.promoted_words);
  set "gc.minor_collections" g.Gc.minor_collections;
  set "gc.major_collections" g.Gc.major_collections;
  set "gc.heap_words" g.Gc.heap_words;
  set "gc.top_heap_words" g.Gc.top_heap_words

let json db =
  let s = Database.stats db in
  ensure_net_instruments (Database.metrics db);
  set_gc_gauges (Database.metrics db);
  let num n = Rx_obs.Json.Num (float_of_int n) in
  Rx_obs.Json.Obj
    [
      ("tables", num s.Database.tables);
      ("documents", num s.Database.documents);
      ("xml_records", num s.Database.xml_records);
      ("node_index_entries", num s.Database.node_index_entries);
      ("value_index_entries", num s.Database.value_index_entries);
      ("data_pages", num s.Database.data_pages);
      ("log_bytes", num s.Database.log_bytes);
      ( "role",
        Rx_obs.Json.Str (if Database.is_replica db then "replica" else "leader")
      );
      ( "wal",
        let st = Database.repl_state db in
        Rx_obs.Json.Obj
          [
            ("base_lsn", Rx_obs.Json.Num (Int64.to_float st.Database.r_base_lsn));
            ( "durable_lsn",
              Rx_obs.Json.Num (Int64.to_float st.Database.r_durable_lsn) );
            ("archive_generations", num st.Database.r_generations);
          ] );
      ( "health",
        Rx_obs.Json.Str
          (match Database.health db with
          | `Healthy -> "ok"
          | `Degraded reason -> "degraded: " ^ reason) );
      ( "recovery",
        match Database.last_recovery db with
        | None -> Rx_obs.Json.Null
        | Some rep ->
            Rx_obs.Json.Obj
              [
                ("redone", num rep.Rx_wal.Recovery.redone);
                ("undone", num rep.Rx_wal.Recovery.undone);
                ("losers", num (List.length rep.Rx_wal.Recovery.losers));
              ] );
      ("counters", Rx_obs.Metrics.to_json (Database.metrics db));
    ]
