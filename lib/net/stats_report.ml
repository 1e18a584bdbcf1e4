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

let json db =
  let s = Database.stats db in
  ensure_net_instruments (Database.metrics db);
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
