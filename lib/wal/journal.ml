let make log ~current_txid =
  {
    Rx_storage.Buffer_pool.log_update =
      (fun ~page_no ~off ~before ~after ->
        Log_manager.append log
          (Log_record.Update { txid = current_txid (); page_no; off; before; after }));
    ensure_durable = (fun lsn -> Log_manager.flush_to log lsn);
  }

let install pool log ~current_txid =
  Rx_storage.Buffer_pool.set_journal pool (Some (make log ~current_txid))
