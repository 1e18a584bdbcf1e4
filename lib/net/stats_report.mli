(** The canonical JSON stats document, shared by [rx stats --json] and the
    rxd wire protocol's [Stats] operation so operators see one schema in
    embedded and networked modes: structural totals, health, what recovery
    did at open, and the full metrics registry (every [net.*] instrument
    included — pre-registered at zero when no server has run). *)

val ensure_net_instruments : Rx_obs.Metrics.t -> unit
(** Idempotently registers the network server's instruments — the
    [net.conns] / [net.cursors] gauges (live sessions, open server-side
    cursors), the [net.conns.accepted] / [net.requests] / [net.errors] /
    [net.rejected] / [net.bytes_in] / [net.bytes_out] /
    [net.idle_timeouts] / [net.pipeline.batches] /
    [net.pipeline.requests] counters and a [net.latency.<op>] histogram
    per {!Rx_wire.op_names} entry — so a registry dump carries the same
    [net.*] keys whether or not a server is attached. The rxd server
    resolves its handles through this same function. *)

val json : Systemrx.Database.t -> Rx_obs.Json.t
(** The stats document for one database handle. Each call first runs a
    minor collection and sets the process's [gc.*] gauges from
    [Gc.quick_stat] — [gc.minor_words], [gc.promoted_words],
    [gc.minor_collections], [gc.major_collections], [gc.heap_words],
    [gc.top_heap_words], summed over every domain — so two calls bracket
    the words a served workload allocated. Not thread-safe with
    concurrent handle operations: a server serializes it under
    {!Systemrx.Database.exclusively} like any other engine call. *)
