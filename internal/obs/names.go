package obs

// Canonical metric names. Every instrumented plane registers its
// metrics under these constants so the catalog in
// docs/OBSERVABILITY.md is enforced by the compiler rather than by
// convention.
const (
	// Scheduler plane (internal/sched).
	MetricSchedSubmitted         = "menos_sched_submitted_total"
	MetricSchedGranted           = "menos_sched_granted_total"
	MetricSchedBackfilled        = "menos_sched_backfilled_total"
	MetricSchedCompleted         = "menos_sched_completed_total"
	MetricSchedRejected          = "menos_sched_rejected_total"
	MetricSchedQueueDepth        = "menos_sched_queue_depth"
	MetricSchedQueueDepthMax     = "menos_sched_queue_depth_max"
	MetricSchedWaitSeconds       = "menos_sched_wait_seconds"
	MetricSchedHOLBlockedSeconds = "menos_sched_hol_blocked_seconds"
	// Activations as a revocable grant: forward grants grown to the
	// backward demand, parked grants their owner claimed back (a backward
	// with no re-forward), parked grants revoked for another request (also
	// a {client=...} family billed through the ledger), and the bytes
	// parked right now — allocated, yet free to every fit test.
	MetricSchedGrown       = "menos_sched_grown_total"
	MetricSchedClaimed     = "menos_sched_claimed_total"
	MetricSchedRevocations = "menos_sched_revocations_total"
	MetricSchedParkedBytes = "menos_sched_parked_bytes"

	// Admission control (internal/sched, docs/ADMISSION.md).
	MetricSchedAdmissionState       = "menos_sched_admission_state"
	MetricSchedAdmissionP99Micros   = "menos_sched_admission_p99_wait_micros"
	MetricSchedAdmissionTransitions = "menos_sched_admission_transitions_total"
	MetricSchedAdmissionShed        = "menos_sched_admission_shed_total"
	MetricSchedAdmissionDeferred    = "menos_sched_admission_deferred_total"

	// GPU memory plane (internal/gpu).
	MetricGPUAllocBytes = "menos_gpu_alloc_bytes_total"
	MetricGPUFreeBytes  = "menos_gpu_free_bytes_total"
	MetricGPUAllocOps   = "menos_gpu_alloc_ops_total"
	MetricGPUFreeOps    = "menos_gpu_free_ops_total"
	MetricGPUOOM        = "menos_gpu_oom_total"
	MetricGPUUsedBytes  = "menos_gpu_used_bytes"
	MetricGPUPeakBytes  = "menos_gpu_peak_bytes"
	// Per-owner residency: a GaugeVec labeled {owner=...} where owner
	// is the allocation tag ("persist:<client>", "base-model", ...).
	MetricGPUOwnerBytes = "menos_gpu_owner_bytes"

	// Per-tenant accounting ledger (obs.Ledger), labeled {client=...}.
	// Byte-second counters are integer-truncated accruals of
	// bytes-held × seconds-held; persistent is adapter state pinned by
	// Reserve, transient is per-iteration grant traffic.
	MetricGPUPersistentByteSeconds = "menos_gpu_persistent_byte_seconds_total"
	MetricGPUTransientByteSeconds  = "menos_gpu_transient_byte_seconds_total"
	MetricGPUClientPersistentBytes = "menos_gpu_persistent_bytes"
	MetricGPUClientTransientBytes  = "menos_gpu_transient_bytes"
	MetricServerWireTxBytes        = "menos_server_wire_tx_bytes_total"
	MetricServerWireRxBytes        = "menos_server_wire_rx_bytes_total"
	MetricServerShedsTotal         = "menos_server_sheds_total"
	MetricServerRetriesTotal       = "menos_server_retries_total"

	// Batch formation (internal/batch, docs/BATCHING.md). One "batch"
	// is a single kernel invocation over the shared frozen base that
	// carries several clients' microbatches stacked row-wise. The
	// occupancy gauge is integer thousandths of the configured max
	// batch size (1000 = every slot filled); rows_total also exists as
	// a {client=...} family billed through the ledger.
	MetricBatchFormed    = "menos_batch_formed_total"
	MetricBatchSize      = "menos_batch_size"
	MetricBatchOccupancy = "menos_batch_occupancy_ratio"
	MetricBatchHold      = "menos_batch_hold_seconds"
	MetricBatchRows      = "menos_batch_rows_total"

	// Serving plane (internal/server).
	MetricServerAdmitted       = "menos_server_clients_admitted_total"
	MetricServerRejected       = "menos_server_clients_rejected_total"
	MetricServerIterations     = "menos_server_iterations_total"
	MetricServerComputeSeconds = "menos_server_compute_seconds"
	MetricServerWaitSeconds    = "menos_server_sched_wait_seconds"
	MetricServerActiveClients  = "menos_server_active_clients"
	// Serial backwards that had to re-forward (parked cache revoked, or
	// never kept), and kept caches larger than the grant profiled for them.
	MetricServerReforwards        = "menos_server_reforwards_total"
	MetricServerProfileViolations = "menos_server_profile_violations_total"

	// Live migration (internal/server admin plane, docs/FLEET.md).
	// "Out" counts sessions this server snapshotted and redirected
	// away; "in" counts sessions resumed here from a staged snapshot;
	// "aborted" counts orders that failed mid-flight (the session keeps
	// serving where it is).
	MetricServerMigrationsOut     = "menos_server_migrations_out_total"
	MetricServerMigrationsIn      = "menos_server_migrations_in_total"
	MetricServerMigrationsAborted = "menos_server_migrations_aborted_total"

	// Client plane (internal/client).
	MetricClientIterations  = "menos_client_iterations_total"
	MetricClientCommSeconds = "menos_client_comm_seconds"
	MetricClientCompSeconds = "menos_client_comp_seconds"

	// Wire transport (internal/client + internal/server, docs/WIRE.md).
	// Both peers register the same families: compressed counts the
	// on-wire bytes of quantized activation/gradient payloads this
	// process sent, raw counts the fp32 bytes those payloads replaced
	// (so savings = 1 - compressed/raw), codec_seconds times Pack and
	// Unpack calls, and overlap_hidden_seconds is the portion of each
	// pipelined round trip that ran concurrently with local compute
	// (zero by construction on the sequential path).
	MetricWireCompressedBytes  = "menos_wire_compressed_bytes_total"
	MetricWireRawBytes         = "menos_wire_raw_bytes_total"
	MetricWireCodecSeconds     = "menos_wire_codec_seconds"
	MetricOverlapHiddenSeconds = "menos_overlap_hidden_seconds"

	// Compute plane (internal/tensor). The worker-pool size is fixed
	// per process, so the gauge is set once at server construction.
	MetricTensorPoolWorkers = "menos_tensor_pool_workers"

	// Swap path (vanilla baseline, internal/splitsim).
	MetricSwapOps   = "menos_swap_ops_total"
	MetricSwapBytes = "menos_swap_bytes_total"

	// Telemetry self-observation (internal/obs).
	MetricObsSpansDropped = "menos_obs_spans_dropped_total"

	// Go runtime self-observability (obs.StartRuntimeSampler), sampled
	// from runtime/metrics on a background ticker.
	MetricGoHeapBytes     = "menos_go_heap_bytes"
	MetricGoGoroutines    = "menos_go_goroutines"
	MetricGoGCCycles      = "menos_go_gc_cycles_total"
	MetricGoGCPauseMicros = "menos_go_gc_pause_micros_total"

	// Fleet control plane (internal/fleet, docs/FLEET.md). Gauges are
	// integers, so the imbalance ratio is published in thousandths
	// (1000 = perfectly balanced).
	MetricFleetPlacements  = "menos_fleet_placements_total"
	MetricFleetMigrations  = "menos_fleet_migrations_total"
	MetricFleetServers     = "menos_fleet_servers"
	MetricFleetScaleEvents = "menos_fleet_scale_events_total"
	MetricFleetImbalance   = "menos_fleet_imbalance_ratio"

	// Control-plane daemon (cmd/menos-fleetd, docs/FLEET.md). The
	// daemon re-exports its embedded fleet.Manager's menos_fleet_*
	// families and adds its own orchestration counters: poll outcomes,
	// redirect placements handed to arriving clients, and live
	// migrations it drove to completion (or lost).
	MetricFleetdPolls             = "menos_fleetd_polls_total"
	MetricFleetdPollErrors        = "menos_fleetd_poll_errors_total"
	MetricFleetdServersHealthy    = "menos_fleetd_servers_healthy"
	MetricFleetdPlacements        = "menos_fleetd_placements_total"
	MetricFleetdMigrations        = "menos_fleetd_migrations_total"
	MetricFleetdMigrationFailures = "menos_fleetd_migration_failures_total"
	MetricFleetdIdentityMismatch  = "menos_fleetd_identity_mismatches_total"

	// Fleet telemetry plane (internal/tsdb + internal/alert, served by
	// menos-fleetd /queryz and /alertz — docs/OBSERVABILITY.md).
	// menos_fleetd_up / _identity_mismatch are synthetic per-server
	// series the controller appends into the time-series store on every
	// poll tick (1/0), the raw material for the dead-server and
	// identity-mismatch alert rules. The alerts gauge counts instances
	// currently Firing; transitions counts every state change
	// (Inactive→Pending, Pending→Firing, Firing→Pending, ...).
	MetricFleetdUp                  = "menos_fleetd_up"
	MetricFleetdIdentityGauge       = "menos_fleetd_identity_mismatch"
	MetricFleetdAlertsFiring        = "menos_fleetd_alerts_firing"
	MetricFleetdAlertsTransitions   = "menos_fleetd_alerts_transitions_total"
	MetricFleetdTSDBSeries          = "menos_fleetd_tsdb_series"
	MetricFleetdTSDBSamples         = "menos_fleetd_tsdb_samples_total"
	MetricFleetdTSDBDroppedSeries   = "menos_fleetd_tsdb_dropped_series_total"
	MetricFleetdScrapes             = "menos_fleetd_scrapes_total"
	MetricFleetdScrapeErrors        = "menos_fleetd_scrape_errors_total"
	MetricFleetdTraceSpansFederated = "menos_fleetd_trace_spans_federated_total"

	// Admission SLO advertisement (internal/sched): the configured
	// grant-wait p99 target in integer microseconds, published so the
	// fleet telemetry plane can compute burn rates against each
	// server's own target instead of a fleetd-side guess.
	MetricSchedAdmissionSLOTarget = "menos_sched_admission_slo_target_micros"
)
