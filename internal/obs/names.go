package obs

// Canonical metric names. Every instrumented plane registers its
// metrics under these constants, so a misspelt name is a compile error.
// TestMetricCatalogIsDocumented ties the catalog to the operator docs in
// both directions, and the root package's TestEveryMetricHasAReader
// fails on a name that no dashboard, /loadz, benchmark detail or test
// outside this package reads.
const (
	// Scheduler plane (internal/sched).
	MetricSchedSubmitted         = "menos_sched_submitted_total"
	MetricSchedGranted           = "menos_sched_granted_total"
	MetricSchedBackfilled        = "menos_sched_backfilled_total"
	MetricSchedCompleted         = "menos_sched_completed_total"
	MetricSchedRejected          = "menos_sched_rejected_total"
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

	// Admission control (internal/sched, docs/ADMISSION.md): submissions
	// shed, and the configured grant-wait p99 target in integer
	// microseconds, published so the fleet telemetry plane can compute
	// burn rates against each server's own target instead of a
	// fleetd-side guess.
	MetricSchedAdmissionShed      = "menos_sched_admission_shed_total"
	MetricSchedAdmissionSLOTarget = "menos_sched_admission_slo_target_micros"

	// GPU memory plane (internal/gpu).
	MetricGPUAllocOps = "menos_gpu_alloc_ops_total"
	MetricGPUOOM      = "menos_gpu_oom_total"
	// Per-owner residency: a GaugeVec labeled {owner=...} where owner
	// is the allocation tag ("persist:<client>", "base-model", ...).
	MetricGPUOwnerBytes = "menos_gpu_owner_bytes"

	// Per-tenant accounting ledger (obs.Ledger), labeled {client=...}.
	// Byte-second counters are integer-truncated accruals of
	// bytes-held × seconds-held; persistent is adapter state pinned by
	// Reserve, transient is per-iteration grant traffic.
	MetricGPUPersistentByteSeconds = "menos_gpu_persistent_byte_seconds_total"
	MetricGPUTransientByteSeconds  = "menos_gpu_transient_byte_seconds_total"
	MetricServerWireTxBytes        = "menos_server_wire_tx_bytes_total"
	MetricServerWireRxBytes        = "menos_server_wire_rx_bytes_total"
	MetricServerShedsTotal         = "menos_server_sheds_total"

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
	MetricServerIterations     = "menos_server_iterations_total"
	MetricServerComputeSeconds = "menos_server_compute_seconds"
	MetricServerWaitSeconds    = "menos_server_sched_wait_seconds"
	MetricServerActiveClients  = "menos_server_active_clients"
	// Serial backwards that had to re-forward (parked cache revoked, or
	// never kept).
	MetricServerReforwards = "menos_server_reforwards_total"

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

	// Swap path (vanilla baseline, internal/splitsim).
	MetricSwapOps   = "menos_swap_ops_total"
	MetricSwapBytes = "menos_swap_bytes_total"

	// Fleet control plane (internal/fleet, docs/FLEET.md). Gauges are
	// integers, so the imbalance ratio is published in thousandths
	// (1000 = perfectly balanced).
	MetricFleetPlacements  = "menos_fleet_placements_total"
	MetricFleetServers     = "menos_fleet_servers"
	MetricFleetScaleEvents = "menos_fleet_scale_events_total"
	MetricFleetImbalance   = "menos_fleet_imbalance_ratio"

	// Control-plane daemon (cmd/menos-fleetd, docs/FLEET.md): live
	// migrations it ordered, and polls answered by a server other than
	// the configured identity.
	MetricFleetdMigrations       = "menos_fleetd_migrations_total"
	MetricFleetdIdentityMismatch = "menos_fleetd_identity_mismatches_total"

	// Trace federation (menos-fleetd -federate-traces, served merged on
	// its /trace — docs/OBSERVABILITY.md): /trace pages that failed on
	// an otherwise-healthy server, and spans re-recorded into the
	// fleet-side mirrors.
	MetricFleetdScrapeErrors        = "menos_fleetd_scrape_errors_total"
	MetricFleetdTraceSpansFederated = "menos_fleetd_trace_spans_federated_total"
)
