package obs

// SpanKind is what a recorded span is: its name and the category that
// groups it for analysis. Every span is recorded as one of the Span*
// values below, so a call site cannot pair a name with the wrong
// category. TestMetricCatalogIsDocumented ties the catalog to the span
// table of docs/OBSERVABILITY.md in both directions, and the root
// package's TestEveryMetricHasAReader fails on a span that no
// experiments table, benchmark detail or test outside this package
// asserts.
type SpanKind struct {
	Name string // e.g. "forward", "wait:backward"
	Cat  string // e.g. "compute", "sched", "comm"
}

// Serving plane (internal/server). The categories are the breakdown of
// the paper's Tables 1-3 plus admission, release and the re-forward a
// revoked cache costs.
var (
	SpanAdmit        = SpanKind{"admit", "admission"}
	SpanWaitForward  = SpanKind{"wait:forward", "sched"}
	SpanWaitBackward = SpanKind{"wait:backward", "sched"}
	SpanForward      = SpanKind{"forward", "compute"}
	SpanBackward     = SpanKind{"backward", "compute"}
	SpanOptimizer    = SpanKind{"optimizer", "compute"}
	SpanRefwd        = SpanKind{"refwd", "recompute"}
	// SpanRelease returns a grant; SpanPark keeps it with the forward's
	// activation cache for the backward to claim.
	SpanRelease    = SpanKind{"release", "release"}
	SpanPark       = SpanKind{"park", "release"}
	SpanMigrateOut = SpanKind{"migrate:out", "migrate"}
	SpanMigrateIn  = SpanKind{"migrate:in", "migrate"}
)

// Client plane (internal/client): one iteration span around the client's
// two compute sections and two round trips on each side of the loss.
var (
	SpanIteration     = SpanKind{"iteration", "iter"}
	SpanInputForward  = SpanKind{"input-forward", "compute"}
	SpanForwardRTT    = SpanKind{"forward-rtt", "comm"}
	SpanOutputLoss    = SpanKind{"output-loss", "compute"}
	SpanBackwardRTT   = SpanKind{"backward-rtt", "comm"}
	SpanInputBackward = SpanKind{"input-backward", "compute"}
)

// Simulator (internal/splitsim), in virtual time. A simulated client's
// spans cover its whole iteration and carry only the comm, compute and
// sched categories, so their totals are the run's Breakdown. The server
// phases reuse the serving plane's wait, forward, backward and
// optimizer spans.
var (
	SpanClientPre         = SpanKind{"client-pre", "compute"}
	SpanClientMid         = SpanKind{"client-mid", "compute"}
	SpanClientPost        = SpanKind{"client-post", "compute"}
	SpanUploadXC          = SpanKind{"upload:x_c", "comm"}
	SpanDownloadXS        = SpanKind{"download:x_s", "comm"}
	SpanUploadGC          = SpanKind{"upload:g_c", "comm"}
	SpanDownloadGS        = SpanKind{"download:g_s", "comm"}
	SpanReforwardBackward = SpanKind{"re-forward+backward", "compute"}
	// SpanReleaseCycle is Table 2's release/re-collect overhead, which
	// the simulator bills as compute; the serving plane's SpanRelease
	// times the release call itself.
	SpanReleaseCycle  = SpanKind{"release", "compute"}
	SpanResidencyWait = SpanKind{"residency-wait", "sched"}
	SpanBatchStall    = SpanKind{"batch-stall", "sched"}
	SpanMigrate       = SpanKind{"migrate", "sched"}
)
