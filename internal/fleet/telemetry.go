package fleet

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

// Series-name suffixes the scrape flattens histogram families under:
// one store series per quantile plus the count and sum, so rules like
// the SLO burn rate read "menos_server_sched_wait_seconds_p99" without
// bucket math at evaluation time.
const (
	suffixP50   = "_p50"
	suffixP90   = "_p90"
	suffixP99   = "_p99"
	suffixCount = "_count"
	suffixSum   = "_sum"
)

// scrapedMetrics mirrors the obs.Registry WriteJSON shape — the
// /metrics.json document this controller's scrape decodes. Histogram
// vec families are deliberately NOT ingested: per-client quantile
// series would multiply store cardinality per tenant per server, and
// no built-in rule reads them (the per-client counters from
// counter_vecs/gauge_vecs cover tenant attribution).
type scrapedMetrics struct {
	Counters   map[string]int64 `json:"counters"`
	Gauges     map[string]int64 `json:"gauges"`
	Histograms map[string]struct {
		Count int64   `json:"count"`
		Sum   float64 `json:"sum"`
		P50   float64 `json:"p50"`
		P90   float64 `json:"p90"`
		P99   float64 `json:"p99"`
	} `json:"histograms"`
	CounterVecs map[string]scrapedVec `json:"counter_vecs"`
	GaugeVecs   map[string]scrapedVec `json:"gauge_vecs"`
}

type scrapedVec struct {
	Series map[string]int64 `json:"series"`
}

// ingestPoll appends one poll tick's samples for one endpoint into the
// store: the synthetic liveness pair for every endpoint, plus the full
// flattened /metrics.json for healthy ones. Runs without c.mu (all
// store methods are internally locked).
func (c *Controller) ingestPoll(ep Endpoint, ok, mismatch bool, now time.Duration) {
	up := 0.0
	if ok {
		up = 1
	}
	mm := 0.0
	if mismatch {
		mm = 1
	}
	c.store.Append(tsdb.SeriesID{Name: obs.MetricFleetdUp, Server: ep.ID}, now, up)
	c.store.Append(tsdb.SeriesID{Name: obs.MetricFleetdIdentityGauge, Server: ep.ID}, now, mm)
	if !ok {
		return
	}
	var doc scrapedMetrics
	if err := c.getJSON(ep.MetricsURL+"/metrics.json", &doc); err != nil {
		c.mScrapeErrors.Inc() // nil-safe
		c.logf("scrape server %d metrics: %v", ep.ID, err)
		return
	}
	c.mScrapes.Inc()
	app := func(name string, v float64) {
		c.store.Append(tsdb.SeriesID{Name: name, Server: ep.ID}, now, v)
	}
	for name, v := range doc.Counters {
		app(name, float64(v))
	}
	for name, v := range doc.Gauges {
		app(name, float64(v))
	}
	for name, h := range doc.Histograms {
		app(name+suffixCount, float64(h.Count))
		app(name+suffixSum, h.Sum)
		app(name+suffixP50, h.P50)
		app(name+suffixP90, h.P90)
		app(name+suffixP99, h.P99)
	}
	for _, vecs := range []map[string]scrapedVec{doc.CounterVecs, doc.GaugeVecs} {
		for name, vec := range vecs {
			for label, v := range vec.Series {
				c.store.Append(tsdb.SeriesID{Name: name, Server: ep.ID, Client: label}, now, float64(v))
			}
		}
	}
}

// scrapeTrace pages one healthy endpoint's span ring from the resume
// cursor and re-records the new spans into the server's fleetd-side
// mirror tracer. RecordT assigns mirror-local sequence numbers but
// keeps the original start/duration/trace ID, so spans from different
// servers still correlate by IterTraceID in the merged trace.
//
// Timestamps stay in each server's own clock epoch (process start);
// the merged trace is for following one trace ID across processes, not
// for cross-server wall-clock alignment.
func (c *Controller) scrapeTrace(st *endpointState, ep Endpoint) {
	c.mu.Lock()
	cursor := st.traceCursor
	c.mu.Unlock()

	var parsed obs.ParsedTrace
	err := c.get(fmt.Sprintf("%s/trace?since=%d", ep.MetricsURL, cursor), 64<<20, func(r io.Reader) (err error) {
		parsed, err = obs.ParseChromeTrace(r)
		return err
	})
	if err != nil {
		c.mScrapeErrors.Inc()
		c.logf("scrape server %d trace: %v", ep.ID, err)
		return
	}

	c.mu.Lock()
	if st.mirror == nil {
		st.mirror = obs.NewTracer(c.clock)
		st.mirror.EnableRing(c.traceBudget)
		name := parsed.ProcessName
		if name == "" {
			name = "server-" + strconv.Itoa(ep.ID)
		}
		st.mirror.SetProcess(ep.ID, name)
	}
	mirror := st.mirror
	// Never regress the cursor: an empty page still reports the ring's
	// LastSeq, and a server restart (seq reset) re-registers below it —
	// the identity check marks that server unhealthy first.
	if parsed.LastSeq > st.traceCursor {
		st.traceCursor = parsed.LastSeq
	}
	c.mu.Unlock()

	for _, s := range parsed.Spans {
		mirror.RecordT(s.Track, obs.SpanKind{Name: s.Name, Cat: s.Cat}, s.TraceID, s.Start, s.Dur)
	}
	c.mFedSpans.Add(int64(len(parsed.Spans))) // nil-safe
}

// WriteMergedTrace renders the federated fleet trace: every server's
// mirror as one process in a single Chrome trace document, stitched by
// trace ID. Servers whose traces have not been scraped yet (or with
// federation off) are simply absent.
func (c *Controller) WriteMergedTrace(w io.Writer) error {
	c.mu.Lock()
	tracers := make([]*obs.Tracer, 0, len(c.order))
	for _, id := range c.order {
		if m := c.eps[id].mirror; m != nil {
			tracers = append(tracers, m)
		}
	}
	c.mu.Unlock()
	return obs.WriteMergedChromeTrace(w, tracers...)
}
