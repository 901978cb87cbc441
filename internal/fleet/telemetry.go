package fleet

import (
	"fmt"
	"io"
	"strconv"

	"menos/internal/obs"
)

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
