package fleet

import (
	"io"

	"menos/internal/obs"
)

// WriteMergedTrace renders the fleet trace: it fetches /trace from every
// endpoint whose last poll succeeded, in ID order, and writes their
// spans as one Chrome trace with one process per server (pid = its
// fleet ID), so a migrated client's iteration stitches across servers
// by trace ID. A server whose /trace fails to fetch or parse is left
// out and counted in menos_fleetd_scrape_errors_total; its health is
// the poll's to judge.
//
// Timestamps stay in each server's own clock epoch (process start);
// the merged trace is for following one trace ID across processes, not
// for cross-server wall-clock alignment.
func (c *Controller) WriteMergedTrace(w io.Writer) error {
	tracers := make([]*obs.Tracer, 0, len(c.order))
	for _, id := range c.order {
		if c.m.isDown(id) {
			continue
		}
		var parsed obs.ParsedTrace
		err := c.get(c.eps[id].ep.MetricsURL+"/trace", 64<<20, func(r io.Reader) (err error) {
			parsed, err = obs.ParseChromeTrace(r)
			return err
		})
		if err != nil {
			c.mScrapeErrors.Inc()
			c.logf("merge server %d trace: %v", id, err)
			continue
		}
		tracers = append(tracers, parsed.Tracer(id))
	}
	return obs.WriteMergedChromeTrace(w, tracers...)
}
