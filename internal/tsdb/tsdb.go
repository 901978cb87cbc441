// Package tsdb is the bounded in-memory time-series store behind the
// fleet telemetry plane (cmd/menos-fleetd): the control plane scrapes
// every managed server's /metrics.json each poll tick and appends the
// samples here, labeled by server and tenant, so alert rules
// (internal/alert) and range queries (fleetd /queryz) can reason about
// the fleet *over time* instead of only its latest snapshot.
//
// The store follows the repo's determinism discipline: it holds no
// clock and spawns no goroutine. Every sample arrives with an explicit
// timestamp from the caller's obs.Clock (wall time in the daemon,
// virtual time in tests), and retention is anchored at the newest
// timestamp ever appended — two identical append sequences leave two
// bit-identical stores.
//
// Memory is bounded on three axes:
//
//   - per-series raw ring: samples older than RawWindow (5m) or
//     beyond 4096 points are folded into downsampled buckets;
//   - per-series downsampled ring: 30s-wide aggregate buckets
//     (count/sum/min/max) retained up to Config.Retention, then
//     dropped;
//   - cardinality: at most 4096 distinct series; appends to new series
//     beyond the cap are counted and discarded, never silently grown.
package tsdb

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// SeriesID names one time series: a metric name plus the fleet labels
// the control plane scrapes by. Server is the fleet identity of the
// originating endpoint (0 for fleet-level series computed by recording
// rules); Client is the tenant label of per-client families ("" for
// server-level series).
type SeriesID struct {
	Name   string
	Server int
	Client string
}

// String renders the series in a stable prometheus-ish form, e.g.
// `menos_server_active_clients{server=1}` — the instance key used by alert
// state and /alertz output.
func (id SeriesID) String() string {
	if id.Server == 0 && id.Client == "" {
		return id.Name
	}
	s := id.Name + "{server=" + strconv.Itoa(id.Server)
	if id.Client != "" {
		s += ",client=" + strconv.Quote(id.Client)
	}
	return s + "}"
}

// less orders series deterministically: name, then server, then client.
func (id SeriesID) less(o SeriesID) bool {
	if id.Name != o.Name {
		return id.Name < o.Name
	}
	if id.Server != o.Server {
		return id.Server < o.Server
	}
	return id.Client < o.Client
}

// Point is one raw sample.
type Point struct {
	At    time.Duration
	Value float64
}

// Bucket is one downsampled aggregate: all raw samples whose timestamp
// fell in [Start, Start+resolution).
type Bucket struct {
	Start time.Duration
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Avg returns the bucket mean.
func (b Bucket) Avg() float64 {
	if b.Count == 0 {
		return 0
	}
	return b.Sum / float64(b.Count)
}

// Config bounds a Store. Zero values get defaults from New.
type Config struct {
	// Retention is the total horizon, downsampled buckets included
	// (default 1h). Must be >= RawWindow.
	Retention time.Duration
}

// RawWindow is how long samples stay at full resolution; older ones
// fold into buckets of resolution width.
const RawWindow = 5 * time.Minute

// The store's fixed resolution and bounds.
const (
	// resolution is the downsample bucket width.
	resolution = 30 * time.Second
	// maxSeries caps distinct series. Appends creating a series beyond
	// the cap are dropped and counted.
	maxSeries = 4096
	// maxRawPoints caps one series' raw ring regardless of RawWindow —
	// a misbehaving scraper cannot grow a ring without bound between
	// retention sweeps.
	maxRawPoints = 4096
)

// withDefaults fills an unset or too-short Retention.
func (c Config) withDefaults() Config {
	if c.Retention <= 0 {
		c.Retention = time.Hour
	}
	if c.Retention < RawWindow {
		c.Retention = RawWindow
	}
	return c
}

// series is one stored series: a raw tail plus the downsampled history
// in front of it. Both slices are oldest-first.
type series struct {
	raw  []Point
	down []Bucket
}

// Store is the bounded store. All methods are safe for concurrent use.
type Store struct {
	cfg Config

	mu            sync.RWMutex
	series        map[SeriesID]*series
	latest        time.Duration
	samples       int64
	droppedSeries int64
}

// New builds a Store.
func New(cfg Config) *Store {
	return &Store{cfg: cfg.withDefaults(), series: make(map[SeriesID]*series)}
}

// Config returns the normalized configuration.
func (s *Store) Config() Config { return s.cfg }

// Append records one sample. Timestamps should be non-decreasing per
// series (a scrape loop's are); an out-of-order timestamp is clamped
// to the series' newest so rings stay sorted. Returns false when the
// sample was dropped at the cardinality cap. Safe on nil.
func (s *Store) Append(id SeriesID, at time.Duration, v float64) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sr := s.series[id]
	if sr == nil {
		if len(s.series) >= maxSeries {
			s.droppedSeries++
			return false
		}
		sr = &series{}
		s.series[id] = sr
	}
	if n := len(sr.raw); n > 0 && at < sr.raw[n-1].At {
		at = sr.raw[n-1].At
	}
	sr.raw = append(sr.raw, Point{At: at, Value: v})
	if at > s.latest {
		s.latest = at
	}
	s.samples++
	s.compactLocked(sr)
	return true
}

// compactLocked folds raw samples past the raw window (or ring cap)
// into downsampled buckets and drops buckets past retention. Caller
// holds s.mu.
func (s *Store) compactLocked(sr *series) {
	rawCut := s.latest - RawWindow
	fold := 0
	for fold < len(sr.raw) &&
		(sr.raw[fold].At < rawCut || len(sr.raw)-fold > maxRawPoints) {
		p := sr.raw[fold]
		start := p.At - p.At%resolution
		if n := len(sr.down); n > 0 && sr.down[n-1].Start == start {
			b := &sr.down[n-1]
			b.Count++
			b.Sum += p.Value
			if p.Value < b.Min {
				b.Min = p.Value
			}
			if p.Value > b.Max {
				b.Max = p.Value
			}
		} else {
			sr.down = append(sr.down, Bucket{Start: start, Count: 1, Sum: p.Value, Min: p.Value, Max: p.Value})
		}
		fold++
	}
	if fold > 0 {
		n := copy(sr.raw, sr.raw[fold:])
		sr.raw = sr.raw[:n]
	}
	downCut := s.latest - s.cfg.Retention
	drop := 0
	for drop < len(sr.down) && sr.down[drop].Start+resolution <= downCut {
		drop++
	}
	if drop > 0 {
		n := copy(sr.down, sr.down[drop:])
		sr.down = sr.down[:n]
	}
}

// Stats reports the store's occupancy: live series, total samples ever
// appended, and series-creation drops at the cardinality cap. Safe on
// nil.
func (s *Store) Stats() (seriesCount int, samples, droppedSeries int64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.series), s.samples, s.droppedSeries
}

// Names returns the distinct series names, sorted. Safe on nil.
func (s *Store) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	seen := make(map[string]bool)
	for id := range s.series {
		seen[id.Name] = true
	}
	s.mu.RUnlock()
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Servers returns the sorted distinct Server labels carrying a series
// named name with an empty Client label — the fan-out set for
// per-server alert rules. Safe on nil.
func (s *Store) Servers(name string) []int {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	var ids []int
	for id := range s.series {
		if id.Name == name && id.Client == "" {
			ids = append(ids, id.Server)
		}
	}
	s.mu.RUnlock()
	sort.Ints(ids)
	return ids
}

// Series is one query result: downsampled history rendered as
// bucket-mean points (stamped at the bucket midpoint), followed by the
// raw tail.
type Series struct {
	ID     SeriesID
	Points []Point
}

// rangePoints assembles the merged point view of one series restricted
// to [from, to]. Caller holds s.mu (read).
func (s *Store) rangePointsLocked(sr *series, from, to time.Duration) []Point {
	var out []Point
	half := resolution / 2
	for _, b := range sr.down {
		at := b.Start + half
		if at < from || at > to {
			continue
		}
		out = append(out, Point{At: at, Value: b.Avg()})
	}
	for _, p := range sr.raw {
		if p.At < from || p.At > to {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Query returns every series named name (any server/client label) with
// points in [from, to], sorted by series ID; series with no point in
// range are omitted. Safe on nil.
func (s *Store) Query(name string, from, to time.Duration) []Series {
	return s.query(func(id SeriesID) bool { return id.Name == name }, from, to)
}

func (s *Store) query(match func(SeriesID) bool, from, to time.Duration) []Series {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	var out []Series
	for id, sr := range s.series {
		if !match(id) {
			continue
		}
		pts := s.rangePointsLocked(sr, from, to)
		if len(pts) == 0 {
			continue
		}
		out = append(out, Series{ID: id, Points: pts})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID.less(out[j].ID) })
	return out
}

// Last returns the series' newest sample (raw if any, else the latest
// downsampled bucket's mean at its midpoint). Safe on nil.
func (s *Store) Last(id SeriesID) (Point, bool) {
	if s == nil {
		return Point{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[id]
	if sr == nil {
		return Point{}, false
	}
	if n := len(sr.raw); n > 0 {
		return sr.raw[n-1], true
	}
	if n := len(sr.down); n > 0 {
		b := sr.down[n-1]
		return Point{At: b.Start + resolution/2, Value: b.Avg()}, true
	}
	return Point{}, false
}

// AvgOver returns the sample-weighted mean of the series over
// [from, to]: raw points weigh 1, downsampled buckets weigh their
// Count. False when no sample falls in range. Safe on nil.
func (s *Store) AvgOver(id SeriesID, from, to time.Duration) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[id]
	if sr == nil {
		return 0, false
	}
	var sum float64
	var n int64
	half := resolution / 2
	for _, b := range sr.down {
		if at := b.Start + half; at < from || at > to {
			continue
		}
		sum += b.Sum
		n += b.Count
	}
	for _, p := range sr.raw {
		if p.At < from || p.At > to {
			continue
		}
		sum += p.Value
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}

// Increase returns how much a counter series grew over [from, to]:
// the sum of positive deltas between consecutive raw samples in range,
// counter resets handled Prometheus-style (a decrease contributes the
// new value). Only the raw ring is considered — rate-style rules must
// evaluate windows inside RawWindow, which every built-in alert window
// is. The sample at or immediately before from seeds the baseline.
// False when fewer than one raw sample is in range. Safe on nil.
func (s *Store) Increase(id SeriesID, from, to time.Duration) (float64, bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	sr := s.series[id]
	if sr == nil || len(sr.raw) == 0 {
		return 0, false
	}
	var inc float64
	var prev float64
	havePrev := false
	seen := false
	for _, p := range sr.raw {
		if p.At > to {
			break
		}
		if p.At < from {
			prev = p.Value
			havePrev = true
			continue
		}
		seen = true
		if havePrev {
			if d := p.Value - prev; d >= 0 {
				inc += d
			} else {
				inc += p.Value
			}
		}
		prev = p.Value
		havePrev = true
	}
	if !seen {
		return 0, false
	}
	return inc, true
}
