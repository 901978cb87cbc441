package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), sorted by metric name so the
// output is deterministic. Each family is written under one TYPE
// header: the unlabeled sample first, then the labeled series in label
// order — which is what makes Σ series{client=*} comparable to the
// aggregate on a single scrape. Histogram exemplars are appended to
// their bucket line in the OpenMetrics style (`# {trace_id="..."}
// <value>`). Safe on a nil registry (writes nothing).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var b strings.Builder
	writeFamilies(&b, r.counters, "counter", writeIntSample((*Counter).Value))
	writeFamilies(&b, r.gauges, "gauge", writeIntSample((*Gauge).Value))
	writeFamilies(&b, r.hists, "histogram", writeHistText)
	_, err := io.WriteString(w, b.String())
	return err
}

// writeFamilies emits every family of one kind in name order through
// the kind's sample writer, which gets the series' label pair
// (`client="a"`, escaped) or "" for the unlabeled series.
func writeFamilies[M comparable](b *strings.Builder, fams map[string]*family[M], typ string, write func(b *strings.Builder, name, labels string, m M)) {
	var none M
	for _, name := range sortedKeys(fams) {
		f := fams[name]
		writeHeader(b, name, typ, f.help)
		if f.plain != none {
			write(b, name, "", f.plain)
		}
		for _, lv := range f.vec.Labels() {
			m, _ := f.vec.Get(lv)
			write(b, name, f.vec.Label()+`="`+escapeLabel(lv)+`"`, m)
		}
	}
}

// writeIntSample is the sample writer of an integer kind.
func writeIntSample[M any](value func(M) int64) func(b *strings.Builder, name, labels string, m M) {
	return func(b *strings.Builder, name, labels string, m M) {
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(b, "%s%s %d\n", name, labels, value(m))
	}
}

// writeHistText emits one histogram series — cumulative buckets, sum,
// count — optionally carrying a label pair. The bucket the exemplar
// landed in (if any) gets the OpenMetrics exemplar suffix.
func writeHistText(b *strings.Builder, name, labels string, h *Histogram) {
	s := h.Snapshot()
	exIdx, exID, exVal, exOK := h.exemplarInfo()
	var lp, ls string // prefix inside bucket braces; label set for sum/count
	if labels != "" {
		lp = labels + ","
		ls = "{" + labels + "}"
	}
	bucket := func(i int, le string, cum int64) {
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d", name, lp, le, cum)
		if exOK && i == exIdx {
			fmt.Fprintf(b, " # {trace_id=\"%016x\"} %s", exID, formatFloat(exVal))
		}
		b.WriteByte('\n')
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		bucket(i, formatFloat(bound), cum)
	}
	cum += s.Counts[len(s.Bounds)]
	bucket(len(s.Bounds), "+Inf", cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, ls, formatFloat(s.Sum))
	fmt.Fprintf(b, "%s_count%s %d\n", name, ls, s.Count)
}

func writeHeader(b *strings.Builder, name, typ, help string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// escapeHelp escapes backslashes and newlines per the Prometheus text
// exposition format, so a multi-line help string cannot terminate the
// HELP line early and corrupt the scrape.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the text exposition format:
// backslash, double quote, and newline. A client ID containing any of
// these cannot break out of the label set.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// histJSON is the JSON projection of one histogram, with ready-made
// quantile estimates so a curl of /metrics.json answers "what is the
// p99 queue wait" without client-side math.
type histJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Buckets map[string]int64 `json:"buckets"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	// Exemplar links the histogram's tail to a concrete trace: the
	// most recent observation in the highest bucket seen.
	Exemplar *exemplarJSON `json:"exemplar,omitempty"`
}

// exemplarJSON is the trace pointer behind a histogram's extreme
// observation; trace_id matches the span args in /trace output.
type exemplarJSON struct {
	TraceID string  `json:"trace_id"`
	Value   float64 `json:"value"`
}

// vecJSON is the JSON projection of one family's labeled series: the
// label key plus the per-value projections.
type vecJSON[V any] struct {
	Label  string       `json:"label"`
	Series map[string]V `json:"series"`
}

// histToJSON projects one histogram into its JSON form.
func histToJSON(h *Histogram) histJSON {
	s := h.Snapshot()
	hj := histJSON{
		Count:   s.Count,
		Sum:     s.Sum,
		Buckets: make(map[string]int64, len(s.Counts)),
		P50:     s.Quantile(0.50),
		P90:     s.Quantile(0.90),
		P99:     s.Quantile(0.99),
	}
	if id, v, ok := h.Exemplar(); ok {
		hj.Exemplar = &exemplarJSON{TraceID: fmt.Sprintf("%016x", id), Value: v}
	}
	var cum int64
	for i, bound := range s.Bounds {
		cum += s.Counts[i]
		hj.Buckets[formatFloat(bound)] = cum
	}
	hj.Buckets["+Inf"] = cum + s.Counts[len(s.Bounds)]
	return hj
}

// WriteJSON renders the registry as a single expvar-style JSON object:
// {"counters": {...}, "gauges": {...}, "histograms": {...}} holding the
// unlabeled series, plus — when labeled series are registered —
// "counter_vecs", "gauge_vecs" and "histogram_vecs" sections keyed by
// family name. Keys are emitted in sorted order (encoding/json sorts
// map keys). Safe on nil.
func (r *Registry) WriteJSON(w io.Writer) error {
	var out struct {
		Counters      map[string]int64             `json:"counters"`
		Gauges        map[string]int64             `json:"gauges"`
		Histograms    map[string]histJSON          `json:"histograms"`
		CounterVecs   map[string]vecJSON[int64]    `json:"counter_vecs,omitempty"`
		GaugeVecs     map[string]vecJSON[int64]    `json:"gauge_vecs,omitempty"`
		HistogramVecs map[string]vecJSON[histJSON] `json:"histogram_vecs,omitempty"`
	}
	if r == nil {
		r = NewRegistry()
	}
	r.mu.RLock()
	out.Counters, out.CounterVecs = familiesJSON(r.counters, (*Counter).Value)
	out.Gauges, out.GaugeVecs = familiesJSON(r.gauges, (*Gauge).Value)
	out.Histograms, out.HistogramVecs = familiesJSON(r.hists, histToJSON)
	r.mu.RUnlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// familiesJSON projects every family of one kind: the unlabeled series
// by name, and the labeled ones by name under their label key (nil
// when the kind has none, so the section is omitted).
func familiesJSON[M comparable, V any](fams map[string]*family[M], project func(M) V) (map[string]V, map[string]vecJSON[V]) {
	var none M
	plain := make(map[string]V)
	var vecs map[string]vecJSON[V]
	for name, f := range fams {
		if f.plain != none {
			plain[name] = project(f.plain)
		}
		if f.vec == nil {
			continue
		}
		vj := vecJSON[V]{Label: f.vec.Label(), Series: make(map[string]V)}
		for _, lv := range f.vec.Labels() {
			m, _ := f.vec.Get(lv)
			vj.Series[lv] = project(m)
		}
		if vecs == nil {
			vecs = make(map[string]vecJSON[V])
		}
		vecs[name] = vj
	}
	return plain, vecs
}

// HandlerOption customizes Handler's endpoints.
type HandlerOption func(*handlerOpts)

type handlerOpts struct {
	admission func() string
	loadz     func() any
	identity  func() (id int, addr string)
	pprof     bool
}

// WithAdmission wires the /healthz endpoint to a live admission-state
// reader (e.g. the scheduler's AdmissionState().String()).
func WithAdmission(f func() string) HandlerOption {
	return func(o *handlerOpts) { o.admission = f }
}

// WithLoadz serves a structured load snapshot at /loadz: f is called
// per request and its result marshalled as indented JSON. The serving
// plane passes a closure returning fleet.LoadSnapshot — the polling
// surface for placement controllers and menos-top.
func WithLoadz(f func() any) HandlerOption {
	return func(o *handlerOpts) { o.loadz = f }
}

// WithIdentity stamps /healthz with the process's fleet identity —
// its ServerID and listen address. A control plane polling health
// through a fixed port uses these to detect that a *different* server
// now answers there (a restart lost all sessions; a port remap points
// at another instance entirely) instead of trusting "status: ok" from
// a stranger. f is called per request: the listen address is only
// known after the listener binds.
func WithIdentity(f func() (id int, addr string)) HandlerOption {
	return func(o *handlerOpts) { o.identity = f }
}

// WithPprof mounts the net/http/pprof handlers under /debug/pprof/ on
// the metrics mux. Off by default (the daemons gate it behind -pprof):
// profiles expose stack and heap contents, which is more than a
// metrics scrape should reveal unasked.
func WithPprof() HandlerOption {
	return func(o *handlerOpts) { o.pprof = true }
}

// healthJSON is the /healthz response body.
type healthJSON struct {
	Status         string  `json:"status"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	GoVersion      string  `json:"go_version,omitempty"`
	Module         string  `json:"module,omitempty"`
	VCSRevision    string  `json:"vcs_revision,omitempty"`
	VCSTime        string  `json:"vcs_time,omitempty"`
	AdmissionState string  `json:"admission_state,omitempty"`
	ServerID       *int    `json:"server_id,omitempty"`
	Addr           string  `json:"addr,omitempty"`
}

// buildDetails reads the binary's build metadata once at handler
// construction (it cannot change at runtime).
func buildDetails() (goVersion, module, rev, vcsTime string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return runtime.Version(), "", "", ""
	}
	goVersion, module = bi.GoVersion, bi.Main.Path
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			vcsTime = s.Value
		}
	}
	return goVersion, module, rev, vcsTime
}

// Handler serves the live introspection endpoints:
//
//	/metrics       Prometheus text exposition (scrape target)
//	/metrics.json  expvar-style JSON with quantile estimates and exemplars
//	/trace         Chrome trace-event JSON of the span buffer; bounded
//	               sampling via ?window=30s (trailing window)
//	/healthz       liveness as JSON: status, uptime, build info, and —
//	               when wired via WithAdmission — admission state
//	/loadz         structured load snapshot (only with WithLoadz): the
//	               fleet.ServerLoad shape plus the per-client ledger
//	/debug/pprof/  net/http/pprof (only with WithPprof)
//
// Registry or tracer may be nil; the corresponding endpoints serve
// empty documents.
func Handler(reg *Registry, tracer *Tracer, opts ...HandlerOption) http.Handler {
	var ho handlerOpts
	for _, o := range opts {
		o(&ho)
	}
	start := time.Now()
	goVersion, module, rev, vcsTime := buildDetails()

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		var spans []Span
		switch {
		// q.Has, not q.Get != "": an empty ?window= is a malformed
		// request and must 400, not silently dump everything.
		case q.Has("window"):
			d, err := time.ParseDuration(q.Get("window"))
			if err != nil {
				http.Error(w, "bad window: "+err.Error(), http.StatusBadRequest)
				return
			}
			if d <= 0 {
				http.Error(w, "bad window: must be positive", http.StatusBadRequest)
				return
			}
			spans = tracer.SpansWindow(d)
		default:
			spans = tracer.Spans()
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="menos-trace.json"`)
		if err := tracer.writeChromeSpans(w, spans); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	if ho.loadz != nil {
		mux.HandleFunc("/loadz", func(w http.ResponseWriter, req *http.Request) {
			data, err := json.MarshalIndent(ho.loadz(), "", "  ")
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(append(data, '\n'))
		})
	}
	if ho.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		h := healthJSON{
			Status:        "ok",
			UptimeSeconds: time.Since(start).Seconds(),
			GoVersion:     goVersion,
			Module:        module,
			VCSRevision:   rev,
			VCSTime:       vcsTime,
		}
		if ho.admission != nil {
			h.AdmissionState = ho.admission()
		}
		if ho.identity != nil {
			id, addr := ho.identity()
			h.ServerID = &id
			h.Addr = addr
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(h)
	})
	return mux
}
