// Command menos-fleetd is the Menos control plane: it polls a fixed
// fleet of menos-server processes (their /healthz and /loadz
// endpoints), places arriving clients onto servers through a
// pluggable policy, and drives live client migrations through the
// servers' admin planes — draining servers evacuate, crowded servers
// shed one client at a time to the emptiest peer, and a client moved
// mid-run resumes on the target without losing an iteration
// (docs/FLEET.md).
//
// Usage:
//
//	menos-fleetd -server id=1,addr=HOST:PORT,metrics=URL,admin=URL
//	             [-server ...] [-placer policy] [-poll 2s]
//	             [-rebalance] [-listen :9600] [-quiet]
//
// Each -server names one managed endpoint: the fleet identity the
// server was started with (-server-id), the split-protocol address
// clients dial, and the base URLs of its metrics (/healthz, /loadz)
// and admin (/admin/*) planes. /healthz must echo the configured
// identity back; a mismatch (a different process answering on a
// reused port) marks the endpoint unhealthy instead of trusting a
// stranger's "ok".
//
// Each poll tick additionally scrapes every healthy server's
// /metrics.json into a bounded in-memory time-series store (labeled
// {server=,client=}; raw samples downsample past -retention windows —
// see internal/tsdb) and evaluates the built-in alert catalog over it:
// SLO burn rate against each server's advertised admission target,
// shed storms, GPU OOMs, dead or identity-mismatched servers, fleet
// imbalance and batch-occupancy collapse, each with Pending→Firing
// dwell hysteresis (internal/alert). With -flight-dir set, every
// transition into Firing triggers a flight-recorder snapshot. With
// -federate-traces, each tick also pages every server's /trace ring
// through a resume cursor into per-server mirror tracers, so /trace on
// the daemon serves ONE merged Chrome trace of the whole fleet — a
// migrated client's spans stitch across server processes by iteration
// trace ID.
//
// The daemon's own HTTP surface (-listen) serves:
//
//	/fleetz        the whole fleet as last polled (JSON; menos-top
//	               renders it with -fleetd)
//	/queryz        federated time-series: no params lists series
//	               names; ?name=X[&server=N][&client=C][&window=5m]
//	               returns the matching series' points (JSON)
//	/alertz        the alert engine snapshot: every rule, its live
//	               instances, and recent transitions (JSON)
//	/trace         the merged fleet Chrome trace (with
//	               -federate-traces)
//	POST /place    body ClientInfo JSON -> the chosen Endpoint JSON
//	               (redirect handshake for arriving clients)
//	POST /drain    ?id=N: mark a server draining; its clients migrate
//	               away on subsequent rebalance ticks (202; 400 bad id,
//	               404 unknown server, 409 the last server not draining)
//	POST /migrate  {"client_id","src","dst"}: order one migration now
//	/metrics,      the menos_fleetd_* families (Prometheus text and
//	/metrics.json  JSON), plus /healthz liveness; -pprof mounts
//	               /debug/pprof/
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"menos/internal/alert"
	"menos/internal/fleet"
	"menos/internal/obs"
	"menos/internal/tsdb"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "menos-fleetd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("menos-fleetd", flag.ContinueOnError)
	var endpoints []fleet.Endpoint
	fs.Func("server", "managed server: id=N,addr=HOST:PORT,metrics=URL,admin=URL (repeatable)", func(s string) error {
		ep, err := parseEndpoint(s)
		if err != nil {
			return err
		}
		endpoints = append(endpoints, ep)
		return nil
	})
	placerName := fs.String("placer", "policy", "placement policy: policy, round-robin, least-loaded, memory-best-fit")
	poll := fs.Duration("poll", 2*time.Second, "fleet polling interval")
	rebalance := fs.Bool("rebalance", true, "order migrations on each poll (drain evacuation and load smoothing)")
	listen := fs.String("listen", ":9600", "control-plane HTTP listen address")
	alerts := fs.Bool("alerts", true, "evaluate the built-in alert catalog over the federated metrics each poll tick")
	sloP99 := fs.Duration("slo-p99", 0, "burn-rate target for servers that do not advertise one (0 skips them)")
	retention := fs.Duration("retention", 0, "federated time-series retention, at least the 5m raw window (0 = 1h; older downsampled buckets are evicted)")
	fedTraces := fs.Bool("federate-traces", false, "scrape every server's /trace ring each poll and serve the merged fleet trace on /trace")
	traceBudget := fs.Int64("trace-buffer-mb", 4, "per-server mirror ring budget for trace federation in MiB")
	flightDir := fs.String("flight-dir", "", "write a flight-recorder snapshot (fleetd metrics JSONL) on every alert transition into firing")
	pprofFlag := fs.Bool("pprof", false, "mount /debug/pprof/ on the control-plane mux and capture profiles in flight snapshots")
	quiet := fs.Bool("quiet", false, "disable orchestration logs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *poll <= 0 {
		return fmt.Errorf("-poll %v: want a positive interval", *poll)
	}
	if *retention != 0 && *retention < tsdb.RawWindow {
		return fmt.Errorf("-retention %v: want 0 (1h) or at least the %v raw window", *retention, tsdb.RawWindow)
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("no servers: pass at least one -server id=...,addr=...,metrics=...,admin=...")
	}
	placer, err := fleet.PlacerByName(*placerName)
	if err != nil {
		return err
	}
	logf := func(string, ...any) {}
	if !*quiet {
		logger := log.New(os.Stderr, "menos-fleetd ", log.LstdFlags|log.Lmsgprefix)
		logf = logger.Printf
	}

	reg := obs.NewRegistry()
	// One clock for everything time-shaped in this process: sample
	// stamps, alert dwells and down-time accounting all read the same
	// monotonic epoch, so /queryz timestamps and /alertz since-fields
	// line up exactly.
	clock := obs.NewWallClock()
	store := tsdb.New(tsdb.Config{Retention: *retention})
	var flight *obs.FlightRecorder
	if *flightDir != "" {
		flight, err = obs.NewFlightRecorder(obs.FlightConfig{
			Dir:             *flightDir,
			Clock:           clock,
			CaptureProfiles: *pprofFlag,
		}, reg, nil)
		if err != nil {
			return fmt.Errorf("flight recorder: %w", err)
		}
		defer flight.Close()
	}
	var engine *alert.Engine
	if *alerts {
		recording, rules := alert.Catalog(alert.CatalogConfig{
			Poll:         *poll,
			SLOTargetP99: *sloP99,
		})
		engine = alert.NewEngine(alert.Config{
			Store:     store,
			Rules:     rules,
			Recording: recording,
			OnFiring: func(tr alert.Transition) {
				logf("ALERT firing: %s on %s (value %.3g)", tr.Rule, tr.Series, tr.Value)
				if flight != nil {
					flight.Trigger(obs.FlightReasonAlert + ":" + tr.Rule)
				}
			},
		})
		engine.Instrument(reg)
	}
	ctrl, err := fleet.NewController(fleet.ControllerConfig{
		Endpoints: endpoints,
		Placer:    placer,
		Metrics:   reg,
		Store:     store,
		Clock:     clock,
		// Wall-clock token seed: a restarted fleetd must not mint
		// resume tokens colliding with snapshots its previous life
		// staged at the servers.
		TokenSeed:        uint64(time.Now().UnixNano()),
		FederateTraces:   *fedTraces,
		TraceBudgetBytes: *traceBudget << 20,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	mux := newMux(plane{
		ctrl: ctrl, reg: reg, store: store, engine: engine, clock: clock,
		fedTraces: *fedTraces, pprof: *pprofFlag,
	})
	go func() {
		if serr := http.Serve(ln, mux); serr != nil {
			logf("control endpoint: %v", serr)
		}
	}()
	fmt.Printf("menos-fleetd: managing %d servers, control on http://%s/fleetz\n", len(endpoints), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*poll)
	defer tick.Stop()
	for {
		healthy := ctrl.PollOnce()
		if healthy == 0 {
			logf("no healthy servers")
		}
		if engine != nil {
			engine.EvalTick(clock.Now())
		}
		if *rebalance {
			if moved, err := ctrl.RebalanceOnce(); err != nil {
				logf("rebalance: %v", err)
			} else if moved > 0 {
				// Re-poll soon: the fleet is in motion.
				logf("rebalance: %d migration(s) ordered", moved)
			}
		}
		select {
		case <-sig:
			return nil
		case <-tick.C:
		}
	}
}

// plane is what the control-plane HTTP surface serves.
type plane struct {
	ctrl      *fleet.Controller
	reg       *obs.Registry
	store     *tsdb.Store
	engine    *alert.Engine // nil with -alerts=false
	clock     obs.Clock
	fedTraces bool
	pprof     bool
}

// newMux builds the daemon's -listen surface (the endpoint list in the
// package comment).
func newMux(p plane) *http.ServeMux {
	mux := http.NewServeMux()
	var hopts []obs.HandlerOption
	if p.pprof {
		hopts = append(hopts, obs.WithPprof())
	}
	mux.Handle("/", obs.Handler(p.reg, nil, hopts...))
	mux.HandleFunc("GET /queryz", func(w http.ResponseWriter, req *http.Request) {
		doc, err := queryzDoc(p.store, p.clock.Now(), req.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("GET /alertz", func(w http.ResponseWriter, _ *http.Request) {
		if p.engine == nil {
			http.Error(w, "alerting disabled (-alerts=false)", http.StatusNotFound)
			return
		}
		writeJSON(w, p.engine.Snapshot(p.clock.Now()))
	})
	// Shadows the obs.Handler /trace (which would be empty — fleetd has
	// no tracer of its own): the federated fleet trace instead.
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, _ *http.Request) {
		if !p.fedTraces {
			http.Error(w, "trace federation disabled (-federate-traces)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := p.ctrl.WriteMergedTrace(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /fleetz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, p.ctrl.Snapshot())
	})
	mux.HandleFunc("POST /place", func(w http.ResponseWriter, req *http.Request) {
		var ci fleet.ClientInfo
		if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&ci); err != nil {
			http.Error(w, "bad client info: "+err.Error(), http.StatusBadRequest)
			return
		}
		ep, err := p.ctrl.PlaceClient(ci)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(ep)
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, req *http.Request) {
		id, err := strconv.Atoi(req.URL.Query().Get("id"))
		if err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		switch err := p.ctrl.Drain(id); {
		case errors.Is(err, fleet.ErrLastServer):
			http.Error(w, err.Error(), http.StatusConflict)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	mux.HandleFunc("POST /migrate", func(w http.ResponseWriter, req *http.Request) {
		var ord struct {
			ClientID string `json:"client_id"`
			Src      int    `json:"src"`
			Dst      int    `json:"dst"`
		}
		if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&ord); err != nil {
			http.Error(w, "bad order: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := p.ctrl.MigrateClient(ord.ClientID, ord.Src, ord.Dst); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	})
	return mux
}

// writeJSON serves doc as indented JSON.
func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	data, _ := json.MarshalIndent(doc, "", "  ")
	_, _ = w.Write(append(data, '\n'))
}

// queryzPoint is one sample in a /queryz response; t is seconds on the
// daemon's clock epoch (process start), matching /alertz at_seconds.
type queryzPoint struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

type queryzSeries struct {
	Name   string        `json:"name"`
	Server int           `json:"server"`
	Client string        `json:"client,omitempty"`
	Points []queryzPoint `json:"points"`
}

type queryzDocT struct {
	AtSeconds float64        `json:"at_seconds"`
	Names     []string       `json:"names,omitempty"`
	Series    []queryzSeries `json:"series,omitempty"`
}

// queryzDoc renders one /queryz request: without ?name= it lists the
// store's series names; with one it returns every matching series'
// points over the trailing ?window= (default 5m), optionally narrowed
// by ?server= and ?client=.
func queryzDoc(store *tsdb.Store, now time.Duration, q map[string][]string) (queryzDocT, error) {
	get := func(k string) string {
		if v := q[k]; len(v) > 0 {
			return v[0]
		}
		return ""
	}
	doc := queryzDocT{AtSeconds: now.Seconds()}
	name := get("name")
	if name == "" {
		doc.Names = store.Names()
		return doc, nil
	}
	window := 5 * time.Minute
	if w := get("window"); w != "" {
		d, err := time.ParseDuration(w)
		if err != nil || d <= 0 {
			return doc, fmt.Errorf("bad window %q", w)
		}
		window = d
	}
	serverFilter, haveServer := 0, false
	if s := get("server"); s != "" {
		id, err := strconv.Atoi(s)
		if err != nil {
			return doc, fmt.Errorf("bad server %q", s)
		}
		serverFilter, haveServer = id, true
	}
	clientFilter, haveClient := get("client"), q["client"] != nil
	from := now - window
	if from < 0 {
		from = 0
	}
	for _, sr := range store.Query(name, from, now) {
		if haveServer && sr.ID.Server != serverFilter {
			continue
		}
		if haveClient && sr.ID.Client != clientFilter {
			continue
		}
		out := queryzSeries{
			Name:   sr.ID.Name,
			Server: sr.ID.Server,
			Client: sr.ID.Client,
			Points: make([]queryzPoint, 0, len(sr.Points)),
		}
		for _, p := range sr.Points {
			out.Points = append(out.Points, queryzPoint{T: p.At.Seconds(), V: p.Value})
		}
		doc.Series = append(doc.Series, out)
	}
	return doc, nil
}

// parseEndpoint parses one -server flag value.
func parseEndpoint(s string) (fleet.Endpoint, error) {
	var ep fleet.Endpoint
	seen := map[string]bool{}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return ep, fmt.Errorf("bad -server field %q (want key=value)", kv)
		}
		seen[k] = true
		switch k {
		case "id":
			id, err := strconv.Atoi(v)
			if err != nil {
				return ep, fmt.Errorf("bad -server id %q", v)
			}
			ep.ID = id
		case "addr":
			ep.Addr = v
		case "metrics":
			ep.MetricsURL = strings.TrimRight(v, "/")
		case "admin":
			ep.AdminURL = strings.TrimRight(v, "/")
		default:
			return ep, fmt.Errorf("unknown -server field %q", k)
		}
	}
	for _, want := range []string{"id", "addr", "metrics", "admin"} {
		if !seen[want] {
			return ep, fmt.Errorf("-server %q missing %s=", s, want)
		}
	}
	return ep, nil
}
