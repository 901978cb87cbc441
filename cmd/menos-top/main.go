// Command menos-top is a terminal dashboard for a Menos fleet: it
// polls each server's /loadz endpoint (served by the metrics mux, see
// menos-server -metrics-addr) and renders a refreshing table of
// per-server load — admission state, queue depth, memory — with the
// per-tenant accounting rows underneath: compute seconds, grant waits,
// GPU byte-seconds, wire traffic, iterations, sheds and retries.
//
// Usage:
//
//	menos-top -servers host1:9090,host2:9090 [-interval 2s] [-once]
//	          [-top 10]
//	menos-top -fleetd http://host:9600 [-interval 2s] [-once] [-json]
//
// With -fleetd, menos-top renders the control plane's aggregated
// /fleetz view instead of polling servers itself: one request paints
// every managed server, including endpoints fleetd marked unhealthy
// or answering with the wrong fleet identity (DOWN rows carry the
// poll error and how long the server has been dark). When the daemon
// runs its alert engine, an alerts pane renders below the fleet table
// — every pending/firing instance plus the recent transition history —
// and each server row gains /queryz-backed sparklines of its recent
// active-client count and SLO burn rate.
//
// -once prints a single snapshot and exits (scriptable); otherwise the
// screen refreshes in place every -interval until interrupted. -top
// bounds the per-tenant rows shown per server (heaviest compute
// first). -once -json instead emits one machine-readable JSON document
// (the raw /fleetz and /alertz payloads with -fleetd, or the polled
// /loadz documents with -servers) for scripts that want the data, not
// the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"menos/internal/alert"
	"menos/internal/fleet"
	"menos/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "menos-top:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("menos-top", flag.ContinueOnError)
	servers := fs.String("servers", "", "comma-separated metrics addresses to poll (host:port or full http://host:port)")
	fleetd := fs.String("fleetd", "", "render a menos-fleetd control plane's aggregated /fleetz view (http://host:port) instead of polling servers directly")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	once := fs.Bool("once", false, "print one snapshot and exit")
	jsonOut := fs.Bool("json", false, "with -once: emit one machine-readable JSON document instead of the table")
	top := fs.Int("top", 10, "max per-tenant rows per server (0 = all)")
	timeout := fs.Duration("timeout", 2*time.Second, "per-poll HTTP timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := splitTargets(*servers)
	if len(targets) == 0 && *fleetd == "" {
		return fmt.Errorf("no servers: pass -servers host:port[,host:port...] or -fleetd URL")
	}
	if *jsonOut && !*once {
		return fmt.Errorf("-json requires -once (one document, not a refreshing stream)")
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %v: want a positive refresh interval", *interval)
	}
	if *timeout <= 0 {
		return fmt.Errorf("-timeout %v: want a positive poll timeout (0 would let one stalled server hang the dashboard)", *timeout)
	}
	if *top < 0 {
		return fmt.Errorf("-top %d < 0 (0 means all)", *top)
	}
	client := &http.Client{Timeout: *timeout}
	snapshot := func() string { return render(poll(client, targets), *top) }
	base := ""
	if *fleetd != "" {
		base = strings.TrimSuffix(strings.TrimSuffix(*fleetd, "/"), "/fleetz")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		snapshot = func() string { return renderFleetd(client, base, *top) }
	}

	if *once {
		if *jsonOut {
			return writeJSON(out, client, base, targets)
		}
		fmt.Fprint(out, snapshot())
		return nil
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		// ANSI clear + home keeps the table refreshing in place, the
		// classic top(1) experience without a terminal library.
		fmt.Fprint(out, "\x1b[2J\x1b[H")
		fmt.Fprint(out, snapshot())
		select {
		case <-sig:
			return nil
		case <-tick.C:
		}
	}
}

// splitTargets parses -servers, normalizing each entry to a /loadz URL.
func splitTargets(s string) []string {
	var targets []string
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.Contains(part, "://") {
			part = "http://" + part
		}
		targets = append(targets, strings.TrimSuffix(part, "/")+"/loadz")
	}
	return targets
}

// probe is one polled server: the decoded document or the error that
// took its place (a down server stays visible in the table).
type probe struct {
	target string
	snap   fleet.LoadSnapshot
	err    error
}

func poll(client *http.Client, targets []string) []probe {
	probes := make([]probe, len(targets))
	for i, target := range targets {
		probes[i] = probe{target: target}
		resp, err := client.Get(target)
		if err != nil {
			probes[i].err = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			probes[i].err = fmt.Errorf("%s", resp.Status)
			resp.Body.Close()
			continue
		}
		probes[i].err = json.NewDecoder(resp.Body).Decode(&probes[i].snap)
		resp.Body.Close()
	}
	return probes
}

// getJSON fetches one URL and decodes the JSON body.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// writeJSON emits the -once -json document: the raw control-plane
// payloads (alertz absent when the daemon runs without -alerts), or
// the per-server /loadz polls in -servers mode.
func writeJSON(out io.Writer, client *http.Client, base string, targets []string) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if base == "" {
		type row struct {
			Target string              `json:"target"`
			Error  string              `json:"error,omitempty"`
			Loadz  *fleet.LoadSnapshot `json:"loadz,omitempty"`
		}
		rows := make([]row, 0, len(targets))
		for _, p := range poll(client, targets) {
			r := row{Target: p.target}
			if p.err != nil {
				r.Error = p.err.Error()
			} else {
				snap := p.snap
				r.Loadz = &snap
			}
			rows = append(rows, r)
		}
		return enc.Encode(map[string]any{"servers": rows})
	}
	var fleetz json.RawMessage
	if err := getJSON(client, base+"/fleetz", &fleetz); err != nil {
		return fmt.Errorf("fleetd %s: %w", base, err)
	}
	doc := map[string]any{"fleetz": fleetz}
	var alertz json.RawMessage
	if err := getJSON(client, base+"/alertz", &alertz); err == nil {
		doc["alertz"] = alertz
	}
	return enc.Encode(doc)
}

// sparkGlyphs are the classic 8-level block sparkline alphabet.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a block sparkline, scaled to the series' own
// [min, max] (a flat series renders as a flat low line).
func spark(vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		i := 0
		if hi > lo {
			i = int((v - lo) / (hi - lo) * float64(len(sparkGlyphs)-1))
		}
		b.WriteRune(sparkGlyphs[i])
	}
	return b.String()
}

// queryzDoc mirrors the fleetd /queryz response shape.
type queryzDoc struct {
	Series []struct {
		Server int `json:"server"`
		Points []struct {
			V float64 `json:"v"`
		} `json:"points"`
	} `json:"series"`
}

// fleetSparks fetches one federated series from /queryz and renders a
// per-server sparkline. Any error (older daemon, store empty) yields
// an empty map and the dashboard simply omits the sparklines.
func fleetSparks(client *http.Client, base, name string) map[int]string {
	var doc queryzDoc
	if err := getJSON(client, base+"/queryz?name="+url.QueryEscape(name)+"&window=2m", &doc); err != nil {
		return nil
	}
	out := make(map[int]string, len(doc.Series))
	for _, sr := range doc.Series {
		vals := make([]float64, 0, len(sr.Points))
		// Bound the line to the trailing 20 points so a long window
		// stays one table cell wide.
		for i := max(0, len(sr.Points)-20); i < len(sr.Points); i++ {
			vals = append(vals, sr.Points[i].V)
		}
		if len(vals) > 0 {
			out[sr.Server] = spark(vals)
		}
	}
	return out
}

// renderAlerts renders the /alertz pane: every live (non-inactive)
// instance grouped under its rule, then the most recent transitions.
// A daemon without an alert engine (404) renders nothing.
func renderAlerts(client *http.Client, base string) string {
	var doc alert.Doc
	if err := getJSON(client, base+"/alertz", &doc); err != nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alerts  firing=%d transitions=%d\n", doc.Firing, doc.Transitions)
	quiet := true
	for _, rule := range doc.Rules {
		for _, inst := range rule.Instances {
			if inst.State == "inactive" {
				continue
			}
			quiet = false
			fmt.Fprintf(&b, "  %-8s %-28s %-40s %8.3g  for %.0fs\n",
				strings.ToUpper(inst.State), rule.Name, inst.Series, inst.Value, inst.SinceSeconds)
		}
	}
	if quiet {
		b.WriteString("  all quiet\n")
	}
	const lastN = 5
	if n := len(doc.History); n > 0 {
		b.WriteString("  recent:\n")
		for _, tr := range doc.History[max(0, n-lastN):] {
			fmt.Fprintf(&b, "    t=%7.1fs %-28s %-40s %s -> %s\n",
				tr.AtSeconds, tr.Rule, tr.Series, tr.From, tr.To)
		}
	}
	return b.String()
}

// renderFleetd renders a fleetd's aggregated /fleetz document: the
// controller already polled every server, so one request paints the
// whole fleet, including rows the controller flagged unhealthy or
// answering with the wrong identity — plus the alerts pane and
// federated sparklines when the daemon serves /alertz and /queryz.
func renderFleetd(client *http.Client, base string, top int) string {
	var snap fleet.FleetSnapshot
	err := getJSON(client, base+"/fleetz", &snap)
	if err != nil {
		return fmt.Sprintf("fleetd %s DOWN: %v\n", base, err)
	}
	activeSparks := fleetSparks(client, base, obs.MetricServerActiveClients)
	burnSparks := fleetSparks(client, base, alert.SeriesSLOBurnRate)
	probes := make([]probe, 0, len(snap.Servers))
	var sparkLines []string
	for _, srv := range snap.Servers {
		p := probe{target: srv.Endpoint.MetricsURL}
		switch {
		case !srv.Polled:
			p.err = fmt.Errorf("not yet polled")
		case !srv.Healthy && srv.DownForSeconds > 0:
			p.err = fmt.Errorf("for %.0fs: %s", srv.DownForSeconds, srv.Error)
		case !srv.Healthy:
			p.err = fmt.Errorf("%s", srv.Error)
		default:
			p.snap = fleet.LoadSnapshot{
				AtSeconds: srv.AtSeconds,
				Server:    srv.Load,
				Clients:   srv.Clients,
			}
		}
		probes = append(probes, p)
		var parts []string
		if s := activeSparks[srv.Endpoint.ID]; s != "" {
			parts = append(parts, "active "+s)
		}
		if s := burnSparks[srv.Endpoint.ID]; s != "" {
			parts = append(parts, "burn "+s)
		}
		if len(parts) > 0 {
			sparkLines = append(sparkLines,
				fmt.Sprintf("  server %d  %s", srv.Endpoint.ID, strings.Join(parts, "   ")))
		}
	}
	out := fmt.Sprintf("fleetd %s  policy %s\n\n", base, snap.Policy) + render(probes, top)
	if len(sparkLines) > 0 {
		out += strings.Join(sparkLines, "\n") + "\n\n"
	}
	return out + renderAlerts(client, base)
}

// admissionString mirrors sched.AdmissionState.String without linking
// the scheduler into the CLI.
func admissionString(a fleet.AdmissionState) string {
	switch a {
	case fleet.AdmissionOpen:
		return "open"
	case fleet.AdmissionThrottled:
		return "throttled"
	case fleet.AdmissionShedding:
		return "shedding"
	}
	return fmt.Sprintf("state(%d)", a)
}

func gb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<30)) }

// render formats the fleet view: one header line per server, then its
// heaviest tenants.
func render(probes []probe, top int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "menos-top  %s\n\n", time.Now().Format("15:04:05"))
	for _, p := range probes {
		if p.err != nil {
			fmt.Fprintf(&b, "server %-28s DOWN: %v\n\n", p.target, p.err)
			continue
		}
		s := p.snap.Server
		state := admissionString(s.Admission)
		if s.Draining {
			state += ",draining"
		}
		fmt.Fprintf(&b, "server %d  (%s)  clients=%d queue=%d  mem %s/%s GiB committed %s GiB  %s  models=%s  up %.0fs\n",
			s.ID, p.target, s.Clients, s.QueueDepth,
			gb(s.UsedBytes), gb(s.CapacityBytes), gb(s.CommittedBytes),
			state, strings.Join(s.Models, ","), p.snap.AtSeconds)

		rows := append([]obs.ClientUsage(nil), p.snap.Clients...)
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].ComputeSeconds != rows[j].ComputeSeconds {
				return rows[i].ComputeSeconds > rows[j].ComputeSeconds
			}
			return rows[i].ID < rows[j].ID
		})
		shown := len(rows)
		if top > 0 && shown > top {
			shown = top
		}
		if shown > 0 {
			fmt.Fprintf(&b, "  %-20s %10s %10s %12s %12s %10s %10s %6s %5s %5s\n",
				"CLIENT", "COMP(s)", "WAIT(s)", "PERSIST(GBs)", "TRANS(GBs)", "TX(MiB)", "RX(MiB)", "ITERS", "SHED", "RETRY")
		}
		for _, u := range rows[:shown] {
			fmt.Fprintf(&b, "  %-20s %10.3f %10.3f %12.1f %12.1f %10.1f %10.1f %6d %5d %5d\n",
				u.ID, u.ComputeSeconds, u.GrantWaitSeconds,
				u.PersistentByteSeconds/(1<<30), u.TransientByteSeconds/(1<<30),
				float64(u.WireTxBytes)/(1<<20), float64(u.WireRxBytes)/(1<<20),
				u.Iterations, u.Sheds, u.Retries)
		}
		if hidden := len(rows) - shown; hidden > 0 {
			fmt.Fprintf(&b, "  ... %d more tenant(s)\n", hidden)
		}
		b.WriteString("\n")
	}
	return b.String()
}
