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
// poll error and how long the server has been dark).
//
// -once prints a single snapshot and exits (scriptable); otherwise the
// screen refreshes in place every -interval until interrupted. -top
// bounds the per-tenant rows shown per server (heaviest compute
// first). -once -json instead emits one machine-readable JSON document
// (the raw /fleetz payload with -fleetd, or the polled /loadz
// documents with -servers) for scripts that want the data, not
// the table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

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
// /fleetz payload, or the per-server /loadz polls in -servers mode.
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
	return enc.Encode(map[string]any{"fleetz": fleetz})
}

// renderFleetd renders a fleetd's aggregated /fleetz document: the
// controller already polled every server, so one request paints the
// whole fleet, including rows the controller flagged unhealthy or
// answering with the wrong identity.
func renderFleetd(client *http.Client, base string, top int) string {
	var snap fleet.FleetSnapshot
	err := getJSON(client, base+"/fleetz", &snap)
	if err != nil {
		return fmt.Sprintf("fleetd %s DOWN: %v\n", base, err)
	}
	probes := make([]probe, 0, len(snap.Servers))
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
	}
	return fmt.Sprintf("fleetd %s  policy %s\n\n", base, snap.Policy) + render(probes, top)
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
