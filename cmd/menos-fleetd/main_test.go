package main

import (
	"net"
	"net/url"
	"strings"
	"testing"
	"time"

	"menos/internal/obs"
	"menos/internal/tsdb"
)

func queryStore() *tsdb.Store {
	st := tsdb.New(tsdb.Config{})
	for i := 1; i <= 3; i++ {
		at := time.Duration(i) * time.Second
		st.Append(tsdb.SeriesID{Name: obs.MetricServerActiveClients, Server: 1}, at, float64(i))
		st.Append(tsdb.SeriesID{Name: obs.MetricServerActiveClients, Server: 2}, at, float64(10*i))
		st.Append(tsdb.SeriesID{Name: obs.MetricServerShedsTotal, Server: 1, Client: "c1"}, at, float64(i))
	}
	return st
}

func TestQueryzListsNames(t *testing.T) {
	doc, err := queryzDoc(queryStore(), 10*time.Second, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	if doc.AtSeconds != 10 {
		t.Fatalf("at_seconds = %v, want 10", doc.AtSeconds)
	}
	if len(doc.Names) != 2 || doc.Names[0] != obs.MetricServerActiveClients {
		t.Fatalf("names = %v", doc.Names)
	}
	if doc.Series != nil {
		t.Fatalf("series present without ?name=: %v", doc.Series)
	}
}

func TestQueryzFiltersSeries(t *testing.T) {
	st := queryStore()
	doc, err := queryzDoc(st, 10*time.Second, url.Values{"name": {obs.MetricServerActiveClients}})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 2 {
		t.Fatalf("series = %d, want 2 (both servers)", len(doc.Series))
	}
	doc, err = queryzDoc(st, 10*time.Second, url.Values{
		"name": {obs.MetricServerActiveClients}, "server": {"2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Server != 2 {
		t.Fatalf("server-filtered series = %+v", doc.Series)
	}
	if n := len(doc.Series[0].Points); n != 3 {
		t.Fatalf("points = %d, want 3", n)
	}
	if p := doc.Series[0].Points[2]; p.T != 3 || p.V != 30 {
		t.Fatalf("last point = %+v, want {3 30}", p)
	}
	doc, err = queryzDoc(st, 10*time.Second, url.Values{
		"name": {obs.MetricServerShedsTotal}, "client": {"c1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Client != "c1" {
		t.Fatalf("client-filtered series = %+v", doc.Series)
	}
}

func TestQueryzWindowBounds(t *testing.T) {
	st := queryStore()
	// Only the sample at t=3s falls inside a 1.5s window ending at 4s.
	doc, err := queryzDoc(st, 4*time.Second, url.Values{
		"name": {obs.MetricServerActiveClients}, "server": {"1"}, "window": {"1500ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 1 || len(doc.Series[0].Points) != 1 {
		t.Fatalf("windowed series = %+v", doc.Series)
	}
	if _, err := queryzDoc(st, 0, url.Values{"name": {"x"}, "window": {"bogus"}}); err == nil {
		t.Fatal("bad window accepted")
	}
	if _, err := queryzDoc(st, 0, url.Values{"name": {"x"}, "server": {"bogus"}}); err == nil {
		t.Fatal("bad server accepted")
	}
}

// TestRunRejectsBadDurations: -poll and -retention are validated before
// anything binds. The -listen address is held by the test, so a flag
// that got past validation shows up as a listen error instead of a
// daemon that runs forever (or, for -poll 0, panics in its ticker).
func TestRunRejectsBadDurations(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	base := []string{
		"-quiet", "-listen", held.Addr().String(),
		"-server", "id=1,addr=127.0.0.1:1,metrics=http://127.0.0.1:1,admin=http://127.0.0.1:1",
	}
	for _, tc := range []struct {
		flags []string
		want  string // substring of run's error
	}{
		{[]string{"-poll", "0"}, "-poll"},
		{[]string{"-poll", "-1s"}, "-poll"},
		{[]string{"-retention", "1m"}, "-retention"},
		{[]string{"-retention", "-1s"}, "-retention"},
		// Valid values pass validation and reach the held listener.
		{[]string{"-poll", "1s", "-retention", "0"}, "listen"},
		{[]string{"-retention", tsdb.RawWindow.String()}, "listen"},
	} {
		err := run(append(append([]string{}, base...), tc.flags...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want it to mention %q", tc.flags, err, tc.want)
		}
	}
}
