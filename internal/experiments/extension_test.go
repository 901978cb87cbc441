package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestExtensionHeterogeneous(t *testing.T) {
	tbl, err := ExtensionHeterogeneousClients(Options{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.Render()
	for _, id := range []string{"standard", "small-batch", "deep-cut", "cpu-client"} {
		if !strings.Contains(out, id) {
			t.Fatalf("missing client %q:\n%s", id, out)
		}
	}
	rows := tbl.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every client's round completes in the Menos regime (well under
	// the vanilla swap times).
	for _, row := range rows {
		secs := row[1]
		d, err := time.ParseDuration(secs + "s")
		if err != nil {
			t.Fatalf("parse %q: %v", secs, err)
		}
		if d > 15*time.Second {
			t.Fatalf("client %s round = %v, out of Menos regime", row[0], d)
		}
	}
}
