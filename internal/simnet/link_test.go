package simnet

import (
	"testing"
	"time"

	"menos/internal/sim"
)

func TestTransferDurationScalesWithBytes(t *testing.T) {
	k := sim.New()
	l := LANPreset(k)
	small := l.TransferDuration(1 << 10)
	large := l.TransferDuration(1 << 24)
	if large <= small {
		t.Fatalf("larger transfer not slower: %v vs %v", large, small)
	}
	// Latency floor applies even to empty transfers.
	if l.TransferDuration(0) < l.OneWayLatency {
		t.Fatal("latency floor violated")
	}
}

func TestWANPresetMatchesPaperCommTimes(t *testing.T) {
	k := sim.New()
	l := WANPreset(k)
	// The paper's OPT round exchanges ~51.2 MB total and measures
	// ≈6.4 s of communication; one quarter of that payload should take
	// ≈1.6 s ± jitter.
	quarter := int64(128) << 20 / 10
	d := l.TransferDuration(quarter)
	if d < 1200*time.Millisecond || d > 2200*time.Millisecond {
		t.Fatalf("12.8 MB over WAN = %v, want ≈1.6 s", d)
	}
}

func TestTransferAdvancesSimTime(t *testing.T) {
	k := sim.New()
	l := WANPreset(k)
	var took time.Duration
	k.After(0, func() {
		took = l.Transfer(8<<20, func() {
			if k.Now() != took {
				t.Errorf("virtual time %v != transfer %v", k.Now(), took)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if took <= 0 {
		t.Fatal("no time charged")
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	k := sim.New()
	l := LANPreset(k)
	var took time.Duration
	k.After(0, func() {
		took = l.Transfer(-5, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if took != l.OneWayLatency {
		t.Fatalf("transfer of -5 bytes took %v, want the bare latency %v", took, l.OneWayLatency)
	}
}

func TestContentionInflatesConcurrentTransfers(t *testing.T) {
	k := sim.New()
	l := WANPreset(k)
	l.JitterFraction = 0 // isolate the contention term
	const payload = 16 << 20

	var solo, contended time.Duration
	k.After(0, func() {
		solo = l.Transfer(payload, func() {})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	k2 := sim.New()
	l2 := WANPreset(k2)
	l2.JitterFraction = 0
	for i := 0; i < 4; i++ {
		i := i
		k2.After(0, func() {
			d := l2.Transfer(payload, func() {})
			if i == 3 {
				contended = d
			}
		})
	}
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	// Every flow let go of the link when it landed.
	if l2.active != 0 {
		t.Fatalf("%d flows still active after the run", l2.active)
	}
	if contended <= solo {
		t.Fatalf("no contention effect: %v vs %v", contended, solo)
	}
	// But mild, per the paper ("the impact is negligible").
	if float64(contended) > 1.2*float64(solo) {
		t.Fatalf("contention too strong: %v vs %v", contended, solo)
	}
}

func TestJitterIsDeterministic(t *testing.T) {
	mk := func() []time.Duration {
		k := sim.New()
		l := WANPreset(k)
		var out []time.Duration
		for i := 0; i < 5; i++ {
			out = append(out, l.TransferDuration(4<<20))
		}
		return out
	}
	a, b := mk(), mk()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not reproducible across identical runs")
		}
		if i > 0 && a[i] != a[i-1] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced identical consecutive transfers")
	}
}

// Flows are pooled: once the link has carried as many concurrent
// transfers as it is asked to, a transfer allocates nothing.
func TestTransferAllocatesNothing(t *testing.T) {
	k := sim.New()
	l := LANPreset(k)
	done := func() {}
	burst := func() {
		for i := 0; i < 16; i++ {
			l.Transfer(1<<20, done)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	burst()
	if n := testing.AllocsPerRun(50, burst); n != 0 {
		t.Fatalf("%.1f allocations per burst of 16 transfers", n)
	}
	if l.active != 0 {
		t.Fatalf("%d flows still active", l.active)
	}
}
