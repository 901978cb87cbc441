package sched

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"strings"
	"testing"
	"time"

	"menos/internal/obs"
)

// schedTracePins are the SHA-256 digests of the traces
// TestSchedulerTraceIsPinned records, one per policy × admission ×
// ledger configuration. They were recorded on the string-keyed
// bookkeeping (one map per question: held, resident, a per-batch seen
// set), so any rewrite of how identities are tracked must reproduce
// every verdict, error text, grant and count of it. The admission=true
// digests were re-recorded once, when admission control began deciding
// each batch member on its own parity instead of the batch on its batch
// ID's: every one of those programs sheds batch members while throttled
// (traceCoverage.throttledMembers).
var schedTracePins = map[string]string{
	"fcfs+backfill/admission=false/ledger=false":  "f7c6adc958878c77abad1f9f1768bcb46eee3734e650021db70988d7a4846246",
	"fcfs+backfill/admission=false/ledger=true":   "3a4a0008730f3b033d54ae372e14a54ae0b6c0dd6835ac173a4edf368328129b",
	"fcfs+backfill/admission=true/ledger=false":   "30c3b2756b0683eae077d3cd305746a939a485a0517495a2ed331fe2df26f8dd",
	"fcfs+backfill/admission=true/ledger=true":    "960f99746a4bb70b8f883cecf24e15a00a441322d30b9a463d33fb775a6070ef",
	"fcfs/admission=false/ledger=false":           "1135da93ee09bc73c804ffaf54790122060db727dfee5dad38a6c54774b35a75",
	"fcfs/admission=false/ledger=true":            "9eb3b8a84b1dc6282d4d949e55f220674e819e4321f6e852c73065eaf8361443",
	"fcfs/admission=true/ledger=false":            "362670c79e55dd9c2179318944500c54d298ef22638a7b389e2c46c36f41f98d",
	"fcfs/admission=true/ledger=true":             "442d05b6a701b4e1ecafbcd9d281b8ab1521dbfd2b97ff45ac814e08dcabfb5b",
	"smallest-first/admission=false/ledger=false": "b5880b763c72097ebc6f03d62ceab4409073a930a57437eed2f30e90485e1945",
	"smallest-first/admission=false/ledger=true":  "bc4c6d9b0f715d00d10f7236c549f0f6979abe6199a69880122662441a164499",
	"smallest-first/admission=true/ledger=false":  "f1eab93dea8be52cf7c92e736048330b5390441df26949c339af7b0ceaaa5134",
	"smallest-first/admission=true/ledger=true":   "bc04b8078e3e845f8db146b23dbbade81ff6019adb01f885b807f6383bf3bd98",
}

// TestSchedulerTraceIsPinned runs seeded random programs of every
// scheduler entry point — Submit, SubmitBatch (duplicate members, batch
// IDs that collide with live identities), Reserve, Grow, Park, Claim,
// revocation, Complete and Close, with oversized requests among them —
// and hashes what each call shows: its error (sentinel and text), every
// grant and revocation in the order they fire, Stats, Available,
// Parked, QueueDepth and Schedulable after it, and at the end the
// admission stats, the ledger rows and every menos_sched_* sample.
func TestSchedulerTraceIsPinned(t *testing.T) {
	for _, policy := range []Policy{PolicyFCFSBackfill, PolicyFCFS, PolicySmallestFirst} {
		for _, admission := range []bool{false, true} {
			for _, ledger := range []bool{false, true} {
				name := fmt.Sprintf("%v/admission=%v/ledger=%v", policy, admission, ledger)
				h := sha256.New()
				var seen traceCoverage
				for seed := int64(1); seed <= 4; seed++ {
					seen.add(schedTrace(t, h, seed, policy, admission, ledger))
				}
				seen.check(t, name, policy, admission)
				got := hex.EncodeToString(h.Sum(nil))
				if want := schedTracePins[name]; got != want {
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
			}
		}
	}
}

// traceCoverage sums what a configuration's programs reached, so a
// generator change that stops exercising a path fails loudly instead of
// pinning less.
type traceCoverage struct {
	stats       Stats
	adm         AdmissionStats
	batches     int // SubmitBatch calls accepted
	duplicates  int // in-batch duplicate members refused
	collisions  int // batch IDs refused as an outstanding identity
	oversized   int // ErrNeverFits
	reserves    int // Reserve calls accepted
	closedCalls int // calls refused with ErrClosed
	// throttledMembers counts batch members shed while Throttled: where
	// admission decides per member instead of per batch.
	throttledMembers int
}

func (c *traceCoverage) add(o traceCoverage) {
	c.stats.Granted += o.stats.Granted
	c.stats.Backfilled += o.stats.Backfilled
	c.stats.Grown += o.stats.Grown
	c.stats.Claimed += o.stats.Claimed
	c.stats.Revoked += o.stats.Revoked
	c.adm.Transitions += o.adm.Transitions
	c.adm.Shed += o.adm.Shed
	c.adm.Deferred += o.adm.Deferred
	c.batches += o.batches
	c.duplicates += o.duplicates
	c.collisions += o.collisions
	c.oversized += o.oversized
	c.reserves += o.reserves
	c.closedCalls += o.closedCalls
	c.throttledMembers += o.throttledMembers
}

func (c *traceCoverage) check(t *testing.T, name string, policy Policy, admission bool) {
	t.Helper()
	for what, n := range map[string]int64{
		"grants":             c.stats.Granted,
		"grows":              c.stats.Grown,
		"claims":             c.stats.Claimed,
		"revocations":        c.stats.Revoked,
		"accepted batches":   int64(c.batches),
		"duplicate members":  int64(c.duplicates),
		"batch ID collision": int64(c.collisions),
		"oversized requests": int64(c.oversized),
		"reservations":       int64(c.reserves),
		"calls after Close":  int64(c.closedCalls),
	} {
		if n == 0 {
			t.Errorf("%s: the programs reach no %s", name, what)
		}
	}
	if admission && (c.adm.Transitions == 0 || c.adm.Shed == 0) {
		t.Errorf("%s: admission control never acted: %+v", name, c.adm)
	}
	if admission && c.throttledMembers == 0 {
		t.Errorf("%s: no batch member was shed while throttled", name)
	}
	// A deferred backfill is where residency decides a grant.
	if admission && policy == PolicyFCFSBackfill && c.adm.Deferred == 0 {
		t.Errorf("%s: no backfill was deferred", name)
	}
}

// schedTrace runs one seeded program and writes its trace to h.
func schedTrace(t *testing.T, h hash.Hash, seed int64, policy Policy, admission, ledger bool) traceCoverage {
	t.Helper()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	reg := obs.NewRegistry()
	clk := &fakeClock{}
	s := New(100, policy)
	w := Wiring{Metrics: reg, Clock: clk}
	if admission {
		w.SLO = SLO{TargetP99: 2 * time.Second, Window: 10 * time.Second}
	}
	var led *obs.Ledger
	if ledger {
		led = obs.NewLedger(obs.LedgerConfig{Clock: clk, Metrics: reg})
		w.Ledger = led
	}
	mustWire(t, s, w)

	var cov traceCoverage
	verdict := func(call string, err error) {
		put("%s: ", call)
		for _, sentinel := range []error{ErrNeverFits, ErrOutstanding, ErrClosed, ErrOverloaded} {
			if errors.Is(err, sentinel) {
				put("[%v] ", sentinel)
			}
		}
		put("%v\n", err)
		switch {
		case errors.Is(err, ErrNeverFits):
			cov.oversized++
		case errors.Is(err, ErrClosed):
			cov.closedCalls++
		}
	}
	// Grow, Park, Claim and Complete name the latest grant or park half
	// the time:
	// a random client rarely holds one.
	var lastGrant, lastPark string
	grant := func(id string) func() {
		return func() {
			put("grant %s\n", id)
			lastGrant = id
		}
	}
	revoke := func(id string) func() { return func() { put("revoke %s\n", id) } }

	rng := rand.New(rand.NewSource(seed))
	client := func() string { return fmt.Sprintf("c%d", rng.Intn(10)) }
	recent := func(id string) string {
		if id == "" || rng.Intn(2) == 0 {
			return client()
		}
		return id
	}
	kind := func() RequestKind {
		if rng.Intn(2) == 0 {
			return KindForward
		}
		return KindBackward
	}
	clients := newRoster(s) // a member enrolls at its first batch
	var batchIDs []string   // every batch ID submitted, live or not
	nextBatch, newcomers := 0, 0
	closeAt := 420 + rng.Intn(60)
	for op := 0; op < 500; op++ {
		clk.now += time.Duration(rng.Intn(300)) * time.Millisecond
		if op == closeAt {
			put("close\n")
			s.Close()
		}
		switch r := rng.Intn(100); {
		case r < 20:
			id, k, b := client(), kind(), int64(rng.Intn(40))+1
			if rng.Intn(6) == 0 { // a newcomer: admission defers its backfill
				id = fmt.Sprintf("n%d", newcomers)
				newcomers++
			}
			if rng.Intn(8) == 0 {
				b = int64(rng.Intn(30)) + 81 // above 100 never fits
			}
			verdict(fmt.Sprintf("submit %s %v %d", id, k, b), s.Submit(id, k, b, grant(id)))
		case r < 32:
			// A fresh batch ID, or one that may collide: a batch ID
			// already used (live or completed), a client's own ID, or a
			// reservation's.
			var bid string
			switch c := rng.Intn(10); {
			case c < 6 || len(batchIDs) == 0:
				bid = fmt.Sprintf("b%d", nextBatch)
				nextBatch++
			case c < 8:
				bid = batchIDs[rng.Intn(len(batchIDs))]
			case c < 9:
				bid = client()
			default:
				bid = "persist:" + client()
			}
			batchIDs = append(batchIDs, bid)
			specs := make([]spec, 1+rng.Intn(4)) // duplicates arise: 10 clients
			for i := range specs {
				specs[i] = spec{client(), int64(rng.Intn(35)) + 1}
			}
			if rng.Intn(8) == 0 {
				specs[len(specs)-1].id = bid // a member named like its batch
			}
			batch := clients.batch(specs...)
			err := s.SubmitBatch(bid, kind(), batch, grant(bid))
			verdict(fmt.Sprintf("batch %s %v %v", bid, specs, err == nil), err)
			for _, m := range batch {
				var ov *OverloadError
				if errors.As(m.Err, &ov) && ov.State == StateThrottled {
					cov.throttledMembers++
				}
			}
			switch {
			case err == nil:
				cov.batches++
			case strings.Contains(fmt.Sprint(err), "appears twice"):
				cov.duplicates++
			case errors.Is(err, ErrOutstanding) && strings.Contains(err.Error(), fmt.Sprintf("%q (request %q", bid, bid)):
				cov.collisions++
			}
		case r < 38:
			id, b := "persist:"+client(), int64(rng.Intn(30))+1
			err := s.Reserve(id, b)
			if err == nil {
				cov.reserves++
			}
			verdict(fmt.Sprintf("reserve %s %d", id, b), err)
		case r < 46:
			id, b := recent(lastGrant), int64(rng.Intn(60))+1
			put("grow %s %d: %v\n", id, b, s.Grow(id, b))
		case r < 54:
			id := recent(lastGrant)
			lastPark = id
			put("park %s\n", id)
			s.Park(id, revoke(id))
			if rng.Intn(3) == 0 { // the backward arrives before anyone needs the bytes
				put("claim %s: %v\n", id, s.Claim(id))
			}
		case r < 60:
			id := recent(lastPark)
			put("claim %s: %v\n", id, s.Claim(id))
		default:
			var id string
			switch c := rng.Intn(10); {
			case c < 6:
				id = recent(lastGrant)
			case c < 8 && len(batchIDs) > 0:
				id = batchIDs[rng.Intn(len(batchIDs))]
			default:
				id = "persist:" + client()
			}
			put("complete %s: %d\n", id, s.Complete(id))
		}
		st := s.Stats()
		put("avail %d parked %d depth %d schedulable %d | %d %d %d %d %d %d %d %d %d\n",
			s.Available(), s.Parked(), s.QueueDepth(), s.Schedulable(),
			st.Submitted, st.Granted, st.Backfilled, st.Completed, st.Grown, st.Claimed,
			st.Revoked, st.Decisions, st.MaxQueueDepth)
	}

	cov.stats, cov.adm = s.Stats(), s.AdmissionStats()
	a := cov.adm
	put("admission %v %d %d %d %d %v\n", a.State, a.P99, a.Transitions, a.Shed, a.Deferred, s.AdmissionState())
	for _, u := range led.Snapshot() {
		put("ledger %+v\n", u)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "menos_sched_") {
			put("%s\n", line)
		}
	}
	return cov
}
