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
// (traceCoverage.throttledMembers). All twelve were re-recorded once
// more when a client's calls moved onto its enrollment handle and its
// reservation onto its record: the programs name clients by handle,
// release a reservation with Forget instead of a Complete on a second
// identity, no longer collide a batch ID with a reservation, no longer
// grow, park or claim a batch by its batch ID, and run eight seeds
// instead of four. The same programs, each handle call spelled as the
// string call it replaces, reproduce these digests on the string-keyed
// scheduler.
var schedTracePins = map[string]string{
	"fcfs+backfill/admission=false/ledger=false":  "87f752e3faf2109e56c11bedc893067d428c7e14e0d9ee1acc4b9b82e6a23345",
	"fcfs+backfill/admission=false/ledger=true":   "f67dae32b3f2521117a2515be3497f92a2a78f669cd7d433711cded471ed39e7",
	"fcfs+backfill/admission=true/ledger=false":   "b5eb16cb8228631434514d80640121cfd2ddb0726217041e196cdfc1150e8ceb",
	"fcfs+backfill/admission=true/ledger=true":    "ef2973e38db74708ff0a9318d364580ee870bddc3e9adc0255cb1ed77dcbda0e",
	"fcfs/admission=false/ledger=false":           "37e7d74ce0b4f057d9036a2f270f0ac0c5f3341dc535794f6945688d49a90512",
	"fcfs/admission=false/ledger=true":            "a45545ea497d4e8e2ba40333210480d2b28cc5f56f8fed869251e91c885c39cf",
	"fcfs/admission=true/ledger=false":            "e069b3f727b1ac27ed97474ec85e28904473d2af1dccaa01a959fcae313c0b69",
	"fcfs/admission=true/ledger=true":             "9cd25f97bf3e6dd5987e256c47806ec108fe2c80cc8b2f44a02fbd403ee36f80",
	"smallest-first/admission=false/ledger=false": "61b5ac67855d3b2aaab5755ea099c8aeddc36a3032656e10e9228eb641f50007",
	"smallest-first/admission=false/ledger=true":  "4e85cf154ac4d0117f9527ef394b33305492d9b4e87f19bf550ce3647609fb14",
	"smallest-first/admission=true/ledger=false":  "56e92ff8ee1dfd7a2395d43a3f295d334003f46424a5f8d120084c6d83be61ad",
	"smallest-first/admission=true/ledger=true":   "1cb78efcc9ed154fad5a9bbd7c047222aff63777a9dbf84990a1c7ca4ba98c1b",
}

// TestSchedulerTraceIsPinned runs seeded random programs of every
// scheduler entry point — a client's Submit, Reserve, Grow, Park, Claim,
// Complete and Forget through its handle (each client enrolls at its
// first call), SubmitBatch (duplicate members, batch IDs that collide
// with live identities), a batch's Complete by its ID, revocation and
// Close, with oversized requests among them — and hashes what each call
// shows: its error (sentinel and text), every grant and revocation in
// the order they fire, Stats, Available, Parked, QueueDepth and
// Schedulable after it, and at the end the admission stats, the ledger
// rows and every menos_sched_* sample.
func TestSchedulerTraceIsPinned(t *testing.T) {
	for _, policy := range []Policy{PolicyFCFSBackfill, PolicyFCFS, PolicySmallestFirst} {
		for _, admission := range []bool{false, true} {
			for _, ledger := range []bool{false, true} {
				name := fmt.Sprintf("%v/admission=%v/ledger=%v", policy, admission, ledger)
				h := sha256.New()
				var seen traceCoverage
				for seed := int64(1); seed <= 8; seed++ {
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
	released    int // Forget calls that released a reservation
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
	c.released += o.released
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
		"reservations freed": int64(c.released),
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
	// the time: a random client rarely holds one. Grow, Park and Claim
	// name a client, whose grant is plain; Complete names a batch by its
	// batch ID, which no handle names.
	var lastGrant, lastPlain, lastPark string
	lastIsBatch := false
	grant := func(id string) func() {
		return func() {
			put("grant %s\n", id)
			lastGrant, lastPlain, lastIsBatch = id, id, false
		}
	}
	batchGrant := func(id string) func() {
		return func() {
			put("grant %s\n", id)
			lastGrant, lastIsBatch = id, true
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
	clients := newRoster(s) // a client enrolls at its first call or batch
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
			verdict(fmt.Sprintf("submit %s %v %d", id, k, b), clients.handle(id).Submit(k, b, grant(id)))
		case r < 32:
			// A fresh batch ID, or one that may collide: a batch ID
			// already used (live or completed) or a client's own ID.
			var bid string
			switch c := rng.Intn(10); {
			case c < 6 || len(batchIDs) == 0:
				bid = fmt.Sprintf("b%d", nextBatch)
				nextBatch++
			case c < 8:
				bid = batchIDs[rng.Intn(len(batchIDs))]
			default:
				bid = client()
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
			err := s.SubmitBatch(bid, kind(), batch, batchGrant(bid))
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
			id, b := client(), int64(rng.Intn(30))+1
			err := clients.handle(id).Reserve(b)
			if err == nil {
				cov.reserves++
			}
			verdict(fmt.Sprintf("reserve %s %d", id, b), err)
		case r < 46:
			id, b := recent(lastPlain), int64(rng.Intn(60))+1
			put("grow %s %d: %v\n", id, b, clients.handle(id).Grow(b))
		case r < 54:
			id := recent(lastPlain)
			lastPark = id
			put("park %s\n", id)
			h := clients.handle(id)
			h.Park(revoke(id))
			if rng.Intn(3) == 0 { // the backward arrives before anyone needs the bytes
				put("claim %s: %v\n", id, h.Claim())
			}
		case r < 60:
			id := recent(lastPark)
			put("claim %s: %v\n", id, clients.handle(id).Claim())
		default:
			switch c := rng.Intn(10); {
			case c < 6:
				id := recent(lastGrant)
				if lastIsBatch && id == lastGrant {
					put("complete %s: %d\n", id, s.Complete(id))
				} else {
					put("complete %s: %d\n", id, clients.handle(id).Complete())
				}
			case c < 8 && len(batchIDs) > 0:
				id := batchIDs[rng.Intn(len(batchIDs))]
				put("complete %s: %d\n", id, s.Complete(id))
			default:
				// The client leaves: its grant and reservation go back, and
				// it enrolls anew at its next call.
				id := client()
				schedulable := s.Schedulable()
				put("forget %s\n", id)
				clients.forget(id)
				if s.Schedulable() > schedulable {
					cov.released++
				}
			}
		}
		st := s.Stats()
		put("avail %d parked %d depth %d schedulable %d | %d %d %d %d %d %d %d %d %d\n",
			s.Available(), s.Parked(), s.QueueDepth(), s.Schedulable(),
			st.Submitted, st.Granted, st.Backfilled, st.Completed, st.Grown, st.Claimed,
			st.Revoked, st.Decisions, st.MaxQueueDepth)
	}

	cov.stats, cov.adm = s.Stats(), s.AdmissionStats()
	a := cov.adm
	put("admission %v %d %d %d %d %v\n", a.State, a.P99, a.Transitions, a.Shed, a.Deferred, s.Load().Admission)
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
