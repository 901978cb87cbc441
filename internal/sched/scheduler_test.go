package sched

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// collector records grant order.
type collector struct {
	mu    sync.Mutex
	order []string
}

func (c *collector) grant(id string) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.order = append(c.order, id)
	}
}

func (c *collector) got() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

func TestImmediateGrantWhenMemoryAvailable(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	if err := s.Submit("a", KindForward, 40, c.grant("a")); err != nil {
		t.Fatal(err)
	}
	if got := c.got(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("order = %v", got)
	}
	if s.Available() != 60 || allocated(s, "a") != 40 {
		t.Fatalf("avail %d alloc %d", s.Available(), allocated(s, "a"))
	}
}

func TestCompleteReclaimsAndSchedules(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	mustSubmit(t, s, "a", KindBackward, 80, c.grant("a"))
	mustSubmit(t, s, "b", KindBackward, 80, c.grant("b"))
	if got := c.got(); len(got) != 1 {
		t.Fatalf("b granted early: %v", got)
	}
	if s.QueueDepth() != 1 {
		t.Fatalf("queue depth %d", s.QueueDepth())
	}
	if reclaimed := s.Complete("a"); reclaimed != 80 {
		t.Fatalf("reclaimed %d", reclaimed)
	}
	if got := c.got(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("order = %v", got)
	}
	// Completing a client with no allocation reclaims nothing.
	if reclaimed := s.Complete("zzz"); reclaimed != 0 {
		t.Fatalf("phantom reclaim %d", reclaimed)
	}
}

// TestBackfilling is the core §4.2 behaviour: a blocked large head
// does not prevent later small requests from running, but the head
// retains priority (FCFS fairness).
func TestBackfilling(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	mustSubmit(t, s, "big1", KindBackward, 70, c.grant("big1"))
	mustSubmit(t, s, "big2", KindBackward, 70, c.grant("big2")) // blocked head
	mustSubmit(t, s, "small", KindForward, 20, c.grant("small"))
	// small fits in the 30 left over while big2 waits.
	got := c.got()
	if len(got) != 2 || got[1] != "small" {
		t.Fatalf("order = %v, want backfilled small", got)
	}
	st := s.Stats()
	if st.Backfilled != 1 {
		t.Fatalf("backfilled = %d", st.Backfilled)
	}
	// When big1 finishes, the head (big2) is preferred over new small
	// requests...
	s.Complete("big1")
	got = c.got()
	if len(got) != 3 || got[2] != "big2" {
		t.Fatalf("order = %v, want big2 after completion", got)
	}
}

// TestFCFSHeadNotStarved: under backfill, small requests keep flowing,
// but the blocked head is granted as soon as memory allows — it is
// never bypassed at equal opportunity.
func TestFCFSHeadNotStarved(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	mustSubmit(t, s, "hold", KindBackward, 90, c.grant("hold"))
	mustSubmit(t, s, "bigHead", KindBackward, 90, c.grant("bigHead"))
	// A stream of small requests backfills into the 10 free bytes.
	mustSubmit(t, s, "s1", KindForward, 10, c.grant("s1"))
	mustSubmit(t, s, "s2", KindForward, 10, c.grant("s2")) // queued: no room
	// hold finishes: the head must get the memory even though s2 fits.
	s.Complete("hold")
	got := c.got()
	// After completion 90+? avail = 90 (s1 still holds 10)... wait:
	// avail after hold completes = 100-10(s1) = 90 == bigHead demand.
	if got[len(got)-1] != "bigHead" {
		t.Fatalf("order = %v, head starved", got)
	}
	for _, id := range got {
		if id == "s2" {
			t.Fatalf("s2 bypassed the head: %v", got)
		}
	}
}

func TestPureFCFSBlocksEverything(t *testing.T) {
	s := New(100, PolicyFCFS)
	var c collector
	mustSubmit(t, s, "big1", KindBackward, 70, c.grant("big1"))
	mustSubmit(t, s, "big2", KindBackward, 70, c.grant("big2"))
	mustSubmit(t, s, "small", KindForward, 10, c.grant("small"))
	// Strict FCFS: small waits behind big2 even though it fits.
	if got := c.got(); len(got) != 1 {
		t.Fatalf("order = %v, strict FCFS violated", got)
	}
}

func TestSmallestFirstCanStarveLarge(t *testing.T) {
	s := New(100, PolicySmallestFirst)
	var c collector
	mustSubmit(t, s, "big", KindBackward, 80, c.grant("big"))
	s.Complete("big") // leave empty
	mustSubmit(t, s, "holder", KindForward, 50, c.grant("holder"))
	mustSubmit(t, s, "bigQ", KindBackward, 80, c.grant("bigQ"))
	mustSubmit(t, s, "tiny", KindForward, 30, c.grant("tiny"))
	// Smallest-first grants tiny ahead of bigQ.
	got := c.got()
	if got[len(got)-1] != "tiny" {
		t.Fatalf("order = %v, want tiny granted before bigQ", got)
	}
}

func TestNeverFitsRejected(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	err := s.Submit("a", KindBackward, 101, func() {})
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateOutstandingRejected(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	mustSubmit(t, s, "a", KindForward, 90, c.grant("a"))
	// a holds memory: second submit rejected.
	if err := s.Submit("a", KindBackward, 10, func() {}); !errors.Is(err, ErrOutstanding) {
		t.Fatalf("err = %v", err)
	}
	mustSubmit(t, s, "b", KindBackward, 90, c.grant("b")) // queued
	if err := s.Submit("b", KindForward, 10, func() {}); !errors.Is(err, ErrOutstanding) {
		t.Fatalf("queued duplicate err = %v", err)
	}
}

func TestClosedScheduler(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	s.Close()
	if err := s.Submit("a", KindForward, 1, func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsAccounting(t *testing.T) {
	s := New(100, PolicyFCFSBackfill)
	var c collector
	mustSubmit(t, s, "a", KindForward, 60, c.grant("a"))
	mustSubmit(t, s, "b", KindForward, 60, c.grant("b"))
	mustSubmit(t, s, "c", KindForward, 30, c.grant("c"))
	s.Complete("a")
	st := s.Stats()
	if st.Submitted != 3 || st.Granted != 3 || st.Completed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Decisions == 0 || st.MaxQueueDepth < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKindAndPolicyStrings(t *testing.T) {
	if KindForward.String() != "forward" || KindBackward.String() != "backward" {
		t.Fatal("kind strings")
	}
	if PolicyFCFSBackfill.String() != "fcfs+backfill" || PolicyFCFS.String() != "fcfs" ||
		PolicySmallestFirst.String() != "smallest-first" {
		t.Fatal("policy strings")
	}
	if RequestKind(0).String() == "" || Policy(0).String() == "" {
		t.Fatal("unknown strings")
	}
}

// Property: the scheduler never over-commits memory and conserves the
// total, across random submit/complete interleavings and policies.
func TestNoOvercommitProperty(t *testing.T) {
	f := func(ops []uint16, policySeed uint8) bool {
		policies := []Policy{PolicyFCFSBackfill, PolicyFCFS, PolicySmallestFirst}
		policy := policies[int(policySeed)%len(policies)]
		const total = 100
		s := New(total, policy)
		granted := make(map[string]bool)
		var mu sync.Mutex
		nextID := 0
		live := []string{}
		for _, op := range ops {
			if op%4 == 0 && len(live) > 0 {
				i := int(op/4) % len(live)
				s.Complete(live[i])
				live = append(live[:i], live[i+1:]...)
			} else {
				id := string(rune('A' + nextID%50))
				nextID++
				bytes := int64(op%60) + 1
				kind := KindForward
				if op%2 == 0 {
					kind = KindBackward
				}
				err := s.Submit(id, kind, bytes, func() {
					mu.Lock()
					granted[id] = true
					mu.Unlock()
				})
				if err != nil {
					continue
				}
				live = append(live, id)
			}
			// Invariant: avail in [0, total], and allocated sum + avail == total.
			avail := s.Available()
			if avail < 0 || avail > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: with FCFS+backfill, a granted backfill never exceeds what
// the head left over — i.e. granting never makes avail negative.
func TestBackfillNeverOverflowsProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		const total = 128
		s := New(total, PolicyFCFSBackfill)
		for i, raw := range sizes {
			bytes := int64(raw%100) + 1
			id := string(rune('a'+i%26)) + string(rune('0'+i/26%10))
			_ = s.Submit(id, KindBackward, bytes, func() {})
			if s.Available() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSubmitComplete(t *testing.T) {
	s := New(1000, PolicyFCFSBackfill)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := string(rune('a'+base)) + string(rune('0'+i%10))
				done := make(chan struct{})
				err := s.Submit(id, KindForward, 100, func() { close(done) })
				if err != nil {
					continue
				}
				<-done
				s.Complete(id)
			}
		}(g)
	}
	wg.Wait()
	if s.Available() != 1000 {
		t.Fatalf("leaked memory: avail = %d", s.Available())
	}
}

func mustSubmit(t *testing.T, s *Scheduler, id string, kind RequestKind, bytes int64, grant func()) {
	t.Helper()
	if err := s.Submit(id, kind, bytes, grant); err != nil {
		t.Fatal(err)
	}
}

func mustEnroll(t testing.TB, s *Scheduler, id string) Handle {
	t.Helper()
	h, err := s.Enroll(id)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// allocated returns the bytes currently granted to clientID.
func allocated(s *Scheduler, clientID string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := alloc(s.lookupLocked(clientID)); r != nil {
		return r.bytes
	}
	return 0
}

// TestWithdrawLeavesTheQueueUngranted: a withdrawn request, plain or a
// batch under its batch ID, leaves the queue and its grant never fires,
// and the requests it held up are scheduled at once. A granted request,
// a batch member's own ID and an unknown ID withdraw nothing.
func TestWithdrawLeavesTheQueueUngranted(t *testing.T) {
	s := New(100, PolicyFCFS)
	var c collector
	mustSubmit(t, s, "hog", KindBackward, 60, c.grant("hog"))
	mustSubmit(t, s, "big", KindBackward, 50, c.grant("big"))
	r := newRoster(s)
	if err := s.SubmitBatch("b1", KindForward, r.batch(spec{"m1", 10}, spec{"m2", 10}), c.grant("b1")); err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, s, "small", KindForward, 10, c.grant("small"))
	for _, id := range []string{"hog", "m1", "nobody"} {
		if s.Withdraw(id) {
			t.Errorf("Withdraw(%q) = true, want false", id)
		}
	}
	// The FCFS head goes: the batch and the small request behind it fit.
	if !s.Withdraw("big") {
		t.Fatal("Withdraw(big) = false for a queued request")
	}
	if got := c.got(); !slices.Equal(got, []string{"hog", "b1", "small"}) {
		t.Fatalf("grants %v, want [hog b1 small]", got)
	}
	mustSubmit(t, s, "b2", KindForward, 30, c.grant("b2"))
	if err := s.SubmitBatch("b3", KindForward, r.batch(spec{"m3", 5}), c.grant("b3")); err != nil {
		t.Fatal(err)
	}
	if !s.Withdraw("b3") || s.Withdraw("b3") {
		t.Fatal("a queued batch is withdrawn once, under its batch ID")
	}
	s.Complete("hog")
	if got := c.got(); !slices.Equal(got, []string{"hog", "b1", "small", "b2"}) {
		t.Fatalf("grants %v after the hog completed, want b2 alone added", got)
	}
	if s.QueueDepth() != 0 || allocated(s, "big") != 0 {
		t.Fatalf("queue depth %d, big holds %d: the withdrawn requests stayed", s.QueueDepth(), allocated(s, "big"))
	}
	// A withdrawn client submits again as usual.
	mustSubmit(t, s, "big", KindBackward, 50, c.grant("big"))
}
