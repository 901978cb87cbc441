// Batch-aware grants: a batch former (batch.Former, driven by
// batch.Engine for the TCP server and by splitsim's batcher in virtual
// time) coalesces several clients' compatible forward/backward requests
// and submits them as ONE aggregate scheduling request, so the whole
// batch is granted — and its kernel launched — atomically. SubmitBatch
// only resolves the member list, through the members' enrollment
// handles: admission, queueing, granting and billing are the
// scheduler's one path (scheduler.go), where every request carries
// members and a plain Submit is the one-member case, so every member is
// admitted on its own parity, billed its own byte share and grant wait,
// and the labeled families still sum back to the aggregate
// (docs/OBSERVABILITY.md).
package sched

import (
	"fmt"
	"time"
)

// BatchPolicy configures cross-client batch formation
// (docs/BATCHING.md). The zero value disables batching entirely.
type BatchPolicy struct {
	// MaxSize is the most member requests one batch may carry. 1 is
	// the degenerate "serial" policy — batches always hold a single
	// client — which is the baseline the multilora sweep compares
	// against. 0 disables batching.
	MaxSize int
	// MaxHold bounds how long the first member of a partial batch
	// waits for company before the batch dispatches anyway. Zero
	// means DefaultMaxHold.
	MaxHold time.Duration
}

// DefaultMaxHold is the hold-time knob's default: long enough for
// lockstep clients to coalesce, short enough to be invisible next to a
// training step.
const DefaultMaxHold = 2 * time.Millisecond

// Enabled reports whether this policy activates batch formation.
func (p BatchPolicy) Enabled() bool { return p.MaxSize > 0 }

// WithDefaults fills unset knobs.
func (p BatchPolicy) WithDefaults() BatchPolicy {
	if p.MaxHold <= 0 {
		p.MaxHold = DefaultMaxHold
	}
	return p
}

// Validate rejects nonsensical policies.
func (p BatchPolicy) Validate() error {
	if p.MaxSize < 0 {
		return fmt.Errorf("sched: batch MaxSize %d < 0", p.MaxSize)
	}
	if p.MaxHold < 0 {
		return fmt.Errorf("sched: batch MaxHold %v < 0", p.MaxHold)
	}
	return nil
}

// BatchMember is one client's share of an aggregate batch request:
// the client by its enrollment handle (Scheduler.Enroll), the bytes
// billed to it, and what admission control dealt it.
type BatchMember struct {
	Client Handle
	Bytes  int64
	// Err is SubmitBatch's verdict on this member alone: the
	// *OverloadError admission control shed it with, exactly as a
	// submission of its own would have been shed, or nil. A shed member
	// is not in the batch.
	Err error
}

// SubmitBatch registers one aggregate request for Σ member bytes under
// batchID; grant is invoked (possibly synchronously, under no lock)
// when the whole batch is scheduled. Each member is billed its own
// Bytes and its own grant wait in the ledger, and each member counts
// as one observation in the unlabeled wait histogram, so per-client
// series still sum to the aggregate. Until Complete(batchID), members
// may not hold or queue a request of their own nor ride another batch
// (a reservation is no request). A member whose handle is not enrolled
// in s is refused like a member named twice.
//
// Admission control decides each member on its own record's parity, as
// a serial submission: a member it sheds gets that shed in its Err, is
// billed the shed alone, and leaves the batch, which goes ahead with the
// others and their bytes. If it sheds every member, nothing is queued
// and SubmitBatch returns the shed too.
func (s *Scheduler) SubmitBatch(batchID string, kind RequestKind, members []BatchMember, grant func()) error {
	if len(members) == 0 {
		return fmt.Errorf("sched: batch %q has no members", batchID)
	}
	for i := range members {
		if members[i].Err != nil { // a caller's list reused from an earlier call
			members[i].Err = nil
		}
	}
	s.mu.Lock()
	req := s.requestLocked(kind, grant)
	// A member named twice or not enrolled is refused before anything
	// else, and is not counted as a rejected submission.
	if err := s.resolveBatchLocked(req, batchID, members); err != nil {
		s.freeRequestLocked(req)
		s.mu.Unlock()
		return err
	}
	return s.submitLocked(req, members)
}
