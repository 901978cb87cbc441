// Batch-aware grants: a batch former (batch.Former, driven by
// batch.Engine for the TCP server and by splitsim's batcher in virtual
// time) coalesces several clients' compatible forward/backward requests
// and submits them as ONE aggregate scheduling request, so the whole
// batch is granted — and its kernel launched — atomically. SubmitBatch
// only validates the member list: queueing, granting and billing are
// the scheduler's one path (scheduler.go), where every request carries
// members and a plain Submit is the one-member case, so every member is
// billed its own byte share and grant wait and the labeled families
// still sum back to the aggregate (docs/OBSERVABILITY.md).
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

// BatchMember is one client's share of an aggregate batch request.
type BatchMember struct {
	ClientID string
	Bytes    int64
}

// SubmitBatch registers one aggregate request for Σ member bytes under
// batchID; grant is invoked (possibly synchronously, under no lock)
// when the whole batch is scheduled. Each member is billed its own
// Bytes and its own grant wait in the ledger, and each member counts
// as one observation in the unlabeled wait histogram, so per-client
// series still sum to the aggregate. Until Complete(batchID), members
// may not hold or queue a request of their own nor ride another batch
// ("persist:"-prefixed reservations are separate identities and fine).
// Admission control treats the batch as one submission; a shed is
// billed to every member.
func (s *Scheduler) SubmitBatch(batchID string, kind RequestKind, members []BatchMember, grant func()) error {
	if len(members) == 0 {
		return fmt.Errorf("sched: batch %q has no members", batchID)
	}
	var total int64
	for _, m := range members {
		total += m.Bytes
	}
	return s.submit(&request{clientID: batchID, kind: kind, bytes: total, grant: grant, members: members}, true)
}
