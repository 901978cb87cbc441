// Batched serving (docs/BATCHING.md): compatible forward/backward
// requests from concurrently connected clients coalesce — through the
// internal/batch formation engine — into ONE batched kernel invocation
// over the shared frozen base, with per-row adapter dispatch
// (adapter.MultiLoRALinear). The batch is granted atomically by the
// scheduler (SubmitBatch), each member is billed its own bytes, grant
// wait and compute share, and the math is bit-identical to serving the
// members one at a time (pinned by TestBatchedServerBitIdentical and,
// at the model layer, the multilora adapter tests).
package server

import (
	"fmt"
	"strings"
	"time"

	"menos/internal/adapter"
	"menos/internal/batch"
	"menos/internal/model"
	"menos/internal/sched"
	"menos/internal/tensor"
)

// batchable reports whether a session's requests may join batches:
// batching re-injects the session's adapter layers per-row, which is
// implemented for LoRA only. A batchable session never keeps its
// activations: its forward is a stacked no-grad pass, and the backward
// group need not be the forward group.
func (s *Server) batchable(sess *session) (*adapter.LoRAAdapter, bool) {
	if s.engine == nil {
		return nil, false
	}
	la, ok := sess.inst.Adapter().(*adapter.LoRAAdapter)
	return la, ok
}

// batchKey is the compatibility class of one request: members must
// share the stacked-tensor shape (cut point, sequence length), the
// phase, and the ordered injection-target list so their per-block layer
// lists align segment-for-segment. Ranks may differ freely — per-row
// dispatch keeps each member's own A/B factors.
func batchKey(sess *session, la *adapter.LoRAAdapter, kind sched.RequestKind, seq int) batch.Key {
	parts := make([]string, len(la.Config.Targets))
	for i, t := range la.Config.Targets {
		parts[i] = t.String()
	}
	return batch.Key{Cut: sess.inst.Cut, Seq: seq, Kind: kind, Sig: strings.Join(parts, ",")}
}

// execBatch runs one formed batch: acquire the aggregate grant, build
// a multi-adapter body over a pristine clone of the shared blocks,
// stack the members' rows, run one invocation, slice results back out.
// A scheduler rejection (overload shed) lands in every member's Err and
// flows back through the serving loop's retryable path, so sessions
// survive sheds exactly as they do on the serial path.
func (s *Server) execBatch(key batch.Key, items []*batch.Item) {
	fail := func(err error) {
		for _, it := range items {
			it.Err = err
		}
	}
	works := make([]*phaseWork, len(items))
	for i, it := range items {
		works[i] = it.Payload.(*phaseWork)
	}
	batchID := fmt.Sprintf("batch-%d", s.batchSeq.Add(1))
	if err := s.acquire(key.Kind, batchID, works...); err != nil {
		fail(err)
		return
	}
	defer s.scheduler.Complete(batchID)

	name := "forward"
	if key.Kind == sched.KindBackward {
		name = "backward"
	}
	tStart := s.cfg.Tracer.Now()
	compStart := time.Now()
	if err := s.runBatched(key, works); err != nil {
		fail(err)
		return
	}
	comp := time.Since(compStart)
	// Bill each member its token-row share of the one invocation, the
	// remainder to the last member so Σ shares is exactly comp — the
	// conservation contract: per-client compute summed across members
	// equals the device time the batch actually spent.
	var totalRows int
	for _, it := range items {
		totalRows += it.Rows
	}
	var billed time.Duration
	for i, it := range items {
		share := comp
		if i < len(items)-1 {
			share = time.Duration(float64(comp) * float64(it.Rows) / float64(totalRows))
		} else {
			share = comp - billed
		}
		billed += share
		works[i].comp = share
		s.cfg.Tracer.RecordT(works[i].sess.id, name, "compute", works[i].traceID, tStart, share)
	}
}

// runBatched executes the stacked model pass for one granted batch.
func (s *Server) runBatched(key batch.Key, works []*phaseWork) error {
	memberLayers := make([][]*adapter.LoRALinear, len(works))
	rows := make([]int, len(works))
	inputs := make([]*tensor.Tensor, len(works))
	var targets []adapter.Target
	totalBatch := 0
	for i, w := range works {
		la, ok := w.sess.inst.Adapter().(*adapter.LoRAAdapter)
		if !ok {
			return fmt.Errorf("batched member %q without a LoRA adapter", w.sess.id)
		}
		if i == 0 {
			targets = la.Config.Targets
		}
		memberLayers[i] = la.Layers()
		rows[i] = w.batch * w.seq
		totalBatch += w.batch
		if key.Kind == sched.KindForward {
			inputs[i] = w.x
		} else {
			inputs[i] = w.sess.cachedInput
			if inputs[i] == nil {
				return fmt.Errorf("member %q: backward before forward", w.sess.id)
			}
		}
	}
	// The clone shares the frozen base parameters (and the mutex-guarded
	// scratch arena) with every serial instance; only the wrapper layers
	// holding the members' adapter segments are fresh.
	blocks := model.ShallowCloneBlocks(s.store.Master().Blocks[key.Cut:])
	if _, err := adapter.InjectMultiLoRA(blocks, targets, memberLayers, rows); err != nil {
		return fmt.Errorf("multi-adapter injection: %w", err)
	}
	body := model.Body(blocks)
	stacked, err := tensor.StackRows(inputs)
	if err != nil {
		return fmt.Errorf("stacking member inputs: %w", err)
	}

	if key.Kind == sched.KindForward {
		// Fig. 3(d) first forward: no-grad, one pass over the stack.
		ys, _, err := body.Forward(stacked, totalBatch, key.Seq, false)
		if err != nil {
			return err
		}
		return sliceResults(works, rows, ys)
	}
	// Backward: re-forward the stacked cached inputs with gradient
	// preparation, then one stacked backward. Gradients accumulate into
	// each member's own adapter params — the injected segments reference
	// them directly, so there is nothing to copy back.
	_, cache, err := body.Forward(stacked, totalBatch, key.Seq, true)
	if err != nil {
		return err
	}
	grads := make([]*tensor.Tensor, len(works))
	for i, w := range works {
		grads[i] = w.x
	}
	dyStack, err := tensor.StackRows(grads)
	if err != nil {
		return fmt.Errorf("stacking member gradients: %w", err)
	}
	dx, err := body.Backward(cache, dyStack)
	if err != nil {
		return err
	}
	return sliceResults(works, rows, dx)
}

// sliceResults hands each member its consecutive row span of the
// stacked result (views share storage; the protocol writer copies).
func sliceResults(works []*phaseWork, rows []int, out *tensor.Tensor) error {
	lo := 0
	for i, w := range works {
		hi := lo + rows[i]
		part, err := out.Slice2D(lo, hi)
		if err != nil {
			return fmt.Errorf("slicing member %q result: %w", w.sess.id, err)
		}
		w.out = part
		lo = hi
	}
	return nil
}
