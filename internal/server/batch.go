// Batched serving (docs/BATCHING.md): compatible forward/backward
// requests from concurrently connected clients coalesce — through the
// internal/batch formation engine — into ONE batched kernel invocation
// over the shared frozen base, with per-row adapter dispatch
// (adapter.MultiLoRALinear). The batch is granted atomically by the
// scheduler (SubmitBatch), each member is billed its own bytes, grant
// wait and compute share, and the math is bit-identical to serving the
// members one at a time (pinned by TestBatchedServerBitIdentical and,
// at the model layer, the multilora adapter tests). Server.run routes a
// request here only while another request waits for memory.
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
// implemented for LoRA only.
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
// A member admission control sheds gets its shed in its Err and is
// released at the submission, before the others wait for their grant;
// when it sheds them all, every member gets the shed. Either way the
// shed flows back through the serving loop's retryable path, so sessions
// survive sheds exactly as they do on the serial path, and the batch
// runs with the others.
func (s *Server) execBatch(key batch.Key, items []*batch.Item) {
	works := make([]*phaseWork, len(items))
	members := make([]sched.BatchMember, len(items))
	for i, it := range items {
		w := it.Payload.(*phaseWork)
		works[i] = w
		members[i] = sched.BatchMember{Client: w.sess.handle, Bytes: it.Bytes}
	}
	batchID := fmt.Sprintf("batch-%d", s.batchSeq.Add(1))
	fail := func(err error) {
		for _, it := range items {
			it.Err = err
		}
	}
	shed := func(i int) {
		items[i].Err = members[i].Err
		items[i].Release()
	}
	if err := s.acquire(key.Kind, batchID, members, shed, works...); err != nil {
		fail(err)
		return
	}
	defer s.scheduler.Complete(batchID)
	// The members left run. The engine still reads every item it
	// dispatched, so they are gathered afresh rather than compacted in
	// place.
	ran := make([]*batch.Item, 0, len(items))
	works = works[:0]
	for i, it := range items {
		if members[i].Err == nil {
			ran = append(ran, it)
			works = append(works, it.Payload.(*phaseWork))
		}
	}
	items = ran

	_, span := key.Kind.Spans()
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
		s.cfg.Tracer.RecordT(works[i].sess.id, span, works[i].traceID, tStart, share)
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
	// The clone shares the frozen base parameters with every serial
	// instance, and the shared base's operators and arena with every
	// batch; only the wrapper layers holding the members' adapter
	// segments are fresh. A member's results come from this arena too,
	// and go back to it from the member's session.
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
		return s.splitResults(works, rows, ys)
	}
	// Backward: re-forward the stacked cached inputs with gradient
	// preparation, then one stacked backward. Gradients accumulate into
	// each member's own adapter params — the injected segments reference
	// them directly, so there is nothing to copy back.
	ys, cache, err := body.Forward(stacked, totalBatch, key.Seq, true)
	if err != nil {
		return err
	}
	s.scratch().Put(ys) // only the cache is needed
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
	return s.splitResults(works, rows, dx)
}

// splitResults copies each member its consecutive row span of the
// stacked result into a tensor of its own from the arena, as the serial
// executors hand one over, and returns the stack to the arena.
func (s *Server) splitResults(works []*phaseWork, rows []int, out *tensor.Tensor) error {
	sc := s.scratch()
	defer sc.Put(out)
	lo := 0
	for i, w := range works {
		hi := lo + rows[i]
		part, err := out.Slice2D(lo, hi)
		if err != nil {
			return fmt.Errorf("slicing member %q result: %w", w.sess.id, err)
		}
		w.out = sc.GetUninit(part.Shape()...)
		copy(w.out.Data(), part.Data())
		lo = hi
	}
	return nil
}
