// Package share implements the base-model sharing mechanism of §3.1:
// a single copy of the base parameters lives in a Store, and each
// client receives an Instance — a private structural view over the
// shared parameters that can be cropped at the client's cut layer and
// customized with the client's adapter, without duplicating the base
// model.
package share

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"menos/internal/adapter"
	"menos/internal/model"
	"menos/internal/nn"
	"menos/internal/tensor"
)

// Errors reported by the store.
var (
	ErrReleased  = errors.New("share: instance already released")
	ErrCorrupted = errors.New("share: shared base parameters were modified")
)

// Store holds the single shared copy of a base model. The master model
// is frozen on construction: its parameters are read-only for the
// store's whole lifetime, which is what makes concurrent sharing safe.
type Store struct {
	cfg    model.Config
	master *model.Transformer

	mu        sync.Mutex
	instances map[string]*Instance
	nextSeq   int

	checksum uint64
}

// NewStore builds the base model once (the paper's "preloaded into GPU
// memory in advance") and freezes it.
func NewStore(rng *tensor.RNG, cfg model.Config) (*Store, error) {
	m, err := model.New(rng, cfg)
	if err != nil {
		return nil, fmt.Errorf("share: build master: %w", err)
	}
	return NewStoreFromModel(m)
}

// NewStoreFromModel wraps an existing model as the shared base. The
// model is frozen; callers must not mutate its parameters afterwards.
func NewStoreFromModel(m *model.Transformer) (*Store, error) {
	m.SetFrozenBase(true)
	s := &Store{
		cfg:       m.Cfg,
		master:    m,
		instances: make(map[string]*Instance),
	}
	s.checksum = s.computeChecksum()
	return s, nil
}

// Config returns the base model's configuration.
func (s *Store) Config() model.Config { return s.cfg }

// Master exposes the underlying shared model (read-only use: the input
// and output sections of a locally simulated client, tests).
func (s *Store) Master() *model.Transformer { return s.master }

// BaseParamBytes returns the byte footprint of the shared parameters
// (the 𝕄 term): this is paid once regardless of client count.
func (s *Store) BaseParamBytes() int64 {
	return s.cfg.TotalParams() * 4
}

// ActiveInstances returns the number of live (unreleased) instances.
func (s *Store) ActiveInstances() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.instances)
}

// Instance is one client's structural view over the shared base: its
// own Block objects referencing the shared parameter tensors, cropped
// to the client's cut layer, with the client's private adapter
// attached.
type Instance struct {
	ClientID string
	Cut      int

	store    *Store
	blocks   []*model.Block
	body     *model.BodySection
	adapter  adapter.Adapter
	released bool
}

// NewInstance creates a per-client instance whose body covers blocks
// [cut, Layers). The id must be unique among live instances.
func (s *Store) NewInstance(clientID string, cut int) (*Instance, error) {
	if cut < 1 || cut >= s.cfg.Layers {
		return nil, fmt.Errorf("share: cut %d out of range [1,%d): %w",
			cut, s.cfg.Layers, model.ErrConfig)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.instances[clientID]; ok {
		return nil, fmt.Errorf("share: client %q already has a live instance", clientID)
	}
	inst := &Instance{
		ClientID: clientID,
		Cut:      cut,
		store:    s,
		blocks:   model.ShallowCloneBlocks(s.master.Blocks[cut:]),
	}
	inst.body = model.Body(inst.blocks)
	s.instances[clientID] = inst
	return inst, nil
}

// Body returns the instance's server-side section.
func (i *Instance) Body() *model.BodySection { return i.body }

// Blocks returns the instance's private structural blocks.
func (i *Instance) Blocks() []*model.Block { return i.blocks }

// AttachAdapter injects the client's adapter into this instance's
// structure. At most one adapter per instance.
func (i *Instance) AttachAdapter(rng *tensor.RNG, spec adapter.Spec) (adapter.Adapter, error) {
	if i.released {
		return nil, ErrReleased
	}
	if i.adapter != nil {
		return nil, fmt.Errorf("share: instance %q already has an adapter", i.ClientID)
	}
	ad, err := spec.Inject(rng, i.blocks, i.store.cfg.Dim)
	if err != nil {
		return nil, fmt.Errorf("share: attach adapter: %w", err)
	}
	i.adapter = ad
	return ad, nil
}

// Adapter returns the attached adapter, or nil.
func (i *Instance) Adapter() adapter.Adapter { return i.adapter }

// AdapterParams returns the instance's trainable parameters (φ_s).
func (i *Instance) AdapterParams() []nn.Param {
	if i.adapter == nil {
		return nil
	}
	return i.adapter.Params()
}

// Release detaches the adapter and returns the instance to the store.
// Releasing twice is an error.
func (i *Instance) Release() error {
	if i.released {
		return ErrReleased
	}
	if i.adapter != nil {
		i.adapter.Remove()
		i.adapter = nil
	}
	i.released = true
	i.store.mu.Lock()
	defer i.store.mu.Unlock()
	delete(i.store.instances, i.ClientID)
	return nil
}

// VerifyIntegrity recomputes the checksum over the shared base
// parameters and fails if any bit changed — the store's read-only
// contract. Menos servers call this periodically (and tests always) to
// prove that no client's fine-tuning touched the shared base.
func (s *Store) VerifyIntegrity() error {
	if got := s.computeChecksum(); got != s.checksum {
		return fmt.Errorf("%w: checksum %x != %x", ErrCorrupted, got, s.checksum)
	}
	return nil
}

// computeChecksum hashes every base parameter tensor.
func (s *Store) computeChecksum() uint64 {
	h := fnv.New64a()
	buf := make([]byte, 4)
	hashTensor := func(t *tensor.Tensor) {
		for _, v := range t.Data() {
			bits := math.Float32bits(v)
			buf[0] = byte(bits)
			buf[1] = byte(bits >> 8)
			buf[2] = byte(bits >> 16)
			buf[3] = byte(bits >> 24)
			h.Write(buf)
		}
	}
	m := s.master
	hashTensor(m.Embed.Table.Value)
	if m.Pos != nil {
		hashTensor(m.Pos.Table.Value)
	}
	// Hash block parameters via the frozen-state-independent listing:
	// temporarily unfreezing would race with concurrent use, so walk
	// the known structure instead.
	for _, b := range m.Blocks {
		for _, op := range []nn.Op{b.Norm1, b.Norm2, b.Attn.Q, b.Attn.K, b.Attn.V, b.Attn.O,
			b.FFN.Up, b.FFN.Down, b.FFN.Gate} {
			if op == nil {
				continue
			}
			switch l := op.(type) {
			case *nn.Linear:
				hashTensor(l.W.Value)
				if l.B.Value != nil {
					hashTensor(l.B.Value)
				}
			case *nn.LayerNorm:
				hashTensor(l.Gamma.Value)
				hashTensor(l.Beta.Value)
			case *nn.RMSNorm:
				hashTensor(l.Gamma.Value)
			}
		}
	}
	hashTensor(m.LMHead.W.Value)
	return h.Sum64()
}
