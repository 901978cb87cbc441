package data

import (
	"errors"
	"fmt"

	"menos/internal/tensor"
)

// ErrTooShort is returned when a token stream cannot fill one batch.
var ErrTooShort = errors.New("data: token stream too short for batch geometry")

// Loader samples next-token-prediction batches from a token stream:
// inputs are windows of the stream, targets the same windows shifted by
// one.
type Loader struct {
	tokens []int
	batch  int
	seq    int
	rng    *tensor.RNG
}

// NewLoader builds a loader over tokens. Sampling is deterministic for
// a given seed.
func NewLoader(tokens []int, batch, seq int, seed uint64) (*Loader, error) {
	if batch <= 0 || seq <= 0 {
		return nil, fmt.Errorf("data: bad geometry batch=%d seq=%d", batch, seq)
	}
	if len(tokens) < seq+2 {
		return nil, fmt.Errorf("%w: %d tokens for seq %d", ErrTooShort, len(tokens), seq)
	}
	return &Loader{
		tokens: tokens,
		batch:  batch,
		seq:    seq,
		rng:    tensor.NewRNG(seed),
	}, nil
}

// Next returns one batch: ids and next-token targets, each of length
// batch×seq, row-major by batch element.
func (l *Loader) Next() (ids, targets []int) {
	n := l.batch * l.seq
	ids = make([]int, 0, n)
	targets = make([]int, 0, n)
	maxStart := len(l.tokens) - l.seq - 1
	for b := 0; b < l.batch; b++ {
		start := l.rng.Intn(maxStart)
		ids = append(ids, l.tokens[start:start+l.seq]...)
		targets = append(targets, l.tokens[start+1:start+l.seq+1]...)
	}
	return ids, targets
}

// Partition splits a token stream into n contiguous shards, one per
// client, so each client fine-tunes on its own private data.
func Partition(tokens []int, n int) ([][]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("data: partition into %d shards", n)
	}
	if len(tokens) < n {
		return nil, fmt.Errorf("%w: %d tokens into %d shards", ErrTooShort, len(tokens), n)
	}
	shards := make([][]int, n)
	size := len(tokens) / n
	for i := 0; i < n; i++ {
		lo := i * size
		hi := lo + size
		if i == n-1 {
			hi = len(tokens)
		}
		shards[i] = tokens[lo:hi]
	}
	return shards, nil
}
