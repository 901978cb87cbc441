package tensor

import "math"

// RNG is a small, deterministic pseudo-random number generator
// (xorshift64*). Every stochastic component in the repository draws
// from an explicitly seeded RNG so experiments are reproducible
// bit-for-bit; nothing uses global randomness.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because the xorshift state must be
// non-zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal sample using the Box-Muller
// transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Split derives an independent generator from r, advancing r. Useful
// for giving each layer its own stream without correlated values.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() | 1)
}

// FillNormal fills t with N(0, std²) samples.
//
// The loop draws from a local copy of r and stores the state back once
// at the end. Generators are 8-byte allocations, so those made one
// after another share a cache line, and goroutines filling tensors in
// parallel from them would otherwise contend for it on every draw.
func (t *Tensor) FillNormal(r *RNG, std float64) {
	local := *r
	for i := range t.data {
		t.data[i] = float32(local.NormFloat64() * std)
	}
	*r = local
}

// FillUniform fills t with uniform samples in [lo, hi).
func (t *Tensor) FillUniform(r *RNG, lo, hi float64) {
	for i := range t.data {
		t.data[i] = float32(lo + float64(r.Float64()*(hi-lo)))
	}
}

// NewNormal creates a tensor filled with N(0, std²) samples.
func NewNormal(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	t.FillNormal(r, std)
	return t
}

// NewXavier creates a tensor initialized with Xavier/Glorot scaling for
// a (fanIn, fanOut) weight matrix.
func NewXavier(r *RNG, fanIn, fanOut int) *Tensor {
	return NewNormal(r, XavierStd(fanIn, fanOut), fanIn, fanOut)
}

// XavierStd is the Xavier/Glorot standard deviation of a (fanIn,
// fanOut) weight matrix.
func XavierStd(fanIn, fanOut int) float64 {
	return math.Sqrt(2.0 / float64(fanIn+fanOut))
}
