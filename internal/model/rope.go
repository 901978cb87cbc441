package model

import "math"

// ropeBase is the frequency base of rotary position embeddings, the
// value used by Llama.
const ropeBase = 10000.0

// ropeTable caches sin/cos values for positions [0, maxT) and a given
// head dimension.
type ropeTable struct {
	headDim int
	cos     [][]float32 // [pos][headDim/2]
	sin     [][]float32
}

func newRopeTable(maxT, headDim int) *ropeTable {
	half := headDim / 2
	rt := &ropeTable{
		headDim: headDim,
		cos:     make([][]float32, maxT),
		sin:     make([][]float32, maxT),
	}
	for p := 0; p < maxT; p++ {
		rt.cos[p] = make([]float32, half)
		rt.sin[p] = make([]float32, half)
		for i := 0; i < half; i++ {
			theta := float64(p) / math.Pow(ropeBase, float64(2*i)/float64(headDim))
			rt.cos[p][i] = float32(math.Cos(theta))
			rt.sin[p][i] = float32(math.Sin(theta))
		}
	}
	return rt
}

// apply rotates row vector v (length headDim) in place for position
// pos. When inverse is true it applies the transpose rotation, which is
// the backward pass (rotations are orthogonal).
func (rt *ropeTable) apply(v []float32, pos int, inverse bool) {
	half := rt.headDim / 2
	cosP, sinP := rt.cos[pos], rt.sin[pos]
	for i := 0; i < half; i++ {
		c, s := cosP[i], sinP[i]
		if inverse {
			s = -s
		}
		x0, x1 := v[2*i], v[2*i+1]
		v[2*i] = float32(x0*c) - float32(x1*s)
		v[2*i+1] = float32(x0*s) + float32(x1*c)
	}
}
