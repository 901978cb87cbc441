package nn

import (
	"fmt"
	"math"

	"menos/internal/tensor"
)

// normEps stabilizes the variance denominator.
const normEps = 1e-5

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies a learned affine transform (gamma, beta). OPT-style blocks
// use LayerNorm.
type LayerNorm struct {
	Gamma  Param
	Beta   Param
	Frozen bool

	// scratch, when set, supplies output and cache tensors from a
	// shared buffer arena; Backward returns the retained xhat and
	// per-row statistics to it.
	scratch *tensor.Scratch
}

// SetScratch attaches a buffer arena to the layer.
func (l *LayerNorm) SetScratch(sc *tensor.Scratch) { l.scratch = sc }

// LayerNormCache retains the normalized input and per-row statistics.
type LayerNormCache struct {
	XHat   *tensor.Tensor // normalized input, same shape as x
	InvStd *tensor.Tensor // 1/sqrt(var+eps) per row, shape (rows)
}

// Bytes reports retained activation size.
func (c *LayerNormCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var b int64
	if c.XHat != nil {
		b += c.XHat.Bytes()
	}
	if c.InvStd != nil {
		b += c.InvStd.Bytes()
	}
	return b
}

// NewLayerNorm creates a LayerNorm over dim features with gamma=1,
// beta=0.
func NewLayerNorm(dim int) *LayerNorm {
	gamma := tensor.New(dim)
	gamma.Fill(1)
	return &LayerNorm{
		Gamma: NewParam("gamma", gamma),
		Beta:  NewParam("beta", tensor.New(dim)),
	}
}

// Forward normalizes each row of x.
func (l *LayerNorm) Forward(x *tensor.Tensor, cache *LayerNormCache) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != l.Gamma.Value.Dim(0) {
		return nil, fmt.Errorf("layernorm: input %v for dim %d: %w",
			x.Shape(), l.Gamma.Value.Dim(0), tensor.ErrShape)
	}
	rows, cols := x.Dim(0), x.Dim(1)
	out := l.scratch.Get(rows, cols)
	var xhat *tensor.Tensor
	var invStd []float32
	if cache != nil {
		// xhat is only needed by the backward pass; a no-grad forward
		// skips it entirely.
		xhat = l.scratch.Get(rows, cols)
		cache.XHat, cache.InvStd = xhat, l.scratch.Get(rows)
		invStd = cache.InvStd.Data()
	}
	gamma, beta := l.Gamma.Value.Data(), l.Beta.Value.Data()
	for r := 0; r < rows; r++ {
		xr := x.Data()[r*cols : (r+1)*cols]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(cols)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(cols)
		inv := float32(1.0 / math.Sqrt(variance+normEps))
		or := out.Data()[r*cols : (r+1)*cols]
		if xhat != nil {
			invStd[r] = inv
			xh := xhat.Data()[r*cols : (r+1)*cols]
			for c := 0; c < cols; c++ {
				h := (xr[c] - float32(mean)) * inv
				xh[c] = h
				or[c] = h*gamma[c] + beta[c]
			}
		} else {
			for c := 0; c < cols; c++ {
				or[c] = (xr[c]-float32(mean))*inv*gamma[c] + beta[c]
			}
		}
	}
	return out, nil
}

// Backward computes dx and accumulates dgamma/dbeta unless frozen.
func (l *LayerNorm) Backward(cache *LayerNormCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.XHat == nil {
		return nil, fmt.Errorf("layernorm backward: no cached activations")
	}
	rows, cols := cache.XHat.Dim(0), cache.XHat.Dim(1)
	if dy.Rank() != 2 || dy.Dim(0) != rows || dy.Dim(1) != cols {
		return nil, fmt.Errorf("layernorm backward: dy %v for cached %v: %w",
			dy.Shape(), cache.XHat.Shape(), tensor.ErrShape)
	}
	gamma, invStd := l.Gamma.Value.Data(), cache.InvStd.Data()
	dx := l.scratch.Get(rows, cols)
	for r := 0; r < rows; r++ {
		dyr := dy.Data()[r*cols : (r+1)*cols]
		xh := cache.XHat.Data()[r*cols : (r+1)*cols]
		inv := invStd[r]
		// dxhat = dy * gamma
		// dx = inv/cols * (cols*dxhat - sum(dxhat) - xhat*sum(dxhat*xhat))
		var sumDxh, sumDxhXh float64
		for c := 0; c < cols; c++ {
			dxh := float64(dyr[c]) * float64(gamma[c])
			sumDxh += dxh
			sumDxhXh += dxh * float64(xh[c])
		}
		dxr := dx.Data()[r*cols : (r+1)*cols]
		n := float64(cols)
		for c := 0; c < cols; c++ {
			dxh := float64(dyr[c]) * float64(gamma[c])
			dxr[c] = float32(float64(inv) / n * (n*dxh - sumDxh - float64(xh[c])*sumDxhXh))
		}
	}
	if !l.Frozen {
		dg, db := l.Gamma.Grad.Data(), l.Beta.Grad.Data()
		for r := 0; r < rows; r++ {
			dyr := dy.Data()[r*cols : (r+1)*cols]
			xh := cache.XHat.Data()[r*cols : (r+1)*cols]
			for c := 0; c < cols; c++ {
				dg[c] += dyr[c] * xh[c]
				db[c] += dyr[c]
			}
		}
	}
	if l.scratch != nil {
		// The layer owns xhat and the statistics; with the backward
		// pass done they are dead. Without an arena the cache keeps its
		// seed semantics (a second Backward over the same cache still
		// works).
		l.scratch.Put(cache.XHat, cache.InvStd)
		cache.XHat, cache.InvStd = nil, nil
	}
	return dx, nil
}

// Params returns gamma and beta unless frozen.
func (l *LayerNorm) Params() []Param {
	if l.Frozen {
		return nil
	}
	return []Param{l.Gamma, l.Beta}
}

// RMSNorm normalizes each row by its root-mean-square and applies a
// learned gain. Llama-style blocks use RMSNorm.
type RMSNorm struct {
	Gamma  Param
	Frozen bool

	// scratch, when set, supplies output tensors from a shared buffer
	// arena. The cache retains only the caller's input, so unlike
	// LayerNorm there is nothing for Backward to return.
	scratch *tensor.Scratch
}

// SetScratch attaches a buffer arena to the layer.
func (l *RMSNorm) SetScratch(sc *tensor.Scratch) { l.scratch = sc }

// RMSNormCache retains the input and per-row inverse RMS.
type RMSNormCache struct {
	X      *tensor.Tensor
	InvRMS []float32
}

// Bytes reports retained activation size.
func (c *RMSNormCache) Bytes() int64 {
	if c == nil {
		return 0
	}
	var b int64
	if c.X != nil {
		b += c.X.Bytes()
	}
	b += int64(len(c.InvRMS)) * 4
	return b
}

// NewRMSNorm creates an RMSNorm over dim features with gamma=1.
func NewRMSNorm(dim int) *RMSNorm {
	gamma := tensor.New(dim)
	gamma.Fill(1)
	return &RMSNorm{Gamma: NewParam("gamma", gamma)}
}

// Forward normalizes each row of x by its RMS.
func (l *RMSNorm) Forward(x *tensor.Tensor, cache *RMSNormCache) (*tensor.Tensor, error) {
	if x.Rank() != 2 || x.Dim(1) != l.Gamma.Value.Dim(0) {
		return nil, fmt.Errorf("rmsnorm: input %v for dim %d: %w",
			x.Shape(), l.Gamma.Value.Dim(0), tensor.ErrShape)
	}
	rows, cols := x.Dim(0), x.Dim(1)
	out := l.scratch.Get(rows, cols)
	invRMS := make([]float32, rows)
	gamma := l.Gamma.Value.Data()
	for r := 0; r < rows; r++ {
		xr := x.Data()[r*cols : (r+1)*cols]
		var ms float64
		for _, v := range xr {
			ms += float64(v) * float64(v)
		}
		ms /= float64(cols)
		inv := float32(1.0 / math.Sqrt(ms+normEps))
		invRMS[r] = inv
		or := out.Data()[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			or[c] = xr[c] * inv * gamma[c]
		}
	}
	if cache != nil {
		cache.X = x
		cache.InvRMS = invRMS
	}
	return out, nil
}

// Backward computes dx and accumulates dgamma unless frozen.
func (l *RMSNorm) Backward(cache *RMSNormCache, dy *tensor.Tensor) (*tensor.Tensor, error) {
	if cache == nil || cache.X == nil {
		return nil, fmt.Errorf("rmsnorm backward: no cached activations")
	}
	rows, cols := cache.X.Dim(0), cache.X.Dim(1)
	if dy.Rank() != 2 || dy.Dim(0) != rows || dy.Dim(1) != cols {
		return nil, fmt.Errorf("rmsnorm backward: dy %v for cached %v: %w",
			dy.Shape(), cache.X.Shape(), tensor.ErrShape)
	}
	gamma := l.Gamma.Value.Data()
	dx := l.scratch.Get(rows, cols)
	for r := 0; r < rows; r++ {
		xr := cache.X.Data()[r*cols : (r+1)*cols]
		dyr := dy.Data()[r*cols : (r+1)*cols]
		inv := float64(cache.InvRMS[r])
		// y_c = x_c * inv * g_c with inv = (mean(x²)+eps)^-1/2
		// dx_c = inv * g_c * dy_c - x_c * inv³/n * Σ_j dy_j g_j x_j
		var dot float64
		for c := 0; c < cols; c++ {
			dot += float64(dyr[c]) * float64(gamma[c]) * float64(xr[c])
		}
		coef := inv * inv * inv / float64(cols) * dot
		dxr := dx.Data()[r*cols : (r+1)*cols]
		for c := 0; c < cols; c++ {
			dxr[c] = float32(inv*float64(gamma[c])*float64(dyr[c]) - float64(xr[c])*coef)
		}
	}
	if !l.Frozen {
		dg := l.Gamma.Grad.Data()
		for r := 0; r < rows; r++ {
			xr := cache.X.Data()[r*cols : (r+1)*cols]
			dyr := dy.Data()[r*cols : (r+1)*cols]
			inv := cache.InvRMS[r]
			for c := 0; c < cols; c++ {
				dg[c] += dyr[c] * xr[c] * inv
			}
		}
	}
	return dx, nil
}

// Params returns gamma unless frozen.
func (l *RMSNorm) Params() []Param {
	if l.Frozen {
		return nil
	}
	return []Param{l.Gamma}
}
