package tensor

import (
	"errors"
	"math"
	"testing"
)

// refLayerNorm and refLayerNormBackward are LayerNorm written the
// plain way, one row and one element at a time, every product that
// feeds an add rounded on its own: the loops the grouped reductions and
// the row kernels must reproduce bit for bit.
func refLayerNorm(out, xhat, invStd, x, gamma, beta []float32, rows, cols int, eps float64) {
	for r := 0; r < rows; r++ {
		xr := x[r*cols : (r+1)*cols]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(cols)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += float64(d * d)
		}
		variance /= float64(cols)
		inv := float32(1.0 / math.Sqrt(variance+eps))
		invStd[r] = inv
		for c, v := range xr {
			h := (v - float32(mean)) * inv
			xhat[r*cols+c] = h
			out[r*cols+c] = float32(h*gamma[c]) + beta[c]
		}
	}
}

func refLayerNormBackward(dx, dg, db, dy, xhat, invStd, gamma []float32, rows, cols int) {
	n := float64(cols)
	for r := 0; r < rows; r++ {
		dyr, xh := dy[r*cols:(r+1)*cols], xhat[r*cols:(r+1)*cols]
		var s, t float64
		for c := range dyr {
			dxh := float64(dyr[c]) * float64(gamma[c])
			s += dxh
			t += float64(dxh * float64(xh[c]))
		}
		for c := range dyr {
			dxh := float64(dyr[c]) * float64(gamma[c])
			dx[r*cols+c] = float32(float64(invStd[r]) / n * (float64(n*dxh) - s - float64(float64(xh[c])*t)))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dg[c] += float32(dy[r*cols+c] * xhat[r*cols+c])
			db[c] += dy[r*cols+c]
		}
	}
}

// TestLayerNormMatchesReference runs LayerNorm forward and backward at
// every row count 1..9 — the four-row groups whose reduction chains run
// interleaved and every remainder they leave — and widths across the
// lane kernels' tails, against the plain loops, bit for bit, on every
// tier this build runs. Which rows share a group must not show.
func TestLayerNormMatchesReference(t *testing.T) {
	const eps = 1e-5
	for _, tier := range Tiers() {
		WithTier(tier, func() {
			for rows := 1; rows <= 9; rows++ {
				for _, cols := range []int{1, 7, 8, 13, 128} {
					rng := NewRNG(uint64(rows*1000 + cols))
					x, dy := NewNormal(rng, 3, rows, cols), NewNormal(rng, 1, rows, cols)
					for i := range x.data { // an offset mean, as a residual stream has
						x.data[i] += 5
					}
					gamma, beta := NewNormal(rng, 1, cols), NewNormal(rng, 1, cols)
					out, xhat, inv := New(rows, cols), New(rows, cols), New(rows)
					if err := LayerNorm(out, xhat, inv, x, gamma, beta, eps); err != nil {
						t.Fatal(err)
					}
					wantOut, wantXhat, wantInv := New(rows, cols), New(rows, cols), New(rows)
					refLayerNorm(wantOut.data, wantXhat.data, wantInv.data, x.data, gamma.data, beta.data, rows, cols, eps)
					expectBitIdentical(t, out, wantOut, tier+" layernorm out")
					expectBitIdentical(t, xhat, wantXhat, tier+" layernorm xhat")
					expectBitIdentical(t, inv, wantInv, tier+" layernorm invStd")

					noGrad := New(rows, cols)
					if err := LayerNorm(noGrad, nil, nil, x, gamma, beta, eps); err != nil {
						t.Fatal(err)
					}
					expectBitIdentical(t, noGrad, wantOut, tier+" no-grad layernorm")

					dx, dg, db := New(rows, cols), NewNormal(rng, 1, cols), NewNormal(rng, 1, cols)
					wantDx, wantDg, wantDb := New(rows, cols), dg.Clone(), db.Clone()
					if err := LayerNormBackward(dx, dg, db, dy, xhat, inv, gamma); err != nil {
						t.Fatal(err)
					}
					refLayerNormBackward(wantDx.data, wantDg.data, wantDb.data, dy.data, xhat.data, inv.data, gamma.data, rows, cols)
					expectBitIdentical(t, dx, wantDx, tier+" layernorm dx")
					expectBitIdentical(t, dg, wantDg, tier+" layernorm dgamma")
					expectBitIdentical(t, db, wantDb, tier+" layernorm dbeta")
				}
			}
		})
	}
}

func TestLayerNormRejectsBadShapes(t *testing.T) {
	x, g := New(3, 4), New(4)
	for name, err := range map[string]error{
		"out shape":         LayerNorm(New(4, 3), nil, nil, x, g, g, 1e-5),
		"gamma length":      LayerNorm(New(3, 4), nil, nil, x, New(3), g, 1e-5),
		"xhat without inv":  LayerNorm(New(3, 4), New(3, 4), nil, x, g, g, 1e-5),
		"inv length":        LayerNorm(New(3, 4), New(3, 4), New(4), x, g, g, 1e-5),
		"dy shape":          LayerNormBackward(New(3, 4), nil, nil, New(4, 3), x, New(3), g),
		"dgamma alone":      LayerNormBackward(New(3, 4), New(4), nil, x, x, New(3), g),
		"nil dx, short dy":  LayerNormBackward(nil, New(4), New(4), New(2, 4), x, New(3), g),
		"nil dx, short inv": LayerNormBackward(nil, nil, nil, x, x, New(2), g),
	} {
		if !errors.Is(err, ErrShape) {
			t.Errorf("%s: %v, want ErrShape", name, err)
		}
	}
}
