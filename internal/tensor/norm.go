package tensor

import (
	"fmt"
	"math"
)

// LayerNorm's two passes (docs/NUMERICS.md, "LayerNorm"). Per row of
// n = cols elements, the forward computes
//
//	mean = (Σ x[c]) / n                  float64, ascending c
//	var  = (Σ (x[c] − mean)²) / n        float64, ascending c
//	inv  = float32(1 / √(var + eps))
//	h    = (x[c] − float32(mean))·inv    float32: xhat
//	out  = h·gamma[c] + beta[c]          float32
//
// and the backward, with dxh = dy[c]·gamma[c] in float64 (exact),
//
//	s  = Σ dxh,  t = Σ dxh·xhat[c]      float64, ascending c
//	dx = float32(inv/n · ((n·dxh − s) − xhat[c]·t))
//	dgamma[c] += dy[c]·xhat[c],  dbeta[c] += dy[c]   ascending row
//
// every product that feeds an add rounded on its own (rule 3). The
// sums are float64 chains, one add after another, so they are
// latency-bound: the rows are taken four at a time and their chains
// interleaved, which leaves each row's add sequence exactly as it is
// alone. The per-element passes are lane kernels.

// rowGroup is how many rows' reduction chains (and, in softmax, max
// scans) run interleaved. Each row still sees its own operations in its
// own order, so the bits are those of one row at a time.
const rowGroup = 4

// LayerNorm normalises each row of x (rows, cols) and applies gamma
// and beta (cols), writing out (rows, cols). xhat (rows, cols) and
// invStd (rows), which the backward needs, are both set or both nil; a
// no-grad forward passes nil. out must not alias x.
func LayerNorm(out, xhat, invStd, x, gamma, beta *Tensor, eps float64) error {
	if len(x.shape) != 2 || !out.SameShape(x) || len(gamma.data) != x.shape[1] || len(beta.data) != x.shape[1] ||
		(xhat == nil) != (invStd == nil) || xhat != nil && (!xhat.SameShape(x) || len(invStd.data) != x.shape[0]) {
		return fmt.Errorf("%w: layernorm of %v into %v", ErrShape, x.shape, out.shape)
	}
	rows, cols := x.shape[0], x.shape[1]
	if cols == 0 {
		return nil
	}
	xd, od := x.data, out.data
	g, b := gamma.data, beta.data
	for r := 0; r < rows; r += rowGroup {
		var mean, sq [rowGroup]float64
		group := min(rowGroup, rows-r)
		if group == rowGroup {
			mean, sq = rowMoments4(xd[r*cols:], cols)
		} else {
			for i := range group {
				mean[i], sq[i] = rowMoments(xd[(r+i)*cols:][:cols])
			}
		}
		for i := range group {
			row := (r + i) * cols
			inv := float32(1.0 / math.Sqrt(sq[i]/float64(cols)+eps))
			h := od[row:][:cols] // no cache: out holds h until it is overwritten
			if xhat != nil {
				h = xhat.data[row:][:cols]
				invStd.data[r+i] = inv
			}
			layerNormRow(od[row:][:cols], h, xd[row:][:cols], g, b, float32(mean[i]), inv)
		}
	}
	return nil
}

// LayerNormBackward computes dx (rows, cols) from dy and what the
// forward kept — xhat and invStd — and gamma, and, when dgamma and
// dbeta (cols) are non-nil, adds this batch's parameter gradients to
// them. dx must not alias dy or xhat.
func LayerNormBackward(dx, dgamma, dbeta, dy, xhat, invStd, gamma *Tensor) error {
	if len(xhat.shape) != 2 || !dy.SameShape(xhat) || !dx.SameShape(xhat) ||
		len(invStd.data) != xhat.shape[0] || len(gamma.data) != xhat.shape[1] ||
		(dgamma == nil) != (dbeta == nil) || dgamma != nil && (len(dgamma.data) != len(gamma.data) || len(dbeta.data) != len(gamma.data)) {
		return fmt.Errorf("%w: layernorm backward of dy %v for xhat %v into %v", ErrShape, dy.shape, xhat.shape, dx.shape)
	}
	rows, cols := xhat.shape[0], xhat.shape[1]
	if cols == 0 {
		return nil
	}
	dyd, xhd, dxd, g := dy.data, xhat.data, dx.data, gamma.data
	n := float64(cols)
	for r := 0; r < rows; r += rowGroup {
		var s, t [rowGroup]float64
		group := min(rowGroup, rows-r)
		if group == rowGroup {
			s, t = gradSums4(dyd[r*cols:], xhd[r*cols:], g)
		} else {
			for i := range group {
				row := (r + i) * cols
				s[i], t[i] = gradSums(dyd[row:][:cols], xhd[row:][:cols], g)
			}
		}
		for i := range group {
			row := (r + i) * cols
			dyr, xhr := dyd[row:][:cols], xhd[row:][:cols]
			layerNormGradRow(dxd[row:][:cols], dyr, xhr, g, float64(invStd.data[r+i])/n, n, s[i], t[i])
			if dgamma != nil {
				layerNormParamGradRow(dgamma.data, dbeta.data, dyr, xhr)
			}
		}
	}
	return nil
}

// rowMoments returns the sum-derived mean of one row and the sum of
// squared deviations from it (not yet divided by n).
func rowMoments(x []float32) (mean, sq float64) {
	for _, v := range x {
		mean += float64(v)
	}
	mean /= float64(len(x))
	for _, v := range x {
		d := float64(v) - mean
		sq += float64(d * d)
	}
	return mean, sq
}

// rowMoments4 is rowMoments on the four rows of x (row stride cols),
// their chains interleaved.
func rowMoments4(x []float32, cols int) (mean, sq [rowGroup]float64) {
	x0 := x[:cols]
	x1, x2, x3 := x[cols:][:len(x0)], x[2*cols:][:len(x0)], x[3*cols:][:len(x0)]
	var m0, m1, m2, m3 float64
	for c, v := range x0 {
		m0 += float64(v)
		m1 += float64(x1[c])
		m2 += float64(x2[c])
		m3 += float64(x3[c])
	}
	n := float64(cols)
	m0, m1, m2, m3 = m0/n, m1/n, m2/n, m3/n
	var q0, q1, q2, q3 float64
	for c, v := range x0 {
		d0 := float64(v) - m0
		d1 := float64(x1[c]) - m1
		d2 := float64(x2[c]) - m2
		d3 := float64(x3[c]) - m3
		q0 += float64(d0 * d0)
		q1 += float64(d1 * d1)
		q2 += float64(d2 * d2)
		q3 += float64(d3 * d3)
	}
	return [rowGroup]float64{m0, m1, m2, m3}, [rowGroup]float64{q0, q1, q2, q3}
}

// gradSums returns s = Σ dy·gamma and t = Σ dy·gamma·xhat over one row.
func gradSums(dy, xhat, gamma []float32) (s, t float64) {
	dy, xhat = dy[:len(gamma)], xhat[:len(gamma)]
	for c, g := range gamma {
		d := float64(float64(dy[c]) * float64(g))
		s += d
		t += float64(d * float64(xhat[c]))
	}
	return s, t
}

// gradSums4 is gradSums on the four rows of dy and xhat (row stride
// len(gamma)), their chains interleaved.
func gradSums4(dy, xhat, gamma []float32) (s, t [rowGroup]float64) {
	cols := len(gamma)
	y0, y1, y2, y3 := dy[:cols], dy[cols:][:cols], dy[2*cols:][:cols], dy[3*cols:][:cols]
	h0, h1, h2, h3 := xhat[:cols], xhat[cols:][:cols], xhat[2*cols:][:cols], xhat[3*cols:][:cols]
	var s0, s1, s2, s3, t0, t1, t2, t3 float64
	for c, g := range gamma {
		gc := float64(g)
		d0 := float64(float64(y0[c]) * gc)
		d1 := float64(float64(y1[c]) * gc)
		d2 := float64(float64(y2[c]) * gc)
		d3 := float64(float64(y3[c]) * gc)
		s0 += d0
		s1 += d1
		s2 += d2
		s3 += d3
		t0 += float64(d0 * float64(h0[c]))
		t1 += float64(d1 * float64(h1[c]))
		t2 += float64(d2 * float64(h2[c]))
		t3 += float64(d3 * float64(h3[c]))
	}
	return [rowGroup]float64{s0, s1, s2, s3}, [rowGroup]float64{t0, t1, t2, t3}
}

// layerNormRow is the forward's per-element pass over one row. xhat
// may be out.
func layerNormRow(out, xhat, x, gamma, beta []float32, mean, inv float32) {
	out, xhat, gamma, beta = out[:len(x)], xhat[:len(x)], gamma[:len(x)], beta[:len(x)]
	if haveAVX2 && len(x) > 0 {
		layerNormRowAVX2(&out[0], &xhat[0], &x[0], &gamma[0], &beta[0], len(x), mean, inv)
		return
	}
	for c, v := range x {
		h := (v - mean) * inv
		xhat[c] = h
		out[c] = float32(h*gamma[c]) + beta[c]
	}
}

// layerNormGradRow is the backward's dx pass over one row, k = inv/n.
func layerNormGradRow(dx, dy, xhat, gamma []float32, k, n, s, t float64) {
	dx, dy, xhat = dx[:len(gamma)], dy[:len(gamma)], xhat[:len(gamma)]
	if haveAVX2 && len(gamma) > 0 {
		layerNormGradRowAVX2(&dx[0], &dy[0], &xhat[0], &gamma[0], len(gamma), k, n, s, t)
		return
	}
	for c, g := range gamma {
		dxh := float64(dy[c]) * float64(g)
		dx[c] = float32(k * (float64(n*dxh) - s - float64(float64(xhat[c])*t)))
	}
}

// layerNormParamGradRow adds one row's share to the parameter
// gradients.
func layerNormParamGradRow(dg, db, dy, xhat []float32) {
	db, dy, xhat = db[:len(dg)], dy[:len(dg)], xhat[:len(dg)]
	if haveAVX2 && len(dg) > 0 {
		layerNormParamGradAVX2(&dg[0], &db[0], &dy[0], &xhat[0], len(dg))
		return
	}
	for c, v := range dy {
		dg[c] += float32(v * xhat[c])
		db[c] += v
	}
}
