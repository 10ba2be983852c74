package tensor

import "fmt"

// This file holds the one dense kernel behind MatMul and Linear. The
// evaluator spends most of its time here, so the loops are register-
// blocked: each kernel walks blocks of denseBlock output columns and keeps
// the block's accumulators (or its slice of the output gradient) in local
// variables the compiler can hold in registers, instead of a stack array
// or the output row in memory.
//
// Kernel contract — every element is bit-identical to the naive loops:
//   - out[i][j] starts at +0 and adds x[i][kk]·w[kk][j] for kk ascending,
//     skipping x[i][kk] == 0 (so a zero input never meets an Inf or NaN
//     weight); the bias is added once, after the k-sum.
//   - dX[i][kk] += s, where s starts at +0 and adds g[i][j]·w[kk][j] for j
//     ascending.
//   - dW[kk][j] and dBias[j] accumulate in place over lanes, then rows
//     ascending; dW skips x[i][kk] == 0 like the forward.
//
// MatMul is the kernel without a bias: adding +0 after the k-sum is exact,
// because a sum that starts at +0 can never be −0 (an exact cancellation
// rounds to +0), and s + 0 == s for every other s, NaN and ±Inf included.
// Linear folds in what used to be a separate bias op: that op handed the
// product the gradient +0 + g instead of g. The two differ only when
// g = −0, and a −0 term cannot change a sum that starts at +0 — the dX
// sum above, or a gradient buffer, which ensureGrad and ZeroGrad always
// start at +0. For the same reason a bias may not carry more lanes than
// the product: folding it in would reorder the lane sum of the product's
// gradient.

// denseBlock is the register block width: the evaluator's hidden width.
const denseBlock = 8

// noBias is the bias block MatMul adds after the k-sum (never written).
var noBias [denseBlock]float64

// MatMul returns a·b for a [m×k] and b [k×n], per lane; a 1-lane operand
// (shared weights against K-lane activations, or vice versa) broadcasts
// and its gradient accumulates over lanes in fixed lane order.
func (tp *Tape) MatMul(a, b *Tensor) (*Tensor, error) { return tp.Linear(a, b, nil) }

// Linear returns x·W + b as one op: the bias (1×n or n×1) is added to
// every row of the product, after its k-sum. b may be unbatched (a shared
// bias) or carry one vector per lane of the product; nil means no bias.
func (tp *Tape) Linear(x, w, b *Tensor) (*Tensor, error) {
	if x.Cols != w.Rows {
		return nil, fmt.Errorf("tensor: matmul %dx%d · %dx%d", x.Rows, x.Cols, w.Rows, w.Cols)
	}
	lanes, err := laneCompat(x, w)
	if err != nil {
		return nil, err
	}
	m, k, n := x.Rows, x.Cols, w.Cols
	req := x.requiresGrad || w.requiresGrad
	if b != nil {
		if b.laneStride() != n {
			return nil, fmt.Errorf("tensor: bias of %d for %d cols", b.laneStride(), n)
		}
		if bl := b.LaneCount(); bl != 1 && bl != lanes {
			return nil, fmt.Errorf("tensor: bias lanes %d vs %d-lane product", bl, lanes)
		}
		req = req || b.requiresGrad
	}
	out := tp.resultRaw(lanes, m, n, req)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		var bd []float64
		if b != nil {
			bd = opLane(b, l)
		}
		denseForward(out.Data[l*st:(l+1)*st], opLane(x, l), opLane(w, l), bd, m, k, n)
	}
	if req {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if b != nil && b.requiresGrad {
				b.ensureGrad()
				for l := 0; l < lanes; l++ {
					denseGradBias(opLaneGrad(b, l), out.Grad[l*st:(l+1)*st], m, n)
				}
			}
			if x.requiresGrad {
				x.ensureGrad()
				for l := 0; l < lanes; l++ {
					denseGradX(opLaneGrad(x, l), out.Grad[l*st:(l+1)*st], opLane(w, l), m, k, n)
				}
			}
			if w.requiresGrad {
				w.ensureGrad()
				for l := 0; l < lanes; l++ {
					denseGradW(opLaneGrad(w, l), opLane(x, l), out.Grad[l*st:(l+1)*st], m, k, n)
				}
			}
		})
	}
	return out, nil
}

// denseForward writes od = xd·wd + bd for one lane (bd nil = no bias).
func denseForward(od, xd, wd, bd []float64, m, k, n int) {
	j := 0
	for ; j+denseBlock <= n; j += denseBlock {
		// The bias is read per row, not held in registers next to the
		// accumulators, which would not all fit.
		bb := &noBias
		if bd != nil {
			bb = (*[denseBlock]float64)(bd[j : j+denseBlock])
		}
		for i := 0; i < m; i++ {
			var a0, a1, a2, a3, a4, a5, a6, a7 float64
			for kk, av := range xd[i*k : (i+1)*k] {
				if av == 0 {
					continue
				}
				wr := wd[kk*n+j : kk*n+j+denseBlock : kk*n+j+denseBlock]
				a0 += av * wr[0]
				a1 += av * wr[1]
				a2 += av * wr[2]
				a3 += av * wr[3]
				a4 += av * wr[4]
				a5 += av * wr[5]
				a6 += av * wr[6]
				a7 += av * wr[7]
			}
			or := od[i*n+j : i*n+j+denseBlock : i*n+j+denseBlock]
			or[0], or[1], or[2], or[3] = a0+bb[0], a1+bb[1], a2+bb[2], a3+bb[3]
			or[4], or[5], or[6], or[7] = a4+bb[4], a5+bb[5], a6+bb[6], a7+bb[7]
		}
	}
	for ; j < n; j++ {
		var bj float64
		if bd != nil {
			bj = bd[j]
		}
		for i := 0; i < m; i++ {
			var a float64
			for kk, av := range xd[i*k : (i+1)*k] {
				if av == 0 {
					continue
				}
				a += av * wd[kk*n+j]
			}
			od[i*n+j] = a + bj
		}
	}
}

// denseGradX accumulates dX += G·Wᵀ for one lane. Each dX element's sum
// runs over all n columns in one chain, so only a product exactly one
// block wide (the evaluator's) holds its gradient row in registers across
// the kk loop; other widths take the plain loop.
func denseGradX(xg, g, wd []float64, m, k, n int) {
	if n == denseBlock {
		for i := 0; i < m; i++ {
			gr := g[i*n : (i+1)*n : (i+1)*n]
			g0, g1, g2, g3, g4, g5, g6, g7 := gr[0], gr[1], gr[2], gr[3], gr[4], gr[5], gr[6], gr[7]
			xr := xg[i*k : (i+1)*k]
			for kk := range xr {
				wr := wd[kk*n : (kk+1)*n : (kk+1)*n]
				var s float64
				s += g0 * wr[0]
				s += g1 * wr[1]
				s += g2 * wr[2]
				s += g3 * wr[3]
				s += g4 * wr[4]
				s += g5 * wr[5]
				s += g6 * wr[6]
				s += g7 * wr[7]
				xr[kk] += s
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		gr := g[i*n : (i+1)*n]
		xr := xg[i*k : (i+1)*k]
		for kk := range xr {
			wr := wd[kk*n : (kk+1)*n]
			var s float64
			for j, gv := range gr {
				s += gv * wr[j]
			}
			xr[kk] += s
		}
	}
}

// denseGradW accumulates dW += Xᵀ·G for one lane, row by row over x: each
// x row is read once, its gradient block sits in registers, and the dW
// rows it touches stay in L1.
func denseGradW(wg, xd, g []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		xr := xd[i*k : (i+1)*k]
		gr := g[i*n : (i+1)*n]
		j := 0
		for ; j+denseBlock <= n; j += denseBlock {
			gb := gr[j : j+denseBlock : j+denseBlock]
			g0, g1, g2, g3, g4, g5, g6, g7 := gb[0], gb[1], gb[2], gb[3], gb[4], gb[5], gb[6], gb[7]
			for kk, av := range xr {
				if av == 0 {
					continue
				}
				r := wg[kk*n+j : kk*n+j+denseBlock : kk*n+j+denseBlock]
				r[0] += av * g0
				r[1] += av * g1
				r[2] += av * g2
				r[3] += av * g3
				r[4] += av * g4
				r[5] += av * g5
				r[6] += av * g6
				r[7] += av * g7
			}
		}
		for ; j < n; j++ {
			gj := gr[j]
			for kk, av := range xr {
				if av == 0 {
					continue
				}
				wg[kk*n+j] += av * gj
			}
		}
	}
}

// denseGradBias accumulates dBias += column sums of G for one lane,
// holding a block of the bias gradient in registers across all rows.
func denseGradBias(bg, g []float64, m, n int) {
	j := 0
	for ; j+denseBlock <= n; j += denseBlock {
		r := bg[j : j+denseBlock : j+denseBlock]
		s0, s1, s2, s3, s4, s5, s6, s7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		for i := 0; i < m; i++ {
			gr := g[i*n+j : i*n+j+denseBlock : i*n+j+denseBlock]
			s0 += gr[0]
			s1 += gr[1]
			s2 += gr[2]
			s3 += gr[3]
			s4 += gr[4]
			s5 += gr[5]
			s6 += gr[6]
			s7 += gr[7]
		}
		r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; j < n; j++ {
		s := bg[j]
		for i := 0; i < m; i++ {
			s += g[i*n+j]
		}
		bg[j] = s
	}
}
