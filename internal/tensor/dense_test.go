package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveDense is the reference for the dense kernel: the textbook triple
// loops of a separate MatMul op followed by a separate bias op, in the
// accumulation order the kernel contract promises. It returns the forward
// values and accumulates dX, dW and dBias into xg, wg and bg (nil = no
// gradient wanted) from the output gradient g.
func naiveDense(x, w, b *Tensor, g, xg, wg, bg []float64) []float64 {
	lanes := x.LaneCount()
	if w.LaneCount() > lanes {
		lanes = w.LaneCount()
	}
	m, k, n := x.Rows, x.Cols, w.Cols
	lane := func(d []float64, t *Tensor, l int) []float64 {
		st := t.Rows * t.Cols
		if t.LaneCount() == 1 {
			return d[:st]
		}
		return d[l*st : (l+1)*st]
	}
	out := make([]float64, lanes*m*n)
	// The separate bias op handed the product +0 + g, not g.
	gy := make([]float64, len(g))
	for l := 0; l < lanes; l++ {
		xd, wd := lane(x.Data, x, l), lane(w.Data, w, l)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					if av := xd[i*k+kk]; av != 0 {
						s += av * wd[kk*n+j]
					}
				}
				out[(l*m+i)*n+j] = s
				if b != nil {
					out[(l*m+i)*n+j] = s + lane(b.Data, b, l)[j]
				}
			}
		}
	}
	for i := range g {
		gy[i] = g[i]
		if b != nil {
			gy[i] = 0
			gy[i] += g[i]
		}
	}
	if bg != nil {
		for l := 0; l < lanes; l++ {
			bl := lane(bg, b, l)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					bl[j] += g[(l*m+i)*n+j]
				}
			}
		}
	}
	if xg != nil {
		for l := 0; l < lanes; l++ {
			xl, wd := lane(xg, x, l), lane(w.Data, w, l)
			for i := 0; i < m; i++ {
				for kk := 0; kk < k; kk++ {
					var s float64
					for j := 0; j < n; j++ {
						s += gy[(l*m+i)*n+j] * wd[kk*n+j]
					}
					xl[i*k+kk] += s
				}
			}
		}
	}
	if wg != nil {
		for l := 0; l < lanes; l++ {
			wl, xd := lane(wg, w, l), lane(x.Data, x, l)
			for kk := 0; kk < k; kk++ {
				for i := 0; i < m; i++ {
					av := xd[i*k+kk]
					if av == 0 {
						continue
					}
					for j := 0; j < n; j++ {
						wl[kk*n+j] += av * gy[(l*m+i)*n+j]
					}
				}
			}
		}
	}
	return out
}

// specialFill fills a lanes×rows×cols tensor with normal values salted
// with exact +0 and −0 and, at rate inf, ±Inf and NaN.
func specialFill(rng *rand.Rand, lanes, rows, cols int, inf float64) *Tensor {
	t := &Tensor{Rows: rows, Cols: cols, Lanes: lanes, Data: make([]float64, lanes*rows*cols)}
	for i := range t.Data {
		switch u := rng.Float64(); {
		case u < 0.12:
			t.Data[i] = 0
		case u < 0.24:
			t.Data[i] = math.Copysign(0, -1)
		case u < 0.24+inf:
			t.Data[i] = math.Inf(1)
		case u < 0.24+2*inf:
			t.Data[i] = math.Inf(-1)
		case u < 0.24+3*inf:
			t.Data[i] = math.NaN()
		default:
			t.Data[i] = rng.NormFloat64()
		}
	}
	return t
}

// sameBits is bitwise equality, except that any NaN matches any NaN: Go
// does not fix which operand's payload a NaN-producing op propagates, so
// only the NaN class is part of the contract. Signed zeros and ±Inf must
// match exactly.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func diffBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return fmt.Errorf("%s[%d] = %v (%#x), want %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// TestDenseMatchesNaive is the kernel differential test: MatMul and Linear
// forward values, dX, dW and dBias must equal naiveDense bit for bit over
// every width around the register block (n) and the evaluator's input
// widths (k), on 1 and 3 lanes with either operand broadcast, with no,
// shared and per-lane bias, and with inputs and output gradients salted
// with ±0, ±Inf and NaN. The output gradient is injected directly, so −0
// reaches the kernel (through a tape it never would). Each case runs on a
// workspace whose pooled output buffer was left full of garbage, so a
// kernel that skipped an element would show.
func TestDenseMatchesNaive(t *testing.T) {
	const m = 5
	rng := rand.New(rand.NewSource(12))
	cases := 0
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 16, 17} {
		for _, k := range []int{1, 3, 6, 17, 18} {
			for _, K := range []int{1, 3} {
				for li, lanes := range [][2]int{{K, 1}, {1, K}, {K, K}} {
					for bi, bias := range []int{0, 1, K} {
						if K == 1 && (li > 0 || bi > 1) {
							continue // the same 1-lane case again
						}
						name := fmt.Sprintf("n=%d/k=%d/xlanes=%d/wlanes=%d/bias=%d", n, k, lanes[0], lanes[1], bias)
						x := specialFill(rng, lanes[0], m, k, 0.02)
						w := specialFill(rng, lanes[1], k, n, 0.02)
						var b *Tensor
						if bias > 0 {
							b = specialFill(rng, bias, 1, n, 0.02)
						}
						g := specialFill(rng, K, m, n, 0.01).Data
						if err := checkDense(x, w, b, g, rng); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						cases++
					}
				}
			}
		}
	}
	if cases != 9*5*(2+3*3) {
		t.Fatalf("ran %d cases", cases)
	}
}

// checkDense runs one kernel case against naiveDense.
func checkDense(x, w, b *Tensor, g []float64, rng *rand.Rand) error {
	leaves := []*Tensor{x, w}
	if b != nil {
		leaves = append(leaves, b)
	}
	// Pre-existing gradients: finite values and +0 (a gradient buffer
	// starts at +0 and accumulating onto +0 never yields −0).
	want := make([][]float64, len(leaves))
	for i, t := range leaves {
		want[i] = make([]float64, t.Len())
		for j := range want[i] {
			if rng.Intn(3) > 0 {
				want[i][j] = rng.NormFloat64()
			}
		}
	}

	ws := NewWorkspace()
	junk := ws.grabF64Raw(len(g))
	for i := range junk {
		junk[i] = math.NaN()
	}
	tp := ws.Tape() // junk goes back to the pool for the kernel's output
	on := make([]*Tensor, len(leaves))
	for i, t := range leaves {
		on[i] = tp.Leaf(t.Clone())
		on[i].Grad = append([]float64(nil), want[i]...)
	}
	var out *Tensor
	var err error
	if b == nil {
		out, err = tp.MatMul(on[0], on[1])
	} else {
		out, err = tp.Linear(on[0], on[1], on[2])
	}
	if err != nil {
		return err
	}
	out.Grad = append([]float64(nil), g...)
	for i := len(tp.backwards) - 1; i >= 0; i-- {
		tp.backwards[i]()
	}

	var wantB []float64
	if b != nil {
		wantB = want[2]
	}
	if err := diffBits("out", out.Data, naiveDense(x, w, b, g, want[0], want[1], wantB)); err != nil {
		return err
	}
	for i, name := range []string{"dX", "dW", "dBias"}[:len(leaves)] {
		if err := diffBits(name, on[i].Grad, want[i]); err != nil {
			return err
		}
	}
	return nil
}
