package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randTensor fills an r×c tensor with deterministic pseudo-random values.
func randTensor(rows, cols int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := NewMatrix(rows, cols)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// checkGrad builds a scalar loss from x via f and asserts the analytic
// gradient matches finite differences.
func checkGrad(t *testing.T, name string, x *Tensor, f func(tp *Tape, x *Tensor) (*Tensor, error)) {
	t.Helper()
	build := func() (*Tensor, *Tape, error) {
		tp := NewTape()
		xr := &Tensor{Rows: x.Rows, Cols: x.Cols, Data: x.Data}
		tp.Leaf(xr)
		xr.ZeroGrad()
		loss, err := f(tp, xr)
		if err != nil {
			return nil, nil, err
		}
		x.Grad = xr.Grad
		return loss, tp, nil
	}
	worst, err := GradCheck(x, build, 1e-6, 24)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if worst > 1e-4 {
		t.Errorf("%s: gradient mismatch %g", name, worst)
	}
}

func TestGradAdd(t *testing.T) {
	x := randTensor(3, 4, 1)
	other := randTensor(3, 4, 2)
	checkGrad(t, "add", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		o := tp.Constant(other.Clone())
		y, err := tp.Add(x, o)
		if err != nil {
			return nil, err
		}
		return tp.Sum(y)
	})
}

func TestGradSubMul(t *testing.T) {
	x := randTensor(4, 3, 3)
	other := randTensor(4, 3, 4)
	checkGrad(t, "sub+mul", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		o := tp.Constant(other.Clone())
		d, err := tp.Sub(x, o)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(d, d)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestGradMatMulLeft(t *testing.T) {
	x := randTensor(3, 5, 5)
	w := randTensor(5, 2, 6)
	checkGrad(t, "matmul-left", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		wc := tp.Constant(w.Clone())
		y, err := tp.MatMul(x, wc)
		if err != nil {
			return nil, err
		}
		return tp.Sum(y)
	})
}

func TestGradMatMulRight(t *testing.T) {
	a := randTensor(3, 5, 7)
	w := randTensor(5, 2, 8)
	checkGrad(t, "matmul-right", w, func(tp *Tape, w *Tensor) (*Tensor, error) {
		ac := tp.Constant(a.Clone())
		y, err := tp.MatMul(ac, w)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestGradActivations(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(tp *Tape, x *Tensor) (*Tensor, error)
	}{
		{"tanh", func(tp *Tape, x *Tensor) (*Tensor, error) { return tp.Tanh(x) }},
		{"sigmoid", func(tp *Tape, x *Tensor) (*Tensor, error) { return tp.Sigmoid(x) }},
		{"softplus", func(tp *Tape, x *Tensor) (*Tensor, error) { return tp.Softplus(x) }},
	} {
		x := randTensor(4, 4, 11)
		op := c.op
		checkGrad(t, c.name, x, func(tp *Tape, x *Tensor) (*Tensor, error) {
			y, err := op(tp, x)
			if err != nil {
				return nil, err
			}
			return tp.Sum(y)
		})
	}
}

func TestGradReLU(t *testing.T) {
	// Keep values away from the kink for finite differences.
	x := randTensor(4, 4, 12)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] = 0.1
		}
	}
	checkGrad(t, "relu", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		y, err := tp.ReLU(x)
		if err != nil {
			return nil, err
		}
		return tp.Sum(y)
	})
}

func TestGradAbs(t *testing.T) {
	x := randTensor(4, 4, 13)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.05 {
			x.Data[i] = -0.2
		}
	}
	checkGrad(t, "abs", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		y, err := tp.Abs(x)
		if err != nil {
			return nil, err
		}
		return tp.Sum(y)
	})
}

func TestGradScaleAddScalar(t *testing.T) {
	x := randTensor(3, 3, 14)
	checkGrad(t, "scale", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		y, err := tp.Scale(x, -2.5)
		if err != nil {
			return nil, err
		}
		y, err = tp.AddScalar(y, 3)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

// TestGradLinear gradchecks x, W and b of Linear: 17→8 runs the
// register-blocked 8-column paths (with the 8-wide dX specialization) at
// the evaluator's widths, 8→1 and 3→4 the single-column tail paths.
func TestGradLinear(t *testing.T) {
	for _, sh := range []struct{ k, n int }{{17, 8}, {8, 1}, {3, 4}} {
		x := randTensor(5, sh.k, 26)
		w := randTensor(sh.k, sh.n, 27)
		b := randTensor(1, sh.n, 28)
		x.Data[3] = 0 // exercise the zero-input skip
		leaves := []struct {
			name string
			t    *Tensor
		}{{"x", x}, {"w", w}, {"b", b}}
		for li, leaf := range leaves {
			name := fmt.Sprintf("linear-%dx%d/%s", sh.k, sh.n, leaf.name)
			checkGrad(t, name, leaf.t, func(tp *Tape, v *Tensor) (*Tensor, error) {
				ops := [3]*Tensor{}
				for i, o := range leaves {
					if i == li {
						ops[i] = v
					} else {
						ops[i] = tp.Constant(o.t.Clone())
					}
				}
				y, err := tp.Linear(ops[0], ops[1], ops[2])
				if err != nil {
					return nil, err
				}
				sq, err := tp.Mul(y, y)
				if err != nil {
					return nil, err
				}
				return tp.Sum(sq)
			})
		}
	}
}

func TestGradConcatCols(t *testing.T) {
	x := randTensor(3, 2, 17)
	other := randTensor(3, 3, 18)
	checkGrad(t, "concat", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		o := tp.Constant(other.Clone())
		y, err := tp.ConcatCols(o, x, o)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestGradGatherSegment(t *testing.T) {
	x := randTensor(5, 3, 19)
	idx := []int32{0, 2, 2, 4, 1, 0}
	seg := []int32{0, 1, 1, 0, 2, 2}
	checkGrad(t, "gather+segsum", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		g, err := tp.GatherRows(x, idx)
		if err != nil {
			return nil, err
		}
		s, err := tp.SegmentSum(g, seg, 3)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(s, s)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestGradSegmentMean(t *testing.T) {
	x := randTensor(6, 2, 20)
	seg := []int32{0, 0, 0, 1, 1, 2}
	checkGrad(t, "segmean", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		s, err := tp.SegmentMean(x, seg, 3)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(s, s)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestGradLSE(t *testing.T) {
	x := randTensor(8, 1, 21)
	checkGrad(t, "lse", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		return tp.LSE(x, 0.7)
	})
}

func TestGradMulBroadcast(t *testing.T) {
	x := randTensor(3, 2, 30)
	checkGrad(t, "mulbroadcast-a", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		s, _ := FromSlice(1, 1, []float64{1.7})
		tp.Constant(s)
		y, err := tp.MulBroadcast(x, s)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
	s := randTensor(1, 1, 31)
	other := randTensor(4, 2, 32)
	checkGrad(t, "mulbroadcast-s", s, func(tp *Tape, s *Tensor) (*Tensor, error) {
		o := tp.Constant(other.Clone())
		y, err := tp.MulBroadcast(o, s)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestMulBroadcastValidation(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(NewMatrix(2, 2))
	bad := tp.Constant(NewMatrix(2, 1))
	if _, err := tp.MulBroadcast(a, bad); err == nil {
		t.Fatal("non-scalar scale accepted")
	}
}

func TestGradConcatRows(t *testing.T) {
	x := randTensor(2, 3, 22)
	other := randTensor(4, 3, 23)
	checkGrad(t, "concatrows", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		o := tp.Constant(other.Clone())
		y, err := tp.ConcatRows(o, x)
		if err != nil {
			return nil, err
		}
		sq, err := tp.Mul(y, y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(sq)
	})
}

func TestConcatRowsValues(t *testing.T) {
	tp := NewTape()
	a, _ := FromSlice(1, 2, []float64{1, 2})
	b, _ := FromSlice(2, 2, []float64{3, 4, 5, 6})
	tp.Constant(a)
	tp.Constant(b)
	y, err := tp.ConcatRows(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3, 4, 5, 6}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("concatrows[%d]=%g want %g", i, y.Data[i], w)
		}
	}
	if _, err := tp.ConcatRows(a, tp.Constant(NewMatrix(1, 3))); err == nil {
		t.Fatal("mismatched cols accepted")
	}
	if _, err := tp.ConcatRows(); err == nil {
		t.Fatal("empty row concat accepted")
	}
}

func TestGradSegmentLSE(t *testing.T) {
	x := randTensor(7, 1, 24)
	seg := []int32{0, 0, 1, 1, 1, 2, 0}
	checkGrad(t, "segLSE", x, func(tp *Tape, x *Tensor) (*Tensor, error) {
		y, err := tp.SegmentLSE(x, seg, 3, 0.4)
		if err != nil {
			return nil, err
		}
		return tp.Sum(y)
	})
}

func TestSegmentLSEValues(t *testing.T) {
	tp := NewTape()
	x, _ := FromSlice(4, 1, []float64{1, 5, 2, 2})
	tp.Constant(x)
	// Segment 0 holds {1,5}, segment 1 holds {2,2}, segment 2 empty.
	y, err := tp.SegmentLSE(x, []int32{0, 0, 1, 1}, 3, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y.Data[0]-5) > 1e-6 {
		t.Fatalf("seg0=%g want ≈5", y.Data[0])
	}
	// Two equal values: LSE = v + γ·ln2.
	if math.Abs(y.Data[1]-(2+0.01*math.Log(2))) > 1e-9 {
		t.Fatalf("seg1=%g", y.Data[1])
	}
	if y.Data[2] != 0 {
		t.Fatalf("empty segment=%g want 0", y.Data[2])
	}
	// Validation errors.
	if _, err := tp.SegmentLSE(x, []int32{0, 0, 1}, 2, 0.1); err == nil {
		t.Fatal("short seg ids accepted")
	}
	if _, err := tp.SegmentLSE(x, []int32{0, 0, 1, 9}, 2, 0.1); err == nil {
		t.Fatal("out-of-range seg accepted")
	}
	if _, err := tp.SegmentLSE(x, []int32{0, 0, 1, 1}, 2, 0); err == nil {
		t.Fatal("zero gamma accepted")
	}
	m := tp.Constant(NewMatrix(2, 2))
	if _, err := tp.SegmentLSE(m, []int32{0, 1}, 2, 0.1); err == nil {
		t.Fatal("matrix input accepted")
	}
}

func TestLSEBoundsMax(t *testing.T) {
	// LSE ≥ max and LSE → max as γ → 0.
	tp := NewTape()
	x, err := FromSlice(4, 1, []float64{-3, 1.5, 0.2, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	tp.Constant(x)
	for _, gamma := range []float64{2.0, 0.5, 0.01} {
		y, err := tp.LSE(x, gamma)
		if err != nil {
			t.Fatal(err)
		}
		if y.Data[0] < 1.5 {
			t.Errorf("LSE(γ=%g)=%g below max", gamma, y.Data[0])
		}
	}
	tight, _ := tp.LSE(x, 0.01)
	if math.Abs(tight.Data[0]-1.5) > 1e-6 {
		t.Errorf("LSE(γ=0.01)=%g want ≈1.5", tight.Data[0])
	}
}

func TestLSEErrors(t *testing.T) {
	tp := NewTape()
	x := tp.Constant(NewVector(3))
	if _, err := tp.LSE(x, 0); err == nil {
		t.Fatal("gamma 0 accepted")
	}
	empty := tp.Constant(NewVector(0))
	if _, err := tp.LSE(empty, 1); err == nil {
		t.Fatal("empty LSE accepted")
	}
}

func TestShapeErrors(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(NewMatrix(2, 3))
	b := tp.Constant(NewMatrix(3, 2))
	if _, err := tp.Add(a, b); err == nil {
		t.Fatal("mismatched add accepted")
	}
	if _, err := tp.Mul(a, b); err == nil {
		t.Fatal("mismatched mul accepted")
	}
	if _, err := tp.MatMul(a, a); err == nil {
		t.Fatal("bad matmul accepted")
	}
	if _, err := tp.Linear(a, b, tp.Constant(NewVector(3))); err == nil {
		t.Fatal("bad bias accepted")
	}
	if _, err := tp.Linear(a, b, tp.Constant(lanedRand(2, 1, 2, 43))); err == nil {
		t.Fatal("2-lane bias on a 1-lane product accepted")
	}
	if _, err := tp.GatherRows(a, []int32{5}); err == nil {
		t.Fatal("out-of-range gather accepted")
	}
	if _, err := tp.SegmentSum(a, []int32{0}, 1); err == nil {
		t.Fatal("short segment ids accepted")
	}
	if _, err := tp.SegmentSum(a, []int32{0, 9}, 1); err == nil {
		t.Fatal("out-of-range segment accepted")
	}
	if _, err := tp.ConcatCols(); err == nil {
		t.Fatal("empty concat accepted")
	}
	if _, err := FromSlice(2, 2, []float64{1}); err == nil {
		t.Fatal("short FromSlice accepted")
	}
}

func TestBackwardValidation(t *testing.T) {
	tp := NewTape()
	v := tp.Leaf(NewVector(3))
	if err := tp.Backward(v); err == nil {
		t.Fatal("non-scalar backward accepted")
	}
	other := NewTape()
	s := other.Constant(NewVector(1))
	if err := tp.Backward(s); err == nil {
		t.Fatal("foreign-tape backward accepted")
	}
}

func TestMatMulValues(t *testing.T) {
	tp := NewTape()
	a, _ := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	tp.Constant(a)
	tp.Constant(b)
	c, err := tp.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if math.Abs(c.Data[i]-w) > 1e-12 {
			t.Fatalf("matmul[%d]=%g want %g", i, c.Data[i], w)
		}
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize ||x - target||² — Adam must approach the target.
	target := []float64{1.5, -2.0, 0.5}
	x := NewVector(3)
	opt := NewAdam(0.05, []*Tensor{x})
	for it := 0; it < 500; it++ {
		tp := NewTape()
		tp.Leaf(x)
		opt.ZeroGrad()
		tgt, _ := FromSlice(3, 1, target)
		tp.Constant(tgt)
		d, _ := tp.Sub(x, tgt)
		sq, _ := tp.Mul(d, d)
		loss, _ := tp.Sum(sq)
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		opt.Step()
	}
	for i, w := range target {
		if math.Abs(x.Data[i]-w) > 0.05 {
			t.Fatalf("Adam failed to converge: x[%d]=%g want %g", i, x.Data[i], w)
		}
	}
}

func TestXavierInitRange(t *testing.T) {
	w := NewMatrix(10, 20)
	XavierInit(w, rand.New(rand.NewSource(1)))
	limit := math.Sqrt(6.0 / 30.0)
	nonzero := false
	for _, v := range w.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier value %g exceeds limit %g", v, limit)
		}
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestCheckFinite(t *testing.T) {
	ok := NewVector(2)
	if err := CheckFinite(ok); err != nil {
		t.Fatal(err)
	}
	bad := NewVector(2)
	bad.Data[1] = math.NaN()
	if err := CheckFinite(bad); err == nil {
		t.Fatal("NaN accepted")
	}
	inf := NewVector(1)
	inf.Data[0] = math.Inf(1)
	if err := CheckFinite(inf); err == nil {
		t.Fatal("Inf accepted")
	}
}

func TestLinearComposite(t *testing.T) {
	tp := NewTape()
	x, _ := FromSlice(1, 2, []float64{1, 2})
	w, _ := FromSlice(2, 2, []float64{1, 0, 0, 1})
	b, _ := FromSlice(1, 2, []float64{10, 20})
	tp.Constant(x)
	tp.Constant(w)
	tp.Constant(b)
	y, err := tp.Linear(x, w, b)
	if err != nil {
		t.Fatal(err)
	}
	if y.Data[0] != 11 || y.Data[1] != 22 {
		t.Fatalf("linear=%v want [11 22]", y.Data)
	}
}

func TestTapeResetReuse(t *testing.T) {
	tp := NewTape()
	x := tp.Leaf(NewVector(2))
	x.Data[0], x.Data[1] = 1, 2
	sq, _ := tp.Mul(x, x)
	loss, _ := tp.Sum(sq)
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	g0 := append([]float64(nil), x.Grad...)
	tp.Reset()
	x.ZeroGrad()
	tp.Leaf(x)
	sq2, _ := tp.Mul(x, x)
	loss2, _ := tp.Sum(sq2)
	if err := tp.Backward(loss2); err != nil {
		t.Fatal(err)
	}
	for i := range g0 {
		if x.Grad[i] != g0[i] {
			t.Fatal("reset tape produced different gradients")
		}
	}
}

// TestConstantDropsLeafTracking attaches a tensor as a Leaf, then as a
// Constant on a fresh tape: ops on it must record no gradient, and a
// Backward through a loss that uses it must leave its Grad untouched.
func TestConstantDropsLeafTracking(t *testing.T) {
	w := randTensor(3, 1, 1)
	NewTape().Leaf(w)
	for i := range w.Grad {
		w.Grad[i] = float64(i) + 0.5
	}
	before := append([]float64(nil), w.Grad...)

	tp := NewTape()
	tp.Constant(w)
	if w.RequiresGrad() {
		t.Fatal("Constant kept the former leaf's gradient tracking")
	}
	scaled, err := tp.Scale(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.RequiresGrad() || len(tp.backwards) != 0 {
		t.Fatalf("op on a constant tracks gradients: requiresGrad %v, %d backward steps",
			scaled.RequiresGrad(), len(tp.backwards))
	}
	x := tp.Leaf(randTensor(3, 1, 2))
	prod, err := tp.Mul(x, scaled)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := tp.Sum(prod)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	for i := range w.Grad {
		if w.Grad[i] != before[i] {
			t.Fatalf("Backward wrote the constant's Grad[%d]: %v, was %v", i, w.Grad[i], before[i])
		}
	}
	for i := range x.Grad {
		if x.Grad[i] != scaled.Data[i] {
			t.Fatalf("leaf Grad[%d] = %v, want %v", i, x.Grad[i], scaled.Data[i])
		}
	}
}
