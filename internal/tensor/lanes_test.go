package tensor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"tsteiner/internal/check"
)

// lanedRand fills a lanes×rows×cols tensor with deterministic
// pseudo-random values.
func lanedRand(lanes, rows, cols int, seed int64) *Tensor {
	rng := rand.New(rand.NewSource(seed))
	t := &Tensor{Rows: rows, Cols: cols, Lanes: lanes, Data: make([]float64, lanes*rows*cols)}
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

// checkGradK builds a loss from a (possibly batched) leaf x via f,
// reducing whatever f returns to a scalar with SumLanes+Sum, and asserts
// the analytic gradient matches finite differences across every lane.
func checkGradK(t *testing.T, name string, x *Tensor, f func(tp *Tape, x *Tensor) (*Tensor, error)) {
	t.Helper()
	build := func() (*Tensor, *Tape, error) {
		tp := NewTape()
		xr := &Tensor{Rows: x.Rows, Cols: x.Cols, Lanes: x.Lanes, Data: x.Data}
		tp.Leaf(xr)
		xr.ZeroGrad()
		y, err := f(tp, xr)
		if err != nil {
			return nil, nil, err
		}
		flat, err := tp.SumLanes(y)
		if err != nil {
			return nil, nil, err
		}
		loss, err := tp.Sum(flat)
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

// TestGradLanesPerOp gradchecks every SoA kernel on batched inputs at
// K ∈ {1, 3}, with 1-lane constants exercising the broadcast paths.
func TestGradLanesPerOp(t *testing.T) {
	for _, K := range []int{1, 3} {
		other := randTensor(4, 3, 100) // 1-lane broadcast operand
		cases := []struct {
			name string
			x    *Tensor
			f    func(tp *Tape, x *Tensor) (*Tensor, error)
		}{
			{"add-bcast", lanedRand(K, 4, 3, 1), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Add(x, tp.Constant(other.Clone()))
			}},
			{"sub-bcast", lanedRand(K, 4, 3, 2), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Sub(x, tp.Constant(other.Clone()))
			}},
			{"mul-bcast", lanedRand(K, 4, 3, 3), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Mul(x, tp.Constant(other.Clone()))
			}},
			{"mul-self", lanedRand(K, 4, 3, 4), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Mul(x, x)
			}},
			{"scale-addscalar", lanedRand(K, 4, 3, 5), func(tp *Tape, x *Tensor) (*Tensor, error) {
				y, err := tp.Scale(x, -1.7)
				if err != nil {
					return nil, err
				}
				return tp.AddScalar(y, 0.3)
			}},
			{"mulbroadcast-shared-s", lanedRand(K, 4, 3, 6), func(tp *Tape, x *Tensor) (*Tensor, error) {
				s, _ := FromSlice(1, 1, []float64{1.3})
				y, err := tp.MulBroadcast(x, tp.Constant(s))
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"mulbroadcast-perlane-s", lanedRand(K, 1, 1, 7), func(tp *Tape, x *Tensor) (*Tensor, error) {
				a := tp.Constant(lanedRand(K, 4, 3, 107))
				y, err := tp.MulBroadcast(a, x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"matmul-shared-weight", lanedRand(K, 4, 3, 8), func(tp *Tape, x *Tensor) (*Tensor, error) {
				w := tp.Constant(randTensor(3, 2, 108))
				y, err := tp.MatMul(x, w)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"matmul-weight-grad", randTensor(3, 2, 9), func(tp *Tape, x *Tensor) (*Tensor, error) {
				a := tp.Constant(lanedRand(K, 4, 3, 109))
				y, err := tp.MatMul(a, x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"linear-shared-bias", randTensor(1, 2, 10), func(tp *Tape, x *Tensor) (*Tensor, error) {
				a := tp.Constant(lanedRand(K, 4, 3, 110))
				y, err := tp.Linear(a, tp.Constant(randTensor(3, 2, 113)), x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"linear-perlane-bias", lanedRand(K, 1, 2, 28), func(tp *Tape, x *Tensor) (*Tensor, error) {
				a := tp.Constant(lanedRand(K, 4, 3, 128))
				y, err := tp.Linear(a, tp.Constant(randTensor(3, 2, 129)), x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"linear", lanedRand(K, 4, 3, 11), func(tp *Tape, x *Tensor) (*Tensor, error) {
				w := tp.Constant(randTensor(3, 2, 111))
				b := tp.Constant(randTensor(1, 2, 112))
				y, err := tp.Linear(x, w, b)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"tanh", lanedRand(K, 4, 3, 12), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Tanh(x)
			}},
			{"softplus", lanedRand(K, 4, 3, 14), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.Softplus(x)
			}},
			{"concatcols-bcast", lanedRand(K, 4, 2, 17), func(tp *Tape, x *Tensor) (*Tensor, error) {
				o := tp.Constant(other.Clone())
				y, err := tp.ConcatCols(o, x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"concatrows-bcast", lanedRand(K, 2, 3, 18), func(tp *Tape, x *Tensor) (*Tensor, error) {
				o := tp.Constant(other.Clone())
				y, err := tp.ConcatRows(o, x)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"gather-segsum", lanedRand(K, 5, 3, 19), func(tp *Tape, x *Tensor) (*Tensor, error) {
				g, err := tp.GatherRows(x, []int32{0, 2, 2, 4, 1, 0})
				if err != nil {
					return nil, err
				}
				s, err := tp.SegmentSum(g, []int32{0, 1, 1, 0, 2, 2}, 3)
				if err != nil {
					return nil, err
				}
				return tp.Mul(s, s)
			}},
			{"segmean", lanedRand(K, 6, 2, 20), func(tp *Tape, x *Tensor) (*Tensor, error) {
				s, err := tp.SegmentMean(x, []int32{0, 0, 0, 1, 1, 2}, 3)
				if err != nil {
					return nil, err
				}
				return tp.Mul(s, s)
			}},
			{"lse", lanedRand(K, 8, 1, 21), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.LSE(x, 0.7)
			}},
			{"seglse", lanedRand(K, 7, 1, 24), func(tp *Tape, x *Tensor) (*Tensor, error) {
				return tp.SegmentLSE(x, []int32{0, 0, 1, 1, 1, 2, 0}, 3, 0.4)
			}},
			{"slicelane", lanedRand(K, 4, 3, 25), func(tp *Tape, x *Tensor) (*Tensor, error) {
				y, err := tp.SliceLane(x, K-1)
				if err != nil {
					return nil, err
				}
				return tp.Mul(y, y)
			}},
			{"sumlanes", lanedRand(K, 4, 3, 26), func(tp *Tape, x *Tensor) (*Tensor, error) {
				y, err := tp.Mul(x, x)
				if err != nil {
					return nil, err
				}
				return tp.SumLanes(y)
			}},
			{"sum-per-lane", lanedRand(K, 4, 3, 27), func(tp *Tape, x *Tensor) (*Tensor, error) {
				y, err := tp.Mul(x, x)
				if err != nil {
					return nil, err
				}
				return tp.Sum(y)
			}},
		}
		for _, c := range cases {
			x, f := c.x, c.f
			t.Run(c.name, func(t *testing.T) {
				checkGradK(t, c.name, x, f)
			})
		}
		// Abs needs values away from the kink.
		abs := lanedRand(K, 4, 3, 16)
		for i := range abs.Data {
			if math.Abs(abs.Data[i]) < 0.05 {
				abs.Data[i] = -0.2
			}
		}
		checkGradK(t, "abs", abs, func(tp *Tape, x *Tensor) (*Tensor, error) { return tp.Abs(x) })
	}
}

// laneNet runs a composite network (gather → linear → tanh → segment-sum
// → segment-LSE-style reduction) on the given leaf and returns the
// per-lane output plus the tape.
func laneNet(tp *Tape, x *Tensor) (*Tensor, error) {
	w, _ := FromSlice(3, 1, []float64{0.4, -0.7, 0.2})
	b, _ := FromSlice(1, 1, []float64{0.05})
	tp.Constant(w)
	tp.Constant(b)
	g, err := tp.GatherRows(x, []int32{0, 2, 2, 4, 1, 0})
	if err != nil {
		return nil, err
	}
	h, err := tp.Linear(g, w, b)
	if err != nil {
		return nil, err
	}
	h, err = tp.Tanh(h)
	if err != nil {
		return nil, err
	}
	s, err := tp.SegmentSum(h, []int32{0, 1, 1, 0, 2, 2}, 3)
	if err != nil {
		return nil, err
	}
	return tp.SegmentLSE(s, []int32{0, 0, 1}, 2, 0.3)
}

// TestLaneBitwiseMatchesUnbatched is the kernel-level byte-equivalence
// gate: lane k of a K-lane forward/backward must be bit-identical to an
// unbatched run on lane k's block alone, on both the allocating and the
// workspace paths.
func TestLaneBitwiseMatchesUnbatched(t *testing.T) {
	const K, rows, cols = 3, 5, 3
	master := lanedRand(K, rows, cols, 33)
	run := func(tp *Tape, x *Tensor) (*Tensor, error) {
		y, err := laneNet(tp, x)
		if err != nil {
			return nil, err
		}
		flat, err := tp.SumLanes(y)
		if err != nil {
			return nil, err
		}
		return tp.Sum(flat)
	}

	for _, ws := range []*Workspace{nil, NewWorkspace()} {
		name := "alloc"
		if ws != nil {
			name = "workspace"
		}
		var tp *Tape
		if ws != nil {
			tp = ws.Tape()
		} else {
			tp = NewTape()
		}
		x := &Tensor{Rows: rows, Cols: cols, Lanes: K, Data: append([]float64(nil), master.Data...)}
		tp.Leaf(x)
		y, err := laneNet(tp, x)
		if err != nil {
			t.Fatal(err)
		}
		batchedVals := append([]float64(nil), y.Data...)
		loss, err := run(tp, x)
		if err != nil {
			t.Fatal(err)
		}
		_ = loss
		if err := tp.Backward(loss); err != nil {
			t.Fatal(err)
		}
		batchedGrad := append([]float64(nil), x.Grad...)

		st := rows * cols
		yst := y.laneStride()
		for k := 0; k < K; k++ {
			stp := NewTape()
			xk := &Tensor{Rows: rows, Cols: cols, Data: append([]float64(nil), master.Data[k*st:(k+1)*st]...)}
			stp.Leaf(xk)
			yk, err := laneNet(stp, xk)
			if err != nil {
				t.Fatal(err)
			}
			for i := range yk.Data {
				if yk.Data[i] != batchedVals[k*yst+i] {
					t.Fatalf("%s: lane %d value[%d]: batched %v != sequential %v",
						name, k, i, batchedVals[k*yst+i], yk.Data[i])
				}
			}
			lk, err := stp.Sum(yk)
			if err != nil {
				t.Fatal(err)
			}
			if err := stp.Backward(lk); err != nil {
				t.Fatal(err)
			}
			for i := range xk.Grad {
				if xk.Grad[i] != batchedGrad[k*st+i] {
					t.Fatalf("%s: lane %d grad[%d]: batched %v != sequential %v",
						name, k, i, batchedGrad[k*st+i], xk.Grad[i])
				}
			}
		}
	}
}

// TestSliceLaneValues pins the slicing/reduction semantics of the lane
// axis ops and their validation errors.
func TestSliceLaneValues(t *testing.T) {
	tp := NewTape()
	x, err := tp.CopyInLanes(2, 2, 1, []float64{1, 2, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := tp.SliceLane(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l1.Data[0] != 10 || l1.Data[1] != 20 || l1.LaneCount() != 1 {
		t.Fatalf("SliceLane(1)=%v lanes=%d", l1.Data, l1.LaneCount())
	}
	total, err := tp.SumLanes(x)
	if err != nil {
		t.Fatal(err)
	}
	if total.Data[0] != 11 || total.Data[1] != 22 {
		t.Fatalf("SumLanes=%v", total.Data)
	}
	if _, err := tp.SliceLane(x, 2); err == nil {
		t.Fatal("out-of-range lane accepted")
	}
	if _, err := tp.SliceLane(x, -1); err == nil {
		t.Fatal("negative lane accepted")
	}
	if _, err := tp.CopyInLanes(2, 2, 1, []float64{1}); err == nil {
		t.Fatal("short CopyInLanes accepted")
	}
	if _, err := tp.CopyInLanes(0, 2, 1, nil); err == nil {
		t.Fatal("zero-lane CopyInLanes accepted")
	}
}

// TestLaneMismatchRejected pins the broadcast rule: differing lane counts
// are only compatible when one side is unbatched.
func TestLaneMismatchRejected(t *testing.T) {
	tp := NewTape()
	a := tp.Constant(lanedRand(2, 2, 2, 40))
	b := tp.Constant(lanedRand(3, 2, 2, 41))
	if _, err := tp.Add(a, b); err == nil {
		t.Fatal("2-lane + 3-lane accepted")
	}
	if _, err := tp.MatMul(a, b); err == nil {
		t.Fatal("2-lane · 3-lane accepted")
	}
	if _, err := tp.ConcatCols(a, b); err == nil {
		t.Fatal("2-lane ++ 3-lane accepted")
	}
	// K-lane pseudo-scalar must be rejected by Backward.
	s := tp.Constant(lanedRand(2, 1, 1, 42))
	if err := tp.Backward(s); err == nil {
		t.Fatal("multi-lane scalar backward accepted")
	}
}

// hostileIdx is a generator of adversarial index vectors: in-range,
// negative, just-past-the-end and extreme int32 values.
func hostileIdx(n int) check.Gen[[]int] {
	return check.SliceOf(0, 8, check.OneOf(
		check.Int(0, n-1),
		check.Int(-3, n+3),
		check.Const(int(math.MinInt32)),
		check.Const(int(math.MaxInt32)),
	))
}

// TestHostileIndicesTyped feeds hostile index vectors to
// GatherRows/SegmentSum/SegmentLSE and asserts they never panic, reject
// exactly the out-of-range inputs, and report them via *IndexError.
func TestHostileIndicesTyped(t *testing.T) {
	const n = 5
	check.Run(t, hostileIdx(n), func(raw []int) error {
		idx := make([]int32, len(raw))
		firstBad := -1
		for i, v := range raw {
			idx[i] = int32(v)
			if firstBad < 0 && (v < 0 || v >= n) {
				firstBad = i
			}
		}
		verify := func(op string, err error) error {
			if firstBad < 0 {
				if err != nil {
					return err
				}
				return nil
			}
			var ie *IndexError
			if !errors.As(err, &ie) {
				return fmt.Errorf("%s: want *IndexError for %v, got %v", op, raw, err)
			}
			if ie.Op != op || ie.Pos != firstBad || ie.Index != idx[firstBad] || ie.N != n {
				return fmt.Errorf("%s: got %+v, want pos %d index %d n %d", op, ie, firstBad, idx[firstBad], n)
			}
			return nil
		}

		tp := NewTape()
		a := tp.Constant(randTensor(n, 2, 7))
		_, err := tp.GatherRows(a, idx)
		if verr := verify("GatherRows", err); verr != nil {
			return verr
		}

		rows := tp.Constant(randTensor(len(idx), 2, 8))
		_, err = tp.SegmentSum(rows, idx, n)
		if verr := verify("SegmentSum", err); verr != nil {
			return verr
		}

		col := tp.Constant(randTensor(len(idx), 1, 9))
		_, err = tp.SegmentLSE(col, idx, n, 0.5)
		if verr := verify("SegmentLSE", err); verr != nil {
			return verr
		}
		return nil
	})
}
