package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// linearShapes are the evaluator's largest dense layers on usb_cdc_core:
// the broadcast message (2939 tree edges, 2H+1 → H), the reduce message
// (2597 sinks, 2H+2 → H) and the wire head's output layer (H → 1).
var linearShapes = []struct{ m, k, n int }{{2939, 17, 8}, {2597, 18, 8}, {2597, 8, 1}}

// BenchmarkLinear times one Linear op at the evaluator's shapes on a
// workspace tape, as the refine loop and training run it: "forward" on
// constant operands (candidate scoring), "forward+backward" with x, W and
// b as leaves and a preset output gradient, running the op's recorded
// backward step(s).
func BenchmarkLinear(b *testing.B) {
	for _, sh := range linearShapes {
		x, w, bias := randTensor(sh.m, sh.k, 1), randTensor(sh.k, sh.n, 2), randTensor(1, sh.n, 3)
		g := randTensor(sh.m, sh.n, 4).Data
		name := fmt.Sprintf("%dx%d·%dx%d", sh.m, sh.k, sh.k, sh.n)
		b.Run(name+"/forward", func(b *testing.B) {
			ws := NewWorkspace()
			for i := 0; i < b.N; i++ {
				tp := ws.Tape()
				if _, err := tp.Linear(tp.Constant(x), tp.Constant(w), tp.Constant(bias)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/forward+backward", func(b *testing.B) {
			ws := NewWorkspace()
			for i := 0; i < b.N; i++ {
				tp := ws.Tape()
				y, err := tp.Linear(tp.Leaf(x), tp.Leaf(w), tp.Leaf(bias))
				if err != nil {
					b.Fatal(err)
				}
				y.Grad = g
				for r := len(tp.backwards) - 1; r >= 0; r-- {
					tp.backwards[r]()
				}
			}
		})
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(512, 64)
	w := NewMatrix(64, 64)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(a)
		tp.Constant(w)
		if _, err := tp.MatMul(a, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatherSegmentSum(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	src := NewMatrix(100000, 8)
	for i := range src.Data {
		src.Data[i] = rng.NormFloat64()
	}
	idx := make([]int32, 200000)
	seg := make([]int32, 200000)
	for i := range idx {
		idx[i] = int32(rng.Intn(src.Rows))
		seg[i] = int32(rng.Intn(50000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(src)
		g, err := tp.GatherRows(src, idx)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tp.SegmentSum(g, seg, 50000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackwardMLP(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := NewMatrix(20000, 12)
	w1 := NewMatrix(12, 8)
	w2 := NewMatrix(8, 1)
	b1 := NewMatrix(1, 8)
	b2 := NewMatrix(1, 1)
	for _, t := range []*Tensor{x, w1, w2, b1, b2} {
		for i := range t.Data {
			t.Data[i] = rng.NormFloat64() * 0.3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := NewTape()
		tp.Constant(x)
		for _, t := range []*Tensor{w1, w2, b1, b2} {
			t.ZeroGrad()
			tp.Leaf(t)
		}
		h, err := tp.Linear(x, w1, b1)
		if err != nil {
			b.Fatal(err)
		}
		a, _ := tp.Tanh(h)
		o, err := tp.Linear(a, w2, b2)
		if err != nil {
			b.Fatal(err)
		}
		loss, _ := tp.Sum(o)
		if err := tp.Backward(loss); err != nil {
			b.Fatal(err)
		}
	}
}
