package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// opGraph records the tensors of a test graph and its first error.
type opGraph struct {
	ts  []*Tensor
	err error
}

// op keeps an op's result for the gradient comparison.
func (g *opGraph) op(t *Tensor, err error) *Tensor {
	if err != nil {
		if g.err == nil {
			g.err = err
		}
		return &Tensor{}
	}
	g.ts = append(g.ts, t)
	return t
}

// buildGraph runs a small op graph touching every pooled code path
// (results, grad buffers, index captures, op-internal scratch) and every
// backward kernel that may take a raw gradient buffer: Add, Mul, Scale,
// MulBroadcast, Tanh, Softplus, ConcatCols, SegmentSum and Linear's dX.
// Each of those meets its operand's gradient first in some case here,
// including operands that appear twice in one op, 1-lane operands
// broadcast over 3 lanes, and −0 products. It returns the loss and every
// tensor of the graph, leaves included, after Backward.
func buildGraph(tp *Tape, data []float64) (*Tensor, []*Tensor, error) {
	var g opGraph
	leaf := func(t *Tensor, err error) *Tensor {
		t = g.op(t, err)
		if g.err == nil {
			tp.Leaf(t)
		}
		return t
	}
	x := leaf(FromSlice(len(data), 1, data))
	// GatherRows scatters into a zeroed buffer; row 1 is never gathered.
	xa := g.op(tp.Scale(x, 2))
	gr := g.op(tp.GatherRows(xa, []int32{0, 2, 2, 3, 0}))
	s := g.op(tp.SegmentSum(gr, []int32{0, 1, 0, 1, 1}, 2))
	mn := g.op(tp.SegmentMean(gr, []int32{1, 1, 0, 0, 1}, 2))
	l := g.op(tp.SegmentLSE(gr, []int32{0, 0, 1, 1, 1}, 2, 0.3))
	a := g.op(tp.Add(s, mn))
	a = g.op(tp.Add(a, l))
	a = g.op(tp.Tanh(a))

	// Operands that appear twice, each op their only consumer: fresh
	// only where they first appear.
	aa := g.op(tp.Add(a, a))
	dd := g.op(tp.Mul(aa, aa))
	xx := g.op(tp.ConcatCols(dd, dd))

	// The mask's zero column: Mul hands ng the product g·0, −0 for a
	// negative g, and Scale(−1) turns ng's +0 into the product −0.
	mask := g.op(FromSlice(2, 2, []float64{1, 0, 1, 0}))
	tp.Constant(mask)
	ng := g.op(tp.Scale(xx, -1))
	mk := g.op(tp.Mul(ng, mask))
	sp := g.op(tp.Softplus(mk))

	// A 3-lane graph. The 1-lane operands sp, sh, t1, t2 and t3
	// broadcast: lane 0 stores into their fresh gradients, and lanes 1
	// and 2 add onto it.
	w3 := leaf(tp.CopyInLanes(3, 2, 2, []float64{0.5, -1, 2, 0.25, -0.75, 1.5, 1, -2, 0.3, 0.6, -0.9, 1.2}))
	lin := g.op(tp.Linear(sp, w3, nil))
	wl := leaf(FromSlice(2, 2, []float64{0.7, -0.2, 0.4, 1.1}))
	lin2 := g.op(tp.Linear(lin, wl, nil))
	c3 := leaf(tp.CopyInLanes(3, 1, 1, []float64{0.5, -1.5, 2}))
	// Lane 1 of lin2's gradient is the product +0·(−1.5) in the masked
	// column.
	mb := g.op(tp.MulBroadcast(lin2, c3))
	sh := g.op(tp.Scale(mk, 0.5))
	mb2 := g.op(tp.MulBroadcast(sh, c3))
	sum3 := g.op(tp.Add(mb, mb2))
	t1 := g.op(tp.Tanh(mk))
	ab := g.op(tp.Add(t1, sum3))
	t2 := g.op(tp.Softplus(mk))
	mm := g.op(tp.Mul(ab, t2))
	// Under Scale(−1), Mul hands mm the product (−1)·0 = −0.
	mm2 := g.op(tp.Mul(mm, mask))
	neg := g.op(tp.Scale(mm2, -1))
	t3 := g.op(tp.Tanh(l))
	cc := g.op(tp.ConcatCols(neg, t3))
	ss := g.op(tp.SegmentSum(cc, []int32{1, 0}, 2))
	sm := g.op(tp.Sum(ss))
	loss := g.op(tp.SumLanes(sm))

	// Underflow: the gradient −5e-324, the smallest subnormal, times
	// Tanh's or Softplus's factor (< 1/2 here) rounds to −0.
	v := leaf(FromSlice(2, 1, []float64{3, -3}))
	e1 := g.op(tp.Scale(v, 1))
	e2 := g.op(tp.Scale(v, 1))
	tv := g.op(tp.Tanh(e1))
	pv := g.op(tp.Softplus(e2))
	u := g.op(tp.Add(tv, pv))
	tiny := g.op(tp.Scale(u, -5e-324))
	ts := g.op(tp.Sum(tiny))
	loss = g.op(tp.Add(loss, ts))
	if g.err != nil {
		return nil, nil, g.err
	}
	if err := tp.Backward(loss); err != nil {
		return nil, nil, err
	}
	return loss, g.ts, nil
}

// gradBits copies every tensor's gradient as raw bits (nil stays nil),
// so a stored −0 differs from +0.
func gradBits(ts []*Tensor) [][]uint64 {
	out := make([][]uint64, len(ts))
	for i, t := range ts {
		if t.Grad == nil {
			continue
		}
		out[i] = make([]uint64, len(t.Grad))
		for j, v := range t.Grad {
			out[i][j] = math.Float64bits(v)
		}
	}
	return out
}

// TestWorkspaceOpsByteIdentical re-runs the same graph on a plain tape
// and on a reused workspace tape (several times, so reuse actually
// kicks in) and requires bit-identical values and gradients. Between
// rounds every free buffer is filled with NaN, so a kernel that reads a
// raw buffer before writing it, or leaves an element unwritten, shows.
func TestWorkspaceOpsByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 4)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	wantLoss, wantTs, err := buildGraph(NewTape(), data)
	if err != nil {
		t.Fatal(err)
	}
	want := gradBits(wantTs)
	ws := NewWorkspace()
	for round := 0; round < 3; round++ {
		if round > 0 {
			ws.Reset()
			ws.poisonFree()
		}
		loss, ts, err := buildGraph(ws.Tape(), data)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if math.Float64bits(loss.Data[0]) != math.Float64bits(wantLoss.Data[0]) {
			t.Fatalf("round %d: loss %v != %v", round, loss.Data[0], wantLoss.Data[0])
		}
		got := gradBits(ts)
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("round %d: tensor %d has %d gradient values, want %d", round, i, len(got[i]), len(want[i]))
			}
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Fatalf("round %d: tensor %d grad[%d] %v (bits %#x) != %v (bits %#x)", round, i, j,
						math.Float64frombits(got[i][j]), got[i][j], math.Float64frombits(want[i][j]), want[i][j])
				}
			}
		}
	}
	st := ws.Stats()
	if st.Grabs == 0 {
		t.Fatal("workspace never grabbed a buffer")
	}
	if st.Hits == 0 {
		t.Fatal("workspace reuse never hit the free list across identical rounds")
	}
}

// poisonFree fills every free float64 buffer with NaN.
func (ws *Workspace) poisonFree() {
	for _, bufs := range ws.f64 {
		for _, b := range bufs {
			for i := range b {
				b[i] = math.NaN()
			}
		}
	}
}

// TestWorkspaceResetZeroes proves reset purity: a buffer polluted in one
// round must come back zeroed in the next.
func TestWorkspaceResetZeroes(t *testing.T) {
	ws := NewWorkspace()
	tp := ws.Tape()
	a := tp.Zeros(3, 2)
	for i := range a.Data {
		a.Data[i] = 42
	}
	tp = ws.Tape() // reset: the same storage must be handed out zeroed
	b := tp.Zeros(3, 2)
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused buffer element %d = %v, want 0", i, v)
		}
	}
	if ws.Stats().Hits == 0 {
		t.Fatal("expected the second Zeros to reuse the first buffer")
	}
}

func TestAliasSharesBacking(t *testing.T) {
	tp := NewTape()
	data := []float64{1, 2, 3}
	a, err := tp.Alias(3, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	if &a.Data[0] != &data[0] {
		t.Fatal("Alias copied instead of sharing")
	}
	if _, err := tp.Alias(2, 2, data); err == nil {
		t.Fatal("Alias accepted a shape mismatch")
	}
}

func TestCopyInCopies(t *testing.T) {
	ws := NewWorkspace()
	tp := ws.Tape()
	data := []float64{4, 5}
	c, err := tp.CopyIn(2, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	if &c.Data[0] == &data[0] {
		t.Fatal("CopyIn aliased the input")
	}
	if c.Data[0] != 4 || c.Data[1] != 5 {
		t.Fatalf("CopyIn values %v", c.Data)
	}
	if _, err := tp.CopyIn(3, 1, data); err == nil {
		t.Fatal("CopyIn accepted a shape mismatch")
	}
}

// TestWorkspaceLeafGradPersistence: a Leaf attached to a workspace tape
// but not built by it (a model parameter) must keep an ordinary heap
// gradient buffer that survives workspace resets.
func TestWorkspaceLeafGradPersistence(t *testing.T) {
	ws := NewWorkspace()
	tp := ws.Tape()
	p, _ := FromSlice(2, 1, []float64{1, 2})
	tp.Leaf(p)
	grad := p.Grad
	if grad == nil {
		t.Fatal("Leaf did not allocate a gradient")
	}
	ws.Tape() // reset
	if &p.Grad[0] != &grad[0] {
		t.Fatal("parameter gradient buffer was replaced")
	}
}
