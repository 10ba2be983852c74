package gnn

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

func prepared(t *testing.T, name string, scale float64) *flow.Prepared {
	t.Helper()
	p, err := flow.PrepareBenchmark(name, scale, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewBatchInvariants(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, err := NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	// Node count = total tree nodes; sink arrays = total net sinks.
	wantNodes := 0
	wantSinks := 0
	for _, tr := range p.Forest.Trees {
		wantNodes += len(tr.Nodes)
	}
	for ni := range p.Design.Nets {
		wantSinks += len(p.Design.Nets[ni].Sinks)
	}
	if b.NNodes != wantNodes {
		t.Fatalf("NNodes=%d want %d", b.NNodes, wantNodes)
	}
	if len(b.SinkSinkPin) != wantSinks {
		t.Fatalf("sinks=%d want %d", len(b.SinkSinkPin), wantSinks)
	}
	if b.NSteiner != p.Forest.Stats().SteinerNodes {
		t.Fatalf("NSteiner=%d want %d", b.NSteiner, p.Forest.Stats().SteinerNodes)
	}
	if len(b.EdgePar) != p.Forest.Stats().TreeEdges {
		t.Fatalf("edges=%d want %d", len(b.EdgePar), p.Forest.Stats().TreeEdges)
	}
	// Every level entry's pins within range; endpoints match design.
	if len(b.Endpoints) != len(p.Design.Endpoints()) {
		t.Fatal("endpoint count mismatch")
	}
	// Levels: each sink appears exactly once.
	seen := make([]bool, len(b.SinkSinkPin))
	for _, L := range b.Levels {
		for _, s := range L.SinkIdx {
			if seen[s] {
				t.Fatal("sink assigned to two levels")
			}
			seen[s] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("sink %d missing from levels", i)
		}
	}
}

func TestBatchPathPairsConsistent(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, err := NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	// Summing constant edge lengths via path pairs must equal a direct
	// per-tree BFS computation for a few sinks.
	lens := make([]float64, len(b.EdgePar))
	for e := range lens {
		// Compute from batch structure itself: child/parent positions via
		// forest topology is awkward here, so just check indices in range.
		if b.PathPairEdge[0] < 0 {
			t.Fatal("negative path pair edge")
		}
		_ = e
	}
	for i := range b.PathPairEdge {
		if int(b.PathPairEdge[i]) >= len(b.EdgePar) {
			t.Fatal("path pair edge out of range")
		}
		if int(b.PathPairSink[i]) >= len(b.SinkSinkPin) {
			t.Fatal("path pair sink out of range")
		}
	}
	for i := range b.SubPairAnchor {
		if int(b.SubPairAnchor[i]) >= len(b.EdgePar) || int(b.SubPairEdge[i]) >= len(b.EdgePar) {
			t.Fatal("subtree pair out of range")
		}
		if b.SubPairAnchor[i] == b.SubPairEdge[i] {
			t.Fatal("subtree pair includes self (must be strict descendants)")
		}
	}
}

func TestForwardShapesAndFiniteness(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, err := NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(DefaultConfig(), 7)
	tp := tensor.NewTape()
	xs, ys, err := b.SteinerLeaves(tp, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Forward(tp, b, xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Arrival.Rows != p.Design.NumPins() {
		t.Fatalf("arrival rows=%d want %d", pred.Arrival.Rows, p.Design.NumPins())
	}
	if pred.Slack.Rows != len(b.Endpoints) {
		t.Fatal("slack length mismatch")
	}
	if err := tensor.CheckFinite(pred.Arrival); err != nil {
		t.Fatal(err)
	}
	// Arrivals are sums of softplus deltas: non-negative.
	for i, v := range pred.Arrival.Data {
		if v < 0 {
			t.Fatalf("negative predicted arrival %g at pin %d", v, i)
		}
	}
}

func TestGradientFlowsToSteinerCoords(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, err := NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(DefaultConfig(), 7)
	tp := tensor.NewTape()
	xs, ys, err := b.SteinerLeaves(tp, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Forward(tp, b, xs, ys, false)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := tp.Sum(pred.EndpointArrival)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	nz := 0
	for _, g := range xs.Grad {
		if g != 0 {
			nz++
		}
	}
	for _, g := range ys.Grad {
		if g != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("no gradient reached any Steiner coordinate")
	}
}

// TestSteinerGradientMatchesFiniteDifference gradchecks the position
// gradients on both evaluation paths: the plain allocating tape and a
// workspace-pooled tape reset between builds, so the pooled backward pass
// is held to the same finite-difference standard. It runs at the default
// MPIters 3 and at MPIters 1, where the only round has no reduce; there a
// trainParams backward must also leave the reduce weights' gradients
// exactly zero.
func TestSteinerGradientMatchesFiniteDifference(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, err := NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	model := func(mpIters int) *Model {
		cfg := DefaultConfig()
		cfg.MPIters = mpIters
		return NewModel(cfg, 7)
	}
	xsv, _, _ := p.Forest.SteinerPositions()
	if len(xsv) == 0 {
		t.Skip("no Steiner points")
	}
	for _, tc := range []struct {
		name    string
		mpIters int
		ws      *tensor.Workspace
	}{
		{name: "allocating", mpIters: 3, ws: nil},
		{name: "workspace", mpIters: 3, ws: tensor.NewWorkspace()},
		{name: "allocating-mpiters1", mpIters: 1, ws: nil},
		{name: "workspace-mpiters1", mpIters: 1, ws: tensor.NewWorkspace()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := model(tc.mpIters)
			x, err := tensor.FromSlice(len(xsv), 1, xsv)
			if err != nil {
				t.Fatal(err)
			}
			build := func() (*tensor.Tensor, *tensor.Tape, error) {
				var tp *tensor.Tape
				if tc.ws != nil {
					tp = tc.ws.Tape()
				} else {
					tp = tensor.NewTape()
				}
				xr := &tensor.Tensor{Rows: x.Rows, Cols: 1, Data: x.Data}
				tp.Leaf(xr)
				xr.ZeroGrad()
				ysv := make([]float64, len(xsv))
				_, yv, _ := p.Forest.SteinerPositions()
				copy(ysv, yv)
				yt, _ := tensor.FromSlice(len(ysv), 1, ysv)
				tp.Constant(yt)
				pred, err := m.Forward(tp, b, xr, yt, false)
				if err != nil {
					return nil, nil, err
				}
				loss, err := tp.Sum(pred.EndpointArrival)
				if err != nil {
					return nil, nil, err
				}
				x.Grad = xr.Grad
				return loss, tp, nil
			}
			worst, err := tensor.GradCheck(x, build, 1e-4, 8)
			if err != nil {
				t.Fatal(err)
			}
			// Coordinates are O(100) and arrivals O(1); gradients are
			// O(1e-3). Allow loose tolerance for the |·| kinks and float
			// cancellation.
			if worst > 1e-5 {
				t.Errorf("Steiner coordinate gradient mismatch: %g", worst)
			}
		})
	}
	for _, mp := range []int{3, 1} {
		t.Run(fmt.Sprintf("reduce-grad-mpiters%d", mp), func(t *testing.T) {
			m := model(mp)
			tp := tensor.NewTape()
			xs, ys, err := b.SteinerLeaves(tp, p.Forest)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := m.Forward(tp, b, xs, ys, true)
			if err != nil {
				t.Fatal(err)
			}
			loss, err := tp.Sum(pred.EndpointArrival)
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.Backward(loss); err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for _, prm := range []*tensor.Tensor{m.WReduce, m.BReduce} {
				for _, g := range prm.Grad {
					if math.Float64bits(g) != 0 {
						nonzero++
					}
				}
			}
			// One round has no reduce, so its weights see exact +0; with
			// more rounds the earlier reduces feed the wire head.
			if mp == 1 && nonzero != 0 {
				t.Errorf("MPIters 1: %d reduce-weight gradients are not +0", nonzero)
			}
			if mp > 1 && nonzero == 0 {
				t.Errorf("MPIters %d: no gradient reached the reduce weights", mp)
			}
		})
	}
}

func TestForwardDeterministic(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, _ := NewBatch(p.Design, p.Forest)
	m := NewModel(DefaultConfig(), 7)
	run := func() []float64 {
		tp := tensor.NewTape()
		xs, ys, err := b.SteinerLeaves(tp, p.Forest)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Forward(tp, b, xs, ys, false)
		if err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), pred.Arrival.Data...)
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatal("forward not deterministic")
		}
	}
}

func TestMovingSteinerChangesPrediction(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, _ := NewBatch(p.Design, p.Forest)
	m := NewModel(DefaultConfig(), 7)
	evalSum := func(f *rsmt.Forest) float64 {
		tp := tensor.NewTape()
		xs, ys, err := b.SteinerLeaves(tp, f)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := m.Forward(tp, b, xs, ys, false)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range pred.EndpointArrival.Data {
			s += v
		}
		return s
	}
	base := evalSum(p.Forest)
	moved := p.Forest.Clone()
	xs, ys, idx := moved.SteinerPositions()
	if len(idx) == 0 {
		t.Skip("no Steiner points")
	}
	for i := range xs {
		xs[i] += 15
		ys[i] -= 10
	}
	if err := moved.SetSteinerPositions(xs, ys, idx, p.Design.Die); err != nil {
		t.Fatal(err)
	}
	if evalSum(moved) == base {
		t.Fatal("prediction insensitive to Steiner movement")
	}
}

func TestEngineeredFeaturesMatchHandElmore(t *testing.T) {
	// Hand-built three-sink star: driver at origin, sinks on the axes.
	// The construction produces a known geometry whose Elmore surrogate
	// and path lengths we can compute by hand.
	l := lib.Default()
	bld := netlist.NewBuilder("hand", l)
	pi := bld.AddPI("drv")
	po1 := bld.AddPO("s1", 0.02)
	po2 := bld.AddPO("s2", 0.03)
	bld.Connect(pi, po1, po2)
	d, err := bld.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Die = geom.BBox{XLo: 0, YLo: 0, XHi: 400, YHi: 400}
	d.Pin(pi).Pos = geom.Point{X: 0, Y: 0}
	d.Pin(po1).Pos = geom.Point{X: 100, Y: 0}
	d.Pin(po2).Pos = geom.Point{X: 200, Y: 0}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(d, f)
	if err != nil {
		t.Fatal(err)
	}
	elm, pathLen, netCap, err := b.EngineeredFeatures(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(elm) != 2 || len(pathLen) != 2 || len(netCap) != 1 {
		t.Fatalf("lengths: %d %d %d", len(elm), len(pathLen), len(netCap))
	}
	// Geometry: chain drv → s1 (100) → s2 (100). Path lengths 100, 200.
	// Sink order follows net.Sinks order (po1, po2).
	if pathLen[0] != 100 || pathLen[1] != 200 {
		t.Fatalf("pathLen=%v want [100 200]", pathLen)
	}
	r, c := b.RAvg, b.CAvg
	// Downstream of edge drv→s1: both wire segments + both sink caps;
	// downstream of s1→s2: the far segment + s2's cap.
	capE1 := c*200 + 0.02 + 0.03
	capE2 := c*100 + 0.03
	wantElm1 := r * 100 * capE1
	wantElm2 := wantElm1 + r*100*capE2
	if diff := elm[0] - wantElm1; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("elm[0]=%g want %g", elm[0], wantElm1)
	}
	if diff := elm[1] - wantElm2; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("elm[1]=%g want %g", elm[1], wantElm2)
	}
	wantCap := c*200 + 0.05
	if diff := netCap[0] - wantCap; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("netCap=%g want %g", netCap[0], wantCap)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	m := NewModel(DefaultConfig(), 42)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := m.Params(), m2.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("param %d differs after round trip", i)
			}
		}
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("loading missing file succeeded")
	}
}

func TestBatchForestMismatch(t *testing.T) {
	p := prepared(t, "spm", 1.0)
	b, _ := NewBatch(p.Design, p.Forest)
	other := prepared(t, "cic_decimator", 1.0)
	tp := tensor.NewTape()
	if _, _, err := b.SteinerLeaves(tp, other.Forest); err == nil {
		t.Fatal("foreign forest accepted")
	}
	short := &rsmt.Forest{Trees: p.Forest.Trees[:1]}
	if _, err := NewBatch(p.Design, short); err == nil {
		t.Fatal("short forest accepted")
	}
}

func TestModelSeedsDiffer(t *testing.T) {
	a := NewModel(DefaultConfig(), 1)
	b := NewModel(DefaultConfig(), 2)
	same := true
	for i := range a.WNode.Data {
		if a.WNode.Data[i] != b.WNode.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical init")
	}
	// Bad config falls back to defaults.
	c := NewModel(Config{}, 3)
	if c.Cfg.Hidden != DefaultConfig().Hidden {
		t.Fatal("bad config not defaulted")
	}
}
