package route

import (
	"testing"
	"testing/quick"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

func routedFixture(t *testing.T, name string, scale float64) (*netlist.Design, *rsmt.Forest, *grid.Grid, *Result) {
	t.Helper()
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec.Scale(scale), lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(d.Die, 8, []int{4, 6, 6, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, f, g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, f, g, res
}

func TestRouteCoversAllEdges(t *testing.T) {
	d, f, _, res := routedFixture(t, "spm", 1.0)
	if len(res.Routes) != len(d.Nets) {
		t.Fatalf("routes for %d of %d nets", len(res.Routes), len(d.Nets))
	}
	for ti, tr := range f.Trees {
		if len(res.Routes[ti].Edges) != len(tr.Edges) {
			t.Fatalf("net %d: %d of %d tree edges routed", ti, len(res.Routes[ti].Edges), len(tr.Edges))
		}
	}
}

func TestRoutedPathsAreContinuousAndEndCorrect(t *testing.T) {
	d, f, g, res := routedFixture(t, "cic_decimator", 1.0)
	_ = d
	for ti, tr := range f.Trees {
		for _, er := range res.Routes[ti].Edges {
			e := tr.Edges[er.TreeEdge]
			ax, ay := g.GCellOf(tr.Nodes[e.A].Pos.Round())
			bx, by := g.GCellOf(tr.Nodes[e.B].Pos.Round())
			first := er.Cells[0]
			last := er.Cells[len(er.Cells)-1]
			if first != (GP{ax, ay}) || last != (GP{bx, by}) {
				t.Fatalf("net %d edge %d: path endpoints %v..%v want %v..%v",
					ti, er.TreeEdge, first, last, GP{ax, ay}, GP{bx, by})
			}
			for i := 0; i+1 < len(er.Cells); i++ {
				a, b := er.Cells[i], er.Cells[i+1]
				man := absInt(a.X-b.X) + absInt(a.Y-b.Y)
				if man != 1 {
					t.Fatalf("net %d: non-unit step %v->%v", ti, a, b)
				}
			}
		}
	}
}

func TestUsageMatchesRoutes(t *testing.T) {
	// Re-committing every route onto a fresh grid must reproduce the 2D
	// usage of the routed grid exactly (conservation of accounting).
	d, _, g, res := routedFixture(t, "spm", 1.0)
	g2, err := grid.New(d.Die, 8, []int{4, 6, 6, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	r2 := &router{d: d, g: g2, opt: DefaultOptions()}
	for ni := range res.Routes {
		for ei := range res.Routes[ni].Edges {
			r2.commit(res.Routes[ni].Edges[ei].Cells, +1)
		}
	}
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W-1; x++ {
			if g.UsageH(x, y) != g2.UsageH(x, y) {
				t.Fatalf("H usage mismatch at (%d,%d): %d vs %d", x, y, g.UsageH(x, y), g2.UsageH(x, y))
			}
		}
	}
	for y := 0; y < g.H-1; y++ {
		for x := 0; x < g.W; x++ {
			if g.UsageV(x, y) != g2.UsageV(x, y) {
				t.Fatalf("V usage mismatch at (%d,%d)", x, y)
			}
		}
	}
}

func TestLayerAssignmentConsistent(t *testing.T) {
	_, _, g, res := routedFixture(t, "spm", 1.0)
	for ni := range res.Routes {
		for _, er := range res.Routes[ni].Edges {
			if len(er.Cells) <= 1 {
				if er.Vias != 0 || len(er.Layers) != 0 {
					t.Fatalf("trivial edge has layers/vias")
				}
				continue
			}
			if len(er.Layers) != len(er.Cells)-1 {
				t.Fatalf("layers %d for %d steps", len(er.Layers), len(er.Cells)-1)
			}
			for i, l := range er.Layers {
				a, b := er.Cells[i], er.Cells[i+1]
				if l <= 0 || l >= len(g.LayerCap) {
					t.Fatalf("invalid layer %d", l)
				}
				horiz := a.Y == b.Y
				if horiz && g.LayerDir[l] != grid.Horiz || !horiz && g.LayerDir[l] != grid.Vert {
					t.Fatalf("step direction/layer mismatch")
				}
			}
			if er.Vias < 2 {
				t.Fatalf("non-trivial edge has %d vias, want >= 2 escapes", er.Vias)
			}
		}
	}
}

func TestRouteReducesOverflowVsNoRRR(t *testing.T) {
	// With rip-up-and-reroute the final overflow must not exceed the
	// overflow of pure pattern routing.
	build := func(rounds int) int {
		spec, _ := synth.BenchmarkByName("APU")
		d, err := synth.Generate(spec.Scale(0.4), lib.Default())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := place.Place(d, place.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		// Moderate capacities: local hot spots exist but the grid is not
		// globally saturated (in full saturation rip-up detours can only
		// add demand, and no router can reduce total overflow).
		g, err := grid.New(d.Die, 8, []int{0, 6, 6, 5, 5})
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.RRRRounds = rounds
		res, err := Route(d, f, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Overflow
	}
	base := build(0)
	rrr := build(3)
	if rrr > base {
		t.Fatalf("RRR worsened overflow: %d -> %d", base, rrr)
	}
}

func TestWirelengthLowerBound(t *testing.T) {
	// Routed wirelength in GCell steps must be at least the GCell-space
	// Manhattan distance for every edge.
	_, f, g, res := routedFixture(t, "cic_decimator", 1.0)
	for ti, tr := range f.Trees {
		for _, er := range res.Routes[ti].Edges {
			e := tr.Edges[er.TreeEdge]
			ax, ay := g.GCellOf(tr.Nodes[e.A].Pos.Round())
			bx, by := g.GCellOf(tr.Nodes[e.B].Pos.Round())
			man := absInt(ax-bx) + absInt(ay-by)
			if steps := len(er.Cells) - 1; steps < man {
				t.Fatalf("path shorter than Manhattan distance: %d < %d", steps, man)
			}
		}
	}
}

func TestPatternRouteShapes(t *testing.T) {
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 160, YHi: 160}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := &router{g: g, opt: DefaultOptions()}
	p := r.patternRoute(GP{1, 1}, GP{1, 1})
	if len(p) != 1 {
		t.Fatalf("self route len=%d", len(p))
	}
	p = r.patternRoute(GP{1, 1}, GP{6, 1})
	if len(p) != 6 {
		t.Fatalf("straight route len=%d want 6", len(p))
	}
	p = r.patternRoute(GP{1, 1}, GP{5, 4})
	if got, want := len(p)-1, 4+3; got != want {
		t.Fatalf("L route steps=%d want %d", got, want)
	}
}

func TestMazeRouteAvoidsCongestion(t *testing.T) {
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 160, YHi: 160}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the straight row between the endpoints.
	for x := 2; x < 10; x++ {
		g.AddH(x, 5, 2*g.CapDir(grid.Horiz))
	}
	r := &router{g: g, opt: DefaultOptions()}
	path := r.mazeRoute(GP{2, 5}, GP{10, 5})
	if path == nil {
		t.Fatal("maze route failed")
	}
	// The path must leave row 5 to dodge the wall.
	offRow := false
	for _, p := range path {
		if p.Y != 5 {
			offRow = true
		}
	}
	if !offRow {
		t.Fatal("maze route ploughed through saturated row")
	}
}

func TestMazeRouteWindowBound(t *testing.T) {
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 800, YHi: 800}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := &router{g: g, opt: Options{RRRRounds: 1, MazeMargin: 2, ZCandidates: 1}}
	path := r.mazeRoute(GP{10, 10}, GP{40, 40})
	if path == nil {
		t.Fatal("maze route in clean window failed")
	}
	for _, p := range path {
		if p.X < 8 || p.X > 42 || p.Y < 8 || p.Y > 42 {
			t.Fatalf("path escaped window at %v", p)
		}
	}
}

func TestGeomPathDBU(t *testing.T) {
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 160, YHi: 160}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	er := &EdgeRoute{Cells: []GP{{1, 1}, {2, 1}, {3, 1}}}
	from := geom.Point{X: 9, Y: 9}
	to := geom.Point{X: 30, Y: 12}
	pts := GeomPathDBU(g, er, from, to)
	if pts[0] != from || pts[len(pts)-1] != to {
		t.Fatal("endpoints not preserved")
	}
	if len(pts) != 3 { // from + 1 interior + to
		t.Fatalf("len=%d want 3", len(pts))
	}
	// Trivial edge keeps direct segment.
	triv := &EdgeRoute{Cells: []GP{{1, 1}}}
	pts = GeomPathDBU(g, triv, from, to)
	if len(pts) != 2 {
		t.Fatalf("trivial path len=%d", len(pts))
	}
}

func TestEdgeShiftReducesEstimatedCongestion(t *testing.T) {
	spec, _ := synth.BenchmarkByName("APU")
	d, err := synth.Generate(spec.Scale(0.4), lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(d.Die, 8, []int{0, 3, 3, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	moved := EdgeShift(f, g, DefaultEdgeShiftOptions())
	if moved == 0 {
		t.Skip("no shifts on this instance")
	}
	if err := f.Validate(d); err != nil {
		t.Fatalf("edge shifting broke the forest: %v", err)
	}
	// All nodes still inside the die.
	for _, tr := range f.Trees {
		for _, n := range tr.Nodes {
			p := n.Pos.Round()
			if !d.Die.Contains(p) {
				t.Fatalf("node escaped die: %v", p)
			}
		}
	}
}

func TestNetPriorityOrdering(t *testing.T) {
	d, f, g, _ := routedFixture(t, "spm", 1.0)
	g.ResetUsage()
	opt := DefaultOptions()
	// Wrong-length priorities are rejected.
	opt.NetPriority = []float64{1, 2}
	if _, err := Route(d, f, g, opt); err == nil {
		t.Fatal("short priority slice accepted")
	}
	// Correct-length priorities route fine and produce a complete result.
	opt.NetPriority = make([]float64, len(d.Nets))
	for i := range opt.NetPriority {
		opt.NetPriority[i] = float64(len(d.Nets) - i) // reverse order
	}
	g.ResetUsage()
	res, err := Route(d, f, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Routes) != len(d.Nets) {
		t.Fatal("priority routing lost nets")
	}
	for ti := range f.Trees {
		if len(res.Routes[ti].Edges) != len(f.Trees[ti].Edges) {
			t.Fatalf("net %d incomplete under priority ordering", ti)
		}
	}
}

func TestCommitUncommitConservation(t *testing.T) {
	// Property: committing any random rectilinear path and then
	// uncommitting it restores the grid exactly.
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 400, YHi: 400}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := &router{g: g, opt: DefaultOptions()}
	f := func(ax, ay, bx, by uint8, seed int64) bool {
		a := GP{int(ax) % g.W, int(ay) % g.H}
		b := GP{int(bx) % g.W, int(by) % g.H}
		path := r.patternRoute(a, b)
		r.commit(path, +1)
		after := g.TotalOverflow() // just touch state
		_ = after
		r.commit(path, -1)
		// Every edge must be back to zero.
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W-1; x++ {
				if g.UsageH(x, y) != 0 {
					return false
				}
			}
		}
		for y := 0; y < g.H-1; y++ {
			for x := 0; x < g.W; x++ {
				if g.UsageV(x, y) != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPatternRouteLengthProperty(t *testing.T) {
	// Property: every pattern route is rectilinear, connected and at
	// least Manhattan-length; L routes are exactly Manhattan-length.
	g, err := grid.New(geom.BBox{XLo: 0, YLo: 0, XHi: 400, YHi: 400}, 8, []int{0, 4, 4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	r := &router{g: g, opt: DefaultOptions()}
	f := func(ax, ay, bx, by uint8) bool {
		a := GP{int(ax) % g.W, int(ay) % g.H}
		b := GP{int(bx) % g.W, int(by) % g.H}
		path := r.patternRoute(a, b)
		if path[0] != a || path[len(path)-1] != b {
			return false
		}
		man := absInt(a.X-b.X) + absInt(a.Y-b.Y)
		steps := len(path) - 1
		// L and Z patterns are all monotone: exactly Manhattan length.
		return steps == man
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRouteValidation(t *testing.T) {
	d, f, g, _ := routedFixture(t, "spm", 1.0)
	g.ResetUsage()
	short := &rsmt.Forest{Trees: f.Trees[:1]}
	if _, err := Route(d, short, g, DefaultOptions()); err == nil {
		t.Fatal("mismatched forest accepted")
	}
	opt := DefaultOptions()
	opt.RRRRounds = -1
	if _, err := Route(d, f, g, opt); err == nil {
		t.Fatal("negative RRR rounds accepted")
	}
}
