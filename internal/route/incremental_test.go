package route

import (
	"testing"

	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

// staticOptions are the router defaults in StaticPatterns mode, the
// mode Incremental requires.
func staticOptions() Options {
	opt := DefaultOptions()
	opt.StaticPatterns = true
	return opt
}

// incrementalFixture routes a design in static mode, moves a few Steiner
// points by more than a GCell, and returns everything Incremental needs.
func incrementalFixture(t *testing.T) (*netlist.Design, *rsmt.Forest, *rsmt.Forest, *grid.Grid, *Result) {
	t.Helper()
	spec, err := synth.BenchmarkByName("cic_decimator")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	oldF, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	g, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	prev, err := Route(d, oldF, g, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Move every 5th Steiner point by two GCells.
	newF := oldF.Clone()
	xs, ys, idx := newF.SteinerPositions()
	for i := range xs {
		if i%5 == 0 {
			xs[i] += 16
			ys[i] -= 16
		}
	}
	if err := newF.SetSteinerPositions(xs, ys, idx, d.Die); err != nil {
		t.Fatal(err)
	}
	return d, oldF, newF, g, prev
}

func TestIncrementalReroutesOnlyChangedNets(t *testing.T) {
	d, oldF, newF, g, prev := incrementalFixture(t)
	res, nChanged, err := Incremental(d, oldF, newF, g, prev, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	if nChanged == 0 {
		t.Skip("no net crossed a GCell boundary")
	}
	if nChanged >= len(d.Nets) {
		t.Fatalf("all %d nets marked changed", nChanged)
	}
	// Unchanged nets keep their previous routes verbatim; changed ones
	// cover all their tree edges.
	for ti := range newF.Trees {
		if len(res.Routes[ti].Edges) != len(newF.Trees[ti].Edges) {
			t.Fatalf("net %d lost edges", ti)
		}
	}
}

func TestIncrementalUsageConservation(t *testing.T) {
	// After Incremental, grid usage must equal the usage of committing
	// the merged result onto a fresh grid.
	d, oldF, newF, g, prev := incrementalFixture(t)
	res, _, err := Incremental(d, oldF, newF, g, prev, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	r2 := &router{d: d, g: g2, opt: staticOptions()}
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

func TestIncrementalMatchesFullRouteMetrics(t *testing.T) {
	// Incremental is an exact replay: its tallies equal a from-scratch
	// route of newF.
	d, oldF, newF, g, prev := incrementalFixture(t)
	res, _, err := Incremental(d, oldF, newF, g, prev, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	gFull, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Route(d, newF, gFull, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.WirelengthDBU != full.WirelengthDBU || res.Vias != full.Vias || res.Overflow != full.Overflow {
		t.Fatalf("incremental tallies (WL %d, vias %d, overflow %d) differ from full route (%d, %d, %d)",
			res.WirelengthDBU, res.Vias, res.Overflow, full.WirelengthDBU, full.Vias, full.Overflow)
	}
}

func TestIncrementalNoChangeIsIdentity(t *testing.T) {
	d, oldF, _, g, prev := incrementalFixture(t)
	res, nChanged, err := Incremental(d, oldF, oldF.Clone(), g, prev, staticOptions())
	if err != nil {
		t.Fatal(err)
	}
	if nChanged != 0 {
		t.Fatalf("identical forest marked %d nets changed", nChanged)
	}
	if res.WirelengthDBU != prev.WirelengthDBU || res.Vias != prev.Vias {
		t.Fatalf("identity update changed tallies")
	}
}

func TestIncrementalValidation(t *testing.T) {
	d, oldF, newF, g, prev := incrementalFixture(t)
	short := &rsmt.Forest{Trees: newF.Trees[:1]}
	if _, _, err := Incremental(d, oldF, short, g, prev, staticOptions()); err == nil {
		t.Fatal("mismatched forests accepted")
	}
	// Only the static pattern mode can be replayed exactly.
	if _, _, err := Incremental(d, oldF, newF, g, prev, DefaultOptions()); err == nil {
		t.Fatal("non-static options accepted")
	}
}
