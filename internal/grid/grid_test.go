package grid

import (
	"math"
	"testing"
	"testing/quick"

	"tsteiner/internal/geom"
)

func mk(t *testing.T) *Grid {
	t.Helper()
	g, err := New(geom.BBox{XLo: 0, YLo: 0, XHi: 80, YHi: 40}, 8, []int{4, 6, 6, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewDimensions(t *testing.T) {
	g := mk(t)
	if g.W != 11 || g.H != 6 {
		t.Fatalf("grid dims %dx%d want 11x6", g.W, g.H)
	}
	if g.LayerCap[0] != 0 {
		t.Fatal("pin layer must have zero capacity")
	}
	// Layers 1,3 horizontal; 2,4 vertical in a 5-layer stack.
	if g.CapDir(Horiz) != 6+5 || g.CapDir(Vert) != 6+5 {
		t.Fatalf("capDir H=%d V=%d", g.CapDir(Horiz), g.CapDir(Vert))
	}
}

func TestNewValidation(t *testing.T) {
	die := geom.BBox{XLo: 0, YLo: 0, XHi: 80, YHi: 40}
	if _, err := New(geom.EmptyBBox(), 8, []int{0, 4, 4}); err == nil {
		t.Fatal("empty die accepted")
	}
	if _, err := New(die, 0, []int{0, 4, 4}); err == nil {
		t.Fatal("zero gcell size accepted")
	}
	if _, err := New(die, 8, []int{0, 4}); err == nil {
		t.Fatal("two layers accepted")
	}
	if _, err := New(die, 8, []int{0, -1, 4}); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := New(die, 8, []int{0, 0, 4}); err == nil {
		t.Fatal("zero-capacity direction accepted")
	}
}

func TestGCellOfClampsAndInverts(t *testing.T) {
	g := mk(t)
	x, y := g.GCellOf(geom.Point{X: 0, Y: 0})
	if x != 0 || y != 0 {
		t.Fatalf("origin maps to (%d,%d)", x, y)
	}
	x, y = g.GCellOf(geom.Point{X: 1000, Y: 1000})
	if x != g.W-1 || y != g.H-1 {
		t.Fatalf("far point not clamped: (%d,%d)", x, y)
	}
	x, y = g.GCellOf(geom.Point{X: -50, Y: -50})
	if x != 0 || y != 0 {
		t.Fatalf("negative point not clamped: (%d,%d)", x, y)
	}
	// A GCell's center maps back to the same GCell.
	f := func(gx, gy uint8) bool {
		cx := int(gx) % g.W
		cy := int(gy) % g.H
		px, py := g.GCellOf(g.Center(cx, cy))
		return px == cx && py == cy
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUsageAccounting(t *testing.T) {
	g := mk(t)
	if g.UsageH(2, 3) != 0 {
		t.Fatal("fresh grid has usage")
	}
	g.AddH(2, 3, 1)
	g.AddH(2, 3, 1)
	if g.UsageH(2, 3) != 2 {
		t.Fatalf("usage=%d want 2", g.UsageH(2, 3))
	}
	g.AddH(2, 3, -1)
	if g.UsageH(2, 3) != 1 {
		t.Fatalf("usage=%d want 1 after decrement", g.UsageH(2, 3))
	}
	g.AddV(0, 0, 5)
	if g.UsageV(0, 0) != 5 {
		t.Fatal("vertical usage broken")
	}
	// Out-of-range adds are silently ignored, reads return 0.
	g.AddH(-1, 0, 1)
	g.AddH(g.W-1, 0, 1) // no H edge leaving the last column
	if g.UsageH(-1, 0) != 0 || g.UsageH(g.W-1, 0) != 0 {
		t.Fatal("out-of-range edge usage leaked")
	}
}

func TestOverflowAndTotal(t *testing.T) {
	g := mk(t)
	capH := g.CapDir(Horiz)
	g.AddH(1, 1, capH) // exactly at capacity: no overflow
	if g.OverflowH(1, 1) != 0 {
		t.Fatal("at-capacity edge reports overflow")
	}
	g.AddH(1, 1, 3)
	if g.OverflowH(1, 1) != 3 {
		t.Fatalf("overflow=%d want 3", g.OverflowH(1, 1))
	}
	g.AddV(2, 2, g.CapDir(Vert)+1)
	if got := g.TotalOverflow(); got != 4 {
		t.Fatalf("TotalOverflow=%d want 4", got)
	}
}

func TestCostMonotoneInUsage(t *testing.T) {
	g := mk(t)
	prev := g.CostH(0, 0)
	if prev < 1 {
		t.Fatal("base cost below 1")
	}
	for i := 0; i < 2*g.CapDir(Horiz); i++ {
		g.AddH(0, 0, 1)
		c := g.CostH(0, 0)
		if c <= prev {
			t.Fatalf("cost not strictly increasing at usage %d", i+1)
		}
		prev = c
	}
	// Past capacity the penalty must be substantial.
	if prev < 10 {
		t.Fatalf("over-capacity cost %f too small to repel router", prev)
	}
}

func TestCongestionAt(t *testing.T) {
	g := mk(t)
	p := g.Center(4, 3)
	if g.CongestionAt(p) != 0 {
		t.Fatal("fresh congestion nonzero")
	}
	g.AddH(4, 3, g.CapDir(Horiz)) // full edge
	if got := g.CongestionAt(p); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("CongestionAt=%f want 1.0", got)
	}
	// Neighbor GCell (5,3) shares the loaded edge via its x-1 side.
	if got := g.CongestionAt(g.Center(5, 3)); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("neighbor CongestionAt=%f want 1.0", got)
	}
}

func TestResetUsage(t *testing.T) {
	g := mk(t)
	g.AddH(0, 0, 7)
	g.AddV(1, 1, 3)
	g.AssignLayerH(0, 0)
	g.ResetUsage()
	if g.UsageH(0, 0) != 0 || g.UsageV(1, 1) != 0 || g.TotalOverflow() != 0 {
		t.Fatal("ResetUsage left 2D usage")
	}
	for l := 0; l < len(g.LayerCap); l++ {
		if g.LayerUsageH(l, 0, 0) != 0 {
			t.Fatal("ResetUsage left layer usage")
		}
	}
}

func TestAssignLayerBalances(t *testing.T) {
	g := mk(t)
	counts := map[int]int{}
	for i := 0; i < 22; i++ {
		l := g.AssignLayerH(2, 2)
		if l < 0 {
			t.Fatal("no layer assigned")
		}
		if g.LayerDir[l] != Horiz {
			t.Fatalf("horizontal segment assigned to vertical layer %d", l)
		}
		counts[l]++
	}
	if len(counts) < 2 {
		t.Fatalf("assignment used only %d layer(s): %v", len(counts), counts)
	}
	// Usage proportional to capacity: layer 1 (cap 6) should carry at
	// least as much as layer 3 (cap 5).
	if counts[1] < counts[3] {
		t.Fatalf("balancing inverted: %v", counts)
	}
	// Vertical assignment picks vertical layers.
	if l := g.AssignLayerV(2, 2); g.LayerDir[l] != Vert {
		t.Fatalf("vertical segment on layer %d dir %v", l, g.LayerDir[l])
	}
	// Out-of-range edge yields -1.
	if l := g.AssignLayerH(g.W-1, 0); l != -1 {
		t.Fatalf("out-of-range assignment returned %d", l)
	}
}
