package rc

import (
	"math"
	"testing"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

func placeBox(xlo, ylo, xhi, yhi int) geom.BBox {
	return geom.BBox{XLo: xlo, YLo: ylo, XHi: xhi, YHi: yhi}
}

func pointXY(x, y int) geom.Point { return geom.Point{X: x, Y: y} }

func fixture(t *testing.T) (*netlist.Design, *rsmt.Forest, *grid.Grid, *route.Result, *lib.Library) {
	t.Helper()
	l := lib.Default()
	spec, err := synth.BenchmarkByName("spm")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec, l)
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
	res, err := route.Route(d, f, g, route.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, f, g, res, l
}

func TestExtractShapes(t *testing.T) {
	d, f, g, res, l := fixture(t)
	rcs, err := Extract(d, f, g, res, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(rcs) != len(d.Nets) {
		t.Fatalf("%d RC views for %d nets", len(rcs), len(d.Nets))
	}
	for ni, nrc := range rcs {
		net := d.Net(netlist.NetID(ni))
		if len(nrc.SinkDelay) != len(net.Sinks) || len(nrc.SinkSlewAdd) != len(net.Sinks) {
			t.Fatalf("net %s: sink arrays wrong length", net.Name)
		}
		for si := range nrc.SinkDelay {
			if nrc.SinkDelay[si] < 0 {
				t.Fatalf("net %s sink %d negative delay", net.Name, si)
			}
			if nrc.SinkSlewAdd[si] < 0 {
				t.Fatalf("net %s sink %d negative slew", net.Name, si)
			}
		}
		if nrc.TotalCap <= 0 {
			t.Fatalf("net %s non-positive total cap", net.Name)
		}
		// Total cap covers at least the sink pin caps.
		var pinCap float64
		for _, s := range net.Sinks {
			pinCap += d.Pin(s).Cap
		}
		if nrc.TotalCap < pinCap-1e-12 {
			t.Fatalf("net %s: TotalCap %.6f below pin cap %.6f", net.Name, nrc.TotalCap, pinCap)
		}
	}
}

func TestElmoreHandTwoPin(t *testing.T) {
	// PI --- net ---> PO with known geometry: verify Elmore against a
	// hand computation. Wire R=r*L, C=c*L; Elmore = R*(C/2 + Cpin).
	l := lib.Default()
	b := netlist.NewBuilder("hand", l)
	pi := b.AddPI("i")
	po := b.AddPO("o", 0.02)
	b.Connect(pi, po)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Manual placement.
	d.Die = placeBox(0, 0, 100, 100)
	d.Pin(pi).Pos = pointXY(0, 0)
	d.Pin(po).Pos = pointXY(60, 0)

	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcs, err := ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	rAvg, cAvg := AvgLayerRC(l)
	L := 60.0
	R := L*rAvg + 2*l.ViaRes
	C := L * cAvg
	want := R * (C/2 + 0.02)
	got := rcs[0].SinkDelay[0]
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Elmore=%g want %g", got, want)
	}
	if math.Abs(rcs[0].TotalCap-(C+0.02)) > 1e-12 {
		t.Fatalf("TotalCap=%g want %g", rcs[0].TotalCap, C+0.02)
	}
}

func TestElmoreMonotoneInLength(t *testing.T) {
	// Longer wire must have strictly larger Elmore delay.
	l := lib.Default()
	delayAt := func(dist int) float64 {
		b := netlist.NewBuilder("mono", l)
		pi := b.AddPI("i")
		po := b.AddPO("o", 0.02)
		b.Connect(pi, po)
		d, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		d.Die = placeBox(0, 0, 2000, 10)
		d.Pin(pi).Pos = pointXY(0, 0)
		d.Pin(po).Pos = pointXY(dist, 0)
		f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rcs, err := ExtractFromTrees(d, f, l)
		if err != nil {
			t.Fatal(err)
		}
		return rcs[0].SinkDelay[0]
	}
	prev := -1.0
	for _, dist := range []int{10, 50, 200, 800, 1600} {
		dl := delayAt(dist)
		if dl <= prev {
			t.Fatalf("Elmore not monotone at %d DBU", dist)
		}
		prev = dl
	}
}

func TestRoutedVsTreeExtraction(t *testing.T) {
	// Routed extraction must see wirelength >= tree extraction (routing
	// can only detour), reflected in wire cap.
	d, f, g, res, l := fixture(t)
	routed, err := Extract(d, f, g, res, l)
	if err != nil {
		t.Fatal(err)
	}
	early, err := ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	var routedCap, earlyCap float64
	for ni := range routed {
		routedCap += routed[ni].WireCap
		earlyCap += early[ni].WireCap
	}
	// GCell rounding can shrink individual nets, but in aggregate routed
	// wire should not be dramatically below the tree estimate.
	if routedCap < 0.5*earlyCap {
		t.Fatalf("routed wire cap %.4f implausibly below early %.4f", routedCap, earlyCap)
	}
}

func TestCombineSlew(t *testing.T) {
	if got := CombineSlew(3, 4); math.Abs(got-5) > 1e-12 {
		t.Fatalf("CombineSlew(3,4)=%g want 5", got)
	}
	if got := CombineSlew(0.1, 0); got != 0.1 {
		t.Fatalf("CombineSlew with zero wire=%g", got)
	}
}

func TestExtractSizeMismatch(t *testing.T) {
	d, f, g, res, l := fixture(t)
	short := &rsmt.Forest{Trees: f.Trees[:1]}
	if _, err := Extract(d, short, g, res, l); err == nil {
		t.Fatal("mismatched forest accepted")
	}
	if _, err := ExtractFromTrees(d, short, l); err == nil {
		t.Fatal("mismatched forest accepted in tree extraction")
	}
}

func TestMovingSteinerChangesDelay(t *testing.T) {
	// The core premise of the paper: Steiner positions change sign-off
	// parasitics. Build a 3-sink net, move its Steiner point, verify the
	// Elmore delays respond.
	l := lib.Default()
	b := netlist.NewBuilder("steiner", l)
	pi := b.AddPI("i")
	po1 := b.AddPO("o1", 0.02)
	po2 := b.AddPO("o2", 0.02)
	po3 := b.AddPO("o3", 0.02)
	b.Connect(pi, po1, po2, po3)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Die = placeBox(0, 0, 200, 200)
	d.Pin(pi).Pos = pointXY(0, 100)
	d.Pin(po1).Pos = pointXY(200, 0)
	d.Pin(po2).Pos = pointXY(200, 100)
	d.Pin(po3).Pos = pointXY(200, 200)
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if f.Trees[0].SteinerCount() == 0 {
		t.Skip("construction found no Steiner point for this geometry")
	}
	before, err := ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Trees[0].Nodes {
		if n := &f.Trees[0].Nodes[i]; n.Kind == rsmt.SteinerNode {
			n.Pos.X += 40
			n.Pos.Y += 15
		}
	}
	after, err := ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for si := range before[0].SinkDelay {
		if math.Abs(before[0].SinkDelay[si]-after[0].SinkDelay[si]) > 1e-12 {
			changed = true
		}
	}
	if !changed {
		t.Fatal("moving the Steiner point left all sink delays unchanged")
	}
}
