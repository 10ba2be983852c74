package sta

import (
	"math"
	"testing"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

// signoff runs the full substrate pipeline on a benchmark and returns the
// design plus its timing result.
func signoff(t *testing.T, name string, scale float64) (*netlist.Design, *Result) {
	t.Helper()
	l := lib.Default()
	spec, err := synth.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec.Scale(scale), l)
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
	gres, err := route.Route(d, f, g, route.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcs, err := rc.Extract(d, f, g, gres, l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, rcs)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

func TestRunProducesConsistentMetrics(t *testing.T) {
	d, res := signoff(t, "spm", 1.0)
	if len(res.Endpoints) != len(d.Endpoints()) {
		t.Fatalf("endpoint count mismatch")
	}
	// WNS = min slack; TNS = sum of negatives; Vios = count of negatives.
	wns := math.Inf(1)
	tns := 0.0
	vios := 0
	for _, s := range res.EndpointSlack {
		if s < wns {
			wns = s
		}
		if s < 0 {
			tns += s
			vios++
		}
	}
	if math.Abs(wns-res.WNS) > 1e-12 || math.Abs(tns-res.TNS) > 1e-9 || vios != res.Vios {
		t.Fatalf("metrics inconsistent: got WNS=%g TNS=%g Vios=%d want %g/%g/%d",
			res.WNS, res.TNS, res.Vios, wns, tns, vios)
	}
}

func TestArrivalMonotoneAlongNets(t *testing.T) {
	d, res := signoff(t, "cic_decimator", 1.0)
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		for _, s := range net.Sinks {
			if res.Arrival[s] < res.Arrival[net.Driver]-1e-12 {
				t.Fatalf("arrival decreased across net %s", net.Name)
			}
		}
	}
}

func TestArrivalMonotoneThroughCells(t *testing.T) {
	d, res := signoff(t, "cic_decimator", 1.0)
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		if inst.Master.Sequential {
			continue
		}
		out := inst.OutputPin()
		for _, in := range inst.InputPins() {
			if res.Arrival[out] < res.Arrival[in]-1e-12 {
				t.Fatalf("arrival decreased through cell %s", inst.Name)
			}
		}
	}
}

func TestHandComputedChain(t *testing.T) {
	// PI -> INV -> PO with zero-length wires: delays reduce to pure LUT
	// lookups that we can reproduce by hand.
	l := lib.Default()
	b := netlist.NewBuilder("hand", l)
	pi := b.AddPI("i")
	inv := b.AddCell("u1", "INV_X1")
	po := b.AddPO("o", 0.02)
	bd := b.Design()
	b.Connect(pi, bd.Cell(inv).InputPins()[0])
	b.Connect(bd.Cell(inv).OutputPin(), po)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Die = geom.BBox{XLo: 0, YLo: 0, XHi: 10, YHi: 10}
	// All pins at the same point: zero wire.
	for i := range d.Pins {
		d.Pins[i].Pos = geom.Point{X: 5, Y: 5}
	}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcs, err := rc.ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, rcs)
	if err != nil {
		t.Fatal(err)
	}

	master := l.MustCell("INV_X1")
	aPin := bd.Cell(inv).InputPins()[0]
	// Wire a (pi->A) has zero length but two via resistances; load on pi
	// is A's pin cap; delays on zero-length wire are zero cap * R = small.
	loadInv := rcs[d.Pin(bd.Cell(inv).OutputPin()).Net].TotalCap
	arc := master.ArcFrom("A")
	wantOut := res.Arrival[aPin] + arc.Delay.Lookup(res.Slew[aPin], loadInv)
	gotOut := res.Arrival[bd.Cell(inv).OutputPin()]
	if math.Abs(gotOut-wantOut) > 1e-9 {
		t.Fatalf("INV output arrival=%g want %g", gotOut, wantOut)
	}
	// Endpoint slack = period - arrival(po).
	if len(res.Endpoints) != 1 || res.Endpoints[0] != po {
		t.Fatalf("endpoints=%v", res.Endpoints)
	}
	wantSlack := d.ClockPeriod - res.Arrival[po]
	if math.Abs(res.EndpointSlack[0]-wantSlack) > 1e-12 {
		t.Fatalf("slack=%g want %g", res.EndpointSlack[0], wantSlack)
	}
}

func TestRegisterSetupReducesRequired(t *testing.T) {
	// Same logic ending at a DFF D pin: required time is period - setup.
	l := lib.Default()
	b := netlist.NewBuilder("reg", l)
	pi := b.AddPI("i")
	dff := b.AddCell("r1", "DFF_X1")
	po := b.AddPO("o", 0.01)
	bd := b.Design()
	b.Connect(pi, bd.Cell(dff).InputPins()[0])
	b.Connect(bd.Cell(dff).OutputPin(), po)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	d.Die = geom.BBox{XLo: 0, YLo: 0, XHi: 10, YHi: 10}
	for i := range d.Pins {
		d.Pins[i].Pos = geom.Point{X: 2, Y: 2}
	}
	f, _ := rsmt.BuildAll(d, rsmt.DefaultOptions())
	rcs, _ := rc.ExtractFromTrees(d, f, l)
	res, err := Run(d, rcs)
	if err != nil {
		t.Fatal(err)
	}
	dPin := bd.Cell(dff).InputPins()[0]
	var dSlack float64
	found := false
	for i, e := range res.Endpoints {
		if e == dPin {
			dSlack = res.EndpointSlack[i]
			found = true
		}
	}
	if !found {
		t.Fatal("D pin not an endpoint")
	}
	want := d.ClockPeriod - l.MustCell("DFF_X1").Setup - res.Arrival[dPin]
	if math.Abs(dSlack-want) > 1e-12 {
		t.Fatalf("D slack=%g want %g", dSlack, want)
	}
	// Q launches a fresh path: its arrival is the CK->Q delay, positive
	// and far below the D arrival + anything.
	q := bd.Cell(dff).OutputPin()
	if res.Arrival[q] <= 0 {
		t.Fatal("Q arrival should be positive (CK->Q delay)")
	}
}

func TestCriticalPathEndsAtWorstEndpoint(t *testing.T) {
	d, res := signoff(t, "spm", 1.0)
	path := res.CriticalPath(d)
	if len(path) < 2 {
		t.Fatalf("critical path too short: %d", len(path))
	}
	last := path[len(path)-1]
	worstSlack := math.Inf(1)
	var worstPin netlist.PinID
	for i, e := range res.Endpoints {
		if res.EndpointSlack[i] < worstSlack {
			worstSlack = res.EndpointSlack[i]
			worstPin = e
		}
	}
	if last != worstPin {
		t.Fatalf("critical path ends at %s, worst endpoint is %s",
			d.Pin(last).Name, d.Pin(worstPin).Name)
	}
	// Path must start at a startpoint and arrivals must be nondecreasing.
	if len(d.Graph().Fanin(path[0])) != 0 {
		t.Fatalf("critical path starts at non-startpoint %s", d.Pin(path[0]).Name)
	}
	for i := 1; i < len(path); i++ {
		if res.Arrival[path[i]] < res.Arrival[path[i-1]]-1e-12 {
			t.Fatal("arrival decreases along critical path")
		}
	}
}

func TestDesignsHaveNegativeSlack(t *testing.T) {
	// The benchmark generator must produce designs with timing violations
	// (otherwise there is nothing for TSteiner to optimize).
	_, res := signoff(t, "spm", 1.0)
	if res.WNS >= 0 {
		t.Fatalf("spm has WNS=%g; expected violations", res.WNS)
	}
	if res.Vios == 0 || res.TNS >= 0 {
		t.Fatalf("expected violations, got Vios=%d TNS=%g", res.Vios, res.TNS)
	}
}

func TestSlewsPositiveAndGrowAlongWires(t *testing.T) {
	d, res := signoff(t, "cic_decimator", 1.0)
	for pid := range d.Pins {
		if res.Slew[pid] < 0 {
			t.Fatalf("negative slew at pin %d", pid)
		}
	}
	// Across a net, sink slew is the RSS of driver slew and the wire
	// contribution, so it can never shrink.
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		for _, s := range net.Sinks {
			if res.Slew[s] < res.Slew[net.Driver]-1e-12 {
				t.Fatalf("slew shrank across net %s", net.Name)
			}
		}
	}
	// Startpoint boundary conditions.
	for _, pid := range d.PIs {
		if res.Slew[pid] != PISlew {
			t.Fatalf("PI slew %g want %g", res.Slew[pid], PISlew)
		}
		if res.Arrival[pid] != 0 {
			t.Fatalf("PI arrival %g want 0", res.Arrival[pid])
		}
	}
}

func TestHeavierLoadSlowsDriver(t *testing.T) {
	// Same chain, two different PO loads: heavier load must increase the
	// arrival at the endpoint.
	build := func(load float64) float64 {
		l := lib.Default()
		b := netlist.NewBuilder("load", l)
		pi := b.AddPI("i")
		inv := b.AddCell("u1", "INV_X1")
		po := b.AddPO("o", load)
		bd := b.Design()
		b.Connect(pi, bd.Cell(inv).InputPins()[0])
		b.Connect(bd.Cell(inv).OutputPin(), po)
		d, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		d.Die = geom.BBox{XLo: 0, YLo: 0, XHi: 10, YHi: 10}
		for i := range d.Pins {
			d.Pins[i].Pos = geom.Point{X: 1, Y: 1}
		}
		f, _ := rsmt.BuildAll(d, rsmt.DefaultOptions())
		rcs, _ := rc.ExtractFromTrees(d, f, l)
		res, err := Run(d, rcs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Arrival[po]
	}
	light := build(0.005)
	heavy := build(0.2)
	if heavy <= light {
		t.Fatalf("heavier load should be slower: %g vs %g", heavy, light)
	}
}

func TestRequiredTimesAndPinSlack(t *testing.T) {
	d, res := signoff(t, "spm", 1.0)
	if len(res.Required) != d.NumPins() || len(res.PinSlack) != d.NumPins() {
		t.Fatal("per-pin annotations missing")
	}
	// Endpoint pins: required equals the constraint, pin slack equals the
	// endpoint slack.
	for i, e := range res.Endpoints {
		if math.Abs(res.PinSlack[e]-res.EndpointSlack[i]) > 1e-9 {
			t.Fatalf("endpoint %d pin slack %g != endpoint slack %g",
				e, res.PinSlack[e], res.EndpointSlack[i])
		}
	}
	// The global minimum pin slack over constrained pins equals WNS: the
	// critical path carries constant slack.
	minSlack := math.Inf(1)
	for i := range res.PinSlack {
		if !math.IsInf(res.Required[i], 1) && res.PinSlack[i] < minSlack {
			minSlack = res.PinSlack[i]
		}
	}
	if math.Abs(minSlack-res.WNS) > 1e-9 {
		t.Fatalf("min pin slack %g != WNS %g", minSlack, res.WNS)
	}
	// Feasibility: along every net edge, required[driver] ≤ required[sink]
	// − wire delay (required times are consistent).
	// (Verified structurally by the relaxation; spot-check a few nets.)
	for ni := 0; ni < len(d.Nets) && ni < 50; ni++ {
		net := d.Net(netlist.NetID(ni))
		if math.IsInf(res.Required[net.Driver], 1) {
			continue
		}
		for _, s := range net.Sinks {
			if res.Required[net.Driver] > res.Required[s]+1e-9 {
				// driver required is min over sinks minus delay ≤ sink required
				// since delays are non-negative.
				t.Fatalf("net %s: required inversion", net.Name)
			}
		}
	}
}

func TestSlewChecks(t *testing.T) {
	d, res := signoff(t, "APU", 0.5)
	if res.MaxSlewSeen <= 0 {
		t.Fatal("no slews observed")
	}
	// Count manually against the library rule.
	manual := 0
	for _, s := range res.Slew {
		if s > d.Lib.MaxSlew {
			manual++
		}
	}
	if manual != res.SlewVios {
		t.Fatalf("SlewVios=%d manual=%d", res.SlewVios, manual)
	}
	// APU carries unbuffered hub nets, so max-transition violations are
	// expected — exactly what real sign-off reports pre-buffering.
	if res.SlewVios == 0 {
		t.Log("no slew violations on this instance (unexpected but legal)")
	}
}

func TestMinArrivalAndHold(t *testing.T) {
	d, res := signoff(t, "usb_cdc_core", 0.5)
	// Min arrival never exceeds max arrival.
	for pid := range d.Pins {
		if res.ArrivalMin[pid] > res.Arrival[pid]+1e-12 {
			t.Fatalf("pin %d: min arrival %g > max arrival %g",
				pid, res.ArrivalMin[pid], res.Arrival[pid])
		}
	}
	// With an ideal clock and positive stage delays our designs meet
	// hold: WHS must be non-negative and no hold violations reported.
	if res.WHS < 0 || res.HoldVios != 0 {
		t.Fatalf("unexpected hold violations: WHS=%g vios=%d", res.WHS, res.HoldVios)
	}
	// For a register fed directly by another register's Q through logic,
	// the min path includes at least one cell delay, so WHS comfortably
	// exceeds the hold time's negation.
	if res.WHS == 0 && len(d.Cells) > 0 {
		t.Log("WHS exactly zero: no registers with connected D pins?")
	}
}

func TestNetCriticality(t *testing.T) {
	d, res := signoff(t, "spm", 1.0)
	crit := res.NetCriticality(d)
	if len(crit) != len(d.Nets) {
		t.Fatal("wrong length")
	}
	// The most critical net must carry the WNS.
	minCrit := math.Inf(1)
	for _, c := range crit {
		if c < minCrit {
			minCrit = c
		}
	}
	if math.Abs(minCrit-res.WNS) > 1e-9 {
		t.Fatalf("most critical net slack %g != WNS %g", minCrit, res.WNS)
	}
}

func TestRunSizeMismatch(t *testing.T) {
	d, _ := signoff(t, "spm", 1.0)
	if _, err := Run(d, nil); err == nil {
		t.Fatal("nil RC slice accepted")
	}
}
