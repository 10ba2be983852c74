package flow

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"tsteiner/internal/obs"
	"tsteiner/internal/rsmt"
)

func TestPrepareBenchmark(t *testing.T) {
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Design == nil || p.Forest == nil || p.Lib == nil {
		t.Fatal("incomplete Prepared")
	}
	if err := p.Forest.Validate(p.Design); err != nil {
		t.Fatal(err)
	}
	if p.PrepSec < 0 {
		t.Fatal("negative prep time")
	}
}

func TestPrepareUnknownBenchmark(t *testing.T) {
	if _, err := PrepareBenchmark("nope", 1.0, DefaultConfig()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSignoffEndToEnd(t *testing.T) {
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Signoff(p, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNS >= 0 {
		t.Errorf("spm should violate timing, WNS=%g", rep.WNS)
	}
	if rep.Vios == 0 || rep.TNS >= 0 {
		t.Errorf("expected violations: %+v", rep)
	}
	if rep.WirelengthDBU <= 0 || rep.Vias <= 0 {
		t.Errorf("implausible routing metrics: %+v", rep)
	}
	if rep.DRSec <= 0 || rep.GRSec < 0 {
		t.Errorf("implausible runtimes: %+v", rep)
	}
	if rep.ExtractSec <= 0 || rep.STASec <= 0 {
		t.Errorf("extraction/STA phases not recorded: %+v", rep)
	}
	// Total must account for every recorded phase, not just GR+DR.
	want := rep.GRSec + rep.DRSec + rep.ExtractSec + rep.STASec + rep.TSteinerSec
	if tot := rep.Total(); tot != want {
		t.Errorf("Total()=%g drops phases: want %g", tot, want)
	}
}

func TestSignoffEmitsPhaseSpans(t *testing.T) {
	var trace bytes.Buffer
	cfg := DefaultConfig()
	cfg.Obs = obs.New(&trace)
	p, err := PrepareBenchmark("spm", 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Signoff(p, p.Forest); err != nil {
		t.Fatal(err)
	}
	text := trace.String()
	for _, span := range []string{
		"flow.synth", "flow.prepare", "flow.prepare/place", "flow.prepare/rsmt",
		"flow.prepare/edgeshift", "flow.signoff", "flow.signoff/gr",
		"flow.signoff/dr", "flow.signoff/extract", "flow.signoff/sta",
	} {
		if !strings.Contains(text, `"name":"`+span+`"`) {
			t.Errorf("trace missing phase span %q", span)
		}
	}
}

func TestSignoffDoesNotMutateForest(t *testing.T) {
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	xs, ys, _ := p.Forest.SteinerPositions()
	if _, err := Signoff(p, p.Forest); err != nil {
		t.Fatal(err)
	}
	xs2, ys2, _ := p.Forest.SteinerPositions()
	for i := range xs {
		if xs[i] != xs2[i] || ys[i] != ys2[i] {
			t.Fatal("Signoff mutated the forest")
		}
	}
}

func TestSignoffDeterministic(t *testing.T) {
	p1, err := PrepareBenchmark("cic_decimator", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := Signoff(p1, p1.Forest)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PrepareBenchmark("cic_decimator", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Signoff(p2, p2.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if a.WNS != b.WNS || a.TNS != b.TNS || a.Vios != b.Vios ||
		a.WirelengthDBU != b.WirelengthDBU || a.Vias != b.Vias || a.DRVs != b.DRVs {
		t.Fatalf("non-deterministic sign-off:\n%+v\n%+v", a, b)
	}
}

func TestPerturbationMovesSignoff(t *testing.T) {
	// Fig. 2 premise: disturbing Steiner points changes sign-off TNS.
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base, err := Signoff(p, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for trial := 0; trial < 5 && !changed; trial++ {
		f := p.Forest.Clone()
		rsmt.Perturb(f, rand.New(rand.NewSource(int64(trial))), 24, p.Design.Die)
		rep, err := Signoff(p, f)
		if err != nil {
			t.Fatal(err)
		}
		if rep.TNS != base.TNS {
			changed = true
		}
	}
	if !changed {
		t.Fatal("random Steiner disturbance never changed sign-off TNS")
	}
}

func TestBadConfigErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LayerCaps = []int{0, 4} // too few layers for the grid
	if _, err := PrepareBenchmark("spm", 1.0, cfg); err == nil {
		t.Fatal("two-layer config accepted")
	}
	cfg = DefaultConfig()
	cfg.GCellSize = 0
	if _, err := PrepareBenchmark("spm", 1.0, cfg); err == nil {
		t.Fatal("zero gcell size accepted")
	}
	cfg = DefaultConfig()
	cfg.Place.Utilization = -1
	if _, err := PrepareBenchmark("spm", 1.0, cfg); err == nil {
		t.Fatal("negative utilization accepted")
	}
}

func TestSkipEdgeShift(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SkipEdgeShift = true
	p, err := PrepareBenchmark("spm", 1.0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Signoff(p, p.Forest); err != nil {
		t.Fatal(err)
	}
}

func TestTimingDrivenRoute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TimingDrivenRoute = true
	p, err := PrepareBenchmark("usb_cdc_core", 0.5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Signoff(p, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline comparison: same design without timing-driven ordering.
	cfg2 := DefaultConfig()
	p2, err := PrepareBenchmark("usb_cdc_core", 0.5, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Signoff(p2, p2.Forest)
	if err != nil {
		t.Fatal(err)
	}
	// Both flows must complete and produce comparable wirelength; the
	// ordering change must not blow up routing.
	ratio := float64(rep.WirelengthDBU) / float64(rep2.WirelengthDBU)
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("timing-driven ordering changed WL implausibly: %g", ratio)
	}
}

func TestPrepareKeepPlacement(t *testing.T) {
	// Prepare normally, then re-prepare the already-placed design without
	// the placer: positions must be untouched and sign-off identical.
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep1, err := Signoff(p, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PrepareKeepPlacement(p.Design, p.Lib, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Signoff(p2, p2.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.WNS != rep2.WNS || rep1.TNS != rep2.TNS || rep1.WirelengthDBU != rep2.WirelengthDBU {
		t.Fatalf("placement-preserving prepare diverged: %+v vs %+v", rep1, rep2)
	}
	// A design with no die is rejected.
	bad := *p.Design
	bad.Die = p.Design.Die
	bad.Die.XHi = bad.Die.XLo
	if _, err := PrepareKeepPlacement(&bad, p.Lib, DefaultConfig()); err == nil {
		t.Fatal("die-less design accepted")
	}
	// HasPlacement picks between the two prepares: a die and a cell off
	// the origin.
	unplaced := *p.Design
	unplaced.Cells = append(unplaced.Cells[:0:0], p.Design.Cells...)
	for i := range unplaced.Cells {
		unplaced.Cells[i].Pos.X, unplaced.Cells[i].Pos.Y = 0, 0
	}
	if !HasPlacement(p.Design) || HasPlacement(&bad) || HasPlacement(&unplaced) {
		t.Fatalf("HasPlacement: placed %v, die-less %v, all at origin %v",
			HasPlacement(p.Design), HasPlacement(&bad), HasPlacement(&unplaced))
	}
}

func TestSignoffTimingReturnsArrivals(t *testing.T) {
	p, err := PrepareBenchmark("spm", 1.0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, timing, err := SignoffTiming(p, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WNS != timing.WNS || rep.TNS != timing.TNS {
		t.Fatal("Report and sta.Result disagree")
	}
	if len(timing.Arrival) != p.Design.NumPins() {
		t.Fatal("missing per-pin arrivals")
	}
}
