package sta

import (
	"math"
	"math/rand"
	"testing"

	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

// windowFixture builds a placed benchmark with pre-routing parasitics —
// the cheapest substrate on which Retime and Run can be compared
// bit-for-bit (moving a Steiner point changes exactly one net's RC).
type windowFixture struct {
	d    *netlist.Design
	f    *rsmt.Forest
	l    *lib.Library
	rcs  []rc.NetRC
	full *Result
}

func newWindowFixture(t *testing.T, name string, scale float64) *windowFixture {
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
	rcs, err := rc.ExtractFromTrees(d, f, l)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(d, rcs)
	if err != nil {
		t.Fatal(err)
	}
	return &windowFixture{d: d, f: f, l: l, rcs: rcs, full: full}
}

// jitterNet perturbs every Steiner node of one tree and re-extracts
// just that net's RC view. Returns false if the net has no movable
// node (its RC cannot change).
func (fx *windowFixture) jitterNet(t *testing.T, ni netlist.NetID, rng *rand.Rand) bool {
	t.Helper()
	tr := fx.f.Trees[ni]
	moved := false
	for i := range tr.Nodes {
		if tr.Nodes[i].Kind != rsmt.SteinerNode {
			continue
		}
		tr.Nodes[i].Pos.X += (rng.Float64() - 0.5) * 4
		tr.Nodes[i].Pos.Y += (rng.Float64() - 0.5) * 4
		moved = true
	}
	if !moved {
		return false
	}
	nrc, err := rc.ExtractTreeNet(fx.d, tr, fx.l)
	if err != nil {
		t.Fatal(err)
	}
	fx.rcs[ni] = nrc
	return true
}

// requireBitIdentical fails unless two results agree bit-for-bit on
// every annotation, including the unexported critical-path
// predecessors.
func requireBitIdentical(t *testing.T, got, want *Result) {
	t.Helper()
	cmpVec := func(label string, a, b []float64) {
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %x (%.17g) vs %x (%.17g)", label, i,
					math.Float64bits(a[i]), a[i], math.Float64bits(b[i]), b[i])
			}
		}
	}
	cmpVec("Arrival", got.Arrival, want.Arrival)
	cmpVec("Slew", got.Slew, want.Slew)
	cmpVec("ArrivalMin", got.ArrivalMin, want.ArrivalMin)
	cmpVec("Required", got.Required, want.Required)
	cmpVec("PinSlack", got.PinSlack, want.PinSlack)
	cmpVec("EndpointSlack", got.EndpointSlack, want.EndpointSlack)
	cmpVec("EndpointArrival", got.EndpointArrival, want.EndpointArrival)
	if len(got.Endpoints) != len(want.Endpoints) {
		t.Fatalf("endpoint count %d vs %d", len(got.Endpoints), len(want.Endpoints))
	}
	for i := range got.Endpoints {
		if got.Endpoints[i] != want.Endpoints[i] {
			t.Fatalf("Endpoints[%d]: %d vs %d", i, got.Endpoints[i], want.Endpoints[i])
		}
	}
	for i := range got.argmaxPred {
		if got.argmaxPred[i] != want.argmaxPred[i] {
			t.Fatalf("argmaxPred[%d]: %d vs %d", i, got.argmaxPred[i], want.argmaxPred[i])
		}
	}
	if math.Float64bits(got.WNS) != math.Float64bits(want.WNS) ||
		math.Float64bits(got.TNS) != math.Float64bits(want.TNS) ||
		got.Vios != want.Vios ||
		math.Float64bits(got.WHS) != math.Float64bits(want.WHS) ||
		got.HoldVios != want.HoldVios ||
		got.SlewVios != want.SlewVios ||
		math.Float64bits(got.MaxSlewSeen) != math.Float64bits(want.MaxSlewSeen) {
		t.Fatalf("summary metrics differ: (%v %v %d %v %d %d %v) vs (%v %v %d %v %d %d %v)",
			got.WNS, got.TNS, got.Vios, got.WHS, got.HoldVios, got.SlewVios, got.MaxSlewSeen,
			want.WNS, want.TNS, want.Vios, want.WHS, want.HoldVios, want.SlewVios, want.MaxSlewSeen)
	}
}

// TestPropWindowedSingleNetMove is the seeded property from the issue:
// after any single-net move, a cone-only re-time is bit-identical to a
// from-scratch sta run. Trials chain (each Retime output becomes the
// next previous state), so stale-cache bugs accumulate and get caught.
func TestPropWindowedSingleNetMove(t *testing.T) {
	for _, name := range []string{"spm", "cic_decimator"} {
		t.Run(name, func(t *testing.T) {
			fx := newWindowFixture(t, name, 1.0)
			rng := rand.New(rand.NewSource(911))
			prev := fx.full
			trials := 40
			if testing.Short() {
				trials = 10
			}
			for trial := 0; trial < trials; trial++ {
				ni := netlist.NetID(rng.Intn(len(fx.d.Nets)))
				if !fx.jitterNet(t, ni, rng) {
					continue
				}
				got, err := Retime(fx.d, prev, fx.rcs, []netlist.NetID{ni})
				if err != nil {
					t.Fatal(err)
				}
				want, err := Run(fx.d, fx.rcs)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, got, want)
				prev = got
			}
		})
	}
}

// TestWindowedSubsetMoves drives Retime with multi-net change sets,
// including nets that did not actually change (allowed by the
// contract) — still bit-identical to the full run.
func TestWindowedSubsetMoves(t *testing.T) {
	fx := newWindowFixture(t, "spm", 1.0)
	rng := rand.New(rand.NewSource(77))
	prev := fx.full
	for trial := 0; trial < 12; trial++ {
		k := 1 + rng.Intn(len(fx.d.Nets)/12+1)
		changed := make([]netlist.NetID, 0, k)
		seen := map[netlist.NetID]bool{}
		for len(changed) < k {
			ni := netlist.NetID(rng.Intn(len(fx.d.Nets)))
			if seen[ni] {
				continue
			}
			seen[ni] = true
			fx.jitterNet(t, ni, rng) // pin-only nets stay listed but unchanged
			changed = append(changed, ni)
		}
		got, err := Retime(fx.d, prev, fx.rcs, changed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(fx.d, fx.rcs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
		prev = got
	}
}

// TestWindowedFullFallback lists every net as changed. Retime has no
// fallback to a full run, so its level sweep re-times the whole design
// and must still produce the exact full-run result, at the typical,
// fast and slow corners.
func TestWindowedFullFallback(t *testing.T) {
	for _, c := range []Corner{TypicalCorner(), FastCorner(), SlowCorner()} {
		t.Run(c.Name, func(t *testing.T) {
			fx := newWindowFixture(t, "spm", 0.5)
			prev, err := RunCorner(fx.d, fx.rcs, c)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			changed := make([]netlist.NetID, 0, len(fx.d.Nets))
			for ni := range fx.d.Nets {
				fx.jitterNet(t, netlist.NetID(ni), rng)
				changed = append(changed, netlist.NetID(ni))
			}
			got, err := Retime(fx.d, prev, fx.rcs, changed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := RunCorner(fx.d, fx.rcs, c)
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, got, want)

			// Empty change set: the previous annotation is already the answer.
			same, err := Retime(fx.d, want, fx.rcs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if same != want {
				t.Fatal("empty change set must return the previous result")
			}
		})
	}
}
