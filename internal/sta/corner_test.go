package sta

import (
	"math/rand"
	"testing"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
)

// TestCornerTypicalBitIdentical pins backward compatibility: RunCorner
// at the identity corner (and the single-entry RunCorners) must be
// bitwise identical to Run on the same parasitics.
func TestCornerTypicalBitIdentical(t *testing.T) {
	fx := newWindowFixture(t, "spm", 1.0)
	got, err := RunCorner(fx.d, fx.rcs, TypicalCorner())
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, fx.full)

	multi, err := RunCorners(fx.d, fx.rcs, []Corner{TypicalCorner()})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 1 {
		t.Fatalf("RunCorners returned %d results for 1 corner", len(multi))
	}
	requireBitIdentical(t, multi[0], fx.full)
}

// TestCornerRunCornersOrdered: RunCorners returns one result per
// corner in input order, each bitwise identical to a standalone
// RunCorner at that corner.
func TestCornerRunCornersOrdered(t *testing.T) {
	fx := newWindowFixture(t, "cic_decimator", 1.0)
	corners := DefaultCorners()
	multi, err := RunCorners(fx.d, fx.rcs, corners)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(corners) {
		t.Fatalf("RunCorners returned %d results for %d corners", len(multi), len(corners))
	}
	for i, c := range corners {
		if multi[i].Corner != c {
			t.Fatalf("result %d carries corner %q, want %q", i, multi[i].Corner.Name, c.Name)
		}
		want, err := RunCorner(fx.d, fx.rcs, c)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, multi[i], want)
	}
}

// TestCornerRetimerMatchesFullRun extends the windowed-STA contract to
// derated corners: chained single-net moves re-timed from a derated
// result must stay bit-identical to a from-scratch RunCorner.
func TestCornerRetimerMatchesFullRun(t *testing.T) {
	for _, c := range []Corner{FastCorner(), SlowCorner()} {
		t.Run(c.Name, func(t *testing.T) {
			fx := newWindowFixture(t, "spm", 1.0)
			prev, err := RunCorner(fx.d, fx.rcs, c)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1303))
			trials := 20
			if testing.Short() {
				trials = 6
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
				want, err := RunCorner(fx.d, fx.rcs, c)
				if err != nil {
					t.Fatal(err)
				}
				requireBitIdentical(t, got, want)
				prev = got
			}
		})
	}
}

// TestCornerRetimerRejectsMismatch: Retime takes its corner from the
// previous result, so what it can be handed that does not match the
// design is the parasitics and the change set. An RC slice of the wrong
// length and a net ID outside the design must each be an error, not a
// panic.
func TestCornerRetimerRejectsMismatch(t *testing.T) {
	fx := newWindowFixture(t, "spm", 0.5)
	n := netlist.NetID(len(fx.d.Nets))
	for _, tc := range []struct {
		name    string
		rcs     []rc.NetRC
		changed []netlist.NetID
	}{
		{"short rcs", fx.rcs[:len(fx.rcs)-1], []netlist.NetID{0}},
		{"negative net", fx.rcs, []netlist.NetID{0, -1}},
		{"net past the end", fx.rcs, []netlist.NetID{n}},
	} {
		if _, err := Retime(fx.d, fx.full, tc.rcs, tc.changed); err == nil {
			t.Errorf("%s: Retime succeeded", tc.name)
		}
	}
}

// TestCornerValidate covers the corner sanity checks and the
// duplicate-name rejection in RunCorners.
func TestCornerValidate(t *testing.T) {
	bad := []Corner{
		{Name: "", DelayScale: 1, SlewScale: 1, ClockScale: 1},
		{Name: "z", DelayScale: 0, SlewScale: 1, ClockScale: 1},
		{Name: "z", DelayScale: 1, SlewScale: -2, ClockScale: 1},
		{Name: "z", DelayScale: 1, SlewScale: 1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("corner %+v validated", c)
		}
	}
	for _, c := range DefaultCorners() {
		if err := c.Validate(); err != nil {
			t.Fatalf("preset %q failed validation: %v", c.Name, err)
		}
	}
	if !TypicalCorner().IsTypical() || FastCorner().IsTypical() {
		t.Fatal("IsTypical misclassifies the presets")
	}

	fx := newWindowFixture(t, "spm", 0.5)
	if _, err := RunCorners(fx.d, fx.rcs, []Corner{FastCorner(), FastCorner()}); err == nil {
		t.Fatal("duplicate corner names accepted")
	}
	if _, err := RunCorners(fx.d, fx.rcs, nil); err == nil {
		t.Fatal("empty corner list accepted")
	}
}

// TestParseCorners covers the -corners flag grammar.
func TestParseCorners(t *testing.T) {
	got, err := ParseCorners("fast, typical ,slow")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != FastCorner() || got[1] != TypicalCorner() || got[2] != SlowCorner() {
		t.Fatalf("preset list parsed to %+v", got)
	}
	got, err = ParseCorners("default")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("default parsed to %d corners", len(got))
	}
	got, err = ParseCorners("hot:1.2:1.05:0.95")
	if err != nil {
		t.Fatal(err)
	}
	want := Corner{Name: "hot", DelayScale: 1.2, SlewScale: 1.05, ClockScale: 0.95}
	if len(got) != 1 || got[0] != want {
		t.Fatalf("custom corner parsed to %+v, want %+v", got, want)
	}
	for _, bad := range []string{"", "warm", "hot:1.2:1.05", "hot:x:1:1", "hot:0:1:1", "fast,,slow", "fast,fast", "x:1e308:1:1"} {
		if _, err := ParseCorners(bad); err == nil {
			t.Fatalf("ParseCorners(%q) succeeded", bad)
		}
	}
}

// FuzzParseCorners feeds arbitrary -corners flag values to ParseCorners.
// Contract: no panic on any input, and every list it accepts passes
// ValidateCorners — the one check every layer that takes corners runs.
// The committed corpus (testdata/fuzz/FuzzParseCorners) holds the
// presets, "default", custom and boundary corners, overflowing and NaN
// scales, empty tokens and duplicate names.
func FuzzParseCorners(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		corners, err := ParseCorners(spec)
		if err != nil {
			return
		}
		if err := ValidateCorners(corners); err != nil {
			t.Fatalf("ParseCorners(%q) accepted a list ValidateCorners rejects: %v", spec, err)
		}
	})
}
