package check

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tsteiner/internal/geom"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Range(-3, 5); v < -3 || v > 5 {
			t.Fatalf("Range out of bounds: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of bounds: %g", v)
		}
		if v := r.Intn(4); v < 0 || v >= 4 {
			t.Fatalf("Intn out of bounds: %d", v)
		}
	}
}

// TestCasesByteDeterministic pins the same-seed ⇒ same-cases contract:
// two runs with the same config must generate identical case values.
func TestCasesByteDeterministic(t *testing.T) {
	collect := func() []int {
		var vals []int
		RunCfg(t, Config{Cases: 50}, Int(0, 1<<30), func(v int) error {
			vals = append(vals, v)
			return nil
		})
		return vals
	}
	a, b := collect(), collect()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("expected 50 cases, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("case %d differs between identical runs: %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed must change the sequence.
	var c []int
	RunCfg(t, Config{Cases: 50, Seed: 999}, Int(0, 1<<30), func(v int) error {
		c = append(c, v)
		return nil
	})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different run seeds generated identical cases")
	}
}

// TestShrinkFindsMinimalInt drives the shrink loop directly: the
// property "v < 50" must shrink any failing value down to exactly 50.
func TestShrinkFindsMinimalInt(t *testing.T) {
	g := Int(0, 1000)
	prop := func(v int) error {
		if v >= 50 {
			return fmt.Errorf("v=%d >= 50", v)
		}
		return nil
	}
	for _, start := range []int{50, 51, 99, 500, 1000} {
		min, minErr, _ := shrinkLoop(g, prop, start, prop(start), 2000)
		if min != 50 {
			t.Fatalf("shrink from %d reached %d, want 50", start, min)
		}
		if minErr == nil {
			t.Fatal("minimal counterexample lost its error")
		}
	}
}

// TestShrinkSliceRespectsBounds checks slices never shrink below
// minLen and that a size-triggered failure shrinks to the threshold.
func TestShrinkSliceRespectsBounds(t *testing.T) {
	g := SliceOf(2, 40, Int(0, 9))
	prop := func(v []int) error {
		if len(v) >= 5 {
			return errors.New("too long")
		}
		return nil
	}
	start := make([]int, 40)
	min, _, _ := shrinkLoop(g, prop, start, prop(start), 2000)
	if len(min) != 5 {
		t.Fatalf("shrunk slice has %d elements, want 5", len(min))
	}
	// A property that always fails must still respect minLen.
	alwaysFail := func(v []int) error { return errors.New("no") }
	min, _, _ = shrinkLoop(g, alwaysFail, start, errors.New("no"), 2000)
	if len(min) < 2 {
		t.Fatalf("shrunk below minLen: %d", len(min))
	}
}

// TestRunCasePanicBecomesError verifies panicking properties are
// reported (with replay seed) instead of crashing the test binary.
func TestRunCasePanicBecomesError(t *testing.T) {
	g := Int(0, 10)
	err := runCase(g, func(v int) error { panic("boom") }, 123, 10)
	if err == nil {
		t.Fatal("panicking property reported success")
	}
	if !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "seed") {
		t.Fatalf("unhelpful panic report: %v", err)
	}
}

// TestReplayEnv runs a single case addressed by TSTEINER_CHECK_SEED.
func TestReplayEnv(t *testing.T) {
	t.Setenv(EnvSeed, "0x1234")
	ran := 0
	var seen int
	RunCfg(t, Config{Cases: 64}, Int(0, 1<<20), func(v int) error {
		ran++
		seen = v
		return nil
	})
	if ran != 1 {
		t.Fatalf("replay ran %d cases, want 1", ran)
	}
	// The replayed case must equal a direct generation from that seed.
	want := Int(0, 1<<20).Generate(NewRNG(0x1234))
	if seen != want {
		t.Fatalf("replayed value %d != direct generation %d", seen, want)
	}
}

func TestCombinatorBounds(t *testing.T) {
	r := NewRNG(99)
	two := Two(Int(1, 3), Float(0.5, 1.5))
	for i := 0; i < 200; i++ {
		p := two.Generate(r)
		if p.A < 1 || p.A > 3 || p.B < 0.5 || p.B >= 1.5 {
			t.Fatalf("pair out of bounds: %+v", p)
		}
	}
	one := OneOf(Const(1), Const(2))
	for i := 0; i < 50; i++ {
		if v := one.Generate(r); v != 1 && v != 2 {
			t.Fatalf("OneOf produced %d", v)
		}
	}
	m := Map(Int(0, 5), func(v int) string { return strings.Repeat("x", v) })
	for i := 0; i < 20; i++ {
		if s := m.Generate(r); len(s) > 5 {
			t.Fatalf("mapped value too long: %q", s)
		}
	}
}

func TestDomainGenerators(t *testing.T) {
	box := geom.BBox{XLo: -5, YLo: 0, XHi: 20, YHi: 8}
	r := NewRNG(1)
	pg := PointIn(box)
	for i := 0; i < 300; i++ {
		if p := pg.Generate(r); !box.Contains(p) {
			t.Fatalf("point %v outside box", p)
		}
	}
	tg := RCTrees(12)
	for i := 0; i < 100; i++ {
		tree := tg.Generate(r)
		if tree.Nodes() < 2 || tree.Nodes() > 12 {
			t.Fatalf("tree size %d out of range", tree.Nodes())
		}
		if tree.Parent[0] != -1 {
			t.Fatal("root parent must be -1")
		}
		for i := 1; i < tree.Nodes(); i++ {
			if tree.Parent[i] < 0 || tree.Parent[i] >= i {
				t.Fatalf("node %d has invalid parent %d", i, tree.Parent[i])
			}
			if tree.EdgeR[i] <= 0 || tree.Cap[i] <= 0 {
				t.Fatal("non-positive R or C")
			}
		}
	}
	// Design specs build valid designs, and Build is deterministic.
	sg := DesignSpecs()
	spec := sg.Generate(NewRNG(5))
	d1, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Validate(); err != nil {
		t.Fatal(err)
	}
	d2, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Pins) != len(d2.Pins) {
		t.Fatal("Build not deterministic")
	}
	for i := range d1.Pins {
		if d1.Pins[i].Pos != d2.Pins[i].Pos {
			t.Fatal("placement not deterministic")
		}
	}
	// The inverter chain is n cells on n+1 two-pin nets.
	chain, err := InverterChain(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain.Cells) != 6 || len(chain.Nets) != 7 {
		t.Fatalf("chain has %d cells, %d nets; want 6, 7", len(chain.Cells), len(chain.Nets))
	}
	for _, n := range chain.Nets {
		if len(n.Sinks) != 1 {
			t.Fatalf("chain net %s has %d sinks, want 1", n.Name, len(n.Sinks))
		}
	}
}
