package check

// Domain generators: the physical-design-shaped inputs the property
// suites share. check deliberately imports only the bottom of the
// dependency stack (geom, lib, netlist, synth, place) so the packages
// under test (rsmt, rc, sta, route, gnn, ...) can use it from their
// external test packages without import cycles.

import (
	"fmt"
	"math/rand"

	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/synth"
)

// PointIn generates points inside the (inclusive) box, shrinking each
// coordinate toward the box's lower corner.
func PointIn(b geom.BBox) Gen[geom.Point] {
	if b.Empty() {
		panic("check: PointIn with empty box")
	}
	return Gen[geom.Point]{
		Generate: func(r *RNG) geom.Point {
			return geom.Point{X: r.Range(b.XLo, b.XHi), Y: r.Range(b.YLo, b.YHi)}
		},
		Shrink: func(p geom.Point) []geom.Point {
			var out []geom.Point
			if p.X > b.XLo {
				out = append(out, geom.Point{X: b.XLo, Y: p.Y}, geom.Point{X: b.XLo + (p.X-b.XLo)/2, Y: p.Y})
			}
			if p.Y > b.YLo {
				out = append(out, geom.Point{X: p.X, Y: b.YLo}, geom.Point{X: p.X, Y: b.YLo + (p.Y-b.YLo)/2})
			}
			return out
		},
	}
}

// PointsIn generates point sets of size [minN, maxN] inside the box —
// the geometric shape of a net's pin terminals. Duplicates are allowed
// (co-located pins happen in real placements).
func PointsIn(b geom.BBox, minN, maxN int) Gen[[]geom.Point] {
	return SliceOf(minN, maxN, PointIn(b))
}

// RCTree is a random RC tree in parent-array form: node 0 is the root
// (driver); for every other node i, Parent[i] < i, EdgeR[i] is the
// resistance of the edge to its parent (kΩ) and Cap[i] the node's
// capacitance (pF). Cap[0] is the root's own capacitance.
type RCTree struct {
	Parent []int
	EdgeR  []float64
	Cap    []float64
}

// Nodes returns the node count.
func (t RCTree) Nodes() int { return len(t.Parent) }

// String keeps counterexample output compact.
func (t RCTree) String() string {
	return fmt.Sprintf("RCTree{n=%d parent=%v edgeR=%.4v cap=%.4v}", len(t.Parent), t.Parent, t.EdgeR, t.Cap)
}

// RCTrees generates random RC trees with 2..maxNodes nodes, random
// topology (uniform attachment) and positive R/C values. Shrinking
// drops the last node (always a valid tree thanks to Parent[i] < i)
// and zeroes toward small R/C.
func RCTrees(maxNodes int) Gen[RCTree] {
	if maxNodes < 2 {
		panic("check: RCTrees needs maxNodes >= 2")
	}
	return Gen[RCTree]{
		Generate: func(r *RNG) RCTree {
			n := r.Range(2, maxNodes)
			t := RCTree{
				Parent: make([]int, n),
				EdgeR:  make([]float64, n),
				Cap:    make([]float64, n),
			}
			t.Parent[0] = -1
			t.Cap[0] = 0.001 + r.Float64()*0.05
			for i := 1; i < n; i++ {
				t.Parent[i] = r.Intn(i)
				t.EdgeR[i] = 0.01 + r.Float64()*0.5
				t.Cap[i] = 0.001 + r.Float64()*0.05
			}
			return t
		},
		Shrink: func(t RCTree) []RCTree {
			if t.Nodes() <= 2 {
				return nil
			}
			n := t.Nodes() - 1
			return []RCTree{{
				Parent: append([]int(nil), t.Parent[:n]...),
				EdgeR:  append([]float64(nil), t.EdgeR[:n]...),
				Cap:    append([]float64(nil), t.Cap[:n]...),
			}}
		},
	}
}

// DesignSpec is the shrinkable parameterization of a generated design;
// Build turns it into a placed netlist deterministically.
type DesignSpec struct {
	Seed      int64
	Cells     int
	Endpoints int
	PIs       int
	Depth     int
	ClockNS   float64
}

// String keeps counterexample output compact.
func (s DesignSpec) String() string {
	return fmt.Sprintf("DesignSpec{seed=%d cells=%d endpoints=%d pis=%d depth=%d clock=%.3f}",
		s.Seed, s.Cells, s.Endpoints, s.PIs, s.Depth, s.ClockNS)
}

// Build generates and places the design described by the spec against
// the default library. Generation is a pure function of the spec, so a
// shrunk or replayed spec reproduces the identical design.
func (s DesignSpec) Build() (*netlist.Design, error) {
	d, err := synth.Generate(synth.Spec{
		Name:      fmt.Sprintf("prop_s%d_c%d", s.Seed, s.Cells),
		Seed:      s.Seed,
		Cells:     s.Cells,
		Endpoints: s.Endpoints,
		PIs:       s.PIs,
		Depth:     s.Depth,
		ClockNS:   s.ClockNS,
	}, lib.Default())
	if err != nil {
		return nil, err
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		return nil, err
	}
	return d, nil
}

// DesignSpecs generates small random design specs (tens of cells, a
// handful of endpoints) whose Build yields valid placed netlists —
// the canonical input for cross-stage properties (rsmt, rc, sta).
// Shrinking reduces cell count, depth and endpoints toward the minimum
// viable design.
func DesignSpecs() Gen[DesignSpec] {
	return Gen[DesignSpec]{
		Generate: func(r *RNG) DesignSpec {
			return DesignSpec{
				Seed:      r.Int63() % 1_000_000,
				Cells:     r.Range(40, 140),
				Endpoints: r.Range(8, 24),
				PIs:       r.Range(4, 12),
				Depth:     r.Range(5, 14),
				ClockNS:   0.2 + r.Float64()*3.0,
			}
		},
		Shrink: func(s DesignSpec) []DesignSpec {
			var out []DesignSpec
			if s.Cells > 40 {
				c := s
				c.Cells = 40 + (s.Cells-40)/2
				out = append(out, c)
			}
			if s.Depth > 5 {
				c := s
				c.Depth = s.Depth - 1
				out = append(out, c)
			}
			if s.Endpoints > 8 {
				c := s
				c.Endpoints = 8
				out = append(out, c)
			}
			return out
		},
	}
}

// InverterChain builds PI → n INV_X1 cells → PO against the default
// library, unplaced (flow.Prepare places it). Every net has two pins, so
// none of its Steiner trees holds a Steiner point: the evaluator's
// moving half is empty and refinement has nothing to move.
func InverterChain(n int) (*netlist.Design, error) {
	b := netlist.NewBuilder(fmt.Sprintf("inv_chain_%d", n), lib.Default())
	drv := b.AddPI("in")
	for i := 0; i < n; i++ {
		inv := b.Design().Cell(b.AddCell(fmt.Sprintf("inv%d", i), "INV_X1"))
		b.Connect(drv, inv.InputPins()[0])
		drv = inv.OutputPin()
	}
	b.Connect(drv, b.AddPO("out", 0.002))
	return b.Finish()
}

// Rand adapts the framework RNG into a math/rand source for APIs that
// take *rand.Rand (e.g. rsmt.Perturb), preserving seed determinism.
func (r *RNG) Rand() *rand.Rand { return rand.New(rand.NewSource(r.Int63())) }
