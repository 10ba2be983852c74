package synth

import (
	"fmt"

	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
)

// MeshSpec parameterizes a systolic-array-style benchmark: a Rows×Cols
// grid of processing elements (PEs), each a small registered datapath
// receiving from its west and north neighbours — the structured,
// locality-heavy topology of accelerators, complementing the random-cone
// designs of Benchmarks(). Mesh designs stress the flow differently:
// nets are short and regular, timing paths are uniform, and congestion
// concentrates along the array seams.
type MeshSpec struct {
	Name       string
	Rows, Cols int
	// ClockNS is the timing constraint; PE depth is fixed (4 stages), so
	// the constraint sets the violation profile directly.
	ClockNS float64
}

// pe records one processing element's boundary pins.
type pe struct {
	westSinks  []netlist.PinID // input pins fed by the west neighbour
	northSinks []netlist.PinID // input pins fed by the north neighbour
	out        netlist.PinID   // registered output (Q)
}

// GenerateMesh builds the mesh benchmark.
func GenerateMesh(spec MeshSpec, l *lib.Library) (*netlist.Design, error) {
	if spec.Rows < 1 || spec.Cols < 1 {
		return nil, fmt.Errorf("synth: mesh %dx%d", spec.Rows, spec.Cols)
	}
	b := netlist.NewBuilder(spec.Name, l)
	if spec.ClockNS > 0 {
		b.SetClockPeriod(spec.ClockNS)
	}
	d := b.Design()

	// Build every PE's cells and internal nets first; inter-PE nets are
	// wired afterwards so each driver connects all its consumers at once.
	pes := make([][]pe, spec.Rows)
	for r := range pes {
		pes[r] = make([]pe, spec.Cols)
		for c := range pes[r] {
			pes[r][c] = buildPE(b, d, fmt.Sprintf("pe_%d_%d", r, c))
		}
	}

	// Boundary inputs.
	for r := 0; r < spec.Rows; r++ {
		pi := b.AddPI(fmt.Sprintf("w%d", r))
		b.Connect(pi, pes[r][0].westSinks...)
	}
	for c := 0; c < spec.Cols; c++ {
		pi := b.AddPI(fmt.Sprintf("n%d", c))
		b.Connect(pi, pes[0][c].northSinks...)
	}

	// Inter-PE nets: each PE output drives its east and south neighbours,
	// plus a primary output on the bottom row.
	for r := 0; r < spec.Rows; r++ {
		for c := 0; c < spec.Cols; c++ {
			var sinks []netlist.PinID
			if c+1 < spec.Cols {
				sinks = append(sinks, pes[r][c+1].westSinks...)
			}
			if r+1 < spec.Rows {
				sinks = append(sinks, pes[r+1][c].northSinks...)
			}
			if r == spec.Rows-1 {
				po := b.AddPO(fmt.Sprintf("s%d", c), 0.008)
				sinks = append(sinks, po)
			}
			b.Connect(pes[r][c].out, sinks...)
		}
	}

	return b.Finish()
}

// buildPE creates one processing element: xor/and mix of the two inputs,
// four logic stages deep, ending in a register. Every inter-PE net
// crosses a register boundary, the hallmark of systolic designs.
func buildPE(b *netlist.Builder, d *netlist.Design, name string) pe {
	x1 := b.AddCell(name+"_x1", "XOR2_X1")
	a1 := b.AddCell(name+"_a1", "AND2_X1")
	o1 := b.AddCell(name+"_o1", "OR2_X1")
	n1 := b.AddCell(name+"_n1", "NAND2_X1")
	mix := b.AddCell(name+"_m", "AOI21_X1")
	ff := b.AddCell(name+"_r", "DFF_X1")

	b.Connect(d.Cell(x1).OutputPin(), d.Cell(o1).InputPins()[0], d.Cell(n1).InputPins()[0])
	b.Connect(d.Cell(a1).OutputPin(), d.Cell(o1).InputPins()[1], d.Cell(n1).InputPins()[1])
	b.Connect(d.Cell(o1).OutputPin(), d.Cell(mix).InputPins()[0])
	b.Connect(d.Cell(n1).OutputPin(), d.Cell(mix).InputPins()[1], d.Cell(mix).InputPins()[2])
	b.Connect(d.Cell(mix).OutputPin(), d.Cell(ff).InputPins()[0])

	return pe{
		westSinks:  []netlist.PinID{d.Cell(x1).InputPins()[0], d.Cell(a1).InputPins()[0]},
		northSinks: []netlist.PinID{d.Cell(x1).InputPins()[1], d.Cell(a1).InputPins()[1]},
		out:        d.Cell(ff).OutputPin(),
	}
}
