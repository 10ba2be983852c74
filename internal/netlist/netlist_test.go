package netlist

import (
	"testing"

	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
)

// buildChain makes PI -> INV -> INV -> PO, a minimal legal design.
func buildChain(t *testing.T) *Design {
	t.Helper()
	b := NewBuilder("chain", lib.Default())
	pi := b.AddPI("in")
	c1 := b.AddCell("u1", "INV_X1")
	c2 := b.AddCell("u2", "INV_X1")
	po := b.AddPO("out", 0.01)
	d := b.design()
	b.Connect(pi, d.Cell(c1).InputPins()[0])
	b.Connect(d.Cell(c1).OutputPin(), d.Cell(c2).InputPins()[0])
	b.Connect(d.Cell(c2).OutputPin(), po)
	b.SetDie(geom.BBox{XLo: 0, YLo: 0, XHi: 100, YHi: 100})
	out, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return out
}

// design exposes the under-construction design to tests in this package.
func (b *Builder) design() *Design { return b.d }

func TestBuilderChain(t *testing.T) {
	d := buildChain(t)
	if len(d.Cells) != 2 || len(d.Nets) != 3 {
		t.Fatalf("got %d cells %d nets", len(d.Cells), len(d.Nets))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := d.Stats()
	if s.CellNodes != 2 || s.NetEdges != 3 || s.CellEdges != 2 || s.Endpoints != 1 {
		t.Fatalf("Stats=%+v", s)
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	d := buildChain(t)
	g := d.Graph()
	order := g.Order()
	pos := make(map[PinID]int, len(order))
	for i, p := range order {
		pos[p] = i
	}
	d.forEachEdge(func(from, to PinID) {
		if pos[from] >= pos[to] {
			t.Errorf("edge %q->%q violates topo order",
				d.Pin(from).Name, d.Pin(to).Name)
		}
		if g.Level(from) >= g.Level(to) {
			t.Errorf("edge %q->%q does not climb a level (%d -> %d)",
				d.Pin(from).Name, d.Pin(to).Name, g.Level(from), g.Level(to))
		}
	})
	if len(order) != d.NumPins() {
		t.Fatalf("order covers %d of %d pins", len(order), d.NumPins())
	}
	deepest := 0
	for _, p := range order {
		deepest = max(deepest, g.Level(p))
	}
	// chain: in -> u1/A -> u1/Z -> u2/A -> u2/Z -> out spans levels 0..5.
	if deepest != 5 || g.Levels() != deepest+1 {
		t.Fatalf("deepest level %d, Levels %d; want 5 and 6", deepest, g.Levels())
	}
}

func TestCombinationalLoopDetected(t *testing.T) {
	b := NewBuilder("loop", lib.Default())
	c1 := b.AddCell("u1", "INV_X1")
	c2 := b.AddCell("u2", "INV_X1")
	d := b.design()
	b.Connect(d.Cell(c1).OutputPin(), d.Cell(c2).InputPins()[0])
	b.Connect(d.Cell(c2).OutputPin(), d.Cell(c1).InputPins()[0])
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected combinational-loop error")
	}
}

func TestRegisterCutsLoop(t *testing.T) {
	// INV feeding a DFF whose Q feeds back into the INV is sequential,
	// not a combinational loop, and must be accepted.
	b := NewBuilder("seqloop", lib.Default())
	inv := b.AddCell("u1", "INV_X1")
	dff := b.AddCell("r1", "DFF_X1")
	d := b.design()
	dPin := d.Cell(dff).InputPins()[0] // D
	b.Connect(d.Cell(inv).OutputPin(), dPin)
	b.Connect(d.Cell(dff).OutputPin(), d.Cell(inv).InputPins()[0])
	out, err := b.Finish()
	if err != nil {
		t.Fatalf("sequential loop rejected: %v", err)
	}
	if !out.IsEndpoint(dPin) {
		t.Error("DFF D pin should be an endpoint")
	}
	if len(out.Graph().Fanin(out.Cell(dff).OutputPin())) != 0 {
		t.Error("DFF Q pin should start a path")
	}
}

func TestStartAndEndpoints(t *testing.T) {
	d := buildChain(t)
	var starts []PinID
	for id := range d.Pins {
		if len(d.Graph().Fanin(PinID(id))) == 0 {
			starts = append(starts, PinID(id))
		}
	}
	ends := d.Endpoints()
	if len(starts) != 1 || d.Pin(starts[0]).Name != "in" {
		t.Errorf("startpoints=%v", starts)
	}
	if len(ends) != 1 || d.Pin(ends[0]).Name != "out" {
		t.Errorf("endpoints=%v", ends)
	}
	// A combinational cell's pins are neither start- nor endpoints.
	u1out := d.Cell(0).OutputPin()
	if len(d.Graph().Fanin(u1out)) == 0 || d.IsEndpoint(u1out) {
		t.Error("INV output misclassified")
	}
}

func TestConnectErrors(t *testing.T) {
	l := lib.Default()

	t.Run("no sinks", func(t *testing.T) {
		b := NewBuilder("x", l)
		pi := b.AddPI("in")
		b.Connect(pi)
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for sinkless net")
		}
	})
	t.Run("double drive", func(t *testing.T) {
		b := NewBuilder("x", l)
		pi := b.AddPI("in")
		po1 := b.AddPO("o1", 0.01)
		po2 := b.AddPO("o2", 0.01)
		b.Connect(pi, po1)
		b.Connect(pi, po2)
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for driver reuse")
		}
	})
	t.Run("double sink", func(t *testing.T) {
		b := NewBuilder("x", l)
		pi1 := b.AddPI("i1")
		pi2 := b.AddPI("i2")
		po := b.AddPO("o", 0.01)
		b.Connect(pi1, po)
		b.Connect(pi2, po)
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for sink reuse")
		}
	})
	t.Run("input as driver", func(t *testing.T) {
		b := NewBuilder("x", l)
		po := b.AddPO("o", 0.01)
		pi := b.AddPI("i")
		b.Connect(po, pi)
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for input-direction driver")
		}
	})
	t.Run("unknown master", func(t *testing.T) {
		b := NewBuilder("x", l)
		b.AddCell("u1", "BOGUS_CELL")
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for unknown master")
		}
	})
	t.Run("unconnected input", func(t *testing.T) {
		b := NewBuilder("x", l)
		c := b.AddCell("u1", "INV_X1")
		po := b.AddPO("o", 0.01)
		d := b.design()
		b.Connect(d.Cell(c).OutputPin(), po)
		if _, err := b.Finish(); err == nil {
			t.Fatal("expected error for floating input")
		}
	})
}

func TestUnconnectedClockAllowed(t *testing.T) {
	// Ideal-clock convention: a DFF's CK pin may float.
	b := NewBuilder("x", lib.Default())
	pi := b.AddPI("in")
	dff := b.AddCell("r1", "DFF_X1")
	po := b.AddPO("out", 0.01)
	d := b.design()
	b.Connect(pi, d.Cell(dff).InputPins()[0]) // D
	b.Connect(d.Cell(dff).OutputPin(), po)
	if _, err := b.Finish(); err != nil {
		t.Fatalf("floating CK rejected: %v", err)
	}
}

func TestFanoutFaninEdges(t *testing.T) {
	d := buildChain(t)
	g := d.Graph()
	var fwd, bwd int
	for p := range d.Pins {
		fwd += len(g.Fanout(PinID(p)))
		bwd += len(g.Fanin(PinID(p)))
	}
	if fwd != bwd {
		t.Fatalf("edge count mismatch: fanout %d fanin %d", fwd, bwd)
	}
	// chain: 3 net edges + 2 cell arcs = 5.
	if fwd != 5 {
		t.Fatalf("edges=%d want 5", fwd)
	}
	// Every fanout edge appears as a fanin edge.
	for from := range d.Pins {
		for _, to := range g.Fanout(PinID(from)) {
			found := false
			for _, f := range g.Fanin(to) {
				if f == PinID(from) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d missing from fanin", from, to)
			}
		}
	}
}

func TestMasterPinName(t *testing.T) {
	d := buildChain(t)
	inst := d.Cell(0)
	if got := d.MasterPinName(inst.InputPins()[0]); got != "A" {
		t.Errorf("input master name=%q want A", got)
	}
	if got := d.MasterPinName(inst.OutputPin()); got != "Z" {
		t.Errorf("output master name=%q want Z", got)
	}
}

func TestNetNumPins(t *testing.T) {
	d := buildChain(t)
	for i := range d.Nets {
		n := d.Net(NetID(i))
		if n.NumPins() != 1+len(n.Sinks) {
			t.Errorf("net %s NumPins mismatch", n.Name)
		}
	}
}
