package netlist

import (
	"fmt"

	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
)

// Builder constructs a Design incrementally. It is the single entry point
// used by the synthetic benchmark generator, the examples and the tests,
// so every design in the repository shares the same wiring conventions.
type Builder struct {
	d       *Design
	netSeq  int
	errOnce error
}

// NewBuilder starts a design bound to the given library.
func NewBuilder(name string, l *lib.Library) *Builder {
	return &Builder{d: &Design{
		Name:        name,
		Lib:         l,
		ClockPeriod: l.ClockPeriod,
	}}
}

func (b *Builder) addPin(p Pin) PinID {
	id := PinID(len(b.d.Pins))
	b.d.Pins = append(b.d.Pins, p)
	return id
}

// AddPI adds a primary input port. The returned pin drives nets.
func (b *Builder) AddPI(name string) PinID {
	id := b.addPin(Pin{Name: name, Cell: NoID, Net: NoID, Dir: Output, IsPort: true})
	b.d.PIs = append(b.d.PIs, id)
	return id
}

// AddPO adds a primary output port with the given external load (pF). The
// returned pin is a net sink and a timing endpoint.
func (b *Builder) AddPO(name string, cap float64) PinID {
	id := b.addPin(Pin{Name: name, Cell: NoID, Net: NoID, Dir: Input, IsPort: true, Cap: cap})
	b.d.POs = append(b.d.POs, id)
	return id
}

// AddCell instantiates a library master, creating its pins. Returns the
// new cell ID; pin IDs are recovered via the instance's Pins slice.
func (b *Builder) AddCell(name, master string) CellID {
	m, err := b.d.Lib.Cell(master)
	if err != nil {
		b.fail(err)
		// Fall back to any cell so construction can continue; Finish will
		// report the recorded error.
		for _, c := range b.d.Lib.Cells {
			m = c
			break
		}
	}
	cid := CellID(len(b.d.Cells))
	inst := Inst{Name: name, Master: m}
	for _, in := range m.Inputs {
		pid := b.addPin(Pin{
			Name: name + "/" + in,
			Cell: cid, Net: NoID, Dir: Input,
			Cap: m.InputCap[in],
		})
		inst.Pins = append(inst.Pins, pid)
	}
	out := b.addPin(Pin{Name: name + "/" + m.Output, Cell: cid, Net: NoID, Dir: Output})
	inst.Pins = append(inst.Pins, out)
	b.d.Cells = append(b.d.Cells, inst)
	return cid
}

// Connect creates a net from a driver pin to one or more sinks. The driver
// must be an Output-direction pin (cell output or PI); each sink an
// Input-direction pin (cell input or PO) not already connected.
func (b *Builder) Connect(driver PinID, sinks ...PinID) NetID {
	if len(sinks) == 0 {
		b.fail(fmt.Errorf("netlist: net from %q needs at least one sink", b.d.Pin(driver).Name))
		return NoID
	}
	nid := NetID(len(b.d.Nets))
	dp := b.d.Pin(driver)
	if dp.Dir != Output {
		b.fail(fmt.Errorf("netlist: %q cannot drive a net", dp.Name))
	}
	if dp.Net != NoID {
		b.fail(fmt.Errorf("netlist: driver %q already drives net %d", dp.Name, dp.Net))
	}
	dp.Net = nid
	net := Net{Name: fmt.Sprintf("n%d", b.netSeq), Driver: driver}
	b.netSeq++
	for _, s := range sinks {
		sp := b.d.Pin(s)
		if sp.Dir != Input {
			b.fail(fmt.Errorf("netlist: %q cannot be a net sink", sp.Name))
		}
		if sp.Net != NoID {
			b.fail(fmt.Errorf("netlist: sink %q already connected", sp.Name))
		}
		sp.Net = nid
		net.Sinks = append(net.Sinks, s)
	}
	b.d.Nets = append(b.d.Nets, net)
	return nid
}

// SetDie sets the placement/routing region.
func (b *Builder) SetDie(die geom.BBox) { b.d.Die = die }

// SetClockPeriod overrides the library default constraint.
func (b *Builder) SetClockPeriod(ns float64) { b.d.ClockPeriod = ns }

// Design returns the under-construction design for read access: callers
// wiring a netlist need to look up the pins of cells they just created.
// The returned pointer aliases the builder's state; mutate only through
// builder methods.
func (b *Builder) Design() *Design { return b.d }

func (b *Builder) fail(err error) {
	if b.errOnce == nil {
		b.errOnce = err
	}
}

// Finish validates the design, builds its timing graph (rejecting a
// combinational loop) and returns it.
func (b *Builder) Finish() (*Design, error) {
	if b.errOnce != nil {
		return nil, b.errOnce
	}
	if err := b.d.Validate(); err != nil {
		return nil, err
	}
	g, err := newGraph(b.d)
	if err != nil {
		return nil, err
	}
	b.d.graph = g
	return b.d, nil
}
