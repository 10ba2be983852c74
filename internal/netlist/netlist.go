// Package netlist defines the in-memory design model shared by every stage
// of the flow: cell instances bound to library masters, nets with a single
// driver and multiple sinks, and the pin-level timing graph with its two
// edge kinds (net edges: driver→sink; cell edges: input→output arc), the
// same heterogeneous structure the paper's netlist graph uses.
package netlist

import (
	"fmt"

	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
)

// Identifiers are dense indices into the Design's slices so that per-pin
// state elsewhere in the flow can live in flat arrays.
type (
	// PinID indexes Design.Pins.
	PinID int32
	// CellID indexes Design.Cells.
	CellID int32
	// NetID indexes Design.Nets.
	NetID int32
)

// NoID marks an unset reference (a port's cell, an unconnected pin's net).
const NoID = -1

// Dir is the signal direction of a pin, seen from the pin's owner: a cell
// output pin and a primary-input port both *drive* nets, so both are Output.
type Dir uint8

// Pin directions.
const (
	Input Dir = iota
	Output
)

// Pin is one vertex of the timing graph.
type Pin struct {
	Name   string
	Cell   CellID // NoID for ports
	Net    NetID  // NoID while unconnected
	Dir    Dir
	IsPort bool
	// PortCap is the external load (pF) seen at a primary output, or the
	// pin capacitance of a cell input. Driver pins have zero cap.
	Cap float64
	// Pos is the placed location in DBU. Ports are placed on the die
	// boundary; cell pins share their instance's location (cells in this
	// model are point-sized at global-routing resolution).
	Pos geom.Point
}

// Inst is a placed instance of a library master.
type Inst struct {
	Name   string
	Master *lib.Cell
	// Pins lists the instance's pin IDs in master order: Inputs... then
	// the output pin last.
	Pins []PinID
	Pos  geom.Point
}

// OutputPin returns the instance's output pin ID.
func (c *Inst) OutputPin() PinID { return c.Pins[len(c.Pins)-1] }

// InputPins returns the instance's input pin IDs in master order.
func (c *Inst) InputPins() []PinID { return c.Pins[:len(c.Pins)-1] }

// Net connects one driver pin to one or more sink pins.
type Net struct {
	Name   string
	Driver PinID
	Sinks  []PinID
}

// NumPins returns the total pin count of the net including the driver.
func (n *Net) NumPins() int { return 1 + len(n.Sinks) }

// Design is a complete gate-level design: library binding, instances,
// nets, ports, and physical context (die area, clock constraint).
type Design struct {
	Name  string
	Lib   *lib.Library
	Cells []Inst
	Nets  []Net
	Pins  []Pin
	// PIs and POs are the primary input / output port pins.
	PIs, POs []PinID
	// Die is the placement/routing region in DBU.
	Die geom.BBox
	// ClockPeriod is the timing constraint (ns) for all paths.
	ClockPeriod float64

	graph *Graph
}

// Graph returns the timing graph Builder.Finish built (nil while the
// design is under construction).
func (d *Design) Graph() *Graph { return d.graph }

// Pin returns the pin record for id.
func (d *Design) Pin(id PinID) *Pin { return &d.Pins[id] }

// Cell returns the instance record for id.
func (d *Design) Cell(id CellID) *Inst { return &d.Cells[id] }

// Net returns the net record for id.
func (d *Design) Net(id NetID) *Net { return &d.Nets[id] }

// NumPins returns the number of pins in the design.
func (d *Design) NumPins() int { return len(d.Pins) }

// IsEndpoint reports whether pin id terminates timing paths: a primary
// output or a register data input (D).
func (d *Design) IsEndpoint(id PinID) bool {
	p := d.Pin(id)
	if p.IsPort {
		return p.Dir == Input // PO receives from the design
	}
	if p.Dir != Input {
		return false
	}
	inst := d.Cell(p.Cell)
	if !inst.Master.Sequential {
		return false
	}
	return d.pinMasterName(id) == "D"
}

// pinMasterName returns the master pin name ("A", "D", "CK", ...) of a
// cell pin.
func (d *Design) pinMasterName(id PinID) string {
	p := d.Pin(id)
	inst := d.Cell(p.Cell)
	for i, pid := range inst.Pins {
		if pid == id {
			if i == len(inst.Pins)-1 {
				return inst.Master.Output
			}
			return inst.Master.Inputs[i]
		}
	}
	return ""
}

// MasterPinName exposes pinMasterName for other packages (STA needs arc
// lookup by library pin name).
func (d *Design) MasterPinName(id PinID) string { return d.pinMasterName(id) }

// Endpoints returns all timing endpoints (register D pins and POs) in
// pin-ID order, listed once by Builder.Finish (shared; do not modify,
// and capped like Graph.Fanout). The count matches the paper's
// "# Endpoints" column.
func (d *Design) Endpoints() []PinID {
	e := d.graph.endpoints
	return e[:len(e):len(e)]
}

// Stats summarizes the design for Table I reporting.
type Stats struct {
	CellNodes int // cell instances
	NetEdges  int // driver→sink edges over all signal nets
	CellEdges int // input→output timing arcs over all instances
	Endpoints int // timing path endpoints
}

// Stats computes the Table I statistics of the netlist (the Steiner-node
// count is added later, once trees are built).
func (d *Design) Stats() Stats {
	var s Stats
	s.CellNodes = len(d.Cells)
	for i := range d.Nets {
		s.NetEdges += len(d.Nets[i].Sinks)
	}
	for i := range d.Cells {
		m := d.Cells[i].Master
		if m.Sequential {
			s.CellEdges++ // CK→Q
		} else {
			s.CellEdges += len(m.Inputs)
		}
	}
	s.Endpoints = len(d.Endpoints())
	return s
}

// Validate checks structural invariants of the design and returns the
// first violation found:
//   - every net has a valid driver pin with Output direction,
//   - every sink is an Input pin and its Net back-reference matches,
//   - every cell input pin is connected to some net,
//   - pin/cell cross-references are consistent.
func (d *Design) Validate() error {
	for ni := range d.Nets {
		net := &d.Nets[ni]
		if net.Driver < 0 || int(net.Driver) >= len(d.Pins) {
			return fmt.Errorf("netlist: net %q has invalid driver", net.Name)
		}
		dp := d.Pin(net.Driver)
		if dp.Dir != Output {
			return fmt.Errorf("netlist: net %q driven by non-output pin %q", net.Name, dp.Name)
		}
		if dp.Net != NetID(ni) {
			return fmt.Errorf("netlist: driver %q of net %q has mismatched net ref", dp.Name, net.Name)
		}
		if len(net.Sinks) == 0 {
			return fmt.Errorf("netlist: net %q has no sinks", net.Name)
		}
		for _, s := range net.Sinks {
			if s < 0 || int(s) >= len(d.Pins) {
				return fmt.Errorf("netlist: net %q has invalid sink", net.Name)
			}
			sp := d.Pin(s)
			if sp.Dir != Input {
				return fmt.Errorf("netlist: net %q sink %q is not an input", net.Name, sp.Name)
			}
			if sp.Net != NetID(ni) {
				return fmt.Errorf("netlist: sink %q of net %q has mismatched net ref", sp.Name, net.Name)
			}
		}
	}
	for ci := range d.Cells {
		inst := &d.Cells[ci]
		want := len(inst.Master.Inputs) + 1
		if len(inst.Pins) != want {
			return fmt.Errorf("netlist: cell %q has %d pins, master %q wants %d",
				inst.Name, len(inst.Pins), inst.Master.Name, want)
		}
		for i, pid := range inst.Pins {
			p := d.Pin(pid)
			if p.Cell != CellID(ci) {
				return fmt.Errorf("netlist: pin %q cell back-reference broken", p.Name)
			}
			isOut := i == len(inst.Pins)-1
			if isOut && p.Dir != Output || !isOut && p.Dir != Input {
				return fmt.Errorf("netlist: pin %q direction mismatch", p.Name)
			}
			// Clock pins of registers may stay unconnected (ideal clock);
			// every other input must be driven.
			if !isOut && p.Net == NoID {
				if !(inst.Master.Sequential && inst.Master.Inputs[i] == "CK") {
					return fmt.Errorf("netlist: input pin %q unconnected", p.Name)
				}
			}
		}
	}
	return nil
}
