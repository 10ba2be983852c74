package netlist

import "fmt"

// Graph is a design's pin-level timing graph (net edges driver→sink,
// cell arcs input→output of combinational cells; registers cut it: no
// D→Q edge), built once by Builder.Finish and read-only after that, so
// concurrent analyses of one design share it.
//
// The order is the FIFO Kahn order over pins seeded in ID order. It is
// level by level: a pin enters the queue when its last predecessor
// leaves, so each pin's queue wave is its level, the longest path from
// any source. Pins of one level share no edge.
type Graph struct {
	order  []PinID
	level  []int32
	levels int
	// Fanout and fanin rows in compressed sparse form: the edges of pin
	// p are fanout[fanoutAt[p]:fanoutAt[p+1]], in Design.forEachEdge
	// order.
	fanoutAt, faninAt []int32
	fanout, fanin     []PinID
	// endpoints lists the pins Design.IsEndpoint accepts, in pin-ID
	// order.
	endpoints []PinID
}

// Order returns every pin in topological order (shared; do not modify).
func (g *Graph) Order() []PinID { return g.order }

// Level returns pin p's level: 0 at a pin with no fanin, else one more
// than its deepest predecessor's.
func (g *Graph) Level(p PinID) int { return int(g.level[p]) }

// Levels returns one past the deepest level.
func (g *Graph) Levels() int { return g.levels }

// Fanout returns the successors of pin p (shared; do not modify). The
// row is capped, so an append copies it instead of overwriting the next
// pin's row.
func (g *Graph) Fanout(p PinID) []PinID {
	return g.fanout[g.fanoutAt[p]:g.fanoutAt[p+1]:g.fanoutAt[p+1]]
}

// Fanin returns the predecessors of pin p (shared; do not modify),
// capped like Fanout.
func (g *Graph) Fanin(p PinID) []PinID {
	return g.fanin[g.faninAt[p]:g.faninAt[p+1]:g.faninAt[p+1]]
}

// newGraph builds d's timing graph. It returns an error if the design
// contains a combinational loop.
func newGraph(d *Design) (*Graph, error) {
	n := len(d.Pins)
	g := &Graph{
		order:    make([]PinID, 0, n),
		level:    make([]int32, n),
		fanoutAt: make([]int32, n+1),
		faninAt:  make([]int32, n+1),
	}
	d.forEachEdge(func(from, to PinID) {
		g.fanoutAt[from+1]++
		g.faninAt[to+1]++
	})
	indeg := make([]int32, n)
	for p := 0; p < n; p++ {
		indeg[p] = g.faninAt[p+1]
		g.fanoutAt[p+1] += g.fanoutAt[p]
		g.faninAt[p+1] += g.faninAt[p]
	}
	g.fanout = make([]PinID, g.fanoutAt[n])
	g.fanin = make([]PinID, g.faninAt[n])
	outFill := append([]int32(nil), g.fanoutAt[:n]...)
	inFill := append([]int32(nil), g.faninAt[:n]...)
	d.forEachEdge(func(from, to PinID) {
		g.fanout[outFill[from]] = to
		outFill[from]++
		g.fanin[inFill[to]] = from
		inFill[to]++
	})

	for p := 0; p < n; p++ {
		if indeg[p] == 0 {
			g.order = append(g.order, PinID(p))
		}
		if d.IsEndpoint(PinID(p)) {
			g.endpoints = append(g.endpoints, PinID(p))
		}
	}
	// order doubles as the FIFO queue: pins before head are ordered.
	for head := 0; head < len(g.order); head++ {
		p := g.order[head]
		if lv := int(g.level[p]) + 1; lv > g.levels {
			g.levels = lv
		}
		for _, s := range g.Fanout(p) {
			if g.level[p]+1 > g.level[s] {
				g.level[s] = g.level[p] + 1
			}
			indeg[s]--
			if indeg[s] == 0 {
				g.order = append(g.order, s)
			}
		}
	}
	if len(g.order) != n {
		return nil, fmt.Errorf("netlist: combinational loop detected (%d of %d pins ordered)", len(g.order), n)
	}
	return g, nil
}

// forEachEdge visits every timing-graph edge once.
func (d *Design) forEachEdge(visit func(from, to PinID)) {
	for ni := range d.Nets {
		net := &d.Nets[ni]
		for _, s := range net.Sinks {
			visit(net.Driver, s)
		}
	}
	for ci := range d.Cells {
		inst := &d.Cells[ci]
		out := inst.OutputPin()
		if inst.Master.Sequential {
			// Only the CK→Q arc exists, and with an ideal clock the CK pin
			// has no predecessor; model the launch as a source at Q by
			// emitting no edge (Q starts a new path).
			continue
		}
		for _, in := range inst.InputPins() {
			visit(in, out)
		}
	}
}
