// Package bufins implements fanout-driven buffer insertion: nets whose
// sink count exceeds a threshold are rewired through a balanced tree of
// buffers, each buffer serving a geographically clustered group of sinks.
// High-fanout broadcast nets (reset/enable-style hubs) dominate the delay
// profile of unbuffered netlists; this transform is the standard synthesis
// remedy and pairs naturally with TSteiner (buffered nets have smaller
// trees for the refiner to move).
//
// The transform produces a new design via netlist.Builder, so the result
// is re-validated structurally; the original design is untouched.
package bufins

import (
	"fmt"
	"sort"

	"tsteiner/internal/geom"
	"tsteiner/internal/netlist"
)

// Options tunes the transform.
type Options struct {
	// MaxFanout triggers buffering for nets with more sinks than this
	// and bounds the fanout of every inserted buffer.
	MaxFanout int
	// BufferMaster is the library cell used for inserted buffers.
	BufferMaster string
}

// DefaultOptions uses the strong buffer from the extended library.
func DefaultOptions() Options { return Options{MaxFanout: 16, BufferMaster: "BUF_X4"} }

// Stats reports what the transform did.
type Stats struct {
	NetsBuffered    int
	BuffersInserted int
	TreeDepthMax    int
}

// Insert returns a buffered copy of the design. Cell and port placement is
// preserved; inserted buffers are placed at the median of their sink
// cluster (clamped to the die).
func Insert(d *netlist.Design, opt Options) (*netlist.Design, *Stats, error) {
	if opt.MaxFanout < 2 {
		return nil, nil, fmt.Errorf("bufins: max fanout %d < 2", opt.MaxFanout)
	}
	if _, err := d.Lib.Cell(opt.BufferMaster); err != nil {
		return nil, nil, err
	}

	b := netlist.NewBuilder(d.Name, d.Lib)
	b.SetClockPeriod(d.ClockPeriod)
	b.SetDie(d.Die)

	// Recreate ports and cells; remember the pin mapping.
	pinMap := make([]netlist.PinID, len(d.Pins))
	for i := range pinMap {
		pinMap[i] = netlist.NoID
	}
	for _, pid := range d.PIs {
		np := b.AddPI(d.Pin(pid).Name)
		pinMap[pid] = np
	}
	for _, pid := range d.POs {
		np := b.AddPO(d.Pin(pid).Name, d.Pin(pid).Cap)
		pinMap[pid] = np
	}
	nd := b.Design()
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		ncid := b.AddCell(inst.Name, inst.Master.Name)
		for k, pid := range inst.Pins {
			pinMap[pid] = nd.Cell(ncid).Pins[k]
		}
	}

	st := &Stats{}
	bufSeq := 0
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		driver := pinMap[net.Driver]
		sinks := make([]netlist.PinID, len(net.Sinks))
		oldSinks := make([]netlist.PinID, len(net.Sinks))
		for i, s := range net.Sinks {
			sinks[i] = pinMap[s]
			oldSinks[i] = s
		}
		if len(sinks) <= opt.MaxFanout {
			b.Connect(driver, sinks...)
			continue
		}
		st.NetsBuffered++
		depth := bufferNet(b, d, opt, driver, sinks, oldSinks, &bufSeq, st)
		if depth > st.TreeDepthMax {
			st.TreeDepthMax = depth
		}
	}

	out, err := b.Finish()
	if err != nil {
		return nil, nil, fmt.Errorf("bufins: rebuild: %w", err)
	}

	// Restore placement: copy positions by name; place buffers at their
	// recorded cluster medians.
	posByName := map[string]geom.Point{}
	for ci := range d.Cells {
		posByName[d.Cells[ci].Name] = d.Cells[ci].Pos
	}
	portPos := map[string]geom.Point{}
	for i := range d.Pins {
		if d.Pins[i].IsPort {
			portPos[d.Pins[i].Name] = d.Pins[i].Pos
		}
	}
	for ci := range out.Cells {
		inst := out.Cell(netlist.CellID(ci))
		pos, ok := posByName[inst.Name]
		if !ok {
			continue // buffer: placed below
		}
		inst.Pos = pos
		for _, pid := range inst.Pins {
			out.Pin(pid).Pos = pos
		}
	}
	for i := range out.Pins {
		if out.Pins[i].IsPort {
			out.Pins[i].Pos = portPos[out.Pins[i].Name]
		}
	}
	// Buffer placement: median of the positions of the sinks it drives.
	placeBuffers(out, d.Die)

	return out, st, nil
}

// bufferNet splits one net's sinks into clusters of ≤MaxFanout, inserting
// one buffer per cluster (recursively, so buffer counts themselves respect
// the fanout bound). Returns the buffer-tree depth.
func bufferNet(b *netlist.Builder, orig *netlist.Design, opt Options,
	driver netlist.PinID, sinks, oldSinks []netlist.PinID, seq *int, st *Stats) int {

	// Cluster sinks by position: sort by Morton-ish key (x-major) and
	// chunk. Simple and deterministic; clusters are spatially coherent
	// because the sort groups nearby x bands.
	order := make([]int, len(sinks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, c int) bool {
		pa := orig.Pin(oldSinks[order[a]]).Pos
		pc := orig.Pin(oldSinks[order[c]]).Pos
		if pa.X != pc.X {
			return pa.X < pc.X
		}
		return pa.Y < pc.Y
	})

	nd := b.Design()
	var level []netlist.PinID // buffer output pins of this level
	depth := 1
	for start := 0; start < len(order); start += opt.MaxFanout {
		end := start + opt.MaxFanout
		if end > len(order) {
			end = len(order)
		}
		name := fmt.Sprintf("fbuf_%d", *seq)
		*seq++
		st.BuffersInserted++
		cid := b.AddCell(name, opt.BufferMaster)
		var cluster []netlist.PinID
		for _, oi := range order[start:end] {
			cluster = append(cluster, sinks[oi])
		}
		b.Connect(nd.Cell(cid).OutputPin(), cluster...)
		level = append(level, nd.Cell(cid).InputPins()[0])
	}
	// If the buffer inputs themselves exceed the bound, recurse (rare:
	// needs fanout > MaxFanout²).
	if len(level) > opt.MaxFanout {
		// The buffer inputs' positions are unknown pre-placement; reuse
		// a round-robin clustering for the next level.
		depth += bufferLevel(b, opt, driver, level, seq, st)
		return depth
	}
	b.Connect(driver, level...)
	return depth
}

// bufferLevel groups already-created buffer inputs under more buffers.
func bufferLevel(b *netlist.Builder, opt Options, driver netlist.PinID, inputs []netlist.PinID, seq *int, st *Stats) int {
	nd := b.Design()
	depth := 1
	for {
		var next []netlist.PinID
		for start := 0; start < len(inputs); start += opt.MaxFanout {
			end := start + opt.MaxFanout
			if end > len(inputs) {
				end = len(inputs)
			}
			name := fmt.Sprintf("fbuf_%d", *seq)
			*seq++
			st.BuffersInserted++
			cid := b.AddCell(name, opt.BufferMaster)
			b.Connect(nd.Cell(cid).OutputPin(), inputs[start:end]...)
			next = append(next, nd.Cell(cid).InputPins()[0])
		}
		if len(next) <= opt.MaxFanout {
			b.Connect(driver, next...)
			return depth
		}
		inputs = next
		depth++
	}
}

// placeBuffers assigns each unplaced buffer the median position of its
// direct sinks, processing in reverse topological order so downstream
// buffers are placed before the buffers that feed them.
func placeBuffers(d *netlist.Design, die geom.BBox) {
	order := d.Graph().Order()
	// Reverse order: sinks before drivers.
	for oi := len(order) - 1; oi >= 0; oi-- {
		pid := order[oi]
		p := d.Pin(pid)
		if p.IsPort || p.Dir != netlist.Output {
			continue
		}
		inst := d.Cell(p.Cell)
		if inst.Pos != (geom.Point{}) || !isBuffer(inst.Name) {
			continue
		}
		net := p.Net
		if net == netlist.NoID {
			continue
		}
		var pts []geom.Point
		for _, s := range d.Net(net).Sinks {
			pts = append(pts, d.Pin(s).Pos)
		}
		pos := die.Clamp(geom.Median(pts))
		inst.Pos = pos
		for _, ip := range inst.Pins {
			d.Pin(ip).Pos = pos
		}
	}
}

func isBuffer(name string) bool {
	return len(name) > 5 && name[:5] == "fbuf_"
}
