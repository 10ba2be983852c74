// Windowed (incremental) STA: after a refinement move changes the
// parasitics of a small set of nets, only the fanout cones of those
// nets can change arrival/slew, and only the fanin cones of the
// affected pins can change required times. Retime re-traverses exactly
// those cones over the design's netlist.Graph, draining dirty pins
// level by level (upward for arrivals, downward for required times) and
// pruning propagation the moment a pin's recomputed annotation is
// bit-identical to its previous value.
//
// Contract (asserted by TestOracleWindowedSTA / TestProp*): given a
// previous Result for parasitics rcs0 and a new rcs that differs from
// rcs0 only on the nets listed in changed, Retime returns a Result
// byte-identical to RunCorner(d, rcs, prev.Corner). This holds because
// every dirty pin is recomputed by the per-pin kernels Run uses
// (forwardPin, backwardMin, regBoundary) from neighbours that are
// already final: a pin's predecessors sit on lower levels and its
// successors on higher ones, and pins of one level share no edge, so
// their order within the level cannot change a bit. The cheap O(n)
// global scans (endpoint metrics, slew and hold checks, pin slack) are
// recomputed with the same helpers Run uses — no floating-point
// operation is reassociated. There is no fallback to a full run: a
// change set listing every net sweeps every level once.
package sta

import (
	"fmt"
	"math"
	"slices"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
)

// Retime produces the timing annotation for parasitics rcs at
// prev.Corner, given a previous annotation prev that is valid for
// parasitics identical to rcs on every net NOT listed in changed. prev
// is not modified. The returned Result is byte-identical to
// RunCorner(d, rcs, prev.Corner).
func Retime(d *netlist.Design, prev *Result, rcs []rc.NetRC, changed []netlist.NetID) (*Result, error) {
	if len(rcs) != len(d.Nets) {
		return nil, fmt.Errorf("sta: %d RC views for %d nets", len(rcs), len(d.Nets))
	}
	for _, ni := range changed {
		if ni < 0 || int(ni) >= len(d.Nets) {
			return nil, fmt.Errorf("sta: changed net %d out of range", ni)
		}
	}
	if len(changed) == 0 {
		return prev, nil
	}
	g := d.Graph()
	res := prev.clone()

	// dirty buckets the queued pins by level. A sweep drains the buckets
	// in level order and queues only pins on levels still ahead of it.
	queued := make([]bool, d.NumPins())
	dirty := make([][]netlist.PinID, g.Levels())
	push := func(pid netlist.PinID) {
		if !queued[pid] {
			queued[pid] = true
			dirty[g.Level(pid)] = append(dirty[g.Level(pid)], pid)
		}
	}

	// Forward pass, upward: seed the drivers and sinks of every changed
	// net. A sink of a changed net must be recomputed unconditionally
	// (its SinkDelay/SinkSlewAdd changed even if the driver's annotation
	// did not); a driver must be recomputed because its load (the net's
	// TotalCap) changed.
	for _, ni := range changed {
		net := d.Net(ni)
		if drv := d.Pin(net.Driver); !(drv.IsPort && drv.Dir == netlist.Output) {
			push(net.Driver)
		}
		for _, s := range net.Sinks {
			push(s)
		}
	}
	// fwdChanged records pins whose forward annotation actually moved;
	// they seed the backward pass.
	var fwdChanged []netlist.PinID
	for lv := range dirty {
		for _, pid := range dirty[lv] {
			queued[pid] = false
			oldA := res.Arrival[pid]
			oldAM := res.ArrivalMin[pid]
			oldS := res.Slew[pid]
			oldP := res.argmaxPred[pid]
			p := d.Pin(pid)
			if p.Cell != netlist.NoID && p.Dir == netlist.Output && d.Cell(p.Cell).Master.Sequential {
				// Register launch point: boundary recompute (load-only).
				if err := regBoundary(d, rcs, res, d.Cell(p.Cell)); err != nil {
					return nil, err
				}
			} else if err := forwardPin(d, rcs, res, pid); err != nil {
				return nil, err
			}
			if sameBits(oldA, res.Arrival[pid]) && sameBits(oldAM, res.ArrivalMin[pid]) &&
				sameBits(oldS, res.Slew[pid]) && oldP == res.argmaxPred[pid] {
				continue // cone pruned: nothing downstream can change
			}
			fwdChanged = append(fwdChanged, pid)
			for _, s := range g.Fanout(pid) {
				push(s)
			}
		}
		dirty[lv] = dirty[lv][:0]
	}

	// Global scans are O(n) with no per-net state: recompute them with
	// the exact helpers Run uses.
	endpointMetrics(d, res)
	slewChecks(d, res)
	holdChecks(d, res)

	// Backward pass, downward. A pin's required time must be recomputed
	// when any input of its formula changed: its own slew (cell-arc
	// delay), the SinkDelay of a net it drives, the load of the cell
	// output it feeds, its endpoint constraint (arrival moved), or — via
	// propagation — a successor's required time.
	for _, pid := range fwdChanged {
		push(pid)
	}
	for _, ni := range changed {
		net := d.Net(ni)
		push(net.Driver)
		if drv := d.Pin(net.Driver); drv.Cell != netlist.NoID {
			if inst := d.Cell(drv.Cell); !inst.Master.Sequential {
				for _, in := range inst.InputPins() {
					push(in)
				}
			}
		}
	}
	for lv := len(dirty) - 1; lv >= 0; lv-- {
		for _, pid := range dirty[lv] {
			old := res.Required[pid]
			res.Required[pid] = math.Inf(1)
			// res.Endpoints is in pin-ID order (Design.Endpoints).
			if ei, ok := slices.BinarySearch(res.Endpoints, pid); ok {
				res.Required[pid] = res.EndpointSlack[ei] + res.Arrival[pid] // = constraint
			}
			backwardMin(d, rcs, res, pid)
			if !sameBits(old, res.Required[pid]) {
				for _, pred := range g.Fanin(pid) {
					push(pred)
				}
			}
		}
	}

	for i := range res.PinSlack {
		res.PinSlack[i] = res.Required[i] - res.Arrival[i]
	}
	return res, nil
}

// clone deep-copies the per-pin annotation arrays; the endpoint-aligned
// slices are rebuilt from scratch by endpointMetrics.
func (r *Result) clone() *Result {
	return &Result{
		Corner:      r.Corner,
		Arrival:     append([]float64(nil), r.Arrival...),
		Slew:        append([]float64(nil), r.Slew...),
		ArrivalMin:  append([]float64(nil), r.ArrivalMin...),
		Required:    append([]float64(nil), r.Required...),
		PinSlack:    append([]float64(nil), r.PinSlack...),
		argmaxPred:  append([]netlist.PinID(nil), r.argmaxPred...),
		WNS:         r.WNS,
		TNS:         r.TNS,
		Vios:        r.Vios,
		WHS:         r.WHS,
		HoldVios:    r.HoldVios,
		SlewVios:    r.SlewVios,
		MaxSlewSeen: r.MaxSlewSeen,
	}
}

// sameBits compares two floats for bit-identity (so NaN == NaN and
// +0 != -0 — the pruning test must be exact, not numeric).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}
