// Package sta is the static timing analysis engine: given a design and
// extracted net parasitics it propagates arrival times and slews through
// the timing graph (PERT traversal), applies clock constraints at the
// endpoints, and reports slack, WNS, TNS and violation counts — the
// sign-off metrics the paper optimizes.
package sta

import (
	"fmt"
	"math"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
)

// Default boundary conditions.
const (
	// PISlew is the transition assumed at primary inputs (ns).
	PISlew = 0.02
	// ClockSlew is the transition assumed at register clock pins (ns).
	ClockSlew = 0.03
	// PIDriveRes is the source resistance (kΩ) modeled for primary-input
	// drivers; exported for the RC package's driver model consumers.
	PIDriveRes = 2.0
)

// Result holds the full timing annotation of a design.
type Result struct {
	// Corner records the derating the annotation was computed under;
	// Run produces the typical (identity) corner.
	Corner Corner

	// Arrival and Slew are per-pin (ns); pins unreachable from any
	// startpoint keep zero arrival.
	Arrival []float64
	Slew    []float64
	// ArrivalMin is the earliest arrival per pin (min over fanin), used
	// for hold checks.
	ArrivalMin []float64

	// Endpoints lists the design's timing endpoints; EndpointSlack and
	// EndpointArrival align with it.
	Endpoints       []netlist.PinID
	EndpointSlack   []float64
	EndpointArrival []float64

	// WNS is min slack over endpoints, TNS the sum of negative slacks,
	// Vios the count of violating endpoints (paper Eq. 1).
	WNS, TNS float64
	Vios     int

	// Hold (min-delay) analysis at register D pins: WHS is the worst hold
	// slack (earliest arrival minus hold requirement) and HoldVios the
	// violating register count. With an ideal clock, positive cell delays
	// keep these healthy; they guard against degenerate zero-delay paths.
	WHS      float64
	HoldVios int

	// SlewVios counts pins whose transition exceeds the library's
	// max-transition rule; MaxSlewSeen is the worst transition observed.
	SlewVios    int
	MaxSlewSeen float64

	// Required and PinSlack annotate every pin: the latest allowed
	// arrival (from backward propagation of endpoint constraints) and
	// required − arrival. Pins on no constrained path carry +Inf required
	// time and +Inf slack.
	Required []float64
	PinSlack []float64

	// argmaxPred records, per pin, the predecessor realizing its arrival
	// (for critical-path extraction).
	argmaxPred []netlist.PinID
}

// Run performs the PERT traversal at the typical (identity) corner.
// rcs must be indexed by net ID (as produced by the rc package).
func Run(d *netlist.Design, rcs []rc.NetRC) (*Result, error) {
	return run(d, rcs, TypicalCorner())
}

// run is the corner-parameterized PERT traversal shared by Run,
// RunCorner and RunCorners. Every derating is a plain multiplication,
// so the typical corner (all scales exactly 1.0) cannot perturb a
// single bit of the annotation.
func run(d *netlist.Design, rcs []rc.NetRC, c Corner) (*Result, error) {
	if len(rcs) != len(d.Nets) {
		return nil, fmt.Errorf("sta: %d RC views for %d nets", len(rcs), len(d.Nets))
	}
	order := d.Graph().Order()
	n := d.NumPins()
	res := &Result{
		Corner:     c,
		Arrival:    make([]float64, n),
		Slew:       make([]float64, n),
		ArrivalMin: make([]float64, n),
		argmaxPred: make([]netlist.PinID, n),
	}
	for i := range res.argmaxPred {
		res.argmaxPred[i] = netlist.NoID
	}
	// Boundary conditions at startpoints.
	for _, pid := range d.PIs {
		res.Slew[pid] = PISlew * c.SlewScale
	}
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		if !inst.Master.Sequential {
			continue
		}
		if err := regBoundary(d, rcs, res, inst); err != nil {
			return nil, err
		}
	}

	// Forward propagation in topological order.
	for _, pid := range order {
		if err := forwardPin(d, rcs, res, pid); err != nil {
			return nil, err
		}
	}

	endpointMetrics(d, res)
	slewChecks(d, res)
	holdChecks(d, res)

	// Backward propagation of required times: every pin learns the
	// latest arrival that still meets all downstream endpoint
	// constraints; per-pin slack follows. Used for criticality-driven net
	// ordering and diagnostics.
	res.Required = make([]float64, n)
	for i := range res.Required {
		res.Required[i] = math.Inf(1)
	}
	for i, e := range res.Endpoints {
		res.Required[e] = res.EndpointSlack[i] + res.Arrival[e] // = constraint
	}
	for oi := len(order) - 1; oi >= 0; oi-- {
		backwardMin(d, rcs, res, order[oi])
	}
	res.PinSlack = make([]float64, n)
	for i := range res.PinSlack {
		res.PinSlack[i] = res.Required[i] - res.Arrival[i]
	}
	return res, nil
}

// regBoundary applies the CK→Q launch boundary condition at one
// register: the clock-to-output arc evaluated at the ideal clock slew
// and the Q net's extracted load.
func regBoundary(d *netlist.Design, rcs []rc.NetRC, res *Result, inst *netlist.Inst) error {
	q := inst.OutputPin()
	arc := inst.Master.ArcFrom("CK")
	if arc == nil {
		return fmt.Errorf("sta: register %s lacks CK arc", inst.Name)
	}
	load := driverLoad(d, rcs, q)
	clockSlew := ClockSlew * res.Corner.SlewScale
	res.Arrival[q] = arc.Delay.Lookup(clockSlew, load) * res.Corner.DelayScale
	res.ArrivalMin[q] = res.Arrival[q]
	res.Slew[q] = arc.Slew.Lookup(clockSlew, load) * res.Corner.SlewScale
	return nil
}

// forwardPin recomputes the forward annotation (arrival, earliest
// arrival, slew, argmax predecessor) of one pin from its predecessors'
// already-final values. It is the single forward kernel shared by the
// full traversal in Run and the windowed re-traversal in Retime, which
// keeps the two bit-identical by construction.
func forwardPin(d *netlist.Design, rcs []rc.NetRC, res *Result, pid netlist.PinID) error {
	p := d.Pin(pid)
	switch {
	case p.IsPort && p.Dir == netlist.Output:
		// PI: boundary condition already set.
	case p.Dir == netlist.Input:
		// Net sink: pull from the driving net.
		if p.Net == netlist.NoID {
			return nil // floating clock pin
		}
		net := d.Net(p.Net)
		si := sinkIndex(net, pid)
		nrc := &rcs[p.Net]
		wireDelay := nrc.SinkDelay[si] * res.Corner.DelayScale
		res.Arrival[pid] = res.Arrival[net.Driver] + wireDelay
		res.ArrivalMin[pid] = res.ArrivalMin[net.Driver] + wireDelay
		res.Slew[pid] = rc.CombineSlew(res.Slew[net.Driver], nrc.SinkSlewAdd[si]*res.Corner.SlewScale)
		res.argmaxPred[pid] = net.Driver
	default:
		// Cell output pin.
		inst := d.Cell(p.Cell)
		if inst.Master.Sequential {
			return nil // CK→Q handled as boundary condition
		}
		load := driverLoad(d, rcs, pid)
		worst := math.Inf(-1)
		earliest := math.Inf(1)
		worstSlew := 0.0
		var worstPred netlist.PinID = netlist.NoID
		for i, in := range inst.InputPins() {
			arc := inst.Master.ArcFrom(inst.Master.Inputs[i])
			if arc == nil {
				continue
			}
			delay := arc.Delay.Lookup(res.Slew[in], load) * res.Corner.DelayScale
			a := res.Arrival[in] + delay
			if a > worst {
				worst = a
				worstPred = in
			}
			if am := res.ArrivalMin[in] + delay; am < earliest {
				earliest = am
			}
			if s := arc.Slew.Lookup(res.Slew[in], load) * res.Corner.SlewScale; s > worstSlew {
				worstSlew = s
			}
		}
		if math.IsInf(worst, -1) {
			return fmt.Errorf("sta: cell %s output has no timing arc", inst.Name)
		}
		res.Arrival[pid] = worst
		res.ArrivalMin[pid] = earliest
		res.Slew[pid] = worstSlew
		res.argmaxPred[pid] = worstPred
	}
	return nil
}

// endpointMetrics applies the clock constraint at every endpoint and
// rebuilds the global setup metrics (slack vector, WNS, TNS, violation
// count) from the current arrivals.
func endpointMetrics(d *netlist.Design, res *Result) {
	res.Endpoints = d.Endpoints()
	res.EndpointSlack = make([]float64, len(res.Endpoints))
	res.EndpointArrival = make([]float64, len(res.Endpoints))
	res.WNS = math.Inf(1)
	res.TNS = 0
	res.Vios = 0
	for i, e := range res.Endpoints {
		required := d.ClockPeriod * res.Corner.ClockScale
		p := d.Pin(e)
		if !p.IsPort {
			required -= d.Cell(p.Cell).Master.Setup * res.Corner.DelayScale
		}
		slack := required - res.Arrival[e]
		res.EndpointSlack[i] = slack
		res.EndpointArrival[i] = res.Arrival[e]
		if slack < res.WNS {
			res.WNS = slack
		}
		if slack < 0 {
			res.TNS += slack
			res.Vios++
		}
	}
	if len(res.Endpoints) == 0 {
		res.WNS = 0
	}
}

// slewChecks scans every pin's transition against the library
// max-transition rule.
func slewChecks(d *netlist.Design, res *Result) {
	res.MaxSlewSeen = 0
	res.SlewVios = 0
	if limit := d.Lib.MaxSlew; limit > 0 {
		for _, s := range res.Slew {
			if s > res.MaxSlewSeen {
				res.MaxSlewSeen = s
			}
			if s > limit {
				res.SlewVios++
			}
		}
	}
}

// holdChecks runs the min-delay analysis at register D pins: the
// earliest data arrival must not beat the hold window after the (ideal,
// zero-skew) capturing edge.
func holdChecks(d *netlist.Design, res *Result) {
	res.WHS = math.Inf(1)
	res.HoldVios = 0
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		if !inst.Master.Sequential {
			continue
		}
		dPin := inst.InputPins()[0]
		if d.Pin(dPin).Net == netlist.NoID {
			continue
		}
		hs := res.ArrivalMin[dPin] - inst.Master.Hold*res.Corner.DelayScale
		if hs < res.WHS {
			res.WHS = hs
		}
		if hs < 0 {
			res.HoldVios++
		}
	}
	if math.IsInf(res.WHS, 1) {
		res.WHS = 0
	}
}

// backwardMin lowers res.Required[pid] by the pin's outgoing timing
// edges (net edges for a driver pin, the cell arc for a comb input
// pin), assuming every successor's required time is already final. The
// single backward kernel shared by Run and Retime.
func backwardMin(d *netlist.Design, rcs []rc.NetRC, res *Result, pid netlist.PinID) {
	p := d.Pin(pid)
	// Net edges out of a driver pin.
	if p.Dir == netlist.Output && p.Net != netlist.NoID {
		net := d.Net(p.Net)
		nrc := &rcs[p.Net]
		for si, s := range net.Sinks {
			if r := res.Required[s] - nrc.SinkDelay[si]*res.Corner.DelayScale; r < res.Required[pid] {
				res.Required[pid] = r
			}
		}
	}
	// Cell arc out of an input pin.
	if p.Dir == netlist.Input && p.Cell != netlist.NoID {
		inst := d.Cell(p.Cell)
		if !inst.Master.Sequential {
			if arc := inst.Master.ArcFrom(d.MasterPinName(pid)); arc != nil {
				out := inst.OutputPin()
				delay := arc.Delay.Lookup(res.Slew[pid], driverLoad(d, rcs, out)) * res.Corner.DelayScale
				if r := res.Required[out] - delay; r < res.Required[pid] {
					res.Required[pid] = r
				}
			}
		}
	}
}

// NetCriticality returns, per net, the worst pin slack among the net's
// pins — smaller (more negative) means more timing-critical. Used to
// order nets for timing-driven routing.
func (r *Result) NetCriticality(d *netlist.Design) []float64 {
	out := make([]float64, len(d.Nets))
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		worst := r.PinSlack[net.Driver]
		for _, s := range net.Sinks {
			if r.PinSlack[s] < worst {
				worst = r.PinSlack[s]
			}
		}
		out[ni] = worst
	}
	return out
}

// driverLoad returns the load a driver pin sees: its net's total cap, or
// zero for an unconnected output.
func driverLoad(d *netlist.Design, rcs []rc.NetRC, pid netlist.PinID) float64 {
	net := d.Pin(pid).Net
	if net == netlist.NoID {
		return 0
	}
	return rcs[net].TotalCap
}

func sinkIndex(net *netlist.Net, pid netlist.PinID) int {
	for i, s := range net.Sinks {
		if s == pid {
			return i
		}
	}
	return -1
}

// CriticalPath walks back from the worst endpoint through the arrival
// argmax predecessors, returning the pin sequence from startpoint to
// endpoint.
func (r *Result) CriticalPath(d *netlist.Design) []netlist.PinID {
	if len(r.Endpoints) == 0 {
		return nil
	}
	worst := 0
	for i := range r.Endpoints {
		if r.EndpointSlack[i] < r.EndpointSlack[worst] {
			worst = i
		}
	}
	var rev []netlist.PinID
	cur := r.Endpoints[worst]
	for cur != netlist.NoID {
		rev = append(rev, cur)
		cur = r.argmaxPred[cur]
	}
	out := make([]netlist.PinID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// Metrics is the compact sign-off summary used in tables.
type Metrics struct {
	WNS, TNS float64
	Vios     int
}

// Metrics extracts the summary triple.
func (r *Result) Metrics() Metrics {
	return Metrics{WNS: r.WNS, TNS: r.TNS, Vios: r.Vios}
}
