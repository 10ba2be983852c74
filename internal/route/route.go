// Package route implements the global router of the flow: every Steiner
// tree edge becomes a path on the GCell grid. Initial routing uses L/Z
// pattern routing against congestion-aware edge costs; overflowed paths
// are then ripped up and rerouted with an A* maze search; finally 2D paths
// are assigned to layers and via counts extracted. The structure mirrors
// CUGR's 2D-route-then-layer-assign organization.
package route

import (
	"fmt"
	"sort"

	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
)

// GP is a GCell coordinate.
type GP struct {
	X, Y int
}

// EdgeRoute is the routed realization of one Steiner tree edge: the GCell
// path from the edge's A node to its B node, with a layer per step.
type EdgeRoute struct {
	TreeEdge int  // index into the tree's Edges slice
	Cells    []GP // GCell path, len ≥ 1; len==1 means intra-GCell
	Layers   []int
	Vias     int
	// patched records that rip-up-and-reroute replaced the initial
	// pattern path, so Cells is no longer the pure function of the edge
	// endpoints that incremental replay could reuse.
	patched bool
}

// StepsDBU returns the routed length of the edge in DBU.
func (e *EdgeRoute) StepsDBU(gcellSize int) int {
	if len(e.Cells) <= 1 {
		return 0
	}
	return (len(e.Cells) - 1) * gcellSize
}

// NetRoute is the routed realization of one net.
type NetRoute struct {
	Net   netlist.NetID
	Edges []EdgeRoute
}

// Result is the output of global routing.
type Result struct {
	Routes []NetRoute // indexed by net
	// WirelengthDBU is the total routed wirelength.
	WirelengthDBU int64
	// Vias counts all layer changes plus pin escapes.
	Vias int
	// Overflow is the remaining 2D overflow after rip-up-and-reroute.
	Overflow int
	// MazeReroutes counts edges that needed maze routing.
	MazeReroutes int
	// ChangedNets lists, in ascending net-ID order, the nets whose final
	// realization (cells, layers or vias) differs from the previous
	// result. Populated only by Incremental; nil otherwise.
	// This is the exact set downstream RC extraction and windowed STA
	// must refresh.
	ChangedNets []netlist.NetID
}

// Options tunes the router.
type Options struct {
	// RRRRounds bounds rip-up-and-reroute iterations.
	RRRRounds int
	// MazeMargin inflates the maze-search window (GCells) around the
	// two endpoints.
	MazeMargin int
	// ZCandidates is the number of intermediate Z-pattern positions
	// probed per direction during pattern routing.
	ZCandidates int
	// NetPriority, when non-nil (one value per net, smaller = more
	// critical), orders initial routing most-critical-first so critical
	// nets claim uncongested resources — classic timing-driven global
	// routing. Nil keeps netlist order (the CUGR-like baseline).
	NetPriority []float64
	// StaticPatterns makes the initial pattern route a congestion-blind
	// pure function of the edge endpoints (a deterministic L whose
	// corner is picked by coordinate parity). Phase-1 grid usage then
	// depends only on the forest — not on net order or routing history —
	// which is what lets Incremental replay a routing exactly: its result
	// is byte-identical to a from-scratch Route of the new forest.
	// Incremental requires it; the sharded refinement loop sets it.
	// Without it, the pattern stage probes congestion.
	StaticPatterns bool
}

// DefaultOptions returns router settings used by the flow.
func DefaultOptions() Options {
	return Options{RRRRounds: 3, MazeMargin: 12, ZCandidates: 3}
}

// Route globally routes every tree of the forest on g. Steiner positions
// are read through their rounded integer coordinates.
func Route(d *netlist.Design, f *rsmt.Forest, g *grid.Grid, opt Options) (*Result, error) {
	if len(f.Trees) != len(d.Nets) {
		return nil, fmt.Errorf("route: forest/netlist mismatch")
	}
	if opt.RRRRounds < 0 {
		return nil, fmt.Errorf("route: negative RRR rounds")
	}
	if opt.NetPriority != nil && len(opt.NetPriority) != len(d.Nets) {
		return nil, fmt.Errorf("route: %d priorities for %d nets", len(opt.NetPriority), len(d.Nets))
	}
	r := &router{d: d, g: g, opt: opt}
	res := &Result{Routes: make([]NetRoute, len(f.Trees))}

	// Initial pattern routing; netlist order by default, most-critical
	// first when priorities are provided.
	netOrder := make([]int, len(f.Trees))
	for i := range netOrder {
		netOrder[i] = i
	}
	if opt.NetPriority != nil {
		sort.SliceStable(netOrder, func(a, b int) bool {
			return opt.NetPriority[netOrder[a]] < opt.NetPriority[netOrder[b]]
		})
	}
	for _, ti := range netOrder {
		tr := f.Trees[ti]
		nr := NetRoute{Net: tr.Net}
		for ei, e := range tr.Edges {
			a := r.gcellOfNode(tr, int(e.A))
			b := r.gcellOfNode(tr, int(e.B))
			path := r.patternRoute(a, b)
			r.commit(path, +1)
			nr.Edges = append(nr.Edges, EdgeRoute{TreeEdge: ei, Cells: path})
		}
		res.Routes[ti] = nr
	}

	r.ripUpAndReroute(res)

	// Layer assignment and tallies.
	for ni := range res.Routes {
		for ei := range res.Routes[ni].Edges {
			er := &res.Routes[ni].Edges[ei]
			r.assignLayers(er)
			res.WirelengthDBU += int64(er.StepsDBU(g.GCellSize))
			res.Vias += er.Vias
		}
	}
	res.Overflow = g.TotalOverflow()
	return res, nil
}

type router struct {
	d   *netlist.Design
	g   *grid.Grid
	opt Options
}

// ripUpAndReroute rips up every path crossing an over-capacity grid edge
// and reroutes it with the maze search (pattern fallback), for up to
// RRRRounds rounds. The victim list is sorted deterministically, so the
// sequence depends only on the grid state and res — which is what lets
// static-mode Incremental reproduce Route's sequence exactly.
func (r *router) ripUpAndReroute(res *Result) {
	for round := 0; round < r.opt.RRRRounds; round++ {
		if r.g.TotalOverflow() == 0 {
			break // no overflowed grid edge ⇒ no victims; skip the O(wirelength) scan
		}
		victims := r.collectOverflowed(res)
		if len(victims) == 0 {
			break
		}
		for _, v := range victims {
			er := &res.Routes[v.net].Edges[v.edge]
			r.commit(er.Cells, -1)
			start := er.Cells[0]
			goal := er.Cells[len(er.Cells)-1]
			path := r.mazeRoute(start, goal)
			if path == nil {
				path = r.patternRoute(start, goal) // fall back, always succeeds
			} else {
				res.MazeReroutes++
			}
			r.commit(path, +1)
			er.Cells = path
			er.patched = true
		}
	}
}

func (r *router) gcellOfNode(tr *rsmt.Tree, idx int) GP {
	p := tr.Nodes[idx].Pos.Round()
	x, y := r.g.GCellOf(p)
	return GP{x, y}
}

// commit adjusts grid usage along a path by delta per step.
func (r *router) commit(path []GP, delta int) {
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		switch {
		case a.Y == b.Y && b.X == a.X+1:
			r.g.AddH(a.X, a.Y, delta)
		case a.Y == b.Y && b.X == a.X-1:
			r.g.AddH(b.X, a.Y, delta)
		case a.X == b.X && b.Y == a.Y+1:
			r.g.AddV(a.X, a.Y, delta)
		case a.X == b.X && b.Y == a.Y-1:
			r.g.AddV(a.X, b.Y, delta)
		}
	}
}

// pathCost sums current congestion costs along a candidate path.
func (r *router) pathCost(path []GP) float64 {
	var sum float64
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.Y == b.Y {
			x := min(a.X, b.X)
			sum += r.g.CostH(x, a.Y)
		} else {
			y := min(a.Y, b.Y)
			sum += r.g.CostV(a.X, y)
		}
	}
	return sum
}

type victim struct {
	net, edge int
	overflow  int
}

// collectOverflowed lists routed edges that traverse at least one
// over-capacity grid edge, worst first.
func (r *router) collectOverflowed(res *Result) []victim {
	var out []victim
	for ni := range res.Routes {
		for ei := range res.Routes[ni].Edges {
			er := &res.Routes[ni].Edges[ei]
			of := r.pathOverflow(er.Cells)
			if of > 0 {
				out = append(out, victim{net: ni, edge: ei, overflow: of})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].overflow != out[j].overflow {
			return out[i].overflow > out[j].overflow
		}
		if out[i].net != out[j].net {
			return out[i].net < out[j].net
		}
		return out[i].edge < out[j].edge
	})
	return out
}

func (r *router) pathOverflow(path []GP) int {
	sum := 0
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if a.Y == b.Y {
			sum += r.g.OverflowH(min(a.X, b.X), a.Y)
		} else {
			sum += r.g.OverflowV(a.X, min(a.Y, b.Y))
		}
	}
	return sum
}

// assignLayers maps each step of a routed edge onto a layer and counts
// vias: one per layer change along the path plus one pin-escape via at
// each end of a non-trivial path.
func (r *router) assignLayers(er *EdgeRoute) {
	n := len(er.Cells) - 1
	if n <= 0 {
		er.Layers = nil
		er.Vias = 0
		return
	}
	er.Layers = make([]int, n)
	prev := -1
	vias := 2 // escape vias at both endpoints
	for i := 0; i < n; i++ {
		a, b := er.Cells[i], er.Cells[i+1]
		horiz := a.Y == b.Y
		var l int
		if r.opt.StaticPatterns {
			// Static mode trades the balancer for a per-step pure
			// assignment: a net's layers depend only on its own cells,
			// which is what lets incremental replay skip untouched nets
			// entirely.
			l = r.g.StaticLayer(horiz, min(a.X, b.X), min(a.Y, b.Y))
		} else if horiz {
			l = r.g.AssignLayerH(min(a.X, b.X), a.Y)
		} else {
			l = r.g.AssignLayerV(a.X, min(a.Y, b.Y))
		}
		er.Layers[i] = l
		if prev >= 0 && l != prev {
			vias++
		}
		prev = l
	}
	er.Vias = vias
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// geomPathDBU converts a GCell path to DBU points (cell centers), used by
// RC extraction. The first and last points are replaced by the actual
// endpoint positions so intra-GCell geometry is preserved.
func GeomPathDBU(g *grid.Grid, er *EdgeRoute, from, to geom.Point) []geom.Point {
	if len(er.Cells) <= 1 {
		return []geom.Point{from, to}
	}
	pts := make([]geom.Point, 0, len(er.Cells)+1)
	pts = append(pts, from)
	for _, c := range er.Cells[1 : len(er.Cells)-1] {
		pts = append(pts, g.Center(c.X, c.Y))
	}
	pts = append(pts, to)
	return pts
}
