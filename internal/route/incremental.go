package route

import (
	"fmt"

	"tsteiner/internal/grid"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
)

// Incremental routing: after Steiner refinement, most nets' trees are
// unchanged at GCell granularity — only the nets whose nodes crossed a
// GCell boundary need new paths. This is the routing-side counterpart
// of TSteiner's "small runtime overhead" story: a refinement pass does
// not force a full re-route.

// Incremental updates prev (computed for oldF on g) into a routing of
// newF. The two forests must share topology (same trees, nodes and
// edges); only positions may differ. g must still hold prev's usage.
// Returns the new result and the number of nets that crossed a GCell
// boundary.
//
// Incremental is an exact replay and requires opt.StaticPatterns: the
// initial pattern stage is then a pure function of the forest, so the
// returned result is byte-identical to Route(d, newF, freshGrid, opt),
// while path construction is only paid for nets that moved (or were
// previously patched by rip-up-and-reroute). prev must itself have
// been produced in static mode (by Route or a previous Incremental) on
// the same options.
func Incremental(d *netlist.Design, oldF, newF *rsmt.Forest, g *grid.Grid, prev *Result, opt Options) (*Result, int, error) {
	if !opt.StaticPatterns {
		return nil, 0, fmt.Errorf("route: incremental replay requires StaticPatterns")
	}
	changed, nChanged, err := changedNets(oldF, newF, g, prev)
	if err != nil {
		return nil, 0, err
	}
	r := &router{d: d, g: g, opt: opt}
	res := &Result{Routes: make([]NetRoute, len(newF.Trees))}

	// Phase 1: static pattern paths. Order-independent usage, so a
	// plain net-order sweep reproduces Route's phase-1 grid state even
	// when Route sorted by NetPriority. Unchanged nets whose initial path
	// survived rip-up-and-reroute reuse their previous Cells slices, so
	// path construction is proportional to the moved set; the remaining
	// work is linear integer bookkeeping.
	g.ResetUsage()
	for ti := range newF.Trees {
		tr := newF.Trees[ti]
		nr := NetRoute{Net: tr.Net, Edges: make([]EdgeRoute, len(tr.Edges))}
		for ei, e := range tr.Edges {
			var path []GP
			if !changed[ti] && !prev.Routes[ti].Edges[ei].patched {
				path = prev.Routes[ti].Edges[ei].Cells
			} else {
				a := r.gcellOfNode(tr, int(e.A))
				b := r.gcellOfNode(tr, int(e.B))
				path = r.patternRoute(a, b)
			}
			r.commit(path, +1)
			nr.Edges[ei] = EdgeRoute{TreeEdge: ei, Cells: path}
		}
		res.Routes[ti] = nr
	}

	// The grid state matches a fresh route's, so rip-up-and-reroute
	// reproduces Route's sequence byte for byte.
	r.ripUpAndReroute(res)

	// Layer assignment in static mode is a pure per-step function of an
	// edge's cells (grid.StaticLayer), so an edge whose path slice was
	// reused verbatim keeps its previous layers and vias; only touched
	// edges recompute. This is what keeps ChangedNets — and therefore
	// the RC/STA refresh downstream — proportional to the moved set
	// instead of avalanching through a usage-balancing assignment.
	for ni := range res.Routes {
		for ei := range res.Routes[ni].Edges {
			er := &res.Routes[ni].Edges[ei]
			pe := &prev.Routes[ni].Edges[ei]
			if len(er.Cells) > 0 && len(pe.Cells) > 0 && &er.Cells[0] == &pe.Cells[0] {
				er.Layers, er.Vias = pe.Layers, pe.Vias
			} else {
				r.assignLayers(er)
			}
			res.WirelengthDBU += int64(er.StepsDBU(g.GCellSize))
			res.Vias += er.Vias
		}
	}
	res.Overflow = g.TotalOverflow()

	// Report the nets whose realization actually changed — the set
	// downstream RC/STA must refresh. Reused Cells slices make the
	// common case a pointer comparison.
	for ni := range res.Routes {
		if routesDiffer(&prev.Routes[ni], &res.Routes[ni]) {
			res.ChangedNets = append(res.ChangedNets, netlist.NetID(ni))
		}
	}
	return res, nChanged, nil
}

// changedNets flags the nets whose tree nodes moved across a GCell
// boundary between oldF and newF (after rounding), validating that the
// two forests share topology.
func changedNets(oldF, newF *rsmt.Forest, g *grid.Grid, prev *Result) ([]bool, int, error) {
	if len(oldF.Trees) != len(newF.Trees) || len(prev.Routes) != len(oldF.Trees) {
		return nil, 0, fmt.Errorf("route: incremental input size mismatch")
	}
	changed := make([]bool, len(newF.Trees))
	nChanged := 0
	for ti := range newF.Trees {
		ot, nt := oldF.Trees[ti], newF.Trees[ti]
		if len(ot.Nodes) != len(nt.Nodes) || len(ot.Edges) != len(nt.Edges) {
			return nil, 0, fmt.Errorf("route: net %d topology differs", ti)
		}
		for ni := range nt.Nodes {
			ox, oy := g.GCellOf(ot.Nodes[ni].Pos.Round())
			nx, ny := g.GCellOf(nt.Nodes[ni].Pos.Round())
			if ox != nx || oy != ny {
				changed[ti] = true
				break
			}
		}
		if changed[ti] {
			nChanged++
		}
	}
	return changed, nChanged, nil
}

// routesDiffer reports whether a net's realization (cells, layers or
// vias) differs between two results.
func routesDiffer(a, b *NetRoute) bool {
	if len(a.Edges) != len(b.Edges) {
		return true
	}
	for ei := range a.Edges {
		ea, eb := &a.Edges[ei], &b.Edges[ei]
		if ea.Vias != eb.Vias || len(ea.Cells) != len(eb.Cells) || len(ea.Layers) != len(eb.Layers) {
			return true
		}
		if len(ea.Cells) > 0 && &ea.Cells[0] != &eb.Cells[0] {
			for i := range ea.Cells {
				if ea.Cells[i] != eb.Cells[i] {
					return true
				}
			}
		}
		if len(ea.Layers) > 0 && &ea.Layers[0] != &eb.Layers[0] {
			for i := range ea.Layers {
				if ea.Layers[i] != eb.Layers[i] {
					return true
				}
			}
		}
	}
	return false
}
