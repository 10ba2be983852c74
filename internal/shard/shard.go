// Package shard is the scaled-design refinement engine: sharded,
// timing-driven Steiner refinement whose result is byte-identical for
// every shard count and worker count — and to an unsharded
// full-route/full-STA reference — by construction.
//
// The determinism argument has three legs:
//
//  1. Proposals are pure functions of the round-start snapshot. Every
//     candidate net's move is computed from the same frozen forest and
//     STA result, so grouping candidates into shards (and running the
//     groups through internal/par) changes wall clock only, never a
//     coordinate. The flattened move list is sorted before application.
//  2. Candidate selection ignores the shard count. Every round refines
//     the same most-critical nets, dealt to shards round-robin in
//     criticality order; Options.Shards only decides which goroutine
//     proposes which net.
//  3. Evaluation is exact. Static-pattern incremental routing replays
//     byte-identically to a from-scratch route, per-net RC extraction
//     is bitwise the full extraction, and windowed re-timing is bitwise
//     a full STA run — so the incremental path and the Reference path
//     reach the same accept/reject decisions on the same bits.
package shard

import (
	"math"
	"sort"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
)

// Options configures a sharded refinement run.
type Options struct {
	// Shards is the number of concurrent proposal groups (<=1 serializes
	// into one group). Any value yields byte-identical results.
	Shards int
	// Workers bounds the goroutines of the proposal fan-out
	// (0 = GOMAXPROCS, 1 = serial); byte-identical at any value.
	Workers int
	// Rounds bounds the refinement rounds.
	Rounds int
	// MaxMovesPerRound caps the candidate nets refined per round (most
	// critical first).
	MaxMovesPerRound int
	// StepFrac is the initial step: each on-path Steiner node moves this
	// fraction of the way toward the midpoint of its path neighbors.
	// Halved after every rejected round.
	StepFrac float64
	// SlackThreshold admits nets whose worst sink slack is below it.
	SlackThreshold float64
	// Corners enables multi-corner sign-off: STA runs at every listed
	// corner, the round verdict compares worst-corner WNS then
	// corner-summed TNS, and an accepted round is vetoed if it raises
	// the hold-violation count at the minimum-DelayScale corner.
	// Candidate selection and proposals read the primary
	// (maximum-DelayScale) corner's slacks. Empty reproduces the
	// single-typical-corner engine byte for byte.
	Corners []sta.Corner
	// Reference switches to the unsharded oracle path: full re-route on
	// a fresh grid, full RC extraction and full STA every round. Slow,
	// but the sharded path must match it bit for bit.
	Reference bool
}

// DefaultOptions returns the refinement settings used by the scale
// experiments.
func DefaultOptions() Options {
	return Options{
		Shards:           1,
		Rounds:           8,
		MaxMovesPerRound: 32,
		StepFrac:         0.35,
		SlackThreshold:   0.05,
	}
}

// Result reports a refinement run. Every field except the timings is
// deterministic: identical across shard counts, worker counts and the
// Reference path.
type Result struct {
	// Forest is the refined continuous forest (the caller's input is not
	// modified).
	Forest *rsmt.Forest

	// Initial sign-off metrics (static-pattern routing of the input).
	InitWNS, InitTNS float64
	InitVios         int

	// Final sign-off metrics.
	WNS, TNS float64
	Vios     int
	// Final routing-solution quality.
	WirelengthDBU int64
	Vias          int
	Overflow      int

	// Per-corner sign-off rows (initial and final, in Options.Corners
	// order). Empty for single-corner runs. The headline WNS/TNS/Vios
	// above are the primary (maximum-DelayScale) corner's.
	InitCorners []sta.CornerMetrics
	Corners     []sta.CornerMetrics

	// Rounds executed, accept/reject split, and the number of nets whose
	// rounded geometry changed in accepted rounds.
	Rounds    int
	Accepted  int
	Rejected  int
	MovedNets int
	// HoldRejects counts matrix-winning rounds vetoed by the hold
	// non-regression check (multi-corner runs only).
	HoldRejects int

	// RetimedNets counts the nets re-extracted and re-timed across all
	// rounds — the workload the windowed path pays instead of
	// whole-design RC+STA. Zero in Reference mode (which always pays the
	// whole design).
	RetimedNets int

	// Wall-clock split (not deterministic): initial route+extract+STA
	// versus the refinement rounds.
	InitSec, RefineSec float64
}

// candidate is one net admitted to a round.
type candidate struct {
	net   netlist.NetID
	slack float64
}

// move relocates one Steiner node (continuous coordinates).
type move struct {
	tree, node int32
	x, y       float64
}

// selectCandidates builds the round's capped, most-critical-first
// candidate list from the round-start STA result. Deterministic:
// sorted by (slack, net ID), never by map order.
func selectCandidates(d *netlist.Design, f *rsmt.Forest, T *sta.Result, opt Options) []candidate {
	var cands []candidate
	for ti, tr := range f.Trees {
		if tr.SteinerCount() == 0 {
			continue
		}
		worst := math.Inf(1)
		for ni := range tr.Nodes {
			nd := &tr.Nodes[ni]
			if nd.Kind != rsmt.PinNode || int(nd.Pin) >= len(T.PinSlack) {
				continue
			}
			if nd.Pin == d.Net(tr.Net).Driver {
				continue
			}
			if s := T.PinSlack[nd.Pin]; s < worst {
				worst = s
			}
		}
		if worst < opt.SlackThreshold {
			cands = append(cands, candidate{net: netlist.NetID(ti), slack: worst})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].slack != cands[j].slack {
			return cands[i].slack < cands[j].slack
		}
		return cands[i].net < cands[j].net
	})
	if opt.MaxMovesPerRound > 0 && len(cands) > opt.MaxMovesPerRound {
		cands = cands[:opt.MaxMovesPerRound]
	}
	return cands
}

// proposeNet computes the moves for one net: walk the tree path from
// the driver (node 0) to the most critical sink and pull every on-path
// Steiner node a step toward the midpoint of its path neighbors. A
// pure function of (tree, STA snapshot, step) — no global state — which
// is what makes the proposal fan-out shard- and worker-invariant.
func proposeNet(d *netlist.Design, tr *rsmt.Tree, T *sta.Result, ti int32, step float64) []move {
	// Most critical sink node: min PinSlack, ties to the lower index.
	sink := int32(-1)
	worst := math.Inf(1)
	for ni := range tr.Nodes {
		nd := &tr.Nodes[ni]
		if nd.Kind != rsmt.PinNode || int(nd.Pin) >= len(T.PinSlack) {
			continue
		}
		if nd.Pin == d.Net(tr.Net).Driver {
			continue
		}
		if s := T.PinSlack[nd.Pin]; s < worst {
			worst = s
			sink = int32(ni)
		}
	}
	if sink <= 0 {
		return nil
	}
	// Parent pointers from node 0 by iterative DFS (deterministic:
	// adjacency order is edge order).
	adj := tr.Adjacency()
	parent := make([]int32, len(tr.Nodes))
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	stack := []int32{0}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if parent[v] == -2 {
				parent[v] = u
				stack = append(stack, v)
			}
		}
	}
	if parent[sink] == -2 {
		return nil
	}
	// Path driver → sink.
	var path []int32
	for u := sink; u != -1; u = parent[u] {
		path = append(path, u)
	}
	// path is sink→driver; orientation does not matter for midpoints.
	var out []move
	for i := 1; i+1 < len(path); i++ {
		n := path[i]
		if tr.Nodes[n].Kind != rsmt.SteinerNode {
			continue
		}
		a, b := tr.Nodes[path[i-1]].Pos, tr.Nodes[path[i+1]].Pos
		p := tr.Nodes[n].Pos
		out = append(out, move{
			tree: ti,
			node: n,
			x:    p.X + step*((a.X+b.X)/2-p.X),
			y:    p.Y + step*((a.Y+b.Y)/2-p.Y),
		})
	}
	return out
}
