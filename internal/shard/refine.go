package shard

import (
	"fmt"
	"sort"
	"time"

	"tsteiner/internal/flow"
	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
	"tsteiner/internal/netlist"
	"tsteiner/internal/par"
	"tsteiner/internal/rc"
	"tsteiner/internal/route"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
)

// maxConsecRejects stops a run that keeps proposing losing rounds even
// after step halving.
const maxConsecRejects = 3

type savedRC struct {
	net netlist.NetID
	rc  rc.NetRC
}

// Refine runs sharded incremental refinement on a prepared design. The
// input forest is not modified; the refined forest and final sign-off
// metrics are returned. See the package comment for the determinism
// contract; TestShardDeterminism enforces it.
func Refine(p *flow.Prepared, opt Options) (*Result, error) {
	d := p.Design
	cfg := p.Config
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	if opt.StepFrac <= 0 {
		opt.StepFrac = DefaultOptions().StepFrac
	}
	corners, multi, err := cornerSet(opt.Corners)
	if err != nil {
		return nil, err
	}
	primary := primaryCorner(corners)
	holdIdx := holdCornerIdx(corners)
	root := cfg.Obs.Start("shard.refine")
	defer root.End()

	// Initial state: static-pattern route + full extraction + full STA.
	// Static patterns are what make every later round's incremental
	// reroute an exact replay.
	t0 := time.Now()
	cont := p.Forest.Clone()
	rnd := cont.Clone()
	rnd.RoundPositions()
	ropt := cfg.Route
	ropt.StaticPatterns = true

	g, err := grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
	if err != nil {
		return nil, fmt.Errorf("shard: grid: %w", err)
	}
	sp := root.Child("init")
	prev, err := route.Route(d, rnd, g, ropt)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("shard: initial route: %w", err)
	}
	rcs, err := rc.Extract(d, rnd, g, prev, p.Lib)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("shard: initial extract: %w", err)
	}
	Ts, err := sta.RunCorners(d, rcs, corners)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("shard: initial sta: %w", err)
	}
	// T is the primary corner's view — candidate selection and proposals
	// read its slacks; the verdict reads the whole matrix.
	T := Ts[primary]

	res := &Result{
		InitWNS: T.WNS, InitTNS: T.TNS, InitVios: T.Vios,
		InitSec: time.Since(t0).Seconds(),
	}
	if multi {
		res.InitCorners = cornerRows(Ts)
	}
	step := opt.StepFrac
	consecRejects := 0
	t1 := time.Now()

	for round := 0; round < opt.Rounds; round++ {
		// Round-start snapshot: candidate selection and proposals both
		// read only (cont, T, step); nothing below mutates them until
		// the round's verdict.
		cands := selectCandidates(d, cont, T, opt)
		if len(cands) == 0 {
			break
		}

		// Proposal fan-out: candidates dealt round-robin, one group per
		// shard, groups in parallel. Per-net proposals are pure, so the
		// grouping is invisible in the output — the move list is sorted
		// into canonical (tree, node) order regardless.
		groups := make([][]candidate, opt.Shards)
		for i, c := range cands {
			groups[i%opt.Shards] = append(groups[i%opt.Shards], c)
		}
		moveGroups, err := par.Map(opt.Workers, groups, func(_ int, grp []candidate) ([]move, error) {
			var out []move
			for _, c := range grp {
				out = append(out, proposeNet(d, cont.Trees[c.net], T, int32(c.net), step)...)
			}
			return out, nil
		})
		if err != nil {
			return nil, fmt.Errorf("shard: proposals: %w", err)
		}
		var moves []move
		for _, mg := range moveGroups {
			moves = append(moves, mg...)
		}
		sort.Slice(moves, func(i, j int) bool {
			if moves[i].tree != moves[j].tree {
				return moves[i].tree < moves[j].tree
			}
			return moves[i].node < moves[j].node
		})
		if len(moves) == 0 {
			break // candidates with no movable Steiner point on the critical path
		}
		res.Rounds++

		// Candidate rounded forest — copy-on-write: only the trees with a
		// proposed move are cloned, the rest share rnd's (never-mutated)
		// trees, keeping this step proportional to the moved set rather
		// than the design. movedNets records the nets whose rounded
		// geometry actually changed (small steps often round back to the
		// same DBU).
		next := &rsmt.Forest{Trees: append([]*rsmt.Tree(nil), rnd.Trees...)}
		var movedNets []netlist.NetID
		curTree, curChanged := int32(-1), false
		flush := func() {
			if curChanged {
				movedNets = append(movedNets, netlist.NetID(curTree))
			}
		}
		for _, mv := range moves {
			if mv.tree != curTree {
				flush()
				curTree, curChanged = mv.tree, false
				next.Trees[mv.tree] = rnd.Trees[mv.tree].Clone()
			}
			np := d.Die.ClampF(geom.FPoint{X: mv.x, Y: mv.y}).Round().ToF()
			if np != next.Trees[mv.tree].Nodes[mv.node].Pos {
				next.Trees[mv.tree].Nodes[mv.node].Pos = np
				curChanged = true
			}
		}
		flush()

		// Evaluate the candidate state: incremental replay + windowed
		// re-time, or the full-pipeline Reference.
		var (
			resR    *route.Result
			T2s     []*sta.Result
			gNext   *grid.Grid
			rcs2    []rc.NetRC
			saved   []savedRC
			refresh []netlist.NetID
		)
		if opt.Reference {
			gNext, err = grid.New(d.Die, cfg.GCellSize, cfg.LayerCaps)
			if err != nil {
				return nil, fmt.Errorf("shard: grid: %w", err)
			}
			resR, err = route.Route(d, next, gNext, ropt)
			if err != nil {
				return nil, fmt.Errorf("shard: round %d route: %w", round, err)
			}
			rcs2, err = rc.Extract(d, next, gNext, resR, p.Lib)
			if err != nil {
				return nil, fmt.Errorf("shard: round %d extract: %w", round, err)
			}
			T2s, err = sta.RunCorners(d, rcs2, corners)
			if err != nil {
				return nil, fmt.Errorf("shard: round %d sta: %w", round, err)
			}
		} else {
			resR, _, err = route.Incremental(d, rnd, next, g, prev, ropt)
			if err != nil {
				return nil, fmt.Errorf("shard: round %d reroute: %w", round, err)
			}
			// RC must refresh both the nets whose realization changed
			// AND the nets whose rounded tree geometry moved within
			// their GCells — extraction reads exact DBU positions, so
			// the two sets differ.
			refresh = unionSorted(resR.ChangedNets, movedNets)
			saved = make([]savedRC, 0, len(refresh))
			for _, ni := range refresh {
				saved = append(saved, savedRC{net: ni, rc: rcs[ni]})
				rcs[ni], err = rc.ExtractNet(d, next.Trees[ni], g, &resR.Routes[ni], p.Lib)
				if err != nil {
					return nil, fmt.Errorf("shard: round %d extract net %d: %w", round, ni, err)
				}
			}
			T2s = make([]*sta.Result, len(corners))
			for ci := range corners {
				T2s[ci], err = sta.Retime(d, Ts[ci], rcs, refresh)
				if err != nil {
					return nil, fmt.Errorf("shard: round %d retime: %w", round, err)
				}
			}
			res.RetimedNets += len(refresh)
		}

		// Global verdict on sign-off bits: both paths computed the same
		// per-corner WNS/TNS down to the last ulp, so they take the same
		// branch. A matrix win that worsens the hold count at the
		// min-DelayScale corner is vetoed (multi-corner runs only).
		accept := matrixBetter(T2s, Ts)
		if accept && multi && T2s[holdIdx].HoldVios > Ts[holdIdx].HoldVios {
			accept = false
			res.HoldRejects++
		}
		if accept {
			rnd, prev, Ts, T = next, resR, T2s, T2s[primary]
			if opt.Reference {
				g, rcs = gNext, rcs2
			}
			for _, mv := range moves {
				cont.Trees[mv.tree].Nodes[mv.node].Pos = d.Die.ClampF(geom.FPoint{X: mv.x, Y: mv.y})
			}
			res.Accepted++
			res.MovedNets += len(movedNets)
			consecRejects = 0
		} else {
			if !opt.Reference {
				// Roll the grid and routing state back by replaying to
				// the round-start geometry (exact: static replay is a
				// pure function of the forest), and restore the saved
				// RC entries.
				back, _, err := route.Incremental(d, next, rnd, g, resR, ropt)
				if err != nil {
					return nil, fmt.Errorf("shard: round %d rollback: %w", round, err)
				}
				prev = back
				for _, s := range saved {
					rcs[s.net] = s.rc
				}
			}
			res.Rejected++
			consecRejects++
			step *= 0.5
			if consecRejects >= maxConsecRejects {
				break
			}
		}
	}

	res.Forest = cont
	res.WNS, res.TNS, res.Vios = T.WNS, T.TNS, T.Vios
	if multi {
		res.Corners = cornerRows(Ts)
	}
	res.WirelengthDBU, res.Vias, res.Overflow = prev.WirelengthDBU, prev.Vias, prev.Overflow
	res.RefineSec = time.Since(t1).Seconds()
	return res, nil
}

// unionSorted merges two ascending NetID slices, deduplicating.
func unionSorted(a, b []netlist.NetID) []netlist.NetID {
	out := make([]netlist.NetID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}
