package core

import (
	"tsteiner/internal/gnn"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

// evalSession is the refiner's workspace-backed evaluation state: the
// lane groups that evaluate a candidate pass, each reusing one tensor
// arena across iterations over the batch's frozen rows, and a memo of
// the last candidate pass, keyed by its lanes' exact Steiner
// coordinates.
//
// The model's weights stay fixed for the refiner's lifetime, so the trees
// that hold no Steiner variable evaluate to the same net caps and wire
// deltas at every coordinate set: the session freezes them once
// (gnn.Model.Freeze) and every forward it runs evaluates the Steiner
// stage on the moving trees only, bit-identical to the full forward
// (gnn.TestFrozenForwardMatchesFull).
//
// A candidate pass over K lanes runs as G = min(workers, K) contiguous
// blocks of lanes (workers is flow.Config.Workers resolved by
// par.Workers). Each block is one frozen forward on its own goroutine,
// with its group's workspace and a frozen view over its own model clone:
// the forward writes every parameter's tape pointer (see Model.Clone).
// No kernel mixes lanes, and nothing on the refine tape that needs a
// gradient is a 1-lane broadcast (the parameters are constants), so
// every lane's slack and coordinate gradient are bit-identical to the
// single fused K-lane pass: refinement is byte-identical at every worker
// count. Group 0 is the session's own workspace and frozen rows over the
// refiner's model, and Refiner.forward runs on it.
//
// Algorithm 1 evaluates candidates (evalCandidates, and evalMetrics as a
// one-lane pass) and, when one is accepted, asks for gradients at the
// very same positions next iteration — the memo turns that second
// forward into a lane-sliced backward on the tape of the group that
// evaluated the lane. Forward passes are deterministic functions of the
// coordinates, so reusing a cached tape is byte-identical to recomputing
// it.
//
// The memo may be consumed by at most one Backward (gradients accumulate
// into the cached leaves), and appending penalty ops dirties the tape, so
// a gradient request consumes it and every forward drops it. A session
// belongs to one refiner and, like the model, must not be used from two
// goroutines: only its own candidate pass fans out, and it waits for
// every group before returning.
type evalSession struct {
	r      *Refiner
	groups []laneGroup

	// curX/curY stage a forest's coordinates for forwards and memo
	// lookups.
	curX, curY []float64

	// Candidate memo: the last forwardBatch's lane-major coordinates over
	// bLanes lanes (0 = no memo), whose tapes the groups hold.
	// laneGradients serves a gradient request whose coordinates are
	// bit-identical to one lane by appending the penalty and
	// backward-propagating a lane slice.
	bX, bY []float64
	bLanes int
}

// laneGroup evaluates one contiguous block of a candidate pass's lanes.
type laneGroup struct {
	ws *tensor.Workspace
	fz *gnn.Frozen
	// lo and hi bound the group's lanes in the last pass; tp and bp are
	// that pass's tape and prediction, nil once the memo is dropped.
	lo, hi int
	tp     *tensor.Tape
	bp     *gnn.BatchPrediction
}

func newEvalSession(r *Refiner) (*evalSession, error) {
	ws := tensor.NewWorkspace()
	fz, err := r.Model.Freeze(ws.Tape(), r.Batch)
	if err != nil {
		return nil, err
	}
	groups := make([]laneGroup, min(par.Workers(r.Prep.Config.Workers), max(r.Opt.CandidateLanes, 1)))
	groups[0] = laneGroup{ws: ws, fz: fz}
	for g := 1; g < len(groups); g++ {
		groups[g] = laneGroup{ws: tensor.NewWorkspace(), fz: fz.Clone()}
	}
	n := r.Batch.NSteiner
	return &evalSession{
		r: r, groups: groups,
		curX: make([]float64, n), curY: make([]float64, n),
	}, nil
}

// session returns the refiner's evaluation session, built on first use.
func (r *Refiner) session() (*evalSession, error) {
	if r.sess != nil {
		return r.sess, nil
	}
	s, err := newEvalSession(r)
	if err != nil {
		return nil, err
	}
	r.sess = s
	return s, nil
}

// invalidate drops the memoized candidate pass (the workspace storage
// itself is reclaimed by each group's next forward).
func (s *evalSession) invalidate() {
	s.bLanes = 0
	for g := range s.groups {
		s.groups[g].tp, s.groups[g].bp = nil, nil
	}
}

func sliceEq(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forwardBatch runs the candidate pass at the staged lane-major
// coordinates: the lanes split into min(groups, lanes) contiguous
// blocks, sizes differing by at most one and larger blocks first, and
// each block runs as one frozen forward on its group's goroutine. Every
// group's tape is memoized, so a following gradient request at one
// lane's exact coordinates can reuse it.
func (s *evalSession) forwardBatch(lanes int, laneXs, laneYs []float64) error {
	s.invalidate()
	n := s.r.Batch.NSteiner
	groups := s.groups[:min(len(s.groups), lanes)]
	lo := 0
	for g := range groups {
		size := lanes / len(groups)
		if g < lanes%len(groups) {
			size++
		}
		groups[g].lo, groups[g].hi = lo, lo+size
		lo += size
	}
	err := par.ForEach(len(groups), len(groups), func(g int) error {
		gr := &groups[g]
		tp := gr.ws.Tape()
		bp, err := gr.fz.ForwardBatch(tp, gr.hi-gr.lo, laneXs[gr.lo*n:gr.hi*n], laneYs[gr.lo*n:gr.hi*n])
		if err != nil {
			return err
		}
		gr.tp, gr.bp = tp, bp
		return nil
	})
	if err != nil {
		return err
	}
	if cap(s.bX) < lanes*n {
		s.bX = make([]float64, lanes*n)
		s.bY = make([]float64, lanes*n)
	}
	s.bX, s.bY = s.bX[:lanes*n], s.bY[:lanes*n]
	copy(s.bX, laneXs)
	copy(s.bY, laneYs)
	s.bLanes = lanes
	return nil
}

// lane maps lane k of the memoized pass to the group that evaluated it
// and k's lane within that group's block.
func (s *evalSession) lane(k int) (*laneGroup, int) {
	g := 0
	for k >= s.groups[g].hi {
		g++
	}
	return &s.groups[g], k - s.groups[g].lo
}

// laneGradients serves a gradient request from the candidate memo when
// f's coordinates are bit-identical to one memoized lane: on the tape of
// the lane's group, the penalty is appended per-lane on the group's
// slack, a lane slice selects the matching candidate's scalar, and
// Backward leaves that candidate's exact gradient in its lane of the
// coordinate leaves (the group's other lanes receive exact zeros). ok
// reports whether the request was served; a miss falls back to a fresh
// forward.
func (s *evalSession) laneGradients(f *rsmt.Forest, lw, lt float64) (gx, gy []float64, pval float64, ok bool, err error) {
	if s.bLanes == 0 {
		return nil, nil, 0, false, nil
	}
	if err := s.r.Batch.FillSteinerCoords(f, s.curX, s.curY); err != nil {
		return nil, nil, 0, false, err
	}
	n := s.r.Batch.NSteiner
	lane := -1
	for k := 0; k < s.bLanes; k++ {
		if sliceEq(s.curX, s.bX[k*n:(k+1)*n]) && sliceEq(s.curY, s.bY[k*n:(k+1)*n]) {
			lane = k
			break
		}
	}
	if lane < 0 {
		return nil, nil, 0, false, nil
	}
	s.r.sink().Add("core.memo_hits", 1)
	s.r.sink().Add("core.lane_memo_hits", 1)
	gr, j := s.lane(lane)
	tp, bp := gr.tp, gr.bp
	// The memo is consumed either way: penalty ops dirty the tape and
	// Backward accumulates into its leaves.
	defer s.invalidate()
	p, err := s.r.penaltyMatrixOn(tp, bp.Slack, lw, lt)
	if err != nil {
		return nil, nil, 0, true, err
	}
	loss, err := tp.SliceLane(p, j)
	if err != nil {
		return nil, nil, 0, true, err
	}
	if err := tp.Backward(loss); err != nil {
		return nil, nil, 0, true, err
	}
	// Copies: workspace storage is reclaimed on the next forward, and
	// callers hold the slices across further gradient calls.
	gx = append([]float64(nil), bp.Xs.LaneGrad(j)...)
	gy = append([]float64(nil), bp.Ys.LaneGrad(j)...)
	return gx, gy, loss.Data[0], true, nil
}

// wsStats sums the lane groups' workspace counters (telemetry only).
func (s *evalSession) wsStats() tensor.WorkspaceStats {
	var st tensor.WorkspaceStats
	for _, g := range s.groups {
		gs := g.ws.Stats()
		st.Grabs += gs.Grabs
		st.Hits += gs.Hits
	}
	return st
}
