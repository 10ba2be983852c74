package core

import (
	"tsteiner/internal/gnn"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/tensor"
)

// evalSession is the refiner's workspace-backed evaluation state: one
// tensor arena reused across iterations, the batch's frozen rows, and a
// memo of the last candidate pass, keyed by its lanes' exact Steiner
// coordinates.
//
// The model's weights stay fixed for the refiner's lifetime, so the trees
// that hold no Steiner variable evaluate to the same net caps and wire
// deltas at every coordinate set: the session freezes them once
// (gnn.Model.Freeze) and every forward it runs evaluates the Steiner
// stage on the moving trees only, bit-identical to the full forward the
// allocating path runs.
//
// Algorithm 1 evaluates candidates (evalCandidates, and evalMetrics as a
// one-lane pass) and, when one is accepted, asks for gradients at the
// very same positions next iteration — the memo turns that second
// forward into a lane-sliced backward. Forward passes are deterministic
// functions of the coordinates, so reusing a cached tape is
// byte-identical to recomputing it.
//
// The memo may be consumed by at most one Backward (gradients accumulate
// into the cached leaves), and appending penalty ops dirties the tape, so
// a gradient request consumes it and every forward drops it. A session
// belongs to one refiner and, like the model (see Model.Clone), must not
// be used from two goroutines: parallel refinement runs each own a
// session.
type evalSession struct {
	r  *Refiner
	ws *tensor.Workspace
	fz *gnn.Frozen

	// curX/curY stage a forest's coordinates for forwards and memo
	// lookups.
	curX, curY []float64

	// Candidate memo: the last forwardBatch's tape with its lane-major
	// coordinates (valid while bp != nil). laneGradients serves a
	// gradient request whose coordinates are bit-identical to one lane
	// by appending the penalty and backward-propagating a lane slice.
	bX, bY []float64
	bLanes int
	bTp    *tensor.Tape
	bp     *gnn.BatchPrediction
}

func newEvalSession(r *Refiner) (*evalSession, error) {
	ws := tensor.NewWorkspace()
	fz, err := r.Model.Freeze(ws.Tape(), r.Batch)
	if err != nil {
		return nil, err
	}
	n := r.Batch.NSteiner
	return &evalSession{
		r: r, ws: ws, fz: fz,
		curX: make([]float64, n), curY: make([]float64, n),
	}, nil
}

// session returns the refiner's lazily-built evaluation session, or nil
// when Options.DisableWorkspace selects the allocating reference path.
func (r *Refiner) session() (*evalSession, error) {
	if r.Opt.DisableWorkspace || r.sess != nil {
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
// itself is reclaimed by the next forward's reset).
func (s *evalSession) invalidate() {
	s.bTp, s.bp = nil, nil
}

func sliceEq(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// forwardBatch runs one fused K-lane frozen forward at the staged
// candidate coordinates (lane-major), memoizing the tape so a following
// gradient request at one lane's exact coordinates can reuse it.
func (s *evalSession) forwardBatch(lanes int, laneXs, laneYs []float64) (*gnn.BatchPrediction, error) {
	s.invalidate()
	tp := s.ws.Tape()
	bp, err := s.fz.ForwardBatch(tp, lanes, laneXs, laneYs)
	if err != nil {
		return nil, err
	}
	n := lanes * s.r.Batch.NSteiner
	if cap(s.bX) < n {
		s.bX = make([]float64, n)
		s.bY = make([]float64, n)
	}
	s.bX, s.bY = s.bX[:n], s.bY[:n]
	copy(s.bX, laneXs)
	copy(s.bY, laneYs)
	s.bLanes, s.bTp, s.bp = lanes, tp, bp
	return bp, nil
}

// laneGradients serves a gradient request from the candidate memo when
// f's coordinates are bit-identical to one memoized lane: the penalty is
// appended per-lane on the K-lane slack, a lane slice selects the
// matching candidate's scalar, and Backward leaves that candidate's
// exact gradient in its lane of the coordinate leaves (the other lanes
// receive exact zeros). ok reports whether the request was served; a
// miss falls back to a fresh forward.
func (s *evalSession) laneGradients(f *rsmt.Forest, lw, lt float64) (gx, gy []float64, pval float64, ok bool, err error) {
	if s.bp == nil {
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
	tp, bp := s.bTp, s.bp
	// The memo is consumed either way: penalty ops dirty the tape and
	// Backward accumulates into its leaves.
	defer s.invalidate()
	p, err := s.r.penaltyMatrixOn(tp, bp.Slack, lw, lt)
	if err != nil {
		return nil, nil, 0, true, err
	}
	loss, err := tp.SliceLane(p, lane)
	if err != nil {
		return nil, nil, 0, true, err
	}
	if err := tp.Backward(loss); err != nil {
		return nil, nil, 0, true, err
	}
	// Copies: workspace storage is reclaimed on the next forward, and
	// callers hold the slices across further gradient calls.
	gx = append([]float64(nil), bp.Xs.LaneGrad(lane)...)
	gy = append([]float64(nil), bp.Ys.LaneGrad(lane)...)
	return gx, gy, loss.Data[0], true, nil
}
