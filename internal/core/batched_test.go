package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"tsteiner/internal/obs"
	"tsteiner/internal/rsmt"
)

// TestBatchedRefineMatchesSequential is the differential gate for the
// multi-candidate refine loop: with CandidateLanes = 4, the session's
// fused evaluation (workspace, frozen rows, lane groups, lane-granular
// gradient memo) must reproduce the allocating sequential path (K plain
// forwards, fresh gradient tapes) byte for byte — every history record,
// both best metrics and the final coordinates — held by the digest that
// path recorded, laneRefineDigest.
func TestBatchedRefineMatchesSequential(t *testing.T) {
	r, _ := fixture(t)
	if got := refineDigest(refineLanes(t, r, 1)); got != laneRefineDigest {
		t.Fatalf("refine digest %s, want %s", got, laneRefineDigest)
	}
}

// TestLaneGroupsByteIdentical holds the split candidate pass to the
// single fused one: the refiner evaluates its CandidateLanes = 4
// candidates as min(Workers, 4) lane groups, contiguous blocks of lanes
// each run as one frozen forward on its own goroutine, and every history
// record, both best metrics and the final coordinates must equal the
// Workers 1 run's — at 8 workers too, more than there are lanes. The
// worker count is set explicitly so the groups split at any GOMAXPROCS,
// and the test runs in short mode, so the race pass covers the groups.
func TestLaneGroupsByteIdentical(t *testing.T) {
	r, _ := fixture(t)
	want := refineLanes(t, r, 1)
	for _, workers := range []int{2, 3, 4, 8} {
		requireSameRefine(t, fmt.Sprintf("workers %d", workers), refineLanes(t, r, workers), want)
	}
}

// refineLanes refines r's fixture with 4 candidate lanes on the given
// worker count, Mu 10 so that it never converges by ratio and runs all
// N = 12 iterations.
func refineLanes(t *testing.T, r *Refiner, workers int) *Result {
	t.Helper()
	prep := *r.Prep
	prep.Config.Workers = workers
	opt := DefaultOptions()
	opt.CandidateLanes = 4
	opt.Mu = 10
	opt.N = 12
	r2, err := NewRefiner(r.Model, r.Batch, &prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// laneRefineDigest is the refineDigest of the 4-lane fixture refinement
// (Mu 10, N 12), recorded from the allocating reference path before it
// was deleted: a fresh tape per forward, the full graph instead of the
// frozen rows, one forward per candidate and no lane memo.
const laneRefineDigest = "19e63a0ce432711fef8924c558708cc90f2f06c2f593334200be49ea68194888"

// refineDigest is the sha256 over a refinement's initial and best
// metrics, iteration count, history and final Steiner coordinates.
func refineDigest(res *Result) string {
	xs, ys, _ := res.Forest.SteinerPositions()
	s := fmt.Sprintf("%v %v %v %v %d %+v %v %v", res.InitWNS, res.InitTNS, res.BestWNS, res.BestTNS,
		res.Iterations, res.History, xs, ys)
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

// requireSameRefine fails t unless got and want are the same refinement
// bit for bit: initial and best metrics, iteration count, every history
// record and the final Steiner coordinates.
func requireSameRefine(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if got.InitWNS != want.InitWNS || got.InitTNS != want.InitTNS {
		t.Fatalf("%s: initial metrics diverge: (%v,%v) vs (%v,%v)",
			what, got.InitWNS, got.InitTNS, want.InitWNS, want.InitTNS)
	}
	if got.BestWNS != want.BestWNS || got.BestTNS != want.BestTNS {
		t.Fatalf("%s: best metrics diverge: (%v,%v) vs (%v,%v)",
			what, got.BestWNS, got.BestTNS, want.BestWNS, want.BestTNS)
	}
	if got.Iterations != want.Iterations || len(got.History) != len(want.History) {
		t.Fatalf("%s: iteration counts diverge: %d/%d vs %d/%d",
			what, got.Iterations, len(got.History), want.Iterations, len(want.History))
	}
	for i := range got.History {
		if got.History[i] != want.History[i] {
			t.Fatalf("%s: history[%d] diverges: %+v vs %+v", what, i, got.History[i], want.History[i])
		}
	}
	gx, gy, _ := got.Forest.SteinerPositions()
	wx, wy, _ := want.Forest.SteinerPositions()
	for i := range gx {
		if gx[i] != wx[i] || gy[i] != wy[i] {
			t.Fatalf("%s: final coordinate %d diverges: (%v,%v) vs (%v,%v)", what, i, gx[i], gy[i], wx[i], wy[i])
		}
	}
}

// TestCandidateLanesOnePreservesDefaultPath pins CandidateLanes ∈ {0, 1}
// to the single-candidate algorithm: both run the lane path with K = 1
// and must produce the same trajectory, always on lane 0.
func TestCandidateLanesOnePreservesDefaultPath(t *testing.T) {
	r, _ := fixture(t)
	run := func(lanes int) *Result {
		opt := DefaultOptions()
		opt.CandidateLanes = lanes
		r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r2.Refine()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	def := run(0)
	one := run(1)
	if def.BestWNS != one.BestWNS || def.BestTNS != one.BestTNS || def.Iterations != one.Iterations {
		t.Fatalf("CandidateLanes=1 diverged from default: (%v,%v,%d) vs (%v,%v,%d)",
			one.BestWNS, one.BestTNS, one.Iterations, def.BestWNS, def.BestTNS, def.Iterations)
	}
	for i := range def.History {
		if def.History[i] != one.History[i] {
			t.Fatalf("history[%d] diverges: %+v vs %+v", i, def.History[i], one.History[i])
		}
		if one.History[i].Lane != 0 {
			t.Fatalf("single-candidate path recorded lane %d", one.History[i].Lane)
		}
	}
}

// TestBatchedRefineUsesLaneMemo asserts the lane-granular memo actually
// fires: after an accepted multi-candidate iteration, the next gradient
// request must be served from the batched tape (counter
// core.lane_memo_hits), and every batched evaluation must report its
// lane count (counter core.batch_lanes).
func TestBatchedRefineUsesLaneMemo(t *testing.T) {
	r, _ := fixture(t)
	sink := obs.New(nil)
	prep := *r.Prep
	prep.Config.Obs = sink
	opt := DefaultOptions()
	opt.CandidateLanes = 4
	opt.Mu = 10
	opt.N = 8
	r2, err := NewRefiner(r.Model, r.Batch, &prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, h := range res.History {
		if h.Accepted {
			accepted++
		}
	}
	var sb strings.Builder
	if err := sink.WriteSummary(&sb); err != nil {
		t.Fatal(err)
	}
	summary := sb.String()
	if !strings.Contains(summary, "core.batch_lanes") {
		t.Fatalf("no core.batch_lanes counter in summary:\n%s", summary)
	}
	if accepted > 0 && !strings.Contains(summary, "core.lane_memo_hits") {
		t.Fatalf("%d accepted iterations but no lane memo hit:\n%s", accepted, summary)
	}
	if !strings.Contains(summary, "gnn.batch_amortized_ns") {
		t.Fatalf("no amortized-forward histogram in summary:\n%s", summary)
	}
}

// TestLaneMemoMatchesFreshGradient holds every lane's memo-served
// gradient to a fresh one: after a 4-lane candidate pass, a gradient
// request at lane j's exact coordinates must be served from the tape of
// the group that evaluated lane j (one lane-memo hit), and its
// coordinate gradients and penalty must equal, bit for bit, those a
// fresh refiner computes at the same coordinates. Workers 1, 2 and 4
// put the lane at every position within its group. It runs in short
// mode, so the race pass covers the lane groups' tapes.
func TestLaneMemoMatchesFreshGradient(t *testing.T) {
	r, _ := fixture(t)
	const lanes = 4
	n := r.Batch.NSteiner
	base := r.Prep.Forest
	bx, by, idx := base.SteinerPositions()
	// Lane k shifts every Steiner point by k·(+3, −2) DBU; routing the
	// positions through a forest applies the die clamp, so each lane
	// block holds exactly the coordinates a forest can carry.
	laneXs, laneYs := make([]float64, lanes*n), make([]float64, lanes*n)
	forests := make([]*rsmt.Forest, lanes)
	for k := range forests {
		lx, ly := laneXs[k*n:(k+1)*n], laneYs[k*n:(k+1)*n]
		for i := range lx {
			lx[i] = bx[i] + 3*float64(k)
			ly[i] = by[i] - 2*float64(k)
		}
		f := base.Clone()
		if err := f.SetSteinerPositions(lx, ly, idx, r.Prep.Design.Die); err != nil {
			t.Fatal(err)
		}
		if err := r.Batch.FillSteinerCoords(f, lx, ly); err != nil {
			t.Fatal(err)
		}
		forests[k] = f
	}
	lw, lt := r.Opt.LambdaW, r.Opt.LambdaT
	refiner := func(workers int, sink *obs.Sink) *Refiner {
		prep := *r.Prep
		prep.Config.Workers = workers
		prep.Config.Obs = sink
		opt := DefaultOptions()
		opt.CandidateLanes = lanes
		r2, err := NewRefiner(r.Model, r.Batch, &prep, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r2
	}
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	for _, workers := range []int{1, 2, 4} {
		for j := 0; j < lanes; j++ {
			what := fmt.Sprintf("workers %d lane %d", workers, j)
			sink := obs.New(nil)
			memo := refiner(workers, sink)
			var wns, tns [lanes]float64
			if err := memo.evalCandidates(lanes, laneXs, laneYs, wns[:], tns[:]); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			gx, gy, p, err := memo.gradients(forests[j], lw, lt)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			var hits int64
			for _, c := range sink.Snapshot().Counters {
				if c.Name == "core.lane_memo_hits" {
					hits = c.Value
				}
			}
			if hits != 1 {
				t.Fatalf("%s: %d lane-memo hits, want 1", what, hits)
			}
			fx, fy, fp, err := refiner(workers, nil).gradients(forests[j], lw, lt)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if math.Float64bits(p) != math.Float64bits(fp) {
				t.Fatalf("%s: memo penalty %v, fresh %v", what, p, fp)
			}
			if !same(gx, fx) || !same(gy, fy) {
				t.Fatalf("%s: memo gradient differs from a fresh one", what)
			}
		}
	}
}

func TestChooseLane(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		wns, tns []float64
		want     int
	}{
		{[]float64{-5, -3, -4}, []float64{-10, -10, -10}, 1}, // max WNS wins
		{[]float64{-5, -5, -5}, []float64{-10, -8, -9}, 1},   // WNS tie → max TNS
		{[]float64{-5, -5}, []float64{-10, -10}, 0},          // full tie → lowest lane
		{[]float64{nan, -7}, []float64{nan, -10}, 1},         // NaN never wins
		{[]float64{-7, nan}, []float64{-10, nan}, 0},         // NaN never displaces
		{[]float64{nan, nan}, []float64{nan, nan}, 0},        // all poisoned → lane 0
		{[]float64{-5, math.Inf(1)}, []float64{-10, -1}, 0},  // Inf treated as poisoned
		{[]float64{-5, -5}, []float64{-10, math.Inf(-1)}, 0}, // non-finite TNS too
		{[]float64{-9, -2, -2, -4}, []float64{-20, -6, -5, -8}, 2},
	}
	for i, c := range cases {
		if got := chooseLane(c.wns, c.tns); got != c.want {
			t.Fatalf("case %d: chooseLane=%d want %d", i, got, c.want)
		}
	}
}
