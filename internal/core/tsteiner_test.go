package core

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/lib"
	"tsteiner/internal/train"
)

// fixture prepares a trained refiner on spm (small, violating design).
func fixture(t *testing.T) (*Refiner, *train.Sample) {
	t.Helper()
	s, err := train.BuildSample("spm", 1.0, true, flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := train.Train(m, []*train.Sample{s}, train.Options{Epochs: 120, LR: 1e-2, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := NewRefiner(m, s.Batch, s.Prepared, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestRatioImproved(t *testing.T) {
	if !ratioImproved(-10, -8, 0.1) {
		t.Fatal("20%% improvement on -10 should trigger μ=0.1")
	}
	if ratioImproved(-10, -9.5, 0.1) {
		t.Fatal("5%% improvement should not trigger μ=0.1")
	}
	if ratioImproved(0, 1, 0.1) || ratioImproved(2, 3, 0.1) {
		t.Fatal("non-negative initial metric must not trigger")
	}
	if ratioImproved(-10, -11, 0.1) {
		t.Fatal("worsening must not trigger")
	}
}

func TestNewRefinerValidation(t *testing.T) {
	if _, err := NewRefiner(nil, nil, nil, DefaultOptions()); err == nil {
		t.Fatal("nil inputs accepted")
	}
	r, s := fixture(t)
	bad := DefaultOptions()
	bad.Gamma = 0
	if _, err := NewRefiner(r.Model, s.Batch, s.Prepared, bad); err == nil {
		t.Fatal("zero gamma accepted")
	}
	bad = DefaultOptions()
	bad.N = 0
	if _, err := NewRefiner(r.Model, s.Batch, s.Prepared, bad); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestGradientsNonZeroAndPenaltyDirection(t *testing.T) {
	r, _ := fixture(t)
	gx, gy, _, err := r.gradients(r.Prep.Forest, r.Opt.LambdaW, r.Opt.LambdaT)
	if err != nil {
		t.Fatal(err)
	}
	nz := 0
	for i := range gx {
		if gx[i] != 0 || gy[i] != 0 {
			nz++
		}
	}
	if nz == 0 {
		t.Fatal("penalty gradient is identically zero")
	}
}

func TestPenaltyConsistentWithSmoothedMetrics(t *testing.T) {
	// P = λw·w_γ + λt·t_γ with λ both negative: P must be positive for a
	// violating design (negative smoothed metrics times negative weights),
	// and descending the gradient must reduce P locally.
	r, _ := fixture(t)
	p0, err := r.Penalty(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if p0 <= 0 {
		t.Fatalf("penalty %g should be positive on a violating design", p0)
	}
	gx, gy, err := r.Gradients(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	moved := r.Prep.Forest.Clone()
	xs, ys, idx := moved.SteinerPositions()
	const step = 1e-3
	for i := range xs {
		xs[i] -= step * gx[i]
		ys[i] -= step * gy[i]
	}
	if err := moved.SetSteinerPositions(xs, ys, idx, r.Prep.Design.Die); err != nil {
		t.Fatal(err)
	}
	p1, err := r.Penalty(moved)
	if err != nil {
		t.Fatal(err)
	}
	// Allow float-level noise: Manhattan |·| kinks on zero-length edges
	// make the landscape only piecewise smooth.
	if p1 > p0*(1+1e-9) {
		t.Fatalf("gradient descent step increased penalty: %g -> %g", p0, p1)
	}
}

func TestAdaptiveThetaPositive(t *testing.T) {
	r, _ := fixture(t)
	theta, err := r.adaptiveTheta(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if theta <= 0 || math.IsInf(theta, 0) || math.IsNaN(theta) {
		t.Fatalf("theta=%g", theta)
	}
}

func TestRefineImprovesEvaluatedTiming(t *testing.T) {
	r, _ := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Forest == nil || len(res.History) == 0 {
		t.Fatal("empty result")
	}
	if res.BestWNS < res.InitWNS && res.BestTNS < res.InitTNS {
		t.Fatalf("refinement worsened both metrics: WNS %g->%g TNS %g->%g",
			res.InitWNS, res.BestWNS, res.InitTNS, res.BestTNS)
	}
	if res.BestWNS == res.InitWNS && res.BestTNS == res.InitTNS && res.Iterations == r.Opt.N {
		t.Log("warning: no evaluator-visible improvement found")
	}
	// The kept forest is valid and inside the die.
	if err := res.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Forest.Trees {
		for _, n := range tr.Nodes {
			p := n.Pos.Round()
			if !r.Prep.Design.Die.Contains(p) {
				t.Fatalf("node escaped die: %v", p)
			}
		}
	}
}

func TestRefineRespectsBestTracking(t *testing.T) {
	// Replays Algorithm 1's exact best-tracking semantics (lines 9–11):
	// when either metric beats the stored best, BOTH stored bests are
	// overwritten with the candidate's values.
	r, _ := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	bw, bt := res.InitWNS, res.InitTNS
	for _, h := range res.History {
		if h.WNS > bw || h.TNS > bt {
			if !h.Accepted {
				t.Fatal("improving candidate was rejected")
			}
			bw, bt = h.WNS, h.TNS
		}
	}
	if bw != res.BestWNS || bt != res.BestTNS {
		t.Fatalf("best tracking mismatch: (%g,%g) vs (%g,%g)", bw, bt, res.BestWNS, res.BestTNS)
	}
}

func TestRefineConvergenceStopsEarly(t *testing.T) {
	// With a trivially satisfied μ the loop must stop before N whenever
	// any improvement appears.
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.Mu = 1e-9
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedByRatio && res.Iterations == opt.N {
		t.Fatal("converged flag set only at budget exhaustion")
	}
	if res.BestWNS > res.InitWNS && !res.ConvergedByRatio {
		t.Fatal("improvement above μ=1e-9 did not trigger convergence")
	}
}

func TestRefineDoesNotMutatePreparedForest(t *testing.T) {
	r, _ := fixture(t)
	xs0, ys0, _ := r.Prep.Forest.SteinerPositions()
	if _, err := r.Refine(); err != nil {
		t.Fatal(err)
	}
	xs1, ys1, _ := r.Prep.Forest.SteinerPositions()
	for i := range xs0 {
		if xs0[i] != xs1[i] || ys0[i] != ys1[i] {
			t.Fatal("Refine mutated the prepared forest")
		}
	}
}

// TestRefineWithoutSteinerPoints runs the refiner on a design whose trees
// hold no Steiner point: every tree is frozen, so each forward evaluates
// an empty moving half (zero-row Linear, GatherRows and SegmentSum) and
// each gradient is empty. Refinement must return the start forest
// without error, at one lane and at four.
func TestRefineWithoutSteinerPoints(t *testing.T) {
	d, err := check.InverterChain(6)
	if err != nil {
		t.Fatal(err)
	}
	p, err := flow.Prepare(d, lib.Default(), flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := gnn.NewBatch(p.Design, p.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if b.NSteiner != 0 {
		t.Fatalf("inverter chain has %d Steiner vars, want 0", b.NSteiner)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	for _, lanes := range []int{1, 4} {
		opt := DefaultOptions()
		opt.CandidateLanes = lanes
		r, err := NewRefiner(m, b, p, opt)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Refine()
		if err != nil {
			t.Fatalf("lanes %d: %v", lanes, err)
		}
		if !reflect.DeepEqual(res.Forest, p.Forest) {
			t.Fatalf("lanes %d: refined forest differs from the start forest", lanes)
		}
		if res.BestWNS != res.InitWNS || res.BestTNS != res.InitTNS {
			t.Fatalf("lanes %d: best (%v,%v) moved from init (%v,%v) with nothing to move",
				lanes, res.BestWNS, res.BestTNS, res.InitWNS, res.InitTNS)
		}
	}
}

func TestRefineFixedThetaAblation(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.FixedTheta = 4.0
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if h.Theta != 4.0 {
			t.Fatalf("fixed theta not honored: %g", h.Theta)
		}
	}
}

func TestRefineAlwaysAcceptAblation(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.AlwaysAccept = true
	opt.Mu = 10 // never converge by ratio
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r2.Refine()
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if !h.Accepted {
			t.Fatal("AlwaysAccept rejected a candidate")
		}
	}
}

func TestRefineDeterministic(t *testing.T) {
	r, _ := fixture(t)
	a, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if a.BestWNS != b.BestWNS || a.BestTNS != b.BestTNS || a.Iterations != b.Iterations {
		t.Fatal("refinement not deterministic")
	}
}

// TestRefineLeavesTrainedParamsAlone refines with the fixture's freshly
// trained model, whose parameters training attached as leaves:
// refinement attaches them as constants, so it must not write a single
// bit of any parameter's Grad, and it must equal the refine on a clone
// of the model, which was never trained in place.
func TestRefineLeavesTrainedParamsAlone(t *testing.T) {
	r, _ := fixture(t)
	opt := DefaultOptions()
	opt.CandidateLanes = 4
	grads := func() [][]uint64 {
		var out [][]uint64
		for _, p := range r.Model.Params() {
			bits := make([]uint64, len(p.Grad))
			for i, g := range p.Grad {
				bits[i] = math.Float64bits(g)
			}
			out = append(out, bits)
		}
		return out
	}
	before := grads()
	trained, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trained.Refine()
	if err != nil {
		t.Fatal(err)
	}
	if after := grads(); !reflect.DeepEqual(after, before) {
		t.Error("refinement wrote the trained model's parameter gradients")
	}
	clone, err := NewRefiner(r.Model.Clone(), r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clone.Refine()
	if err != nil {
		t.Fatal(err)
	}
	requireSameRefine(t, "trained model vs its clone", got, want)
}

func TestRefineRoundsAggregates(t *testing.T) {
	r, _ := fixture(t)
	single, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	multi, err := r.RefineRounds(2)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Iterations < single.Iterations {
		t.Fatalf("2-round iterations %d < single-round %d", multi.Iterations, single.Iterations)
	}
	if len(multi.History) != multi.Iterations {
		t.Fatalf("history %d != iterations %d", len(multi.History), multi.Iterations)
	}
	// Round 2 starts where round 1 ended; bests never regress across the
	// aggregate (each round keeps its best-or-initial).
	if multi.BestTNS < single.BestTNS-1e-9 && multi.BestWNS < single.BestWNS-1e-9 {
		t.Fatalf("second round regressed both bests: (%g,%g) vs (%g,%g)",
			multi.BestWNS, multi.BestTNS, single.BestWNS, single.BestTNS)
	}
	if err := multi.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RefineRounds(0); err == nil {
		t.Fatal("zero rounds accepted")
	}
}

// TestRefineRoundsCheckpoints: a multi-round run checkpoints round 0 at
// the bare path and round k > 0 at path.rk, and a run cut off mid-round
// resumes to the uninterrupted result.
func TestRefineRoundsCheckpoints(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	clean, err := refinerWith(t, r, opt).RefineRounds(2)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "refine.ckpt")
	copt := opt
	copt.CheckpointPath = path
	if _, err := refinerWith(t, r, copt).RefineRounds(2); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".r1"} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("round checkpoint %s: %v", filepath.Base(p), err)
		}
	}
	if _, err := os.Stat(path + ".r0"); !os.IsNotExist(err) {
		t.Errorf("round 0 checkpointed at refine.ckpt.r0 (stat: %v)", err)
	}

	path = filepath.Join(t.TempDir(), "refine.ckpt")
	iopt := opt
	iopt.CheckpointPath = path
	iopt.Budget = &guard.Budget{MaxIters: 3}
	cut, err := refinerWith(t, r, iopt).RefineRounds(2)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Cutoff == "" || cut.Iterations != 3 {
		t.Fatalf("cut run: cutoff=%q iterations=%d", cut.Cutoff, cut.Iterations)
	}
	ropt := opt
	ropt.CheckpointPath = path
	ropt.Resume = true
	resumed, err := refinerWith(t, r, ropt).RefineRounds(2)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, clean, resumed, "2 rounds resumed after a cut")
}

func TestSignoffAfterRefinement(t *testing.T) {
	// End-to-end: the refined forest must route and produce a sign-off
	// report; on spm the evaluator-guided result should not catastrophically
	// regress true TNS (allow small noise).
	r, s := fixture(t)
	res, err := r.Refine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Signoff(s.Prepared, res.Forest)
	if err != nil {
		t.Fatal(err)
	}
	base := s.Baseline
	if rep.TNS < base.TNS*1.5 {
		t.Fatalf("refined TNS %g catastrophically worse than baseline %g", rep.TNS, base.TNS)
	}
}
