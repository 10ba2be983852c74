package core

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
)

// guardOptions is the base configuration for the fault/resume tests: a
// short, never-converging run so every test exercises a known number of
// iterations.
func guardOptions() Options {
	opt := DefaultOptions()
	opt.N = 5
	opt.Mu = 10 // never converge by ratio
	return opt
}

func refinerWith(t *testing.T, r *Refiner, opt Options) *Refiner {
	t.Helper()
	r2, err := NewRefiner(r.Model, r.Batch, r.Prep, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r2
}

// sameResult asserts byte-identical refinement outcomes: metrics, history
// and the kept forest's exact coordinates. RuntimeSec and the robustness
// bookkeeping fields are excluded by design.
func sameResult(t *testing.T, a, b *Result, label string) {
	t.Helper()
	if a.InitWNS != b.InitWNS || a.InitTNS != b.InitTNS {
		t.Fatalf("%s: init metrics differ: (%g,%g) vs (%g,%g)", label, a.InitWNS, a.InitTNS, b.InitWNS, b.InitTNS)
	}
	if a.BestWNS != b.BestWNS || a.BestTNS != b.BestTNS {
		t.Fatalf("%s: best metrics differ: (%g,%g) vs (%g,%g)", label, a.BestWNS, a.BestTNS, b.BestWNS, b.BestTNS)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, a.Iterations, b.Iterations)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history %d vs %d records", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Fatalf("%s: history[%d] differs: %+v vs %+v", label, i, a.History[i], b.History[i])
		}
	}
	ax, ay, _ := a.Forest.SteinerPositions()
	bx, by, _ := b.Forest.SteinerPositions()
	if len(ax) != len(bx) {
		t.Fatalf("%s: forest sizes differ", label)
	}
	for i := range ax {
		if ax[i] != bx[i] || ay[i] != by[i] {
			t.Fatalf("%s: forest coordinate %d differs: (%g,%g) vs (%g,%g)", label, i, ax[i], ay[i], bx[i], by[i])
		}
	}
}

// TestRefineResumeByteIdentical is the checkpoint/resume contract: kill the
// loop after every possible iteration (via a deterministic iteration
// budget), resume from the checkpoint, and require the final result to be
// byte-identical to a run that was never interrupted.
func TestRefineResumeByteIdentical(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	clean, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	if clean.Iterations != opt.N {
		t.Fatalf("clean run stopped at %d/%d iterations", clean.Iterations, opt.N)
	}
	for cut := 1; cut < opt.N; cut++ {
		path := filepath.Join(t.TempDir(), "refine.ckpt")
		iopt := opt
		iopt.CheckpointPath = path
		iopt.Budget = &guard.Budget{MaxIters: cut}
		interrupted, err := refinerWith(t, r, iopt).Refine()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if interrupted.Cutoff == "" || interrupted.Iterations != cut {
			t.Fatalf("cut %d: cutoff=%q iterations=%d", cut, interrupted.Cutoff, interrupted.Iterations)
		}
		ropt := opt
		ropt.CheckpointPath = path
		ropt.Resume = true
		resumed, err := refinerWith(t, r, ropt).Refine()
		if err != nil {
			t.Fatalf("resume after cut %d: %v", cut, err)
		}
		sameResult(t, clean, resumed, "resume after cut "+string(rune('0'+cut)))
		if resumed.Cutoff != "" || resumed.Degraded {
			t.Fatalf("cut %d: resumed run carries cutoff=%q degraded=%v", cut, resumed.Cutoff, resumed.Degraded)
		}
	}
}

// TestRefineResumeAfterCompletionIsIdentity: resuming a checkpoint of a
// finished run must return the same result without re-iterating.
func TestRefineResumeAfterCompletionIsIdentity(t *testing.T) {
	r, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "refine.ckpt")
	opt := guardOptions()
	opt.CheckpointPath = path
	full, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	again, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, again, "resume after completion")
}

// TestRefineNaNRecoveryTransient: a single injected NaN gradient is
// absorbed — the poisoned step is discarded, the loop rolls back to the
// best forest and finishes the full run without degradation.
func TestRefineNaNRecoveryTransient(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	inj := fault.New(7)
	inj.Arm("core.nan", 3)
	opt.Fault = inj
	res, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("transient NaN degraded the run")
	}
	if res.Recoveries != 1 {
		t.Fatalf("recoveries=%d, want 1", res.Recoveries)
	}
	if res.Iterations != opt.N {
		t.Fatalf("iterations=%d, want %d", res.Iterations, opt.N)
	}
	for i, h := range res.History {
		if math.IsNaN(h.WNS) || math.IsNaN(h.TNS) || math.IsNaN(h.Theta) {
			t.Fatalf("history[%d] carries a NaN: %+v", i, h)
		}
	}
	if err := res.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
}

// TestRefinePersistentNaNDegradesToBest: with NaN injected on every
// gradient from iteration k+1 on, recovery retries exhaust and the refiner
// returns exactly the result a clean k-iteration run produces — flagged
// Degraded, never an error, never a poisoned coordinate.
func TestRefinePersistentNaNDegradesToBest(t *testing.T) {
	r, _ := fixture(t)
	const k = 3
	copt := guardOptions()
	copt.N = k
	clean, err := refinerWith(t, r, copt).Refine()
	if err != nil {
		t.Fatal(err)
	}

	fopt := guardOptions()
	fopt.MaxRecoveries = 2
	inj := fault.New(7)
	inj.ArmFrom("core.nan", k+1)
	fopt.Fault = inj
	faulty, err := refinerWith(t, r, fopt).Refine()
	if err != nil {
		t.Fatalf("persistent fault surfaced as error: %v", err)
	}
	if !faulty.Degraded {
		t.Fatal("exhausted recoveries did not set Degraded")
	}
	if faulty.Recoveries != fopt.MaxRecoveries+1 {
		t.Fatalf("recoveries=%d, want %d", faulty.Recoveries, fopt.MaxRecoveries+1)
	}
	sameResult(t, clean, faulty, "degraded-equals-clean-prefix")
}

// TestRefineBudgetWallClock: a stalled iteration trips the wall-clock
// budget at the next iteration boundary; the result is the best so far
// with the cutoff recorded, byte-identical to the clean run's prefix.
func TestRefineBudgetWallClock(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	clean, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}

	bopt := guardOptions()
	inj := fault.New(1)
	inj.ArmStall("core.stall", 1, 250*time.Millisecond)
	bopt.Fault = inj
	bopt.Budget = &guard.Budget{Wall: 200 * time.Millisecond}
	res, err := refinerWith(t, r, bopt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cutoff == "" || !strings.Contains(res.Cutoff, "wall-clock") {
		t.Fatalf("cutoff=%q, want wall-clock reason", res.Cutoff)
	}
	if res.Iterations >= opt.N {
		t.Fatalf("wall budget did not stop the loop: %d iterations", res.Iterations)
	}
	for i, h := range res.History {
		if h != clean.History[i] {
			t.Fatalf("prefix history[%d] differs under budget: %+v vs %+v", i, h, clean.History[i])
		}
	}
	if err := res.Forest.Validate(r.Prep.Design); err != nil {
		t.Fatal(err)
	}
}

// TestRefineCorruptCheckpointFailsLoudly: a truncated checkpoint — whether
// damaged at rest or torn by an injected fault during the write — must
// surface as a *guard.CorruptError on resume, never a silent restart.
func TestRefineCorruptCheckpointFailsLoudly(t *testing.T) {
	r, _ := fixture(t)
	path := filepath.Join(t.TempDir(), "refine.ckpt")
	opt := guardOptions()
	opt.CheckpointPath = path
	opt.Budget = &guard.Budget{MaxIters: 2}
	if _, err := refinerWith(t, r, opt).Refine(); err != nil {
		t.Fatal(err)
	}

	// Damage at rest.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	ropt := guardOptions()
	ropt.CheckpointPath = path
	ropt.Resume = true
	_, err = refinerWith(t, r, ropt).Refine()
	var ce *guard.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("truncated checkpoint: got %v, want *guard.CorruptError", err)
	}

	// Torn by fault injection during the write.
	inj := fault.New(3)
	inj.ArmFrom("guard.ckpt.truncate", 2)
	topt := guardOptions()
	topt.CheckpointPath = path
	topt.Budget = &guard.Budget{MaxIters: 2}
	topt.Fault = inj
	if _, err := refinerWith(t, r, topt).Refine(); err != nil {
		t.Fatal(err)
	}
	_, err = refinerWith(t, r, ropt).Refine()
	if !errors.As(err, &ce) {
		t.Fatalf("torn checkpoint write: got %v, want *guard.CorruptError", err)
	}
}

// TestRefineGuardsAreSideChannel: with guards configured but no fault, no
// budget pressure and no resume, results are byte-identical to a fully
// unguarded run.
func TestRefineGuardsAreSideChannel(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	plain, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	gopt := guardOptions()
	gopt.CheckpointPath = filepath.Join(t.TempDir(), "refine.ckpt")
	gopt.Budget = &guard.Budget{Wall: time.Hour, MaxIters: 10_000}
	gopt.Fault = fault.New(9) // armed with nothing
	guarded, err := refinerWith(t, r, gopt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, plain, guarded, "guards-as-side-channel")
	if guarded.Degraded || guarded.Recoveries != 0 || guarded.Cutoff != "" {
		t.Fatalf("healthy guarded run reports %+v", guarded)
	}
}

// TestRatioImprovedNonFinite: non-finite metrics must never fake (or
// permanently block) convergence — they simply do not trigger.
func TestRatioImprovedNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][2]float64{
		{nan, -5}, {-10, nan}, {-inf, -5}, {-10, -inf}, {-10, inf}, {nan, nan},
	}
	for _, c := range cases {
		if ratioImproved(c[0], c[1], 0.1) {
			t.Fatalf("ratioImproved(%g, %g) triggered", c[0], c[1])
		}
	}
	if !ratioImproved(-10, -8, 0.1) {
		t.Fatal("finite improvement regression")
	}
}
