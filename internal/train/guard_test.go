package train

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"tsteiner/internal/gnn"
	"tsteiner/internal/guard"
	"tsteiner/internal/guard/fault"
)

func sameParams(t *testing.T, a, b *gnn.Model, label string) {
	t.Helper()
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Data {
			if pa[i].Data[j] != pb[i].Data[j] {
				t.Fatalf("%s: param %d entry %d differs: %g vs %g", label, i, j, pa[i].Data[j], pb[i].Data[j])
			}
		}
	}
}

// TestTrainResumeByteIdentical: interrupt training after a prefix of
// epochs (checkpointing each), resume to the full epoch count, and require
// the final parameters to match an uninterrupted run exactly.
func TestTrainResumeByteIdentical(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	const epochs = 10
	base := Options{Epochs: epochs, LR: 1e-2, Seed: 1}
	clean := gnn.NewModel(gnn.DefaultConfig(), 5)
	cleanLoss, err := Train(clean, []*Sample{s}, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, epochs / 2, epochs - 1} {
		path := filepath.Join(t.TempDir(), "train.ckpt")
		m := gnn.NewModel(gnn.DefaultConfig(), 5)
		iopt := base
		iopt.Epochs = cut
		iopt.CheckpointPath = path
		if _, err := Train(m, []*Sample{s}, iopt); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// Resume into a FRESH model: everything must come from the
		// checkpoint, nothing from the interrupted process's memory.
		m2 := gnn.NewModel(gnn.DefaultConfig(), 5)
		ropt := base
		ropt.CheckpointPath = path
		ropt.Resume = true
		resLoss, err := Train(m2, []*Sample{s}, ropt)
		if err != nil {
			t.Fatalf("resume after %d: %v", cut, err)
		}
		if resLoss != cleanLoss {
			t.Fatalf("resume after %d: final loss %g vs clean %g", cut, resLoss, cleanLoss)
		}
		sameParams(t, clean, m2, "resume")
	}
}

// TestTrainNaNGuardRefusesPoisonedStep: a poisoned gradient surfaces as a
// *guard.NumericError and the refused step leaves the parameters exactly
// where the previous step put them.
func TestTrainNaNGuardRefusesPoisonedStep(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	const healthySteps = 4
	clean := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := Train(clean, []*Sample{s}, Options{Epochs: healthySteps, LR: 1e-2, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	inj := fault.New(11)
	inj.Arm("train.nan", healthySteps+1)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	_, err := Train(m, []*Sample{s}, Options{Epochs: 50, LR: 1e-2, Seed: 1, Fault: inj})
	var ne *guard.NumericError
	if !errors.As(err, &ne) {
		t.Fatalf("got %v, want *guard.NumericError", err)
	}
	// One sample, one step per epoch: after 4 healthy steps the poisoned
	// 5th must leave params at the clean 4-step state.
	sameParams(t, clean, m, "refused step")
}

// TestTrainBudgetStopsAtEpochBoundary: an already-expired wall budget runs
// zero epochs and leaves the model untouched.
func TestTrainBudgetStopsAtEpochBoundary(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	ref := gnn.NewModel(gnn.DefaultConfig(), 5)
	b := &guard.Budget{Wall: time.Nanosecond}
	b.Start()
	time.Sleep(time.Millisecond)
	epochs := 0
	_, err := Train(m, []*Sample{s}, Options{Epochs: 10, LR: 1e-2, Seed: 1, Budget: b,
		Verbose: func(int, float64) { epochs++ }})
	if err != nil {
		t.Fatal(err)
	}
	if epochs != 0 {
		t.Fatalf("expired budget still ran %d epochs", epochs)
	}
	sameParams(t, ref, m, "expired budget")
}

// TestTrainCorruptCheckpointFailsLoudly: damaged-at-rest and fault-torn
// checkpoints are both rejected with a *guard.CorruptError on resume.
func TestTrainCorruptCheckpointFailsLoudly(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	path := filepath.Join(t.TempDir(), "train.ckpt")

	inj := fault.New(3)
	inj.Arm("guard.ckpt.truncate", 3)
	m := gnn.NewModel(gnn.DefaultConfig(), 5)
	if _, err := Train(m, []*Sample{s}, Options{Epochs: 3, LR: 1e-2, Seed: 1, CheckpointPath: path, Fault: inj}); err != nil {
		t.Fatal(err)
	}
	m2 := gnn.NewModel(gnn.DefaultConfig(), 5)
	_, err := Train(m2, []*Sample{s}, Options{Epochs: 5, LR: 1e-2, Seed: 1, CheckpointPath: path, Resume: true})
	var ce *guard.CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("torn checkpoint: got %v, want *guard.CorruptError", err)
	}
}
