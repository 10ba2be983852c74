package train

import (
	"fmt"
	"testing"

	"tsteiner/internal/gnn"
)

// TestTrainHashPinned pins the full training trajectory — forward values,
// every parameter gradient (dW and dBias included) and the Adam updates —
// to a model hash recorded before the dense kernels were rewritten. The
// refine replay pins cannot catch a drifting weight gradient, because
// refinement attaches the parameters as constants; this test can. The
// hash must not depend on Options.Workers either.
func TestTrainHashPinned(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	aug, err := Augment(s, 2, 10, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := append([]*Sample{s}, aug...)
	const want = "1546417166f0370d"
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("sequential/workers=%d", workers), func(t *testing.T) {
			m := gnn.NewModel(gnn.DefaultConfig(), 5)
			opt := Options{Epochs: 3, LR: 1e-2, Seed: 1, Workers: workers}
			if _, err := Train(m, samples, opt); err != nil {
				t.Fatal(err)
			}
			if got := m.Hash(); got != want {
				t.Errorf("model hash %s, want %s", got, want)
			}
		})
	}
}
