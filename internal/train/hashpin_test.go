package train

import (
	"fmt"
	"testing"

	"tsteiner/internal/gnn"
)

// TestTrainHashPinned pins the full training trajectory — forward values,
// every parameter gradient (dW and dBias included) and the Adam updates —
// to model hashes recorded before the dense kernels were rewritten. The
// refine replay pins cannot catch a drifting weight gradient, because
// refinement attaches the parameters as constants; this test can. Each
// trajectory must also land on the same hash at every worker count.
func TestTrainHashPinned(t *testing.T) {
	s := sample(t, "spm", 1.0, true)
	aug, err := Augment(s, 2, 10, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	samples := append([]*Sample{s}, aug...)
	for _, c := range []struct {
		name                string
		accumulate, batched bool
		want                string
	}{
		{"sequential", false, false, "1546417166f0370d"},
		{"accumulate", true, false, "2cea2441626bd5c0"},
		{"batched-accumulate", true, true, "3459aa7aa5290742"},
	} {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				m := gnn.NewModel(gnn.DefaultConfig(), 5)
				opt := Options{Epochs: 3, LR: 1e-2, Seed: 1, Workers: workers,
					Accumulate: c.accumulate, BatchedAccumulate: c.batched}
				if _, err := Train(m, samples, opt); err != nil {
					t.Fatal(err)
				}
				if got := m.Hash(); got != c.want {
					t.Errorf("model hash %s, want %s", got, c.want)
				}
			})
		}
	}
}
