package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tsteiner/internal/core"
	"tsteiner/internal/designio"
	"tsteiner/internal/flow"
	"tsteiner/internal/gnn"
	"tsteiner/internal/train"
)

// runWorkspaceFlow runs the small end-to-end pipeline with the refiner
// either on the pooled workspace + memo path or on the allocating
// reference path, serializing every algorithmic output exactly like
// runObsFlow.
func runWorkspaceFlow(t *testing.T, workers int, disableWS bool) string {
	t.Helper()
	cfg := flow.DefaultConfig()
	cfg.Workers = workers

	smp, err := train.BuildSample("spm", 1.0, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := gnn.NewModel(gnn.DefaultConfig(), 7)
	topt := train.Options{Epochs: 8, LR: 1e-2, Seed: 1}
	loss, err := train.Train(m, []*train.Sample{smp}, topt)
	if err != nil {
		t.Fatal(err)
	}
	ropt := core.DefaultOptions()
	ropt.N = 3
	ropt.DisableWorkspace = disableWS
	ref, err := core.NewRefiner(m, smp.Batch, smp.Prepared, ropt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.Refine()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flow.Signoff(smp.Prepared, res.Forest)
	if err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "refined wns=%v tns=%v vios=%d wl=%d vias=%d drvs=%d ovf=%d\n",
		rep.WNS, rep.TNS, rep.Vios, rep.WirelengthDBU, rep.Vias, rep.DRVs, rep.Overflow)
	fmt.Fprintf(&b, "loss=%v\nrefine init=(%v,%v) best=(%v,%v) iters=%d converged=%v\n",
		loss, res.InitWNS, res.InitTNS, res.BestWNS, res.BestTNS,
		res.Iterations, res.ConvergedByRatio)
	for i, h := range res.History {
		fmt.Fprintf(&b, "iter %d wns=%v tns=%v theta=%v accepted=%v\n",
			i, h.WNS, h.TNS, h.Theta, h.Accepted)
	}
	var fb bytes.Buffer
	if err := designio.WriteForestJSON(&fb, res.Forest); err != nil {
		t.Fatal(err)
	}
	b.Write(fb.Bytes())
	return b.String()
}

// TestWorkspaceForwardMatchesAllocating is the workspace determinism gate:
// the pooled (workspace + forward-memo) evaluation path and the
// allocating reference path must produce byte-identical pipeline outputs
// — metrics, per-iteration history and final Steiner coordinates — at
// workers=1 and workers=4.
func TestWorkspaceForwardMatchesAllocating(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline four times")
	}
	results := map[string]string{}
	for _, w := range []int{1, 4} {
		results[fmt.Sprintf("ws/w=%d", w)] = runWorkspaceFlow(t, w, false)
		results[fmt.Sprintf("alloc/w=%d", w)] = runWorkspaceFlow(t, w, true)
	}
	want := results["alloc/w=1"]
	if want == "" {
		t.Fatal("empty serialized output")
	}
	for key, got := range results {
		if got != want {
			t.Fatalf("output of %s differs from alloc/w=1:\n--- %s ---\n%s\n--- alloc/w=1 ---\n%s",
				key, key, got, want)
		}
	}
}
