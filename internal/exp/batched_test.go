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

// runBatchedFlow runs the small end-to-end pipeline with the refiner
// evaluating 4 line-search candidates per iteration as lanes of one
// fused forward. disableWS selects the sequential reference side: an
// allocating tape per evaluation and one forward per candidate.
func runBatchedFlow(t *testing.T, workers int, disableWS bool) string {
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
	ropt.CandidateLanes = 4
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
		fmt.Fprintf(&b, "iter %d wns=%v tns=%v theta=%v accepted=%v lane=%d\n",
			i, h.WNS, h.TNS, h.Theta, h.Accepted, h.Lane)
	}
	var fb bytes.Buffer
	if err := designio.WriteForestJSON(&fb, res.Forest); err != nil {
		t.Fatal(err)
	}
	b.Write(fb.Bytes())
	return b.String()
}

// TestBatchReplayPipelineByteIdentical is the pipeline-level batched
// determinism gate: with 4-candidate lane evaluation in the refiner, the
// fused path and the sequential reference must produce byte-identical
// outputs — trained loss, per-iteration history including the chosen
// lane, sign-off metrics and final Steiner coordinates — at workers=1
// and workers=4.
func TestBatchReplayPipelineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline four times")
	}
	results := map[string]string{}
	for _, w := range []int{1, 4} {
		results[fmt.Sprintf("ws/w=%d", w)] = runBatchedFlow(t, w, false)
		results[fmt.Sprintf("alloc/w=%d", w)] = runBatchedFlow(t, w, true)
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
