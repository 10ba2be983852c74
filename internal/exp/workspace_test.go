package exp

import (
	"bytes"
	"crypto/sha256"
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
// evaluating `lanes` line-search candidates per iteration, serializing
// every algorithmic output exactly like runObsFlow; the lane= column of
// the history appears only when lanes > 1.
func runWorkspaceFlow(t *testing.T, lanes, workers int) string {
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
	ropt.CandidateLanes = lanes
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
		fmt.Fprintf(&b, "iter %d wns=%v tns=%v theta=%v accepted=%v",
			i, h.WNS, h.TNS, h.Theta, h.Accepted)
		if lanes > 1 {
			fmt.Fprintf(&b, " lane=%d", h.Lane)
		}
		b.WriteByte('\n')
	}
	var fb bytes.Buffer
	if err := designio.WriteForestJSON(&fb, res.Forest); err != nil {
		t.Fatal(err)
	}
	b.Write(fb.Bytes())
	return b.String()
}

// pipelineDigests is the sha256 of runWorkspaceFlow's output at one and
// at four lanes, recorded at workers=1 and workers=4 from the allocating
// reference path before it was deleted: a fresh tape per forward, the
// full graph instead of the frozen rows, one forward per candidate and
// no lane memo.
var pipelineDigests = map[int]string{
	1: "a60dc7a55ea754abf0c679f6f69d717237d27949d8a73baee6867df29ddd0022",
	4: "1c29bfe1031be2b56118039b8a74b7cbddf6addcf2cd6693b28483f0efc1acf7",
}

// requirePipelinePinned fails t unless the serialized pipeline output at
// `lanes` candidates per iteration hashes to pipelineDigests[lanes] at
// workers=1 and workers=4.
func requirePipelinePinned(t *testing.T, lanes int) {
	t.Helper()
	for _, w := range []int{1, 4} {
		out := runWorkspaceFlow(t, lanes, w)
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != pipelineDigests[lanes] {
			t.Errorf("lanes %d, workers %d: output sha256 %s, want %s:\n%s", lanes, w, got, pipelineDigests[lanes], out)
		}
	}
}

// TestWorkspaceForwardMatchesAllocating is the workspace determinism gate:
// with one candidate per iteration, the refiner's evaluation session
// (pooled workspace, frozen rows, forward memo) must reproduce the
// allocating reference path's pipeline output byte for byte — trained
// loss, sign-off metrics, per-iteration history and final Steiner
// coordinates — at workers=1 and workers=4, held by its recorded sha256.
func TestWorkspaceForwardMatchesAllocating(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline twice")
	}
	requirePipelinePinned(t, 1)
}

// TestBatchReplayPipelineByteIdentical is the pipeline-level batched
// determinism gate: with 4-candidate lane evaluation in the refiner, the
// serialized output, including the chosen lane of every iteration, must
// match the sequential reference's recorded sha256 at workers=1 and
// workers=4.
func TestBatchReplayPipelineByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: runs the spm pipeline twice")
	}
	requirePipelinePinned(t, 4)
}
