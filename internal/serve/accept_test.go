package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"tsteiner/internal/designio"
	"tsteiner/internal/lib"
	"tsteiner/internal/synth"
)

// acceptPinnedSHA is the sha256 of the APU refine job's result JSON with
// its ID cleared.
const acceptPinnedSHA = "b7655250b4031f179d7bc35cbd5ca023b7162968367fad4674cbf296043bd40f"

// TestRefineAcceptPinned is the one gate on a refine loop that accepts a
// move: the benchmarked workloads (spm, usb_cdc_core) reject every
// iteration, so without it nothing pins the accept path — the lane memo
// hit, convergence by ratio, the sign-off of an accepted forest. One
// KindRefine job on APU (seed 1, 4 lanes, typical corner, the other
// fields at their Normalize defaults) runs through a bare Runner on a
// fresh spool; its result bytes are pinned, and it must have accepted a
// move that improves sign-off TNS.
func TestRefineAcceptPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and refines APU (about 10 s)")
	}
	spec, err := synth.BenchmarkByName("APU")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	var design bytes.Buffer
	if err := designio.WriteJSON(&design, d); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	req := &JobRequest{ID: "apu-accept", Kind: KindRefine, Design: design.Bytes(),
		Seed: 1, Lanes: 4, Workers: 2}
	req.Normalize()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner(sp, nil, nil).Run(req)
	if err != nil {
		t.Fatal(err)
	}

	canon := *res
	canon.ID = ""
	js, err := json.Marshal(&canon)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	if got := hex.EncodeToString(sum[:]); got != acceptPinnedSHA {
		t.Errorf("result sha256 %s, pinned %s\n%s", got, acceptPinnedSHA, js)
	}
	if !(res.EvalBestTNS > res.EvalInitTNS) {
		t.Errorf("no move accepted: evaluator TNS %v -> %v", res.EvalInitTNS, res.EvalBestTNS)
	}
	if res.Refined == nil {
		t.Fatal("no refined sign-off")
	}
	if r := math.Abs(res.Refined.TNS) / math.Abs(res.Baseline.TNS); !(r < 1) {
		t.Errorf("sign-off |TNS| ratio %v (TNS %v -> %v), want < 1", r, res.Baseline.TNS, res.Refined.TNS)
	}
}
