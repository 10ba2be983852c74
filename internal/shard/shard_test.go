package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/lib"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
)

// prepScaled generates, places and Steinerizes a factor× spm.
func prepScaled(t testing.TB, factor int) *flow.Prepared {
	t.Helper()
	spec, err := synth.BenchmarkByName("spm")
	if err != nil {
		t.Fatal(err)
	}
	l := lib.Default()
	d, err := synth.GenerateScaled(spec, factor, l)
	if err != nil {
		t.Fatal(err)
	}
	p, err := flow.Prepare(d, l, flow.ScaledConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// coordHash digests every node position of the refined forest (FNV-1a
// over the raw float bits), so two runs agree iff every coordinate is
// byte-identical.
func coordHash(r *Result) uint64 {
	h := fnv.New64a()
	var b [8]byte
	wu := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, tr := range r.Forest.Trees {
		for ni := range tr.Nodes {
			wu(math.Float64bits(tr.Nodes[ni].Pos.X))
			wu(math.Float64bits(tr.Nodes[ni].Pos.Y))
		}
	}
	return h.Sum64()
}

// fingerprint collapses every deterministic Result field into a
// comparable struct.
type fingerprint struct {
	coords           uint64
	wnsBits, tnsBits uint64
	initWNS, initTNS uint64
	vios             int
	wl               int64
	vias, overflow   int
	rounds, acc, rej int
	moved            int
}

func fp(r *Result) fingerprint {
	return fingerprint{
		coords:  coordHash(r),
		wnsBits: math.Float64bits(r.WNS), tnsBits: math.Float64bits(r.TNS),
		initWNS: math.Float64bits(r.InitWNS), initTNS: math.Float64bits(r.InitTNS),
		vios: r.Vios, wl: r.WirelengthDBU, vias: r.Vias, overflow: r.Overflow,
		rounds: r.Rounds, acc: r.Accepted, rej: r.Rejected, moved: r.MovedNets,
	}
}

func testOptions() Options {
	opt := DefaultOptions()
	opt.Rounds = 3
	opt.MaxMovesPerRound = 8
	// Admit every constrained net so the test always has work even when
	// the scaled design closes timing.
	opt.SlackThreshold = math.Inf(1)
	return opt
}

// determinismFactors are the spm scales the determinism gates run: 1×,
// where the Reference accepts a round, so the gates compare an accepted
// candidate state, and 10× (3× under -short), where every round is
// rejected.
func determinismFactors() []int {
	if testing.Short() {
		return []int{1, 3}
	}
	return []int{1, 10}
}

// checkDeterminism refines a factor× spm with the full-route/full-STA
// Reference, then incrementally at shard counts {1,2,4} × worker counts
// {1,4}, and fails unless every run's forest, sign-off metrics and
// corner rows are byte-identical to the Reference's. At 1× the
// Reference must accept a round.
func checkDeterminism(t *testing.T, factor int, corners []sta.Corner) {
	p := prepScaled(t, factor)

	ref := testOptions()
	ref.Reference = true
	ref.Corners = corners
	refRes, err := Refine(p, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := cfp(refRes)
	if refRes.Rounds == 0 {
		t.Fatal("refinement executed no rounds; the determinism test is vacuous")
	}
	if factor == 1 && refRes.Accepted < 1 {
		t.Fatal("the 1x Reference accepted no round; no accepted state is compared")
	}
	if len(refRes.InitCorners) != len(corners) || len(refRes.Corners) != len(corners) {
		t.Fatalf("corner rows missing: init=%d final=%d", len(refRes.InitCorners), len(refRes.Corners))
	}

	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			opt := testOptions()
			opt.Shards = shards
			opt.Workers = workers
			opt.Corners = corners
			got, err := Refine(p, opt)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if g := cfp(got); g != want {
				t.Fatalf("shards=%d workers=%d diverged:\n got %+v\nwant %+v", shards, workers, g, want)
			}
			if got.RetimedNets == 0 {
				t.Fatalf("shards=%d workers=%d: incremental path never re-timed a net", shards, workers)
			}
		}
	}
}

// TestShardDeterminism is the sharded engine's acceptance gate: the
// refined forest (coordinate hash) and every sign-off metric are
// byte-identical across shard counts {1,2,4} × worker counts {1,4},
// and across the incremental path vs the full-route/full-STA Reference.
func TestShardDeterminism(t *testing.T) {
	for _, factor := range determinismFactors() {
		t.Run(fmt.Sprintf("%dx", factor), func(t *testing.T) { checkDeterminism(t, factor, nil) })
	}
}

// TestShardNeverRegresses: the global accept rule only ever keeps a
// round that holds or improves (WNS, TNS) lexicographically, so the
// final metrics can never be worse than the initial ones. The 1×
// fixture accepts rounds; the 2× one rejects them all.
func TestShardNeverRegresses(t *testing.T) {
	for _, factor := range []int{1, 2} {
		p := prepScaled(t, factor)
		opt := testOptions()
		opt.Rounds = 5
		res, err := Refine(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.WNS < res.InitWNS {
			t.Fatalf("%dx: WNS regressed: %v -> %v", factor, res.InitWNS, res.WNS)
		}
		if res.WNS == res.InitWNS && res.TNS < res.InitTNS {
			t.Fatalf("%dx: TNS regressed at equal WNS: %v -> %v", factor, res.InitTNS, res.TNS)
		}
		if res.Accepted+res.Rejected != res.Rounds {
			t.Fatalf("%dx: round accounting broken: %d+%d != %d", factor, res.Accepted, res.Rejected, res.Rounds)
		}
	}
}

// TestShardInputForestUntouched: Refine must clone, not mutate, the
// prepared forest.
func TestShardInputForestUntouched(t *testing.T) {
	p := prepScaled(t, 2)
	before := p.Forest.Clone()
	if _, err := Refine(p, testOptions()); err != nil {
		t.Fatal(err)
	}
	for ti, tr := range p.Forest.Trees {
		for ni := range tr.Nodes {
			if tr.Nodes[ni].Pos != before.Trees[ti].Nodes[ni].Pos {
				t.Fatalf("input forest mutated at tree %d node %d", ti, ni)
			}
		}
	}
}
