package shard

import (
	"hash/fnv"
	"math"
	"testing"

	"tsteiner/internal/flow"
	"tsteiner/internal/lib"
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

// TestShardDeterminism is the issue's acceptance gate: on a 10× design,
// the refined forest (coordinate hash) and every sign-off metric are
// byte-identical across shard counts {1,2,4} × worker counts {1,4},
// and across the incremental path vs the full-route/full-STA Reference.
func TestShardDeterminism(t *testing.T) {
	factor := 10
	if testing.Short() {
		factor = 3
	}
	p := prepScaled(t, factor)

	ref := testOptions()
	ref.Reference = true
	refRes, err := Refine(p, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := fp(refRes)
	if refRes.Rounds == 0 {
		t.Fatal("refinement executed no rounds; the determinism test is vacuous")
	}

	shardCounts := []int{1, 2, 4}
	workerCounts := []int{1, 4}
	for _, shards := range shardCounts {
		for _, workers := range workerCounts {
			opt := testOptions()
			opt.Shards = shards
			opt.Workers = workers
			got, err := Refine(p, opt)
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
			}
			if g := fp(got); g != want {
				t.Fatalf("shards=%d workers=%d diverged:\n got %+v\nwant %+v", shards, workers, g, want)
			}
			if got.RetimedNets == 0 {
				t.Fatalf("shards=%d workers=%d: incremental path never re-timed a net", shards, workers)
			}
		}
	}
}

// TestShardNeverRegresses: the global accept rule only ever keeps a
// round that holds or improves (WNS, TNS) lexicographically, so the
// final metrics can never be worse than the initial ones.
func TestShardNeverRegresses(t *testing.T) {
	p := prepScaled(t, 2)
	opt := testOptions()
	opt.Rounds = 5
	res, err := Refine(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.WNS < res.InitWNS {
		t.Fatalf("WNS regressed: %v -> %v", res.InitWNS, res.WNS)
	}
	if res.WNS == res.InitWNS && res.TNS < res.InitTNS {
		t.Fatalf("TNS regressed at equal WNS: %v -> %v", res.InitTNS, res.TNS)
	}
	if res.Accepted+res.Rejected != res.Rounds {
		t.Fatalf("round accounting broken: %d+%d != %d", res.Accepted, res.Rejected, res.Rounds)
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
