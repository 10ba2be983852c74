package shard

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"tsteiner/internal/sta"
)

// cornerFP extends the deterministic fingerprint with the per-corner
// sign-off rows and the hold-veto count.
type cornerFP struct {
	base        fingerprint
	rows        uint64
	holdRejects int
}

func rowsHash(rows []sta.CornerMetrics) uint64 {
	h := fnv.New64a()
	var b [8]byte
	wu := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, r := range rows {
		h.Write([]byte(r.Corner.Name))
		wu(math.Float64bits(r.WNS))
		wu(math.Float64bits(r.TNS))
		wu(uint64(r.Vios))
		wu(math.Float64bits(r.WHS))
		wu(uint64(r.HoldVios))
		wu(uint64(r.SlewVios))
	}
	return h.Sum64()
}

func cfp(r *Result) cornerFP {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []uint64{rowsHash(r.InitCorners), rowsHash(r.Corners)} {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	return cornerFP{base: fp(r), rows: h.Sum64(), holdRejects: r.HoldRejects}
}

// TestShardMultiCornerDeterminism is the multi-corner acceptance gate:
// with the full fast/typical/slow matrix driving the verdict, the
// refined forest and every sign-off row — per corner — are
// byte-identical across shard counts {1,2,4} × worker counts {1,4} and
// across the incremental path vs the full-route/full-STA Reference.
func TestShardMultiCornerDeterminism(t *testing.T) {
	for _, factor := range determinismFactors() {
		t.Run(fmt.Sprintf("%dx", factor), func(t *testing.T) { checkDeterminism(t, factor, sta.DefaultCorners()) })
	}
}

// TestShardMultiCornerNeverRegresses: the matrix verdict only keeps a
// round that holds or improves (worst-corner WNS, corner-summed TNS)
// lexicographically, and the hold veto keeps the min-DelayScale
// corner's hold count from growing. The 1× fixture accepts rounds; the
// 2× one rejects them all.
func TestShardMultiCornerNeverRegresses(t *testing.T) {
	for _, factor := range []int{1, 2} {
		p := prepScaled(t, factor)
		opt := testOptions()
		opt.Rounds = 5
		opt.Corners = sta.DefaultCorners()
		res, err := Refine(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		iw, it := matrixOfRows(res.InitCorners)
		fw, ft := matrixOfRows(res.Corners)
		if fw < iw || (fw == iw && ft < it) {
			t.Fatalf("%dx: matrix metrics regressed: (%g,%g) -> (%g,%g)", factor, iw, it, fw, ft)
		}
		if res.Corners[0].HoldVios > res.InitCorners[0].HoldVios {
			t.Fatalf("%dx: fast-corner hold violations grew: %d -> %d",
				factor, res.InitCorners[0].HoldVios, res.Corners[0].HoldVios)
		}
		if res.Accepted+res.Rejected != res.Rounds {
			t.Fatalf("%dx: round accounting broken: %d+%d != %d", factor, res.Accepted, res.Rejected, res.Rounds)
		}
	}
}

func matrixOfRows(rows []sta.CornerMetrics) (wns, tns float64) {
	wns = math.Inf(1)
	for _, r := range rows {
		if r.WNS < wns {
			wns = r.WNS
		}
		tns += r.TNS
	}
	return wns, tns
}

// TestShardCornerTypicalOnlyMatchesLegacy: a Corners list of exactly
// the typical corner takes the same verdicts as the legacy
// single-corner engine (the matrix collapses and the hold veto can
// only fire on a genuine hold regression), so the refined coordinates
// and headline metrics must agree bit for bit.
func TestShardCornerTypicalOnlyMatchesLegacy(t *testing.T) {
	p := prepScaled(t, 2)
	legacy, err := Refine(p, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Corners = []sta.Corner{sta.TypicalCorner()}
	got, err := Refine(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.HoldRejects != 0 {
		t.Fatalf("typical-only run vetoed %d rounds on hold", got.HoldRejects)
	}
	if g, w := fp(got), fp(legacy); g != w {
		t.Fatalf("typical-only diverged from legacy:\n got %+v\nwant %+v", g, w)
	}
	if len(got.Corners) != 1 || got.Corners[0].Corner.Name != sta.TypicalCorner().Name {
		t.Fatalf("corner rows wrong: %+v", got.Corners)
	}
}

// TestShardCornerValidation: corrupt corner lists fail fast, before any
// routing work.
func TestShardCornerValidation(t *testing.T) {
	p := prepScaled(t, 2)
	bad := [][]sta.Corner{
		{{Name: "", DelayScale: 1, SlewScale: 1, ClockScale: 1}},
		{{Name: "x", DelayScale: 0, SlewScale: 1, ClockScale: 1}},
		{sta.TypicalCorner(), sta.TypicalCorner()},
	}
	for i, cs := range bad {
		opt := testOptions()
		opt.Corners = cs
		if _, err := Refine(p, opt); err == nil {
			t.Fatalf("case %d: corrupt corner list accepted", i)
		}
	}
}
