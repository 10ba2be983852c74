// Multi-corner sign-off for the sharded engine: every round's verdict
// is taken on the corner matrix — worst-corner WNS and corner-summed
// TNS, lexicographically — plus a hold non-regression veto at the
// minimum-DelayScale corner. With Options.Corners empty the matrix
// collapses to the single typical corner and every comparison below is
// bit-for-bit today's single-corner verdict.
package shard

import (
	"fmt"
	"math"

	"tsteiner/internal/sta"
)

// cornerSet normalizes Options.Corners: empty selects the single
// typical corner (multi=false disables the hold veto so the legacy
// path is untouched); otherwise the corners are validated here, before
// the expensive initial route.
func cornerSet(corners []sta.Corner) ([]sta.Corner, bool, error) {
	if len(corners) == 0 {
		return []sta.Corner{sta.TypicalCorner()}, false, nil
	}
	if err := sta.ValidateCorners(corners); err != nil {
		return nil, false, fmt.Errorf("shard: %w", err)
	}
	return corners, true, nil
}

// primaryCorner picks the corner whose slacks drive candidate selection
// and proposals: the maximum-DelayScale (setup-critical) corner, first
// on ties. Single-corner runs resolve to index 0 — the typical corner.
func primaryCorner(corners []sta.Corner) int {
	best := 0
	for i, c := range corners[1:] {
		if c.DelayScale > corners[best].DelayScale {
			best = i + 1
		}
	}
	return best
}

// holdCornerIdx picks the corner the hold veto reads: minimum
// DelayScale (shortest paths race the clock hardest), first on ties.
func holdCornerIdx(corners []sta.Corner) int {
	best := 0
	for i, c := range corners[1:] {
		if c.DelayScale < corners[best].DelayScale {
			best = i + 1
		}
	}
	return best
}

// matrixSignoff collapses per-corner results into the accept pair:
// worst WNS over corners, TNS summed over corners. One corner yields
// exactly that corner's (WNS, TNS).
func matrixSignoff(rs []*sta.Result) (wns, tns float64) {
	wns = math.Inf(1)
	for _, r := range rs {
		if r.WNS < wns {
			wns = r.WNS
		}
		tns += r.TNS
	}
	return wns, tns
}

// matrixBetter is the lexicographic round verdict on the matrix pair.
// Identical in branch behavior to the single-corner comparison
// (including the NaN-rejects convention) when both slices hold one
// result.
func matrixBetter(next, cur []*sta.Result) bool {
	nw, nt := matrixSignoff(next)
	cw, ct := matrixSignoff(cur)
	if nw != cw {
		return nw > cw
	}
	return nt >= ct
}

// cornerRows summarizes per-corner results for the Result report.
func cornerRows(rs []*sta.Result) []sta.CornerMetrics {
	out := make([]sta.CornerMetrics, len(rs))
	for i, r := range rs {
		out[i] = r.CornerSummary()
	}
	return out
}
