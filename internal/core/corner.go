// Multi-corner sign-off for the refinement loop: the matrix penalty
// P = Σ_c λ_c·P_γ(slack_c) over corner-derated slack vectors, the
// matrix accept metrics (worst-corner WNS, corner-summed TNS), and the
// hold-guard veto that rejects setup moves creating hold violations.
//
// The evaluator predicts typical-corner endpoint slacks; each corner's
// slack vector is the affine rescaling sta.Corner.CornerSlack derives
// from the uniform derating (setup terms cancel exactly, slew coupling
// is first-order), so the whole matrix costs two extra tensor ops per
// corner and stays differentiable end to end. NewRefiner turns empty
// Options.Corners into the unit-weight typical corner, whose derating
// and weighting are multiplications by exactly 1.0 — the IEEE-754
// identity — so the single-corner algorithm is this same code, bit for
// bit (TestRefineCornerTypicalOnlyByteIdentical pins it).
package core

import (
	"fmt"
	"math"

	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/tensor"
)

// CornerTerm weighs one corner's smoothed penalty in the matrix
// penalty P = Σ_c λ_c·P_γ(slack_c).
type CornerTerm struct {
	Corner sta.Corner
	Lambda float64
}

// CornerTermsFor wraps plain corners as equally-weighted matrix terms
// — the cmd/serve layers' bridge from a -corners flag to refiner
// options.
func CornerTermsFor(corners []sta.Corner) []CornerTerm {
	out := make([]CornerTerm, len(corners))
	for i, c := range corners {
		out[i] = CornerTerm{Corner: c, Lambda: 1.0}
	}
	return out
}

// validateCornerTerms rejects terms that would corrupt the penalty:
// corners sta.ValidateCorners rejects, non-finite or negative weights.
func validateCornerTerms(terms []CornerTerm) error {
	corners := make([]sta.Corner, len(terms))
	for i, ct := range terms {
		corners[i] = ct.Corner
		if math.IsNaN(ct.Lambda) || math.IsInf(ct.Lambda, 0) || ct.Lambda < 0 {
			return fmt.Errorf("core: corner %q weight %v not finite and non-negative", ct.Corner.Name, ct.Lambda)
		}
	}
	return sta.ValidateCorners(corners)
}

// penaltyMatrixOn builds Σ_c λ_c·P_γ(slack_c) on the tape, each
// corner's slack derived from the predicted typical slack by the affine
// transform (Scale + AddScalar are lane-transparent, so the batched
// candidate path keeps its per-lane bit-identity; the typical corner
// skips them). The "core.corner.nan" fault site poisons the first
// corner's derated slack — and only that corner's — for the
// fault-matrix tests.
func (r *Refiner) penaltyMatrixOn(tp *tensor.Tape, slack *tensor.Tensor, lw, lt float64) (*tensor.Tensor, error) {
	clockPeriod := r.Prep.Design.ClockPeriod
	var total *tensor.Tensor
	for ci, ct := range r.Opt.Corners {
		cs := slack
		var err error
		if !ct.Corner.IsTypical() {
			if cs, err = tp.Scale(slack, ct.Corner.DelayScale); err != nil {
				return nil, err
			}
			if cs, err = tp.AddScalar(cs, (ct.Corner.ClockScale-ct.Corner.DelayScale)*clockPeriod); err != nil {
				return nil, err
			}
		}
		if ci == 0 && r.Opt.Fault.Fire("core.corner.nan") {
			if cs, err = tp.AddScalar(cs, math.NaN()); err != nil {
				return nil, err
			}
		}
		p, err := r.penaltyOn(tp, cs, lw, lt)
		if err != nil {
			return nil, err
		}
		term, err := tp.Scale(p, ct.Lambda)
		if err != nil {
			return nil, err
		}
		if total == nil {
			total = term
		} else if total, err = tp.Add(total, term); err != nil {
			return nil, err
		}
	}
	return total, nil
}

// metricsFromSlack produces the hard metrics Algorithm 1's accept rule
// compares: the matrix pair — worst-corner WNS and corner-summed TNS —
// so the lexicographic accept optimizes the whole matrix at once. For
// the lone typical corner this is plain (WNS, TNS).
func (r *Refiner) metricsFromSlack(slack []float64) (wns, tns float64) {
	return matrixMetrics(slack, r.Opt.Corners, r.Prep.Design.ClockPeriod)
}

// matrixMetrics evaluates the matrix accept pair from a typical-corner
// slack vector via the per-corner affine transform.
func matrixMetrics(slack []float64, terms []CornerTerm, clockPeriod float64) (wns, tns float64) {
	wns = math.Inf(1)
	for _, ct := range terms {
		cw := math.Inf(1)
		for _, s := range slack {
			sc := ct.Corner.CornerSlack(s, clockPeriod)
			if sc < cw {
				cw = sc
			}
			if sc < 0 {
				tns += sc
			}
		}
		if len(slack) == 0 {
			cw = 0
		}
		if cw < wns {
			wns = cw
		}
	}
	if len(terms) == 0 {
		wns = 0
	}
	return wns, tns
}

// holdCorner is the corner the hold guard checks: hold violations are
// worst where delays are shortest, so it picks the minimum-DelayScale
// configured corner (first on ties) — the typical corner when Corners
// was left empty.
func (r *Refiner) holdCorner() sta.Corner {
	best := r.Opt.Corners[0].Corner
	for _, ct := range r.Opt.Corners[1:] {
		if ct.Corner.DelayScale < best.DelayScale {
			best = ct.Corner
		}
	}
	return best
}

// holdVios counts hold violations of a forest under the hold corner
// using tree-geometry (pre-routing) parasitics — the same cheap
// extraction the evaluator's training labels come from, so the guard
// costs one STA, not a routing pass. Positions are rounded the way
// flow.Signoff rounds them before extraction.
func (r *Refiner) holdVios(f *rsmt.Forest) (int, error) {
	rounded := f.Clone()
	rounded.RoundPositions()
	rcs, err := rc.ExtractFromTrees(r.Prep.Design, rounded, r.Prep.Lib)
	if err != nil {
		return 0, err
	}
	T, err := sta.RunCorner(r.Prep.Design, rcs, r.holdCorner())
	if err != nil {
		return 0, err
	}
	return T.HoldVios, nil
}
