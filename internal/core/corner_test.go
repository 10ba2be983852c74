package core

import (
	"math"
	"testing"

	"tsteiner/internal/guard/fault"
	"tsteiner/internal/sta"
)

// TestMatrixMetrics pins the matrix accept pair against hand
// computations: worst-corner WNS and corner-summed TNS under the affine
// corner-slack transform. The typical-only rows are the single-corner
// metrics every refiner without Corners compares: plain (WNS, TNS).
func TestMatrixMetrics(t *testing.T) {
	typical := []CornerTerm{{Corner: sta.TypicalCorner(), Lambda: 1}}
	twoCorners := []CornerTerm{
		{Corner: sta.TypicalCorner(), Lambda: 1},
		{Corner: sta.Corner{Name: "slow2x", DelayScale: 2, SlewScale: 1, ClockScale: 1}, Lambda: 1},
	}
	for _, tc := range []struct {
		name     string
		slack    []float64
		terms    []CornerTerm
		wns, tns float64
	}{
		// typical: slacks (-0.5, 0.25) → wns −0.5, tns −0.5.
		// slow2x: s_c = 2s − T → (−2, −0.5) → wns −2, tns −2.5.
		{"two_corners", []float64{-0.5, 0.25}, twoCorners, -2, -3},
		{"typical_only", []float64{-1, 2, -3, 0.5}, typical, -3, -4},
		{"typical_only_positive", []float64{1, 2}, typical, 1, 0},
		// Degenerate shapes report (0, 0).
		{"typical_only_empty_slack", nil, typical, 0, 0},
		{"empty_slack", nil, twoCorners, 0, 0},
		{"empty_terms", []float64{-0.5, 0.25}, nil, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if w, tn := matrixMetrics(tc.slack, tc.terms, 1.0); w != tc.wns || tn != tc.tns {
				t.Fatalf("matrixMetrics=(%g,%g), want (%g,%g)", w, tn, tc.wns, tc.tns)
			}
		})
	}
}

// TestCornerTermsValidation: NewRefiner must reject corrupt matrix
// configurations (bad corner, duplicate names, non-finite weights).
func TestCornerTermsValidation(t *testing.T) {
	r, _ := fixture(t)
	bad := [][]CornerTerm{
		{{Corner: sta.Corner{Name: "", DelayScale: 1, SlewScale: 1, ClockScale: 1}, Lambda: 1}},
		{{Corner: sta.TypicalCorner(), Lambda: 1}, {Corner: sta.TypicalCorner(), Lambda: 1}},
		{{Corner: sta.TypicalCorner(), Lambda: math.NaN()}},
		{{Corner: sta.TypicalCorner(), Lambda: -1}},
	}
	for i, terms := range bad {
		opt := DefaultOptions()
		opt.Corners = terms
		if _, err := NewRefiner(r.Model, r.Batch, r.Prep, opt); err == nil {
			t.Fatalf("case %d: corrupt corner terms accepted", i)
		}
	}
}

// TestRefineCornerTypicalOnlyByteIdentical: a matrix of exactly the
// unit-weight typical corner must reproduce the single-corner
// refinement byte for byte — the backward-compatibility pin for the
// core layer.
func TestRefineCornerTypicalOnlyByteIdentical(t *testing.T) {
	r, _ := fixture(t)
	clean, err := refinerWith(t, r, guardOptions()).Refine()
	if err != nil {
		t.Fatal(err)
	}
	copt := guardOptions()
	copt.Corners = []CornerTerm{{Corner: sta.TypicalCorner(), Lambda: 1.0}}
	cornered, err := refinerWith(t, r, copt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, clean, cornered, "typical-matrix-vs-single")
}

// TestCornerPenaltyScalesExactly: with one typical term of weight 2
// the matrix penalty is Scale(P, 2) — exact in IEEE-754 — so Penalty()
// must return exactly twice the single-corner value.
func TestCornerPenaltyScalesExactly(t *testing.T) {
	r, _ := fixture(t)
	base, err := refinerWith(t, r, DefaultOptions()).Penalty(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	opt.Corners = []CornerTerm{{Corner: sta.TypicalCorner(), Lambda: 2.0}}
	doubled, err := refinerWith(t, r, opt).Penalty(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if doubled != 2*base {
		t.Fatalf("matrix penalty %v != 2×single %v", doubled, 2*base)
	}
}

// TestRefineMultiCornerRuns: the full three-corner matrix refines
// without error, keeps finite matrix metrics, and never regresses the
// matrix WNS/TNS pair (the accept rule is lexicographic on it).
func TestRefineMultiCornerRuns(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	opt.Corners = DefaultCornerTerms()
	res, err := refinerWith(t, r, opt).Refine()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations ran")
	}
	for _, v := range []float64{res.InitWNS, res.InitTNS, res.BestWNS, res.BestTNS} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite matrix metric in %+v", res)
		}
	}
	if res.BestWNS < res.InitWNS || (res.BestWNS == res.InitWNS && res.BestTNS < res.InitTNS) {
		t.Fatalf("matrix metrics regressed: (%g,%g) -> (%g,%g)",
			res.InitWNS, res.InitTNS, res.BestWNS, res.BestTNS)
	}
}

// TestHoldCornerSelection: the guard checks the minimum-DelayScale
// corner, which is the typical corner for a refiner without Corners.
func TestHoldCornerSelection(t *testing.T) {
	r, _ := fixture(t)
	if c := r.holdCorner(); c != sta.TypicalCorner() {
		t.Fatalf("single-corner hold corner %+v, want the typical corner", c)
	}
	opt := DefaultOptions()
	opt.Corners = []CornerTerm{
		{Corner: sta.SlowCorner(), Lambda: 1},
		{Corner: sta.Corner{Name: "ff", DelayScale: 0.7, SlewScale: 0.8, ClockScale: 1}, Lambda: 1},
		{Corner: sta.TypicalCorner(), Lambda: 1},
	}
	r2 := refinerWith(t, r, opt)
	if c := r2.holdCorner(); c.Name != "ff" {
		t.Fatalf("hold corner %q, want the minimum-DelayScale corner ff", c.Name)
	}
}

// TestRefineHoldGuardNeverWorsensHold is the co-optimization contract:
// with the guard on, the kept solution can never have more fast-corner
// hold violations than the starting forest.
func TestRefineHoldGuardNeverWorsensHold(t *testing.T) {
	r, _ := fixture(t)
	opt := guardOptions()
	opt.Corners = DefaultCornerTerms()
	opt.HoldGuard = true
	rg := refinerWith(t, r, opt)
	base, err := rg.holdVios(r.Prep.Forest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rg.Refine()
	if err != nil {
		t.Fatal(err)
	}
	final, err := rg.holdVios(res.Forest)
	if err != nil {
		t.Fatal(err)
	}
	if final > base {
		t.Fatalf("hold guard let violations rise: %d -> %d", base, final)
	}
}

// TestRefineMultiCornerNaNDegradesToBest extends the seeded fault
// matrix with the multi-corner case: persistent NaN injected into one
// corner's derated slack must exhaust the recovery budget and degrade
// that refinement to exactly the clean prefix's best-so-far — without
// poisoning the other corners' view of the kept solution.
func TestRefineMultiCornerNaNDegradesToBest(t *testing.T) {
	r, _ := fixture(t)
	const k = 3
	copt := guardOptions()
	copt.N = k
	copt.Corners = DefaultCornerTerms()
	clean, err := refinerWith(t, r, copt).Refine()
	if err != nil {
		t.Fatal(err)
	}

	fopt := guardOptions()
	fopt.Corners = DefaultCornerTerms()
	fopt.MaxRecoveries = 2
	inj := fault.New(7)
	// The site fires once per gradient build: two adaptive-θ probes,
	// then one per iteration — occurrence k+3 is iteration k's gradient.
	inj.ArmFrom("core.corner.nan", k+3)
	fopt.Fault = inj
	faulty, err := refinerWith(t, r, fopt).Refine()
	if err != nil {
		t.Fatalf("persistent corner fault surfaced as error: %v", err)
	}
	if !faulty.Degraded {
		t.Fatal("exhausted recoveries did not set Degraded")
	}
	sameResult(t, clean, faulty, "corner-degraded-equals-clean-prefix")

	// The kept solution stays finite at every corner of the matrix.
	for _, ct := range DefaultCornerTerms() {
		sopt := guardOptions()
		sopt.Corners = []CornerTerm{ct}
		rv := refinerWith(t, r, sopt)
		wns, tns, err := rv.evalMetrics(faulty.Forest)
		if err != nil {
			t.Fatal(err)
		}
		if !finite(wns) || !finite(tns) {
			t.Fatalf("corner %q poisoned: metrics (%g,%g)", ct.Corner.Name, wns, tns)
		}
	}
}
