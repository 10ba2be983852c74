package exp

import (
	"bytes"
	"strings"
	"testing"

	"tsteiner/internal/gnn"
	"tsteiner/internal/tensor"
	"tsteiner/internal/train"
)

// miniSuite builds a fast suite: two small designs, reduced training.
func miniSuite(t *testing.T) *Suite {
	t.Helper()
	cfg := Default()
	cfg.Scale = 1.0
	cfg.Designs = []string{"spm", "usb_cdc_core"} // one train, one test design
	cfg.AugmentVariants = 1
	cfg.RandomTrials = 2
	cfg.LargeDesignTrials = 1
	cfg.Train = train.Options{Epochs: 40, LR: 1e-2, Seed: 1}
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSuiteValidation(t *testing.T) {
	cfg := Default()
	cfg.Scale = 0
	if _, err := NewSuite(cfg); err == nil {
		t.Fatal("zero scale accepted")
	}
	cfg = Default()
	cfg.Designs = []string{"nope"}
	if _, err := NewSuite(cfg); err == nil {
		t.Fatal("unknown design accepted")
	}
	cfg = Default()
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.specs) != 10 {
		t.Fatalf("default suite has %d specs", len(s.specs))
	}
}

func TestSuiteSampleCaching(t *testing.T) {
	s := miniSuite(t)
	a, err := s.Sample("spm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Sample("spm")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("sample not cached")
	}
}

func TestTable1(t *testing.T) {
	s := miniSuite(t)
	r, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	// Training rows come first.
	if !r.Rows[0].Train || r.Rows[1].Train {
		t.Fatal("train/test ordering broken")
	}
	if r.TotalTrain.CellNodes != r.Rows[0].CellNodes {
		t.Fatal("train total mismatch")
	}
	if r.TotalTest.CellNodes != r.Rows[1].CellNodes {
		t.Fatal("test total mismatch")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "spm") || !strings.Contains(buf.String(), "Total Train") {
		t.Fatalf("render missing content:\n%s", buf.String())
	}
}

func TestTables234AndFigures(t *testing.T) {
	// One suite drives every remaining experiment so the expensive
	// model/training work happens once.
	s := miniSuite(t)

	t2, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 2 {
		t.Fatalf("table2 rows=%d", len(t2.Rows))
	}
	for i, ratio := range t2.AvgRatio {
		if ratio <= 0 {
			t.Fatalf("avg ratio %d non-positive: %g", i, ratio)
		}
	}
	// WL should be within a few percent of baseline.
	if t2.AvgRatio[3] < 0.9 || t2.AvgRatio[3] > 1.1 {
		t.Errorf("WL ratio %g implausible", t2.AvgRatio[3])
	}

	t3, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	if t3.NumTrain != 1 || t3.NumTest != 1 {
		t.Fatalf("split %d/%d", t3.NumTrain, t3.NumTest)
	}
	if t3.AvgTrain.ArrivalAll < 0.5 {
		t.Errorf("train R²=%g too low", t3.AvgTrain.ArrivalAll)
	}

	t4, err := s.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 2 {
		t.Fatalf("table4 rows=%d", len(t4.Rows))
	}
	for _, row := range t4.Rows {
		if row.TSTotal < row.TSRefine {
			t.Fatal("total runtime below refinement runtime")
		}
		if row.BaseTotal <= 0 {
			t.Fatal("baseline runtime non-positive")
		}
	}

	f2, err := s.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.All) != 4 { // 2 designs × 2 trials
		t.Fatalf("figure2 trials=%d", len(f2.All))
	}
	total := 0
	for _, c := range f2.Counts {
		total += c
	}
	if total != len(f2.All) {
		t.Fatal("histogram loses trials")
	}

	f5, err := s.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(f5.Rows) != 2 {
		t.Fatalf("figure5 rows=%d", len(f5.Rows))
	}
	for _, row := range f5.Rows {
		if row.TSteinerTNS <= 0 || row.RandomTNS <= 0 {
			t.Fatalf("non-positive ratios in %+v", row)
		}
	}

	// Rendering smoke tests.
	var buf bytes.Buffer
	for _, r := range []interface{ Render(w *bytes.Buffer) error }{} {
		_ = r
	}
	if err := t2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := t3.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := t4.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f2.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f5.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"TABLE II", "TABLE III", "TABLE IV", "FIGURE 2", "FIGURE 5", "Average"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

func TestConsistencyStudy(t *testing.T) {
	s := miniSuite(t)
	r, err := s.Consistency([]string{"spm"}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0].Trials != 3 {
		t.Fatalf("rows=%+v", r.Rows)
	}
	if r.Rows[0].PearsonTNS < -1 || r.Rows[0].PearsonTNS > 1 {
		t.Fatalf("correlation %g out of range", r.Rows[0].PearsonTNS)
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Pearson") {
		t.Fatal("render broken")
	}
}

func TestPDComparison(t *testing.T) {
	s := miniSuite(t)
	r, err := s.PDComparison([]string{"spm"}, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	// rsmt + 2 alphas + tsteiner + pd+tsteiner = 5 rows.
	if len(r.Rows) != 5 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	labels := map[string]bool{}
	for _, row := range r.Rows {
		labels[row.Label] = true
		if row.WL <= 0 {
			t.Fatalf("row %+v has no wirelength", row)
		}
	}
	for _, want := range []string{"rsmt (baseline)", "pd α=0.30", "pd α=0.70", "tsteiner", "pd α=0.30 + tsteiner"} {
		if !labels[want] {
			t.Fatalf("missing label %q in %v", want, labels)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTimingDrivenRouteStudy(t *testing.T) {
	s := miniSuite(t)
	r, err := s.TimingDrivenRoute([]string{"spm", "usb_cdc_core"})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.TDWL <= 0 || row.BaseWL <= 0 {
			t.Fatalf("missing wirelength in %+v", row)
		}
		ratio := float64(row.TDWL) / float64(row.BaseWL)
		if ratio < 0.8 || ratio > 1.2 {
			t.Fatalf("ordering changed WL implausibly: %g", ratio)
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "timing-driven") {
		t.Fatal("render broken")
	}
}

func TestSteinerAwareness(t *testing.T) {
	s := miniSuite(t)
	r, err := s.SteinerAwareness()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		for _, v := range []float64{row.FullAll, row.BlindAll} {
			if v > 1.000001 {
				t.Fatalf("R² above 1 in %+v", row)
			}
		}
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "blind-all") {
		t.Fatal("render broken")
	}
}

func TestNetlistOnlyModelIsPositionBlind(t *testing.T) {
	// The blind variant's predictions must not respond to Steiner moves.
	s := miniSuite(t)
	smp, err := s.Sample("spm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnn.DefaultConfig()
	cfg.MPIters = 0
	cfg.NoSteinerFeatures = true
	m := gnn.NewModel(cfg, 3)
	pred := func(fx float64) float64 {
		f := smp.Prepared.Forest.Clone()
		xs, ys, idx := f.SteinerPositions()
		for i := range xs {
			xs[i] += fx
		}
		if err := f.SetSteinerPositions(xs, ys, idx, smp.Prepared.Design.Die); err != nil {
			t.Fatal(err)
		}
		tp := tensor.NewTape()
		x, y, err := smp.Batch.SteinerLeaves(tp, f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.Forward(tp, smp.Batch, x, y, false)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range p.EndpointArrival.Data {
			sum += v
		}
		return sum
	}
	if a, b := pred(0), pred(9); a != b {
		t.Fatalf("blind model responded to Steiner movement: %g vs %g", a, b)
	}
}

func TestAblations(t *testing.T) {
	s := miniSuite(t)
	r, err := s.Ablations([]string{"spm"})
	if err != nil {
		t.Fatal(err)
	}
	wantVariants := len(ablationVariants())
	if len(r.Rows) != wantVariants {
		t.Fatalf("ablation rows=%d want %d", len(r.Rows), wantVariants)
	}
	seen := map[string]bool{}
	for _, row := range r.Rows {
		seen[row.Variant] = true
		if row.Iterations <= 0 {
			t.Fatalf("variant %s ran no iterations", row.Variant)
		}
	}
	if !seen["paper"] || !seen["fixed-theta"] {
		t.Fatal("missing expected variants")
	}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ABLATIONS") {
		t.Fatal("ablation render broken")
	}
}
