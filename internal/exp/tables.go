package exp

import (
	"fmt"
	"io"

	"tsteiner/internal/metrics"
	"tsteiner/internal/obs"
	"tsteiner/internal/report"
	"tsteiner/internal/train"
)

// ---------- Table I ----------

// Table1Row is one benchmark's statistics line.
type Table1Row struct {
	Name      string
	Train     bool
	CellNodes int
	Steiner   int
	NetEdges  int // Steiner-tree edges
	CellEdges int
	Endpoints int
}

// Table1Result mirrors the paper's Table I.
type Table1Result struct {
	Rows                  []Table1Row
	TotalTrain, TotalTest Table1Row
}

// Table1 builds benchmark statistics from the prepared designs.
func (s *Suite) Table1() (*Table1Result, error) {
	if err := s.BuildSamples(s.sortedNames()); err != nil {
		return nil, err
	}
	out := &Table1Result{}
	for _, name := range s.sortedNames() {
		smp, err := s.Sample(name)
		if err != nil {
			return nil, err
		}
		ds := smp.Prepared.Design.Stats()
		fs := smp.Prepared.Forest.Stats()
		row := Table1Row{
			Name:      name,
			Train:     smp.Train,
			CellNodes: ds.CellNodes,
			Steiner:   fs.SteinerNodes,
			NetEdges:  fs.TreeEdges,
			CellEdges: ds.CellEdges,
			Endpoints: ds.Endpoints,
		}
		out.Rows = append(out.Rows, row)
		acc := &out.TotalTest
		if row.Train {
			acc = &out.TotalTrain
		}
		acc.CellNodes += row.CellNodes
		acc.Steiner += row.Steiner
		acc.NetEdges += row.NetEdges
		acc.CellEdges += row.CellEdges
		acc.Endpoints += row.Endpoints
	}
	out.TotalTrain.Name = "Total Train"
	out.TotalTest.Name = "Total Test"
	return out, nil
}

// Render writes the table.
func (r *Table1Result) Render(w io.Writer) error {
	t := report.Table{
		Title:  "TABLE I: Benchmark statistics",
		Header: []string{"Benchmark", "Split", "#Cell", "#Steiner", "#NetEdges", "#CellEdges", "#Endpoints"},
	}
	for _, row := range r.Rows {
		split := "test"
		if row.Train {
			split = "train"
		}
		t.AddRow(row.Name, split, report.I(row.CellNodes), report.I(row.Steiner),
			report.I(row.NetEdges), report.I(row.CellEdges), report.I(row.Endpoints))
	}
	for _, tot := range []Table1Row{r.TotalTrain, r.TotalTest} {
		t.AddRow("— "+tot.Name, "", report.I(tot.CellNodes), report.I(tot.Steiner),
			report.I(tot.NetEdges), report.I(tot.CellEdges), report.I(tot.Endpoints))
	}
	return t.Render(w)
}

// ---------- Table II ----------

// FlowMetrics is one side (baseline or TSteiner) of a Table II row.
type FlowMetrics struct {
	WNS, TNS float64
	Vios     int
	WL       int64
	Vias     int
	DRV      int
}

// Table2Row compares the two flows on one design.
type Table2Row struct {
	Name               string
	Baseline, TSteiner FlowMetrics
}

// Table2Result mirrors the paper's Table II with average ratios.
type Table2Result struct {
	Rows []Table2Row
	// AvgRatio holds the TSteiner/baseline mean ratios in the order
	// WNS, TNS, Vios, WL, Vias, DRV (baseline ≡ 1.000).
	AvgRatio [6]float64
}

// Table2 runs baseline vs TSteiner sign-off for every design.
func (s *Suite) Table2() (*Table2Result, error) {
	if err := s.BuildTSRuns(s.sortedNames()); err != nil {
		return nil, err
	}
	out := &Table2Result{}
	var sums [6]float64
	for _, name := range s.sortedNames() {
		smp, err := s.Sample(name)
		if err != nil {
			return nil, err
		}
		_, rep, err := s.TSteiner(name)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Name: name,
			Baseline: FlowMetrics{
				WNS: smp.Baseline.WNS, TNS: smp.Baseline.TNS, Vios: smp.Baseline.Vios,
				WL: smp.Baseline.WirelengthDBU, Vias: smp.Baseline.Vias, DRV: smp.Baseline.DRVs,
			},
			TSteiner: FlowMetrics{
				WNS: rep.WNS, TNS: rep.TNS, Vios: rep.Vios,
				WL: rep.WirelengthDBU, Vias: rep.Vias, DRV: rep.DRVs,
			},
		}
		out.Rows = append(out.Rows, row)
		sums[0] += metrics.Ratio(row.TSteiner.WNS, row.Baseline.WNS)
		sums[1] += metrics.Ratio(row.TSteiner.TNS, row.Baseline.TNS)
		sums[2] += metrics.Ratio(float64(row.TSteiner.Vios), float64(row.Baseline.Vios))
		sums[3] += metrics.Ratio(float64(row.TSteiner.WL), float64(row.Baseline.WL))
		sums[4] += metrics.Ratio(float64(row.TSteiner.Vias), float64(row.Baseline.Vias))
		sums[5] += metrics.Ratio(float64(row.TSteiner.DRV), float64(row.Baseline.DRV))
	}
	n := float64(len(out.Rows))
	for i := range sums {
		out.AvgRatio[i] = sums[i] / n
	}
	return out, nil
}

// Render writes the table.
func (r *Table2Result) Render(w io.Writer) error {
	t := report.Table{
		Title: "TABLE II: Sign-off results, baseline flow vs TSteiner flow",
		Header: []string{"Benchmark",
			"WNS", "TNS", "#Vios", "WL(e3)", "#Vias", "#DRV",
			"WNS'", "TNS'", "#Vios'", "WL'(e3)", "#Vias'", "#DRV'"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			report.F(row.Baseline.WNS, 3), report.F(row.Baseline.TNS, 1), report.I(row.Baseline.Vios),
			report.F(float64(row.Baseline.WL)/1e3, 1), report.I(row.Baseline.Vias), report.I(row.Baseline.DRV),
			report.F(row.TSteiner.WNS, 3), report.F(row.TSteiner.TNS, 1), report.I(row.TSteiner.Vios),
			report.F(float64(row.TSteiner.WL)/1e3, 1), report.I(row.TSteiner.Vias), report.I(row.TSteiner.DRV))
	}
	t.AddRow("— Average", "1.000", "1.000", "1.000", "1.0000", "1.0000", "1.000",
		report.F(r.AvgRatio[0], 3), report.F(r.AvgRatio[1], 3), report.F(r.AvgRatio[2], 3),
		report.F(r.AvgRatio[3], 4), report.F(r.AvgRatio[4], 4), report.F(r.AvgRatio[5], 3))
	return t.Render(w)
}

// ---------- Table III ----------

// Table3Row is one design's prediction scores.
type Table3Row struct {
	Name  string
	Train bool
	train.Scores
}

// Table3Result mirrors the paper's Table III.
type Table3Result struct {
	Rows              []Table3Row
	AvgTrain, AvgTest train.Scores
	NumTrain, NumTest int
}

// Table3 scores the trained evaluator on every design.
func (s *Suite) Table3() (*Table3Result, error) {
	m, err := s.Model()
	if err != nil {
		return nil, err
	}
	out := &Table3Result{}
	for _, name := range s.sortedNames() {
		smp, err := s.Sample(name)
		if err != nil {
			return nil, err
		}
		sc, err := train.Evaluate(m, smp)
		if err != nil {
			return nil, err
		}
		s.cfg.Obs.Event("train.eval",
			obs.KV{K: "design", V: name},
			obs.KV{K: "r2_all", V: sc.ArrivalAll}, obs.KV{K: "r2_ends", V: sc.ArrivalEnds})
		out.Rows = append(out.Rows, Table3Row{Name: name, Train: smp.Train, Scores: sc})
		if smp.Train {
			out.AvgTrain.ArrivalAll += sc.ArrivalAll
			out.AvgTrain.ArrivalEnds += sc.ArrivalEnds
			out.NumTrain++
		} else {
			out.AvgTest.ArrivalAll += sc.ArrivalAll
			out.AvgTest.ArrivalEnds += sc.ArrivalEnds
			out.NumTest++
		}
	}
	if out.NumTrain > 0 {
		out.AvgTrain.ArrivalAll /= float64(out.NumTrain)
		out.AvgTrain.ArrivalEnds /= float64(out.NumTrain)
	}
	if out.NumTest > 0 {
		out.AvgTest.ArrivalAll /= float64(out.NumTest)
		out.AvgTest.ArrivalEnds /= float64(out.NumTest)
	}
	return out, nil
}

// Render writes the table.
func (r *Table3Result) Render(w io.Writer) error {
	t := report.Table{
		Title:  "TABLE III: Sign-off timing prediction R²",
		Header: []string{"Benchmark", "Split", "arrival-all", "arrival-ends"},
	}
	for _, row := range r.Rows {
		split := "test"
		if row.Train {
			split = "train"
		}
		t.AddRow(row.Name, split, report.F(row.ArrivalAll, 4), report.F(row.ArrivalEnds, 4))
	}
	t.AddRow("— Avg. Train", "", report.F(r.AvgTrain.ArrivalAll, 4), report.F(r.AvgTrain.ArrivalEnds, 4))
	t.AddRow("— Avg. Test", "", report.F(r.AvgTest.ArrivalAll, 4), report.F(r.AvgTest.ArrivalEnds, 4))
	return t.Render(w)
}

// ---------- Table IV ----------

// Table4Row is one design's runtime breakdown.
type Table4Row struct {
	Name              string
	BaseTotal, BaseGR float64
	BaseDR            float64
	TSTotal, TSRefine float64
	TSGR, TSDR        float64
}

// Table4Result mirrors the paper's Table IV.
type Table4Result struct {
	Rows []Table4Row
	// Ratio averages: total, GR, DR of the TSteiner flow vs baseline.
	AvgTotalRatio, AvgGRRatio, AvgDRRatio float64
	// Workers is the resolved worker count the runs were measured under
	// (wall clock depends on it; every other table value does not).
	Workers int
}

// Table4 assembles the runtime breakdown from the Table II runs.
func (s *Suite) Table4() (*Table4Result, error) {
	if err := s.BuildTSRuns(s.sortedNames()); err != nil {
		return nil, err
	}
	out := &Table4Result{}
	var sT, sG, sD float64
	for _, name := range s.sortedNames() {
		smp, err := s.Sample(name)
		if err != nil {
			return nil, err
		}
		res, rep, err := s.TSteiner(name)
		if err != nil {
			return nil, err
		}
		out.Workers = rep.Workers
		row := Table4Row{
			Name:      name,
			BaseGR:    smp.Baseline.GRSec,
			BaseDR:    smp.Baseline.DRSec,
			BaseTotal: smp.Baseline.Total(),
			TSRefine:  res.RuntimeSec,
			TSGR:      rep.GRSec,
			TSDR:      rep.DRSec,
			TSTotal:   rep.Total(),
		}
		out.Rows = append(out.Rows, row)
		sT += metrics.Ratio(row.TSTotal, row.BaseTotal)
		sG += metrics.Ratio(row.TSGR, row.BaseGR)
		sD += metrics.Ratio(row.TSDR, row.BaseDR)
	}
	n := float64(len(out.Rows))
	out.AvgTotalRatio = sT / n
	out.AvgGRRatio = sG / n
	out.AvgDRRatio = sD / n
	return out, nil
}

// Render writes the table.
func (r *Table4Result) Render(w io.Writer) error {
	t := report.Table{
		Title: fmt.Sprintf("TABLE IV: Runtime breakdown (s); DR runtime is the surrogate model's; measured at %d worker(s)", r.Workers),
		Header: []string{"Benchmark", "Total", "GR", "DR",
			"Total'", "TSteiner", "GR'", "DR'"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			report.F(row.BaseTotal, 1), report.F(row.BaseGR, 1), report.F(row.BaseDR, 1),
			report.F(row.TSTotal, 1), report.F(row.TSRefine, 1), report.F(row.TSGR, 1), report.F(row.TSDR, 1))
	}
	t.AddRow("— Ratio Avg.", "1.000", "1.000", "1.000",
		report.F(r.AvgTotalRatio, 3), "", report.F(r.AvgGRRatio, 3), report.F(r.AvgDRRatio, 3))
	return t.Render(w)
}
