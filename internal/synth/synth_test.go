package synth

import (
	"testing"

	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
)

func TestBenchmarksTable(t *testing.T) {
	specs := Benchmarks()
	if len(specs) != 10 {
		t.Fatalf("want 10 benchmarks, got %d", len(specs))
	}
	train, test := 0, 0
	names := map[string]bool{}
	for _, s := range specs {
		if names[s.Name] {
			t.Errorf("duplicate benchmark %q", s.Name)
		}
		names[s.Name] = true
		if s.Train {
			train++
		} else {
			test++
		}
	}
	if train != 6 || test != 4 {
		t.Fatalf("split %d/%d want 6/4", train, test)
	}
	// Spot-check Table I cell counts.
	for _, c := range []struct {
		name  string
		cells int
		ends  int
	}{
		{"spm", 238, 129},
		{"jpeg_encoder", 55264, 4420},
		{"des3", 47410, 8872},
	} {
		s, err := BenchmarkByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Cells != c.cells || s.Endpoints != c.ends {
			t.Errorf("%s: cells=%d ends=%d want %d/%d", c.name, s.Cells, s.Endpoints, c.cells, c.ends)
		}
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestGenerateSmall(t *testing.T) {
	l := lib.Default()
	spec, err := BenchmarkByName("spm")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(spec, l)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	st := d.Stats()
	if ratioOff(st.CellNodes, spec.Cells) > 0.05 {
		t.Errorf("cell count %d far from target %d", st.CellNodes, spec.Cells)
	}
	if ratioOff(st.Endpoints, spec.Endpoints) > 0.25 {
		t.Errorf("endpoint count %d far from target %d", st.Endpoints, spec.Endpoints)
	}
}

func ratioOff(got, want int) float64 {
	r := float64(got)/float64(want) - 1
	if r < 0 {
		r = -r
	}
	return r
}

func TestGenerateDeterministic(t *testing.T) {
	l := lib.Default()
	spec, _ := BenchmarkByName("cic_decimator")
	a, err := Generate(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != len(b.Cells) || len(a.Nets) != len(b.Nets) || len(a.Pins) != len(b.Pins) {
		t.Fatal("generation not deterministic in sizes")
	}
	for i := range a.Nets {
		if a.Nets[i].Driver != b.Nets[i].Driver || len(a.Nets[i].Sinks) != len(b.Nets[i].Sinks) {
			t.Fatalf("net %d differs between runs", i)
		}
	}
}

func TestGenerateScaled(t *testing.T) {
	l := lib.Default()
	for _, spec := range Benchmarks() {
		small := spec.Scale(0.02)
		d, err := Generate(small, l)
		if err != nil {
			t.Fatalf("%s scaled: %v", spec.Name, err)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%s scaled validate: %v", spec.Name, err)
		}
		st := d.Stats()
		if st.Endpoints == 0 || st.NetEdges == 0 {
			t.Fatalf("%s scaled produced empty design: %+v", spec.Name, st)
		}
	}
}

func TestScaleFloors(t *testing.T) {
	s := Spec{Cells: 100, Endpoints: 10, PIs: 4, Depth: 8}
	tiny := s.Scale(0.0001)
	if tiny.Cells < 40 || tiny.Endpoints < 8 || tiny.PIs < 4 {
		t.Fatalf("Scale must floor: %+v", tiny)
	}
}

func TestFanoutDistributionHasTail(t *testing.T) {
	l := lib.Default()
	spec, _ := BenchmarkByName("APU")
	d, err := Generate(spec.Scale(0.5), l)
	if err != nil {
		t.Fatal(err)
	}
	max := 0
	total := 0
	for i := range d.Nets {
		f := len(d.Nets[i].Sinks)
		total += f
		if f > max {
			max = f
		}
	}
	avg := float64(total) / float64(len(d.Nets))
	if avg < 1.0 || avg > 4.0 {
		t.Errorf("average fanout %.2f outside realistic band", avg)
	}
	if max < 10 {
		t.Errorf("no high-fanout nets (max=%d); hub mechanism broken", max)
	}
}

func TestMultiPinNetsExist(t *testing.T) {
	// Steiner construction is only interesting with 3+ pin nets.
	l := lib.Default()
	spec, _ := BenchmarkByName("des")
	d, err := Generate(spec.Scale(0.1), l)
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for i := range d.Nets {
		if d.Nets[i].NumPins() >= 3 {
			multi++
		}
	}
	if multi < len(d.Nets)/20 {
		t.Errorf("only %d of %d nets are multi-pin", multi, len(d.Nets))
	}
}

func TestLogicDepthCapped(t *testing.T) {
	// Combinational depth (cells per path) must respect spec.Depth
	// regardless of design size — the property that keeps arrival times
	// size-independent.
	l := lib.Default()
	for _, name := range []string{"spm", "APU", "usb_cdc_core"} {
		spec, err := BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Generate(spec, l)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Graph()
		// Depth in cell stages: count cell-arc traversals.
		depth := make(map[netlist.PinID]int)
		maxDepth := 0
		for _, pid := range g.Order() {
			p := d.Pin(pid)
			dv := 0
			for _, pred := range g.Fanin(pid) {
				cand := depth[pred]
				// Crossing a cell arc (input→output of same cell) adds one
				// stage.
				if !p.IsPort && p.Dir == netlist.Output && d.Pin(pred).Cell == p.Cell {
					cand++
				}
				if cand > dv {
					dv = cand
				}
			}
			depth[pid] = dv
			if dv > maxDepth {
				maxDepth = dv
			}
		}
		if maxDepth > spec.Depth+1 {
			t.Errorf("%s: logic depth %d exceeds cap %d", name, maxDepth, spec.Depth)
		}
	}
}

func TestDegenerateSpecRejected(t *testing.T) {
	l := lib.Default()
	if _, err := Generate(Spec{Cells: 1, Endpoints: 1, PIs: 0}, l); err == nil {
		t.Fatal("degenerate spec accepted")
	}
}

func TestGenerateMesh(t *testing.T) {
	l := lib.Default()
	spec := DefaultMesh()
	d, err := GenerateMesh(spec, l)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8×8 PEs × 6 cells each.
	if want := spec.Rows * spec.Cols * 6; len(d.Cells) != want {
		t.Fatalf("cells=%d want %d", len(d.Cells), want)
	}
	// Endpoints: one D pin per PE plus the south POs.
	if want := spec.Rows*spec.Cols + spec.Cols; len(d.Endpoints()) != want {
		t.Fatalf("endpoints=%d want %d", len(d.Endpoints()), want)
	}
	if d.ClockPeriod != spec.ClockNS {
		t.Fatalf("clock %g want %g", d.ClockPeriod, spec.ClockNS)
	}
	// Degenerate specs rejected.
	if _, err := GenerateMesh(MeshSpec{Rows: 0, Cols: 3}, l); err == nil {
		t.Fatal("degenerate mesh accepted")
	}
}

func TestMeshThroughFullFlowViaSTA(t *testing.T) {
	// The mesh family must survive the whole substrate pipeline.
	l := lib.Default()
	d, err := GenerateMesh(MeshSpec{Name: "mesh4x4", Rows: 4, Cols: 4, ClockNS: 0.55}, l)
	if err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.CellNodes == 0 || st.Endpoints == 0 {
		t.Fatalf("empty mesh stats: %+v", st)
	}
	// Every PE-to-PE net is register-bounded: the startpoint count is
	// PIs + registers.
	wantStarts := len(d.PIs) + 16
	if got := len(d.Startpoints()); got != wantStarts {
		t.Fatalf("startpoints=%d want %d", got, wantStarts)
	}
}

func TestEndpointsMatchStats(t *testing.T) {
	l := lib.Default()
	spec, _ := BenchmarkByName("usb_cdc_core")
	d, err := Generate(spec.Scale(0.2), l)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(d.Endpoints()), d.Stats().Endpoints; got != want {
		t.Fatalf("Endpoints()=%d Stats=%d", got, want)
	}
	// Every endpoint must be reachable: connected to some net.
	for _, e := range d.Endpoints() {
		if d.Pin(e).Net == netlist.NoID {
			t.Errorf("endpoint %q unconnected", d.Pin(e).Name)
		}
	}
}
