package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"tsteiner/internal/serve"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a workload or a metric: a letter or
// digit first, then at most 63 more of [A-Za-z0-9_.-].
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 2}, 2},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.in...)
		if got := median(in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", in)
			}
		}
	}
}

func TestPerMinute(t *testing.T) {
	if got := perMinute(6, 30*time.Second); got != 12 {
		t.Errorf("6 jobs in 30s = %v/min, want 12", got)
	}
	if got := perMinute(5, 0); got != 0 {
		t.Errorf("no elapsed time = %v/min, want 0", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(-1.5, -2); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	if got := ratio(-0.5, 0); got != 1 {
		t.Errorf("ratio with a clean baseline = %v, want 1", got)
	}
}

// sampleResult is a refine job result as the runner returns it.
func sampleResult(id string) *serve.JobResult {
	return &serve.JobResult{
		ID: id, Kind: serve.KindRefine, Design: "usb_cdc_core", Seed: 7,
		Baseline:   serve.Metrics{WNS: -1.5, TNS: -238, Vios: 90},
		Refined:    &serve.Metrics{WNS: -1.5, TNS: -238, Vios: 90},
		Iterations: 25,
	}
}

func TestTallyCountsTamperedResultAsFailure(t *testing.T) {
	ref, err := canonResult(sampleResult("reference"))
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{ref: ref}

	// Same result under another ID passes: the ID is not compared.
	out, err := gnnOut(sampleResult("job-1"), 2*time.Second)
	tl.record(out, err)

	tampered := sampleResult("job-2")
	tampered.Refined.TNS = -237.9
	out, err = gnnOut(tampered, time.Second)
	tl.record(out, err)

	tl.record(jobOut{}, errors.New("job ended failed"))

	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2", tl.attempted, tl.failed)
	}
	if len(tl.lat) != 1 || tl.lat[0] != 2 {
		t.Errorf("latencies %v, want only the passing job's 2s", tl.lat)
	}
	if len(tl.errs) != 2 {
		t.Errorf("kept %d error messages, want 2", len(tl.errs))
	}
}

func TestPinnedCheck(t *testing.T) {
	if err := pinUSB.check(pinUSB.WNS, pinUSB.TNS); err != nil {
		t.Errorf("pinned value rejected: %v", err)
	}
	if err := pinUSB.check(pinUSB.WNS, pinUSB.TNS+1e-3); err == nil {
		t.Error("a moved baseline TNS was accepted")
	}
}

func TestNames(t *testing.T) {
	for _, s := range []string{"job-cold", "route.gr_s", "9x", "a_b.c-d"} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, s := range []string{"", "-lead", ".lead", "a b", "a/b", "é", "x{}", string(long)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	seen := map[string]bool{}
	var all []metricSpec
	all = append(all, endToEnd...)
	all = append(all, perLayer...)
	for _, w := range workloads {
		all = append(all, metricSpec{Name: w.name, Unit: "s"})
	}
	for _, m := range all {
		if !validName(m.Name) || !validUnit(m.Unit) {
			t.Errorf("bad name or unit %q %q", m.Name, m.Unit)
		}
		if seen[m.Name] {
			t.Errorf("name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// TestManifestMatches keeps BENCHMARK.json and the tables here in step.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, benchmark %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if e.Name != endToEnd[i].Name || e.Unit != endToEnd[i].Unit {
			t.Errorf("end_to_end %d: %q %q, benchmark %q %q", i, e.Name, e.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if e.Bound <= 0 || e.Bound > 0.25 || math.IsNaN(e.Bound) {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(m.PerLayer), len(perLayer))
	}
	for i, e := range m.PerLayer {
		if e.Name != perLayer[i].Name || e.Unit != perLayer[i].Unit {
			t.Errorf("per_layer %d: %q %q, benchmark %q %q", i, e.Name, e.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}
