package tsteiner

// BenchmarkParallelSpeedup measures the wall-clock effect of the parallel
// execution layer (internal/par) on the two hottest fan-out loops — the
// Fig. 2 random-trial sign-off loop and the per-design baseline sample
// build — at 1 vs 4 workers, and records the result in BENCH_parallel.json
// next to the recorded experiment outputs. The outputs of both loops are
// byte-identical at every worker count (asserted by TestParallelDeterminism
// in internal/exp); only the wall clock changes, and only when the host
// actually has more than one CPU.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"tsteiner/internal/flow"
	"tsteiner/internal/par"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/train"
)

type parallelBenchEntry struct {
	Name        string  `json:"name"`
	Workers1Sec float64 `json:"workers1Sec"`
	Workers4Sec float64 `json:"workers4Sec"`
	Speedup     float64 `json:"speedup"`
}

type parallelBenchFile struct {
	Recorded   string               `json:"recorded"`
	NumCPU     int                  `json:"numCPU"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Note       string               `json:"note"`
	Entries    []parallelBenchEntry `json:"entries"`
}

// timeWorkload runs fn once per worker count and returns the two timings.
func timeWorkload(b *testing.B, fn func(workers int) error) (w1, w4 float64) {
	b.Helper()
	for _, w := range []int{1, 4} {
		t0 := time.Now()
		if err := fn(w); err != nil {
			b.Fatal(err)
		}
		sec := time.Since(t0).Seconds()
		if w == 1 {
			w1 = sec
		} else {
			w4 = sec
		}
	}
	return w1, w4
}

func BenchmarkParallelSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := parallelBenchFile{
			Recorded:   time.Now().UTC().Format(time.RFC3339),
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Note: "workloads are byte-identical at every worker count; " +
				"speedup requires numCPU > 1 — on a single-CPU host the " +
				"4-worker timing only measures scheduling overhead",
		}

		// Fig. 2 trial loop: k pre-perturbed forests (drawn serially from
		// one seeded stream, like exp.(*Suite).RandomMoves), sign-off per
		// forest fanned out across workers.
		prep, err := flow.PrepareBenchmark("spm", 0.5, flow.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		const trials = 8
		rng := rand.New(rand.NewSource(2023))
		forests := make([]*rsmt.Forest, trials)
		for k := range forests {
			f := prep.Forest.Clone()
			rsmt.Perturb(f, rng, 10, prep.Design.Die)
			forests[k] = f
		}
		w1, w4 := timeWorkload(b, func(workers int) error {
			_, err := par.Map(workers, forests, func(_ int, f *rsmt.Forest) (*flow.Report, error) {
				return flow.Signoff(prep, f)
			})
			return err
		})
		out.Entries = append(out.Entries, parallelBenchEntry{
			Name: "fig2-trial-loop/spm@0.5x8", Workers1Sec: w1, Workers4Sec: w4, Speedup: w1 / w4,
		})
		b.ReportMetric(w1/w4, "fig2Speedup4w")

		// Suite build: per-design baseline flows fanned out across workers
		// (the loop behind exp.(*Suite).BuildSamples).
		designs := []string{"spm", "cic_decimator", "usb_cdc_core", "APU"}
		w1, w4 = timeWorkload(b, func(workers int) error {
			cfg := flow.DefaultConfig()
			cfg.Workers = workers
			_, err := par.Map(workers, designs, func(_ int, name string) (*train.Sample, error) {
				return train.BuildSample(name, benchScale, true, cfg)
			})
			return err
		})
		out.Entries = append(out.Entries, parallelBenchEntry{
			Name:        fmt.Sprintf("suite-sample-build/%dx@%.2g", len(designs), benchScale),
			Workers1Sec: w1, Workers4Sec: w4, Speedup: w1 / w4,
		})
		b.ReportMetric(w1/w4, "suiteSpeedup4w")

		// RSMT construction: per-net tree build fan-out.
		w1, w4 = timeWorkload(b, func(workers int) error {
			opt := rsmt.DefaultOptions()
			opt.Workers = workers
			_, err := rsmt.BuildAll(prep.Design, opt)
			return err
		})
		out.Entries = append(out.Entries, parallelBenchEntry{
			Name: "rsmt-buildall/spm@0.5", Workers1Sec: w1, Workers4Sec: w4, Speedup: w1 / w4,
		})

		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile("BENCH_parallel.json", append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
