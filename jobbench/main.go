// Command jobbench is the repository's end-to-end benchmark. It runs one
// workload of tsteiner jobs through the public entry points for a fixed
// time, checks every job's result against a reference computed in
// set-up, and prints the metrics as one JSON object on the last line of
// standard output:
//
//	jobbench --workload job-cold|job-warm|shard-100x --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// also replays one job as a sequence of traced calls into each layer and
// reports the per-layer metrics instead; the spans are written to
// .bench_build/spans-<workload>-<seed>.ndjson. See BENCHMARK.json at the
// repository root for the metric list and jobbench/NOTES.md for what
// each workload exercises.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"tsteiner/internal/obs"
)

// outDir holds everything a run writes, relative to the repository root.
const outDir = ".bench_build"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: job-cold, job-warm or shard-100x")
		seed    = flag.Int64("seed", 1, "workload seed, sent as JobRequest.Seed")
		seconds = flag.Int("seconds", 20, "measured wall seconds (jobs started before the end run to completion)")
		trace   = flag.Int("trace", 0, "1 = also replay one traced job and report per-layer metrics")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = fmt.Errorf("--seconds must be positive and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(2)
	}
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jobbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up setupReps times (keeping the last set-up),
// computes the reference, runs the timed closed loop and, with traced,
// the replay.
func run(w *workload, seed int64, window time.Duration, traced bool) (*report, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-"+w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c := &runCtx{seed: seed, dir: dir, sink: obs.New(nil)}

	var (
		e      *env
		setups []float64
	)
	for i := 0; i < w.setupReps; i++ {
		if e != nil {
			e.close()
		}
		// Each set-up starts from a collected heap, so the garbage of the
		// previous one is not charged to it.
		runtime.GC()
		t0 := time.Now()
		if e, err = w.setup(c); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	logf("%s seed %d: set-up %.3fs (median of %d)", w.name, seed, median(setups), len(setups))

	ref, err := w.reference(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	t := &tally{ref: ref}
	runtime.GC()
	hits0, misses0 := cacheCounts(c.sink)
	cpu0 := cpuTime()
	start := time.Now()
	var (
		wg      sync.WaitGroup
		lastMu  sync.Mutex
		lastEnd = start
	)
	for cl := 0; cl < e.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for n := 0; time.Since(start) < window; n++ {
				out, err := e.job(cl, n)
				t.record(out, err)
				lastMu.Lock()
				lastEnd = time.Now()
				lastMu.Unlock()
				if e.clients == 1 {
					// A lone caller starts every job from a collected heap,
					// so a job's peak memory does not depend on where the
					// previous job left the collector.
					runtime.GC()
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := lastEnd.Sub(start)
	cpu := cpuTime() - cpu0
	hits, misses := cacheCounts(c.sink)
	hits, misses = hits-hits0, misses-misses0

	rep := &report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, msg := range t.errs {
		logf("job failed: %s", msg)
	}
	ok := t.attempted - t.failed
	jobS := median(t.lat)
	values := map[string]float64{
		"job_s":        jobS,
		"jobs_per_min": perMinute(ok, elapsed),
		"job_cpu_s":    cpu.Seconds() / float64(t.attempted),
		"setup_s":      median(setups),
		"peak_rss_mb":  peakRSSMB(),
		"ok_frac":      float64(ok) / float64(t.attempted),
		"wns_ratio":    median(t.wns),
		"tns_ratio":    median(t.tns),
	}
	logf("%s: %d jobs attempted, %d failed (fail_frac %.3f) in %.1fs",
		w.name, t.attempted, t.failed, float64(t.failed)/float64(t.attempted), elapsed.Seconds())
	specs := endToEnd
	replayOK := true
	if traced {
		tr := newTracer(fmt.Sprintf("%s-%d", w.name, seed))
		layers, err := e.replay(tr, ref, jobS)
		if err != nil {
			logf("replay: %v", err)
			replayOK = false
			layers = map[string]float64{}
		}
		layers["serve.submit_s"] = median(t.submit)
		if hits+misses > 0 {
			layers["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
		}
		path := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.ndjson", w.name, seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		logf("spans written to %s", path)
		values = layers
		specs = perLayer
	}
	for _, m := range specs {
		rep.Metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
		logf("  %-22s %14.6f %s", m.Name, values[m.Name], m.Unit)
	}
	rep.Correct = t.failed == 0 && t.attempted > 0 && replayOK
	logf("manifest: nproc %d, GOMAXPROCS %d, %s, seed %d", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), seed)
	return rep, nil
}

// cacheCounts reads the model-cache hit and miss counters the daemon and
// the runners publish.
func cacheCounts(s *obs.Sink) (hits, misses int64) {
	for _, c := range s.Snapshot().Counters {
		switch c.Name {
		case "serve.model_cache_hits":
			hits = c.Value
		case "serve.model_cache_misses":
			misses = c.Value
		}
	}
	return hits, misses
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "jobbench: "+format+"\n", args...)
}
