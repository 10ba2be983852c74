package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd lists the metrics a --trace 0 run reports, in print order. They
// must match the end_to_end entries of BENCHMARK.json.
var endToEnd = []metricSpec{
	{"job_s", "s"},
	{"jobs_per_min", "1/min"},
	{"job_cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_frac", "ratio"},
	{"wns_ratio", "ratio"},
	{"tns_ratio", "ratio"},
}

// perLayer lists the metrics a --trace 1 run reports. They must match the
// per_layer entries of BENCHMARK.json. A layer a workload never calls
// reads 0.
var perLayer = []metricSpec{
	{"designio.decode_s", "s"},
	{"place.s", "s"},
	{"rsmt.build_s", "s"},
	{"route.edgeshift_s", "s"},
	{"route.gr_s", "s"},
	{"route.gr_calls", "count"},
	{"route.maze_reroutes", "count"},
	{"route.overflow", "count"},
	{"drc.run_s", "s"},
	{"rc.extract_s", "s"},
	{"sta.run_s", "s"},
	{"sta.corners_s", "s"},
	{"gnn.forward_s", "s"},
	{"gnn.backward_s", "s"},
	{"gnn.forward_batch_s", "s"},
	{"train.augment_s", "s"},
	{"train.train_s", "s"},
	{"train.epoch_s", "s"},
	{"train.epochs", "count"},
	{"core.refine_s", "s"},
	{"core.iter_s", "s"},
	{"core.accept_ratio", "ratio"},
	{"shard.init_s", "s"},
	{"shard.round_s", "s"},
	{"shard.rounds", "count"},
	{"shard.accept_ratio", "ratio"},
	{"shard.retimed_nets", "count"},
	{"serve.submit_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.cache_hit_ratio", "ratio"},
	{"replay.job_s", "s"},
	{"replay.overhead_s", "s"},
}

// median returns the middle value of xs (the mean of the middle pair for an
// even count), or 0 when xs is empty. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// perMinute is the rate of n completions over elapsed wall time.
func perMinute(n int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(n) / elapsed.Minutes()
}

// ratio is |refined| over |baseline|, the Table II ratio; 1 when the
// baseline has no violation to improve.
func ratio(refined, baseline float64) float64 {
	if baseline == 0 {
		return 1
	}
	return math.Abs(refined) / math.Abs(baseline)
}

// jobOut is what one job hands back to the measuring loop.
type jobOut struct {
	// lat is the job's latency as its workload defines it.
	lat time.Duration
	// canon is the job's result with its ID cleared, as JSON: it must equal
	// the reference result byte for byte.
	canon []byte
	// wnsRatio and tnsRatio are refined over baseline sign-off.
	wnsRatio, tnsRatio float64
	// submit is the POST-to-202 time of a daemon job (0 elsewhere).
	submit time.Duration
}

// tally collects the outcomes of the timed jobs of one run. It is shared
// by the closed-loop callers.
type tally struct {
	ref []byte

	mu        sync.Mutex
	attempted int
	failed    int
	lat       []float64
	submit    []float64
	wns, tns  []float64
	errs      []string
}

// record books one finished job. A job fails on an error or on a result
// that differs from the reference; only passing jobs contribute latencies.
func (t *tally) record(out jobOut, err error) {
	if err == nil && !bytes.Equal(out.canon, t.ref) {
		err = fmt.Errorf("result differs from the reference: %s", diffHint(t.ref, out.canon))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
		return
	}
	t.lat = append(t.lat, out.lat.Seconds())
	t.wns = append(t.wns, out.wnsRatio)
	t.tns = append(t.tns, out.tnsRatio)
	if out.submit > 0 {
		t.submit = append(t.submit, out.submit.Seconds())
	}
}

// diffHint names the first byte offset where two results part.
func diffHint(want, got []byte) string {
	i := 0
	for i < len(want) && i < len(got) && want[i] == got[i] {
		i++
	}
	lo := i - 40
	if lo < 0 {
		lo = 0
	}
	hi := func(b []byte) int {
		if i+40 < len(b) {
			return i + 40
		}
		return len(b)
	}
	return fmt.Sprintf("at byte %d: want …%s… got …%s…", i, want[lo:hi(want)], got[lo:hi(got)])
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
