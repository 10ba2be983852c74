package par

import (
	"errors"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// recordingObserver is a race-clean PoolObserver for tests.
type recordingObserver struct {
	mu    sync.Mutex
	pools int
	tasks int
	busy  time.Duration
}

func (r *recordingObserver) ObservePool(workers, tasks int, busy []time.Duration, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pools++
	r.tasks += tasks
	for _, b := range busy {
		r.busy += b
	}
}

// withObserver installs o for the test and restores the nil observer after.
func withObserver(t *testing.T, o PoolObserver) {
	t.Helper()
	SetObserver(o)
	t.Cleanup(func() { SetObserver(nil) })
}

func TestObserverReceivesUtilization(t *testing.T) {
	for _, w := range []int{1, 4} {
		rec := &recordingObserver{}
		withObserver(t, rec)
		err := ForEach(w, 16, func(i int) error {
			time.Sleep(time.Millisecond)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.mu.Lock()
		pools, tasks, busy := rec.pools, rec.tasks, rec.busy
		rec.mu.Unlock()
		if pools != 1 || tasks != 16 {
			t.Fatalf("workers=%d: pools=%d tasks=%d", w, pools, tasks)
		}
		if busy < 10*time.Millisecond {
			t.Fatalf("workers=%d: busy %v implausibly small for 16×1ms tasks", w, busy)
		}
	}
}

// TestObserverDoesNotChangeResults is the side-channel gate: Map output and
// error behavior are identical with and without an installed observer.
func TestObserverDoesNotChangeResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	fn := func(i, v int) (int, error) {
		if i == 37 {
			return 0, errors.New("task 37 failed")
		}
		return v * v, nil
	}
	run := func() ([]int, error) { return Map(4, items, fn) }
	base, baseErr := run()
	withObserver(t, &recordingObserver{})
	obs, obsErr := run()
	if (baseErr == nil) != (obsErr == nil) {
		t.Fatalf("error behavior changed: %v vs %v", baseErr, obsErr)
	}
	if len(base) != len(obs) {
		t.Fatalf("result length changed: %d vs %d", len(base), len(obs))
	}
	for i := range base {
		if base[i] != obs[i] {
			t.Fatalf("out[%d] changed: %d vs %d", i, base[i], obs[i])
		}
	}
}

// TestObserverConcurrentPools is the race gate for the worker-utilization
// collector: nested/concurrent parallel sections all report into one
// observer while the observer is being swapped. Run under `go test -race`.
func TestObserverConcurrentPools(t *testing.T) {
	rec := &recordingObserver{}
	withObserver(t, rec)
	var launched atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				launched.Add(1)
				_ = ForEach(3, 9, func(i int) error { return nil })
			}
		}()
	}
	// Concurrent SetObserver exercises the atomic swap path.
	for k := 0; k < 50; k++ {
		SetObserver(rec)
	}
	wg.Wait()
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.pools != int(launched.Load()) {
		t.Fatalf("pools=%d launched=%d", rec.pools, launched.Load())
	}
	if rec.tasks != rec.pools*9 {
		t.Fatalf("tasks=%d want %d", rec.tasks, rec.pools*9)
	}
}

// TestSeedStatisticalSanity checks that SplitMix64-style per-index seeds
// are well spread: distinct, bit-balanced, and decorrelated between
// adjacent indices — the property per-index seeding relies on so
// neighboring tasks never share statistically similar streams.
func TestSeedStatisticalSanity(t *testing.T) {
	const n = 20000
	seen := make(map[int64]struct{}, n)
	bitOnes := make([]int, 64)
	adjPop := 0
	var meanAcc float64
	prev := int64(0)
	for i := 0; i < n; i++ {
		s := Seed(2023, i)
		if _, dup := seen[s]; dup {
			t.Fatalf("duplicate seed at index %d", i)
		}
		seen[s] = struct{}{}
		u := uint64(s)
		for b := 0; b < 64; b++ {
			if u&(1<<b) != 0 {
				bitOnes[b]++
			}
		}
		// Normalized position in [0,1): the mixed value as a fraction.
		meanAcc += float64(u) / (1 << 63) / 2
		if i > 0 {
			adjPop += bits.OnesCount64(u ^ uint64(prev))
		}
		prev = s
	}
	// Each output bit should be ~50% ones (binomial stddev ≈ 0.35%; allow 5σ).
	for b, ones := range bitOnes {
		frac := float64(ones) / n
		if frac < 0.47 || frac > 0.53 {
			t.Fatalf("bit %d biased: %.4f ones", b, frac)
		}
	}
	// Mean of the normalized values should sit near 0.5 (uniform spread).
	if mean := meanAcc / n; mean < 0.48 || mean > 0.52 {
		t.Fatalf("normalized seed mean %.4f not near 0.5", mean)
	}
	// Adjacent indices should differ in ~32 of 64 bits on average.
	if avg := float64(adjPop) / float64(n-1); avg < 28 || avg > 36 {
		t.Fatalf("adjacent-index hamming distance %.2f not near 32", avg)
	}
	// Different bases must not reuse the same stream.
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("bases 1 and 2 collide at index 0")
	}
}
