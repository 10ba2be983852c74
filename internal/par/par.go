// Package par is the repository's deterministic parallelism substrate: a
// bounded worker pool executing index-addressed tasks whose results are
// always collected in input order, so the output of a parallel stage is
// byte-identical for every worker count (including 1).
//
// Determinism contract — every caller must uphold two rules:
//
//  1. A task's result may depend only on its index and its input item,
//     never on which goroutine ran it or in what order tasks completed.
//  2. Any randomness inside a task must flow from a per-index seed
//     (Seed), never from a stream shared across tasks.
//
// Under those rules Map(w, items, fn) is observationally identical to the
// serial loop for any w, which is what lets the experiment suite assert
// byte-identical table/figure output between workers=1 and workers=4.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// PanicError is a task panic converted to an indexed error. The pool
// recovers every panic — in the serial path too, so behavior is identical
// at any worker count — and reports it through the normal error channel:
// lowest index wins, results are discarded, remaining tasks are cancelled,
// and no goroutine leaks. One poisoned net therefore fails its own
// parallel section cleanly instead of killing a whole experiment sweep.
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", e.Index, e.Value)
}

// PoolObserver receives utilization telemetry for completed parallel
// sections: the worker count, the number of tasks issued (the section's
// queue depth), each worker's accumulated busy time (index-separated, so
// collection is race-free) and the section's wall-clock duration.
//
// Observation is a side channel only — it never influences scheduling or
// results — and the callback must be safe for concurrent use (nested
// parallel sections invoke it from multiple goroutines).
type PoolObserver interface {
	ObservePool(workers, tasks int, busy []time.Duration, wall time.Duration)
}

// observerBox wraps the interface so atomic.Value always stores one
// concrete type (including the nil observer).
type observerBox struct{ o PoolObserver }

var poolObserver atomic.Value // observerBox

// SetObserver installs the process-wide pool observer (nil uninstalls).
// When no observer is set, instrumentation costs one atomic load per
// ForEach call and nothing per task.
func SetObserver(o PoolObserver) { poolObserver.Store(observerBox{o}) }

func loadObserver() PoolObserver {
	if v := poolObserver.Load(); v != nil {
		return v.(observerBox).o
	}
	return nil
}

// Workers resolves a requested worker count: values <= 0 select
// runtime.GOMAXPROCS(0) (all available parallelism); 1 reproduces the
// serial execution path exactly.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(0..n-1) on min(Workers(workers), n) goroutines and
// returns the lowest-indexed error among the tasks that ran (nil if all
// succeeded). After a task fails, tasks not yet started are cancelled;
// with workers=1 that is exactly the serial loop's early exit. A task that
// panics is recovered and reported as a *PanicError under the same
// lowest-index-wins contract (at any worker count, including 1).
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	fn = contained(fn)
	w := Workers(workers)
	if w > n {
		w = n
	}
	ob := loadObserver()
	if ob != nil {
		// Wrap fn with per-worker busy accounting. Timing is observation
		// only: it never reaches fn or the caller, so results stay
		// byte-identical with or without an observer installed.
		busy := make([]time.Duration, w)
		inner := fn
		t0 := time.Now()
		var err error
		if w == 1 {
			for i := 0; i < n; i++ {
				ts := time.Now()
				e := inner(i)
				busy[0] += time.Since(ts)
				if e != nil {
					err = e
					break
				}
			}
		} else {
			err = forEachWorkers(w, n, func(g, i int) error {
				ts := time.Now()
				e := inner(i)
				busy[g] += time.Since(ts)
				return e
			})
		}
		ob.ObservePool(w, n, busy, time.Since(t0))
		return err
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	return forEachWorkers(w, n, func(_, i int) error { return fn(i) })
}

// contained wraps a task so that a panic is recovered and converted to a
// *PanicError instead of unwinding the worker goroutine. Recovery sits
// innermost — inside the observer's timing wrapper — so telemetry still
// accounts the failed task's busy time.
func contained(fn func(i int) error) func(i int) error {
	return func(i int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			}
		}()
		return fn(i)
	}
}

// forEachWorkers is the shared parallel core of ForEach: w goroutines pull
// indices from an atomic counter and run fn(worker, index); the
// lowest-indexed error wins and cancels tasks not yet started.
func forEachWorkers(w, n int, fn func(worker, i int) error) error {
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(g, i); err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// Map applies fn to every item on a bounded worker pool and returns the
// results in input order. fn receives the item's index so per-task state
// (seeds, labels) can be derived deterministically. On error the first
// (lowest-indexed) failure observed is returned and the results are
// discarded.
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := ForEach(workers, len(items), func(i int) error {
		r, err := fn(i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Seed derives a per-task RNG seed from (base, index) with a
// SplitMix64-style mix, so every task owns an independent, reproducible
// random stream regardless of worker count or completion order. Distinct
// indices under the same base never collide on the mixed stream.
func Seed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
