package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPanicBecomesIndexedError: a panicking task must surface as a
// *PanicError carrying its index, at every worker count including the
// serial path.
func TestPanicBecomesIndexedError(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		err := ForEach(workers, 16, func(i int) error {
			if i == 9 {
				panic(fmt.Sprintf("boom at %d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Index != 9 {
			t.Fatalf("workers=%d: panic index %d, want 9", workers, pe.Index)
		}
		if !strings.Contains(pe.Error(), "boom at 9") {
			t.Fatalf("workers=%d: error %q lacks panic value", workers, pe.Error())
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: no stack captured", workers)
		}
	}
}

// TestPanicLowestIndexWins: when several tasks panic (or mix panics with
// errors), the lowest-indexed failure is reported — the same contract as
// the plain error path.
func TestPanicLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		// All tasks fail; index 3 panics, the rest error.
		err := ForEach(workers, 8, func(i int) error {
			if i == 3 {
				panic("panicked")
			}
			return fmt.Errorf("plain error %d", i)
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// With workers=1 the serial loop stops at index 0's error; parallel
		// runs may reach later indices first but must still report the
		// lowest index among observed failures, which includes index 0
		// because every task fails and task 0 always runs.
		var pe *PanicError
		if errors.As(err, &pe) {
			t.Fatalf("workers=%d: got PanicError for index %d, want plain error 0", workers, pe.Index)
		}
		if err.Error() != "plain error 0" {
			t.Fatalf("workers=%d: got %q, want lowest-indexed failure", workers, err.Error())
		}
	}
	// Panic at index 0 wins over later errors.
	err := ForEach(4, 8, func(i int) error {
		if i == 0 {
			panic("first")
		}
		return fmt.Errorf("plain error %d", i)
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("got %v, want *PanicError at index 0", err)
	}
}

// TestPanicDiscardsMapResults: Map must return nil results after a panic,
// exactly like the error path.
func TestPanicDiscardsMapResults(t *testing.T) {
	items := make([]int, 12)
	out, err := Map(4, items, func(i int, _ int) (int, error) {
		if i == 5 {
			panic("poison")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if out != nil {
		t.Fatalf("results not discarded: %v", out)
	}
}

// TestPanicCancelsRemainingTasks: once a task's panic has been recorded,
// no task may start. The pool records a failure before the failed worker
// exits, so task 1 holds the second worker until the goroutine that ran
// task 0 is gone; the test then no longer depends on how fast the second
// worker drains trivial tasks while the panic is being recovered.
func TestPanicCancelsRemainingTasks(t *testing.T) {
	var started atomic.Int64
	var stuck atomic.Bool
	panicker := make(chan string, 1) // id of the goroutine running task 0
	n := 1000
	err := ForEach(2, n, func(i int) error {
		started.Add(1)
		switch i {
		case 0:
			panicker <- goroutineID()
			panic("early")
		case 1:
			id := <-panicker
			for deadline := time.Now().Add(10 * time.Second); goroutineAlive(id); {
				if time.Now().After(deadline) {
					stuck.Store(true)
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("got %v, want *PanicError for task 0", err)
	}
	if stuck.Load() {
		t.Fatal("the worker that ran task 0 never exited")
	}
	// Task 0 and at most the one task the other worker had already
	// claimed may run; any later task started after the failure.
	if got := started.Load(); got > 2 {
		t.Fatalf("%d of %d tasks started after an early panic, want at most 2", got, n)
	}
}

// goroutineID returns the calling goroutine's id from its stack header
// ("goroutine 42 [running]:").
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// goroutineAlive reports whether the goroutine with the given id exists.
func goroutineAlive(id string) bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Contains(string(buf[:n]), "goroutine "+id+" [")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPanicNoGoroutineLeak: worker goroutines must all exit after a
// panicking section.
func TestPanicNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for k := 0; k < 20; k++ {
		_ = ForEach(4, 32, func(i int) error {
			if i%7 == 3 {
				panic("leak probe")
			}
			return nil
		})
	}
	// Allow the runtime a moment to retire worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew %d -> %d", before, after)
	}
}

// TestPanicWithObserverStillContained: the observer's timing wrapper must
// not defeat recovery, and the pool callback still arrives.
func TestPanicWithObserverStillContained(t *testing.T) {
	rec := &recordingObserver{}
	withObserver(t, rec)
	err := ForEach(2, 8, func(i int) error {
		if i == 2 {
			panic("observed")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 2 {
		t.Fatalf("got %v, want *PanicError at 2", err)
	}
	rec.mu.Lock()
	pools := rec.pools
	rec.mu.Unlock()
	if pools == 0 {
		t.Fatal("observer not invoked for panicking section")
	}
}
