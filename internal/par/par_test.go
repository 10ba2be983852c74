package par

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("non-positive request must resolve to at least one worker")
	}
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("positive requests must pass through")
	}
}

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 257)
	for i := range items {
		items[i] = i * 3
	}
	for _, w := range []int{1, 2, 4, 16} {
		got, err := Map(w, items, func(i, item int) (int, error) {
			return item + i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != items[i]+i {
				t.Fatalf("workers=%d: out[%d]=%d want %d", w, i, v, items[i]+i)
			}
		}
	}
}

// TestMapMatchesSerialProperty asserts the determinism contract with
// testing/quick: for any item list and worker count, Map equals the serial
// loop element-for-element.
func TestMapMatchesSerialProperty(t *testing.T) {
	f := func(items []int64, workers uint8) bool {
		w := int(workers%8) + 1
		fn := func(i int, item int64) (int64, error) { return item*7 + int64(i), nil }
		par, err := Map(w, items, fn)
		if err != nil {
			return false
		}
		for i := range items {
			want, _ := fn(i, items[i])
			if par[i] != want {
				return false
			}
		}
		return len(par) == len(items)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSeedStabilityProperty asserts per-index seed determinism: the same
// (base, index) always yields the same seed, and per-task RNG streams
// seeded from it inside Map are identical for every worker count.
func TestSeedStabilityProperty(t *testing.T) {
	f := func(base int64, n uint8, workers uint8) bool {
		count := int(n%32) + 1
		items := make([]struct{}, count)
		draw := func(w int) ([]float64, error) {
			return Map(w, items, func(i int, _ struct{}) (float64, error) {
				rng := rand.New(rand.NewSource(Seed(base, i)))
				return rng.Float64() + float64(i), nil
			})
		}
		serial, err := draw(1)
		if err != nil {
			return false
		}
		parallel, err := draw(int(workers%8) + 1)
		if err != nil {
			return false
		}
		for i := range serial {
			if serial[i] != parallel[i] {
				return false
			}
			if Seed(base, i) != Seed(base, i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSeedIndexSeparation(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		s := Seed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between indices %d and %d", prev, i)
		}
		seen[s] = i
	}
}

func TestForEachErrorIsLowestIndexed(t *testing.T) {
	for _, w := range []int{1, 4} {
		err := ForEach(w, 64, func(i int) error {
			if i == 5 || i == 40 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", w)
		}
		if err.Error() != "task 5 failed" {
			t.Fatalf("workers=%d: got %q, want the lowest-indexed error", w, err)
		}
	}
}

func TestForEachCancelsAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := ForEach(2, 100000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	if n := ran.Load(); n == 100000 {
		t.Fatal("no cancellation: every task ran after the first failure")
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := Map(4, []int(nil), func(i, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty input: %v %v", out, err)
	}
	out, err = Map(4, []int{9}, func(i, v int) (int, error) { return v + 1, nil })
	if err != nil || len(out) != 1 || out[0] != 10 {
		t.Fatalf("single input: %v %v", out, err)
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	out, err := Map(3, []int{1, 2, 3}, func(i, v int) (int, error) {
		if i == 2 {
			return 0, errors.New("late failure")
		}
		return v, nil
	})
	if err == nil || out != nil {
		t.Fatalf("partial results leaked: %v %v", out, err)
	}
}

// BenchmarkParMap measures pool overhead and scaling on a CPU-bound task.
func BenchmarkParMap(b *testing.B) {
	work := func(i int, seed int64) (float64, error) {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		sum := 0.0
		for k := 0; k < 20000; k++ {
			sum += rng.Float64()
		}
		return sum, nil
	}
	items := make([]int64, 64)
	for i := range items {
		items[i] = int64(i)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Map(w, items, work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
