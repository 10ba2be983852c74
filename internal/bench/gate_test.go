package bench

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// syntheticBaseline builds a baseline whose records make the gate pass
// for the given measurements; tests then perturb one side at a time.
func syntheticBaseline() *Baseline {
	return &Baseline{
		Workload: WorkloadName, Scale: WorkloadScale,
		ModelSeed: ModelSeed, Iters: RefineIters,
		Benchmarks: map[string]Record{
			"refine_loop":            {NsOp: 1e6, BytesOp: 4096, AllocsOp: 100},
			"refine_batched":         {NsOp: 5e5, BytesOp: 2048, AllocsOp: 50, Lanes: BatchLanes},
			"gnn_forward_batched":    {NsOp: 1000, AllocsOp: 10, Lanes: BatchLanes},
			"gnn_forward_sequential": {NsOp: 2000, AllocsOp: 40, Lanes: BatchLanes},
		},
	}
}

// TestAllocGateFailureBranches: each way the alloc gate can fail is a
// typed error, not a panic and not a silent pass.
func TestAllocGateFailureBranches(t *testing.T) {
	b := syntheticBaseline()
	loop := Record{AllocsOp: 100}
	if err := b.CheckAllocGate(loop); err != nil {
		t.Fatalf("clean gate failed: %v", err)
	}

	// Allocs/op above baseline +10%.
	if err := b.CheckAllocGate(Record{AllocsOp: 111}); !errors.Is(err, ErrAllocRegression) {
		t.Fatalf("regressed allocs/op: got %v, want ErrAllocRegression", err)
	}
	// Boundary: exactly +10% passes.
	if err := b.CheckAllocGate(Record{AllocsOp: 110}); err != nil {
		t.Fatalf("allocs/op at the +10%% limit rejected: %v", err)
	}
	// Missing baseline record.
	delete(b.Benchmarks, "refine_loop")
	if err := b.CheckAllocGate(loop); !errors.Is(err, ErrMissingRecord) {
		t.Fatalf("missing refine_loop: got %v, want ErrMissingRecord", err)
	}
}

// TestBatchedGateFailureBranches covers the per-candidate batched gate
// and the live margin check.
func TestBatchedGateFailureBranches(t *testing.T) {
	b := syntheticBaseline()
	if err := b.CheckBatchedAllocGate(Record{AllocsOp: 50}); err != nil {
		t.Fatalf("clean batched gate failed: %v", err)
	}
	if err := b.CheckBatchedAllocGate(Record{AllocsOp: 56}); !errors.Is(err, ErrAllocRegression) {
		t.Fatalf("regressed batched allocs/op: got %v, want ErrAllocRegression", err)
	}
	delete(b.Benchmarks, "refine_batched")
	if err := b.CheckBatchedAllocGate(Record{AllocsOp: 50}); !errors.Is(err, ErrMissingRecord) {
		t.Fatalf("missing refine_batched: got %v, want ErrMissingRecord", err)
	}

	if err := CheckBatchedMargin(Record{NsOp: 1000}, Record{NsOp: 1500}, 1.3); err != nil {
		t.Fatalf("1.5x margin rejected at 1.3x floor: %v", err)
	}
	if err := CheckBatchedMargin(Record{NsOp: 1000}, Record{NsOp: 1200}, 1.3); !errors.Is(err, ErrBatchMargin) {
		t.Fatalf("lost batch margin: got %v, want ErrBatchMargin", err)
	}
}

// TestBaselineMarginFailureBranches: the static baseline check reports
// missing records, stale lane pins and a sub-1.5x recorded margin as
// distinct typed errors.
func TestBaselineMarginFailureBranches(t *testing.T) {
	b := syntheticBaseline()
	if err := b.CheckBaselineMargin(); err != nil {
		t.Fatalf("clean baseline margin failed: %v", err)
	}

	b.Benchmarks["gnn_forward_batched"] = Record{NsOp: 1500, Lanes: BatchLanes}
	if err := b.CheckBaselineMargin(); !errors.Is(err, ErrBatchMargin) {
		t.Fatalf("sub-1.5x recorded margin: got %v, want ErrBatchMargin", err)
	}

	b.Benchmarks["gnn_forward_batched"] = Record{NsOp: 1000, Lanes: BatchLanes + 1}
	if err := b.CheckBaselineMargin(); !errors.Is(err, ErrStaleBaseline) {
		t.Fatalf("stale lane pin: got %v, want ErrStaleBaseline", err)
	}

	delete(b.Benchmarks, "gnn_forward_sequential")
	b.Benchmarks["gnn_forward_batched"] = Record{NsOp: 1000, Lanes: BatchLanes}
	if err := b.CheckBaselineMargin(); !errors.Is(err, ErrMissingRecord) {
		t.Fatalf("missing batched records: got %v, want ErrMissingRecord", err)
	}
}

// TestLoadBaselineErrors: a corrupt or absent baseline file is a
// descriptive error, never a partial Baseline.
func TestLoadBaselineErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadBaseline(filepath.Join(dir, "absent.json")); !os.IsNotExist(err) {
		t.Fatalf("absent baseline: got %v, want IsNotExist", err)
	}
	bad := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(bad, []byte(`{"workload": `), 0o644); err != nil {
		t.Fatal(err)
	}
	if b, err := LoadBaseline(bad); err == nil || b != nil {
		t.Fatalf("corrupt baseline decoded: %+v, %v", b, err)
	}
}
