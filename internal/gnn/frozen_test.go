package gnn

import (
	"math"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/flow"
	"tsteiner/internal/lib"
	"tsteiner/internal/tensor"
)

// laneRun is what the frozen-forward gate compares: a K-lane forward's
// values and the coordinate gradients of one lane's smoothed WNS.
type laneRun struct {
	arrival, slack, gx, gy []float64
}

// runLane evaluates a K-lane forward, appends the LSE smooth WNS per lane
// and backpropagates lane pick's scalar.
func runLane(t *testing.T, tp *tensor.Tape, forward func(*tensor.Tape) (*BatchPrediction, error), pick int) laneRun {
	t.Helper()
	bp, err := forward(tp)
	if err != nil {
		t.Fatal(err)
	}
	negS, err := tp.Scale(bp.Slack, -1)
	if err != nil {
		t.Fatal(err)
	}
	lse, err := tp.LSE(negS, 10)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := tp.SliceLane(lse, pick)
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Backward(loss); err != nil {
		t.Fatal(err)
	}
	cp := func(v []float64) []float64 { return append([]float64(nil), v...) }
	return laneRun{cp(bp.Arrival.Data), cp(bp.Slack.Data), cp(bp.Xs.Grad), cp(bp.Ys.Grad)}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: frozen %v != full %v", what, i, got[i], want[i])
		}
	}
}

// TestFrozenForwardMatchesFull is the equality gate of the frozen
// forward: at K ∈ {1, 4} lanes, Frozen.ForwardBatch, and a Clone of it
// on a workspace of its own, must reproduce ForwardBatch's arrivals,
// slacks and the coordinate gradients of every lane's LSE penalty bit
// for bit. spm mixes trees with and without
// Steiner points (for the default and the netlist-only model); the
// inverter chain has none, so every tree is frozen and the moving
// sub-batch is empty.
func TestFrozenForwardMatchesFull(t *testing.T) {
	chainDesign, err := check.InverterChain(6)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := flow.Prepare(chainDesign, lib.Default(), flow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spm := prepared(t, "spm", 1.0)
	netlistOnly := DefaultConfig()
	netlistOnly.NoSteinerFeatures = true

	for _, tc := range []struct {
		name string
		p    *flow.Prepared
		cfg  Config
	}{
		{"spm", spm, DefaultConfig()},
		{"spm/netlist-only", spm, netlistOnly},
		{"inverter-chain", chain, DefaultConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := NewBatch(tc.p.Design, tc.p.Forest)
			if err != nil {
				t.Fatal(err)
			}
			m := NewModel(tc.cfg, 7)
			ws := tensor.NewWorkspace()
			fz, err := m.Freeze(ws.Tape(), b)
			if err != nil {
				t.Fatal(err)
			}
			mv := fz.moving
			if tc.p == chain {
				if b.NSteiner != 0 || mv.NNodes != 0 || len(mv.SinkNet) != 0 {
					t.Fatalf("chain: %d Steiner vars, moving half %d nodes / %d sinks, want all 0",
						b.NSteiner, mv.NNodes, len(mv.SinkNet))
				}
			} else if mv.NNodes == 0 || mv.NNodes == b.NNodes || len(mv.EdgeTree) == len(b.EdgeTree) {
				t.Fatalf("spm: moving half has %d of %d nodes, %d of %d edges; want a proper subset",
					mv.NNodes, b.NNodes, len(mv.EdgeTree), len(b.EdgeTree))
			}
			if mv.NSteiner != b.NSteiner {
				t.Fatalf("moving half has %d Steiner vars, batch %d", mv.NSteiner, b.NSteiner)
			}
			clone, cws := fz.Clone(), tensor.NewWorkspace()
			if clone.m == fz.m {
				t.Fatal("Clone shares the receiver's model")
			}

			bx, by, _ := tc.p.Forest.SteinerPositions()
			base := [2][]float64{bx, by}
			for _, K := range []int{1, 4} {
				cx, cy := candidateCoords(t, b, &base, K)
				full := func(tp *tensor.Tape) (*BatchPrediction, error) {
					return m.ForwardBatch(tp, b, K, cx, cy, false)
				}
				frozen := func(tp *tensor.Tape) (*BatchPrediction, error) {
					return fz.ForwardBatch(tp, K, cx, cy)
				}
				cloned := func(tp *tensor.Tape) (*BatchPrediction, error) {
					return clone.ForwardBatch(tp, K, cx, cy)
				}
				for pick := 0; pick < K; pick++ {
					want := runLane(t, tensor.NewTape(), full, pick)
					for _, got := range []laneRun{
						runLane(t, ws.Tape(), frozen, pick),
						runLane(t, cws.Tape(), cloned, pick),
					} {
						sameBits(t, "arrival", got.arrival, want.arrival)
						sameBits(t, "slack", got.slack, want.slack)
						sameBits(t, "grad x", got.gx, want.gx)
						sameBits(t, "grad y", got.gy, want.gy)
					}
				}
			}
		})
	}
}
