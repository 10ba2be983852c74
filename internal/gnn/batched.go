package gnn

import (
	"fmt"

	"tsteiner/internal/tensor"
)

// This file is the batched entry point of the evaluator: one fused
// forward pass over K candidate coordinate sets sharing a single Batch's
// precomputed graph structure. The Steiner coordinates become K-lane
// leaves and every op strides over the [K × rows × cols] lane buffer with
// one tape record, while the batch's constant tables (per-level sink/arc
// indices, d0/slope delay columns, pin coordinates, required times — all
// precomputed once by finalizeDerived) join the tape as unbatched aliases
// that broadcast across lanes. That is the amortization: K candidates pay
// for the structure tables, the tape recording and the op dispatch once.
//
// Lane k of every output is bit-identical to a sequential Forward on
// candidate k alone (the tensor package's lane contract), so batched and
// sequential refinement trajectories are byte-equal.

// BatchPrediction is the output of ForwardBatch: the coordinate leaves
// and predictions of K candidates, stored as K-lane tensors.
type BatchPrediction struct {
	// K is the candidate (lane) count.
	K int
	// Xs, Ys are the K-lane coordinate leaves; after Backward, lane k of
	// their Grad holds candidate k's position gradient.
	Xs, Ys *tensor.Tensor
	// Arrival is the predicted arrival time per pin, per lane.
	Arrival *tensor.Tensor
	// EndpointArrival gathers Arrival at the batch's endpoints, per lane.
	EndpointArrival *tensor.Tensor
	// Slack = required − arrival per endpoint, per lane.
	Slack *tensor.Tensor
}

// LaneSlack returns candidate k's slack values (a no-copy view).
func (bp *BatchPrediction) LaneSlack(k int) []float64 { return bp.Slack.LaneData(k) }

// Lane returns candidate k's prediction as detached unbatched tensors
// (no tape, no grad flow) — for callers that want the sequential
// Prediction shape.
func (bp *BatchPrediction) Lane(k int) Prediction {
	view := func(t *tensor.Tensor) *tensor.Tensor {
		return &tensor.Tensor{Rows: t.Rows, Cols: t.Cols, Data: t.LaneData(k)}
	}
	return Prediction{
		Arrival:         view(bp.Arrival),
		EndpointArrival: view(bp.EndpointArrival),
		Slack:           view(bp.Slack),
	}
}

// LeavesFromCoordsBatch builds K-lane (X_s, Y_s) leaf tensors from
// lane-major flat coordinate buffers (lanes × NSteiner values each,
// candidate k's coordinates in block k), copying into tape-owned
// (workspace-pooled, when available) storage.
func (b *Batch) LeavesFromCoordsBatch(tp *tensor.Tape, lanes int, xs, ys []float64) (*tensor.Tensor, *tensor.Tensor, error) {
	xt, err := tp.CopyInLanes(lanes, b.NSteiner, 1, xs)
	if err != nil {
		return nil, nil, err
	}
	yt, err := tp.CopyInLanes(lanes, b.NSteiner, 1, ys)
	if err != nil {
		return nil, nil, err
	}
	return tp.Leaf(xt), tp.Leaf(yt), nil
}

// ForwardBatch evaluates `lanes` candidate coordinate sets against the
// batch's shared graph structure in one fused forward pass. coordsX and
// coordsY are lane-major flat buffers (lanes × NSteiner values each).
// Lane k of the returned prediction — values and, after Backward on a
// lane-sliced loss, gradients — is bit-identical to Forward on candidate
// k alone. With lanes == 1 this IS Forward modulo the lane wrapper, so
// there is no separate code path to keep in sync.
func (m *Model) ForwardBatch(tp *tensor.Tape, b *Batch, lanes int, coordsX, coordsY []float64, trainParams bool) (*BatchPrediction, error) {
	return m.forwardBatch(tp, b, nil, lanes, coordsX, coordsY, trainParams)
}

// forwardBatch is ForwardBatch with optional frozen rows (see forward).
func (m *Model) forwardBatch(tp *tensor.Tape, b *Batch, fz *Frozen, lanes int, coordsX, coordsY []float64, trainParams bool) (*BatchPrediction, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("gnn: ForwardBatch needs lanes >= 1, got %d", lanes)
	}
	xs, ys, err := b.LeavesFromCoordsBatch(tp, lanes, coordsX, coordsY)
	if err != nil {
		return nil, err
	}
	p, err := m.forward(tp, b, fz, xs, ys, trainParams)
	if err != nil {
		return nil, err
	}
	return &BatchPrediction{
		K: lanes, Xs: xs, Ys: ys,
		Arrival: p.Arrival, EndpointArrival: p.EndpointArrival, Slack: p.Slack,
	}, nil
}
