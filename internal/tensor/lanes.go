package tensor

import "fmt"

// This file holds the ops that create, slice and reduce the batch ("lane")
// axis. The layout contract: a K-lane tensor stores K independent
// [Rows×Cols] blocks back to back in one contiguous buffer
// (structure-of-arrays), and every Tape op strides over the blocks with a
// single tape record, looping lanes outermost so lane k's values — and
// gradients — are bit-identical to running the unbatched op on lane k's
// block alone.

// CopyInLanes copies data (lane-major, lanes×rows×cols values) into a
// tape-owned batched tensor — the lane-axis analogue of CopyIn. Mark it
// differentiable with Leaf to use it as a per-candidate input.
func (tp *Tape) CopyInLanes(lanes, rows, cols int, data []float64) (*Tensor, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("tensor: CopyInLanes needs lanes >= 1, got %d", lanes)
	}
	if len(data) != lanes*rows*cols {
		return nil, fmt.Errorf("tensor: %d values for %d lanes of %dx%d", len(data), lanes, rows, cols)
	}
	t := tp.resultRaw(lanes, rows, cols, false)
	copy(t.Data, data)
	return t, nil
}

// SliceLane extracts lane k of a as an unbatched [Rows×Cols] tensor; its
// backward scatters the gradient into lane k only (the other lanes of a
// receive exact +0.0, preserving bit-identity with an unbatched run).
func (tp *Tape) SliceLane(a *Tensor, k int) (*Tensor, error) {
	if k < 0 || k >= a.LaneCount() {
		return nil, fmt.Errorf("tensor: SliceLane %d of %d lanes", k, a.LaneCount())
	}
	st := a.laneStride()
	out := tp.resultRaw(1, a.Rows, a.Cols, a.requiresGrad)
	copy(out.Data, a.Data[k*st:(k+1)*st])
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			ag := a.Grad[k*st : (k+1)*st]
			for i := range out.Grad {
				ag[i] += out.Grad[i]
			}
		})
	}
	return out, nil
}

// SumLanes reduces the lane axis: out[i] = Σ_l a[l][i], summed in fixed
// lane order. The result is unbatched, so a per-lane scalar loss becomes
// the 1×1 scalar Backward requires; the backward broadcasts the gradient
// to every lane.
func (tp *Tape) SumLanes(a *Tensor) (*Tensor, error) {
	lanes := a.LaneCount()
	st := a.laneStride()
	out := tp.resultRaw(1, a.Rows, a.Cols, a.requiresGrad)
	copy(out.Data, a.Data[:st])
	for l := 1; l < lanes; l++ {
		ad := a.Data[l*st : (l+1)*st]
		for i := range out.Data {
			out.Data[i] += ad[i]
		}
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for l := 0; l < lanes; l++ {
				ag := a.Grad[l*st : (l+1)*st]
				for i := range out.Grad {
					ag[i] += out.Grad[i]
				}
			}
		})
	}
	return out, nil
}
