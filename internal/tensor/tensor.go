// Package tensor is a reverse-mode automatic-differentiation engine built
// for this repository's graph-learning stack (the role PyTorch plays in
// the paper). It provides dense float64 tensors (vectors and matrices), a
// tape that records operations in execution order, elementwise and linear-
// algebra ops, the gather/scatter primitives message passing needs, and
// the Log-Sum-Exp / Softplus smoothings the paper uses for WNS/TNS.
//
// Gradients are validated against finite differences by property tests in
// this package; every op's backward rule is exercised there.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense row-major tensor of rank 1 or 2, optionally carrying a
// leading batch ("lane") axis for evaluating K candidate inputs in one
// recorded op. Data is laid out structure-of-arrays: lane-major, then
// row-major — element (l, r, c) lives at Data[l*Rows*Cols + r*Cols + c].
// Lanes <= 1 means unbatched; every op treats a 1-lane tensor against a
// K-lane operand as a broadcast constant shared by all lanes, and loops
// lanes outermost so each lane's floating-point evaluation order is
// bit-identical to running the unbatched op on that lane alone.
type Tensor struct {
	// Rows and Cols give the per-lane shape; a vector has Cols == 1.
	Rows, Cols int
	// Lanes is the batch-axis length; 0 and 1 both mean unbatched.
	Lanes int
	Data  []float64
	Grad  []float64

	requiresGrad bool
	tape         *Tape
	// wsOwned marks tensors whose storage came from the tape's
	// workspace; only those may draw lazily-allocated Grad buffers
	// from the pool (persistent leaves like model parameters must
	// keep garbage-collected Grad storage across tape resets).
	wsOwned bool
}

// Len returns the total element count across all lanes.
func (t *Tensor) Len() int { return t.LaneCount() * t.Rows * t.Cols }

// LaneCount returns the effective batch-axis length (1 when unbatched).
func (t *Tensor) LaneCount() int {
	if t.Lanes <= 1 {
		return 1
	}
	return t.Lanes
}

// laneStride is the element count of one lane's [Rows×Cols] block.
func (t *Tensor) laneStride() int { return t.Rows * t.Cols }

// RequiresGrad reports whether gradients flow into this tensor.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// LaneData returns the [Rows×Cols] slice backing lane l (no copy).
func (t *Tensor) LaneData(l int) []float64 {
	st := t.laneStride()
	return t.Data[l*st : (l+1)*st]
}

// LaneGrad returns the gradient slice of lane l, nil before Backward.
func (t *Tensor) LaneGrad(l int) []float64 {
	if t.Grad == nil {
		return nil
	}
	st := t.laneStride()
	return t.Grad[l*st : (l+1)*st]
}

// Set writes element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// ensureGrad allocates the gradient buffer on demand, zeroed. Backward
// kernels that add into only some elements (scatters, one lane of
// several, parameter reductions) use it; see ensureGradRaw for the
// kernels that write every element.
func (t *Tensor) ensureGrad() {
	if t.Grad == nil {
		if t.wsOwned && t.tape != nil && t.tape.ws != nil {
			t.Grad = t.tape.ws.grabF64(t.Len())
			return
		}
		t.Grad = make([]float64, t.Len())
	}
}

// ensureGradRaw is ensureGrad for a backward kernel that writes every
// element of t's gradient. A buffer it draws from the workspace is not
// zeroed, and it reports that buffer as fresh: the kernel then stores
// g + 0 where it would add g. That is the value a zeroed buffer gives,
// +0 + g, for every g: the +0 turns a −0 into +0. An operand's freshness
// is decided once, before the kernel's lane loop (see storeLane), and an
// operand that appears twice in one op is fresh only where it first
// appears, because the second call finds the buffer. Without a workspace
// the buffer is allocated zeroed and is not fresh, so the allocating tape
// keeps the accumulating kernels the pooled tape is tested against.
func (t *Tensor) ensureGradRaw() (fresh bool) {
	if t.Grad != nil || !t.wsOwned || t.tape == nil || t.tape.ws == nil {
		t.ensureGrad()
		return false
	}
	t.Grad = t.tape.ws.grabF64Raw(t.Len())
	return true
}

// storeLane reports whether a backward kernel stores, rather than adds,
// output lane l's gradient into operand t's block: only into a fresh
// buffer, and for a 1-lane operand broadcast over several lanes only on
// lane 0, because the later lanes add onto what lane 0 stored.
func storeLane(t *Tensor, fresh bool, l int) bool {
	return fresh && (l == 0 || t.LaneCount() > 1)
}

// addGrad adds src into the gradient block dst, or, when store is set,
// stores src + 0 into raw memory (see ensureGradRaw).
func addGrad(dst, src []float64, store bool) {
	if store {
		for i, v := range src {
			dst[i] = v + 0
		}
		return
	}
	for i, v := range src {
		dst[i] += v
	}
}

// ZeroGrad clears accumulated gradients.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// Clone returns a detached copy of values (no tape, no grad flow).
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Rows: t.Rows, Cols: t.Cols, Lanes: t.Lanes, Data: append([]float64(nil), t.Data...)}
	return c
}

// Tape records operations for reverse-mode differentiation. A tape
// built by Workspace.Tape draws op-result storage from
// its workspace; a plain NewTape allocates, and both produce
// byte-identical values.
type Tape struct {
	backwards []func()
	ws        *Workspace
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset drops all recorded operations (reuse between iterations).
func (tp *Tape) Reset() { tp.backwards = tp.backwards[:0] }

// record appends a backward step.
func (tp *Tape) record(fn func()) { tp.backwards = append(tp.backwards, fn) }

// Backward seeds d(loss)/d(loss) = 1 and propagates gradients to every
// recorded tensor. loss must be a 1×1 tensor produced on this tape.
func (tp *Tape) Backward(loss *Tensor) error {
	if loss.Len() != 1 {
		return fmt.Errorf("tensor: Backward needs a scalar, got %dx%d with %d lanes (reduce with SumLanes first)", loss.Rows, loss.Cols, loss.LaneCount())
	}
	if loss.tape != tp {
		return fmt.Errorf("tensor: loss was not computed on this tape")
	}
	loss.ensureGrad()
	loss.Grad[0] = 1
	for i := len(tp.backwards) - 1; i >= 0; i-- {
		tp.backwards[i]()
	}
	return nil
}

// NewVector creates a non-differentiable vector (length n).
func NewVector(n int) *Tensor { return &Tensor{Rows: n, Cols: 1, Data: make([]float64, n)} }

// NewMatrix creates a non-differentiable matrix.
func NewMatrix(rows, cols int) *Tensor {
	return &Tensor{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (copied) as an r×c constant tensor.
func FromSlice(rows, cols int, data []float64) (*Tensor, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: %d values for %dx%d", len(data), rows, cols)
	}
	return &Tensor{Rows: rows, Cols: cols, Data: append([]float64(nil), data...)}, nil
}

// Leaf attaches a tensor to the tape as a differentiable leaf (a trainable
// parameter or an input we need gradients for, like Steiner coordinates).
func (tp *Tape) Leaf(t *Tensor) *Tensor {
	t.requiresGrad = true
	t.tape = tp
	t.ensureGrad()
	return t
}

// Constant attaches a tensor to the tape without gradient tracking. A
// tensor attached with Leaf before (a model parameter after training)
// stops tracking too: ops on it record no backward step, and Backward
// leaves its Grad as it was. Leaf turns tracking back on.
func (tp *Tape) Constant(t *Tensor) *Tensor {
	t.requiresGrad = false
	t.tape = tp
	return t
}

// result builds the unbatched output tensor of an op, pooled when the
// tape has a workspace.
func (tp *Tape) result(rows, cols int, reqGrad bool) *Tensor {
	return tp.resultL(1, rows, cols, reqGrad)
}

// resultL builds an op output with an explicit lane count and zeroed
// Data, laid out lane-major ([lanes×rows×cols]). Gradient buffers are
// NOT allocated here: ensureGrad, or ensureGradRaw for a backward kernel
// that writes every element, materializes them on first use during
// Backward, so a forward-only pass pays nothing for them and a backward
// pass skips ops whose outputs never received a gradient.
func (tp *Tape) resultL(lanes, rows, cols int, reqGrad bool) *Tensor {
	if tp.ws != nil {
		return tp.ws.tensor(tp, lanes, rows, cols, reqGrad, true)
	}
	out := &Tensor{Rows: rows, Cols: cols, Lanes: lanes, tape: tp, requiresGrad: reqGrad}
	out.Data = make([]float64, out.Len())
	return out
}

// resultRaw is resultL for kernels that write every element of Data
// before any read: a reused workspace buffer is handed over un-zeroed,
// skipping the memclr that dominates large batched forwards. Without a
// workspace the allocator zeroes regardless.
func (tp *Tape) resultRaw(lanes, rows, cols int, reqGrad bool) *Tensor {
	if tp.ws != nil {
		return tp.ws.tensor(tp, lanes, rows, cols, reqGrad, false)
	}
	return tp.resultL(lanes, rows, cols, reqGrad)
}

func sameShape(a, b *Tensor) error {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return fmt.Errorf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	return nil
}

// laneCompat validates the lane axes of a binary op: operands must have
// equal lane counts, or one side must be unbatched (a 1-lane broadcast
// constant shared by every lane). Returns the output lane count.
func laneCompat(a, b *Tensor) (int, error) {
	la, lb := a.LaneCount(), b.LaneCount()
	switch {
	case la == lb:
		return la, nil
	case la == 1:
		return lb, nil
	case lb == 1:
		return la, nil
	}
	return 0, fmt.Errorf("tensor: lane mismatch %d vs %d", la, lb)
}

// opLane returns operand t's data block feeding output lane l — its own
// lane l when batched, its single block when it broadcasts.
func opLane(t *Tensor, l int) []float64 {
	st := t.laneStride()
	if t.LaneCount() == 1 {
		return t.Data[:st]
	}
	return t.Data[l*st : (l+1)*st]
}

// opLaneGrad returns the grad block of operand t receiving output lane
// l's gradient (t.Grad must be allocated). A broadcast operand returns
// its single block for every lane, so looping lanes outermost
// accumulates its gradient over lanes in fixed lane order.
func opLaneGrad(t *Tensor, l int) []float64 {
	st := t.laneStride()
	if t.LaneCount() == 1 {
		return t.Grad[:st]
	}
	return t.Grad[l*st : (l+1)*st]
}

// Add returns a + b (same per-lane shape; a 1-lane operand broadcasts
// across the other's lanes).
func (tp *Tape) Add(a, b *Tensor) (*Tensor, error) {
	if err := sameShape(a, b); err != nil {
		return nil, err
	}
	lanes, err := laneCompat(a, b)
	if err != nil {
		return nil, err
	}
	out := tp.resultRaw(lanes, a.Rows, a.Cols, a.requiresGrad || b.requiresGrad)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		ad, bd, od := opLane(a, l), opLane(b, l), out.Data[l*st:(l+1)*st]
		for i := range od {
			od[i] = ad[i] + bd[i]
		}
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.requiresGrad {
				fresh := a.ensureGradRaw()
				for l := 0; l < lanes; l++ {
					addGrad(opLaneGrad(a, l), out.Grad[l*st:(l+1)*st], storeLane(a, fresh, l))
				}
			}
			if b.requiresGrad {
				fresh := b.ensureGradRaw()
				for l := 0; l < lanes; l++ {
					addGrad(opLaneGrad(b, l), out.Grad[l*st:(l+1)*st], storeLane(b, fresh, l))
				}
			}
		})
	}
	return out, nil
}

// Sub returns a - b (same shape).
func (tp *Tape) Sub(a, b *Tensor) (*Tensor, error) {
	nb, err := tp.Scale(b, -1)
	if err != nil {
		return nil, err
	}
	return tp.Add(a, nb)
}

// Mul returns the elementwise product a ⊙ b (1-lane operands broadcast).
func (tp *Tape) Mul(a, b *Tensor) (*Tensor, error) {
	if err := sameShape(a, b); err != nil {
		return nil, err
	}
	lanes, err := laneCompat(a, b)
	if err != nil {
		return nil, err
	}
	out := tp.resultRaw(lanes, a.Rows, a.Cols, a.requiresGrad || b.requiresGrad)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		ad, bd, od := opLane(a, l), opLane(b, l), out.Data[l*st:(l+1)*st]
		for i := range od {
			od[i] = ad[i] * bd[i]
		}
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.requiresGrad {
				fresh := a.ensureGradRaw()
				for l := 0; l < lanes; l++ {
					mulGrad(opLaneGrad(a, l), out.Grad[l*st:(l+1)*st], opLane(b, l), storeLane(a, fresh, l))
				}
			}
			if b.requiresGrad {
				fresh := b.ensureGradRaw()
				for l := 0; l < lanes; l++ {
					mulGrad(opLaneGrad(b, l), out.Grad[l*st:(l+1)*st], opLane(a, l), storeLane(b, fresh, l))
				}
			}
		})
	}
	return out, nil
}

// mulGrad adds g ⊙ f into the gradient block dst, or stores it into raw
// memory when store is set (see ensureGradRaw).
func mulGrad(dst, g, f []float64, store bool) {
	if store {
		for i, v := range g {
			dst[i] = v*f[i] + 0
		}
		return
	}
	for i, v := range g {
		dst[i] += v * f[i]
	}
}

// Scale returns s·a.
func (tp *Tape) Scale(a *Tensor, s float64) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.ensureGradRaw() {
				for i, g := range out.Grad {
					a.Grad[i] = g*s + 0
				}
				return
			}
			for i, g := range out.Grad {
				a.Grad[i] += g * s
			}
		})
	}
	return out, nil
}

// AddScalar returns a + s (elementwise).
func (tp *Tape) AddScalar(a *Tensor, s float64) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + s
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for i := range out.Grad {
				a.Grad[i] += out.Grad[i]
			}
		})
	}
	return out, nil
}

// MulBroadcast returns a scaled elementwise by the 1×1-per-lane tensor s,
// with gradients flowing to both operands (used for learned scalar
// gains). s may be unbatched against a batched a (the usual shared
// parameter) or carry one scalar per lane.
func (tp *Tape) MulBroadcast(a, s *Tensor) (*Tensor, error) {
	if s.Rows != 1 || s.Cols != 1 {
		return nil, fmt.Errorf("tensor: MulBroadcast scale must be 1x1, got %dx%d", s.Rows, s.Cols)
	}
	lanes, err := laneCompat(a, s)
	if err != nil {
		return nil, err
	}
	out := tp.resultRaw(lanes, a.Rows, a.Cols, a.requiresGrad || s.requiresGrad)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		ad, od := opLane(a, l), out.Data[l*st:(l+1)*st]
		sv := opLane(s, l)[0]
		for i := range od {
			od[i] = ad[i] * sv
		}
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.requiresGrad {
				fresh := a.ensureGradRaw()
				for l := 0; l < lanes; l++ {
					ag, og := opLaneGrad(a, l), out.Grad[l*st:(l+1)*st]
					sv := opLane(s, l)[0]
					if storeLane(a, fresh, l) {
						for i, g := range og {
							ag[i] = g*sv + 0
						}
						continue
					}
					for i, g := range og {
						ag[i] += g * sv
					}
				}
			}
			if s.requiresGrad {
				s.ensureGrad()
				for l := 0; l < lanes; l++ {
					ad, og := opLane(a, l), out.Grad[l*st:(l+1)*st]
					var g float64
					for i := range og {
						g += og[i] * ad[i]
					}
					opLaneGrad(s, l)[0] += g
				}
			}
		})
	}
	return out, nil
}

// ReLU returns max(0, a) elementwise.
func (tp *Tape) ReLU(a *Tensor) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i, v := range a.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = 0
		}
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for i := range out.Grad {
				if a.Data[i] > 0 {
					a.Grad[i] += out.Grad[i]
				}
			}
		})
	}
	return out, nil
}

// Tanh returns tanh(a) elementwise.
func (tp *Tape) Tanh(a *Tensor) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i, v := range a.Data {
		out.Data[i] = math.Tanh(v)
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.ensureGradRaw() {
				for i, g := range out.Grad {
					y := out.Data[i]
					a.Grad[i] = g*(1-y*y) + 0
				}
				return
			}
			for i, g := range out.Grad {
				y := out.Data[i]
				a.Grad[i] += g * (1 - y*y)
			}
		})
	}
	return out, nil
}

// Sigmoid returns 1/(1+e^-a) elementwise.
func (tp *Tape) Sigmoid(a *Tensor) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i, v := range a.Data {
		out.Data[i] = 1 / (1 + math.Exp(-v))
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for i := range out.Grad {
				y := out.Data[i]
				a.Grad[i] += out.Grad[i] * y * (1 - y)
			}
		})
	}
	return out, nil
}

// Softplus returns log(1+e^a) elementwise, computed stably.
func (tp *Tape) Softplus(a *Tensor) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i, v := range a.Data {
		out.Data[i] = softplus(v)
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			if a.ensureGradRaw() {
				for i, g := range out.Grad {
					a.Grad[i] = g/(1+math.Exp(-a.Data[i])) + 0
				}
				return
			}
			for i, g := range out.Grad {
				a.Grad[i] += g / (1 + math.Exp(-a.Data[i]))
			}
		})
	}
	return out, nil
}

func softplus(v float64) float64 {
	if v > 30 {
		return v
	}
	if v < -30 {
		return math.Exp(v)
	}
	return math.Log1p(math.Exp(v))
}

// Abs returns |a| elementwise (subgradient 0 at 0).
func (tp *Tape) Abs(a *Tensor) (*Tensor, error) {
	out := tp.resultRaw(a.LaneCount(), a.Rows, a.Cols, a.requiresGrad)
	for i, v := range a.Data {
		out.Data[i] = math.Abs(v)
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for i := range out.Grad {
				switch {
				case a.Data[i] > 0:
					a.Grad[i] += out.Grad[i]
				case a.Data[i] < 0:
					a.Grad[i] -= out.Grad[i]
				}
			}
		})
	}
	return out, nil
}

// concatLanes validates the lane axes of a variadic concat: every part
// must be unbatched or share one common lane count. Returns it.
func concatLanes(ts []*Tensor) (int, error) {
	lanes := 1
	for _, t := range ts {
		if lt := t.LaneCount(); lt != 1 {
			if lanes != 1 && lanes != lt {
				return 0, fmt.Errorf("tensor: lane mismatch %d vs %d", lanes, lt)
			}
			lanes = lt
		}
	}
	return lanes, nil
}

// ConcatCols concatenates matrices with equal row counts along columns,
// per lane; unbatched parts are replicated into every lane.
func (tp *Tape) ConcatCols(ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: empty concat")
	}
	rows := ts[0].Rows
	cols := 0
	req := false
	for _, t := range ts {
		if t.Rows != rows {
			return nil, fmt.Errorf("tensor: concat rows %d vs %d", t.Rows, rows)
		}
		cols += t.Cols
		req = req || t.requiresGrad
	}
	lanes, err := concatLanes(ts)
	if err != nil {
		return nil, err
	}
	out := tp.resultRaw(lanes, rows, cols, req)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		od := out.Data[l*st : (l+1)*st]
		off := 0
		for _, t := range ts {
			td := opLane(t, l)
			for i := 0; i < rows; i++ {
				copy(od[i*cols+off:i*cols+off+t.Cols], td[i*t.Cols:(i+1)*t.Cols])
			}
			off += t.Cols
		}
	}
	if req {
		parts := append([]*Tensor(nil), ts...)
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			// Freshness per part, before the lane loop; a stack array
			// holds it for the usual few parts.
			var freshBuf [8]bool
			fresh := freshBuf[:0]
			for _, t := range parts {
				fresh = append(fresh, t.requiresGrad && t.ensureGradRaw())
			}
			for l := 0; l < lanes; l++ {
				og := out.Grad[l*st : (l+1)*st]
				off := 0
				for p, t := range parts {
					if t.requiresGrad {
						tg, store := opLaneGrad(t, l), storeLane(t, fresh[p], l)
						for i := 0; i < rows; i++ {
							addGrad(tg[i*t.Cols:(i+1)*t.Cols], og[i*cols+off:i*cols+off+t.Cols], store)
						}
					}
					off += t.Cols
				}
			}
		})
	}
	return out, nil
}

// ConcatRows stacks matrices with equal column counts along rows, per
// lane; unbatched parts are replicated into every lane.
func (tp *Tape) ConcatRows(ts ...*Tensor) (*Tensor, error) {
	if len(ts) == 0 {
		return nil, fmt.Errorf("tensor: empty row concat")
	}
	cols := ts[0].Cols
	rows := 0
	req := false
	for _, t := range ts {
		if t.Cols != cols {
			return nil, fmt.Errorf("tensor: concat cols %d vs %d", t.Cols, cols)
		}
		rows += t.Rows
		req = req || t.requiresGrad
	}
	lanes, err := concatLanes(ts)
	if err != nil {
		return nil, err
	}
	out := tp.resultRaw(lanes, rows, cols, req)
	st := out.laneStride()
	for l := 0; l < lanes; l++ {
		od := out.Data[l*st : (l+1)*st]
		off := 0
		for _, t := range ts {
			td := opLane(t, l)
			copy(od[off:off+len(td)], td)
			off += len(td)
		}
	}
	if req {
		parts := append([]*Tensor(nil), ts...)
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			for l := 0; l < lanes; l++ {
				og := out.Grad[l*st : (l+1)*st]
				off := 0
				for _, t := range parts {
					n := t.laneStride()
					if t.requiresGrad {
						t.ensureGrad()
						tg := opLaneGrad(t, l)
						for i := 0; i < n; i++ {
							tg[i] += og[off+i]
						}
					}
					off += n
				}
			}
		})
	}
	return out, nil
}

// IndexError reports an out-of-range (or negative) index handed to a
// gather/scatter op. Hostile index vectors produce this typed error, never
// a panic; callers can unwrap it with errors.As.
type IndexError struct {
	Op    string // op that rejected the index, e.g. "GatherRows"
	Pos   int    // position in the index slice
	Index int32  // offending value
	N     int    // valid half-open range is [0, N)
}

func (e *IndexError) Error() string {
	return fmt.Sprintf("tensor: %s index %d at position %d out of range [0,%d)", e.Op, e.Index, e.Pos, e.N)
}

// checkIndices validates every index against [0, n), returning a typed
// *IndexError for the first violation.
func checkIndices(op string, idx []int32, n int) error {
	for i, r := range idx {
		if r < 0 || int(r) >= n {
			return &IndexError{Op: op, Pos: i, Index: r, N: n}
		}
	}
	return nil
}

// GatherRows returns a matrix whose i-th row is a's row idx[i], applied
// identically within every lane.
func (tp *Tape) GatherRows(a *Tensor, idx []int32) (*Tensor, error) {
	if err := checkIndices("GatherRows", idx, a.Rows); err != nil {
		return nil, err
	}
	lanes := a.LaneCount()
	out := tp.resultRaw(lanes, len(idx), a.Cols, a.requiresGrad)
	st, ast := out.laneStride(), a.laneStride()
	for l := 0; l < lanes; l++ {
		ad, od := a.Data[l*ast:(l+1)*ast], out.Data[l*st:(l+1)*st]
		for i, r := range idx {
			copy(od[i*a.Cols:(i+1)*a.Cols], ad[int(r)*a.Cols:(int(r)+1)*a.Cols])
		}
	}
	if out.requiresGrad {
		rows := tp.captureI32(idx)
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for l := 0; l < lanes; l++ {
				ag, og := a.Grad[l*ast:(l+1)*ast], out.Grad[l*st:(l+1)*st]
				for i, r := range rows {
					for j := 0; j < a.Cols; j++ {
						ag[int(r)*a.Cols+j] += og[i*a.Cols+j]
					}
				}
			}
		})
	}
	return out, nil
}

// SegmentSum sums rows of a into nOut buckets per lane: out[l][seg[i]] +=
// a[l][i].
func (tp *Tape) SegmentSum(a *Tensor, seg []int32, nOut int) (*Tensor, error) {
	if len(seg) != a.Rows {
		return nil, fmt.Errorf("tensor: %d segment ids for %d rows", len(seg), a.Rows)
	}
	if err := checkIndices("SegmentSum", seg, nOut); err != nil {
		return nil, err
	}
	lanes := a.LaneCount()
	out := tp.resultL(lanes, nOut, a.Cols, a.requiresGrad)
	st, ast := out.laneStride(), a.laneStride()
	for l := 0; l < lanes; l++ {
		ad, od := a.Data[l*ast:(l+1)*ast], out.Data[l*st:(l+1)*st]
		for i, s := range seg {
			for j := 0; j < a.Cols; j++ {
				od[int(s)*a.Cols+j] += ad[i*a.Cols+j]
			}
		}
	}
	if out.requiresGrad {
		ids := tp.captureI32(seg)
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			// A gather: every row of a reads one output row, so the
			// kernel writes all of a's gradient.
			store := a.ensureGradRaw()
			for l := 0; l < lanes; l++ {
				ag, og := a.Grad[l*ast:(l+1)*ast], out.Grad[l*st:(l+1)*st]
				for i, s := range ids {
					addGrad(ag[i*a.Cols:(i+1)*a.Cols], og[int(s)*a.Cols:(int(s)+1)*a.Cols], store)
				}
			}
		})
	}
	return out, nil
}

// SegmentMean averages rows of a into nOut buckets; empty buckets stay 0.
func (tp *Tape) SegmentMean(a *Tensor, seg []int32, nOut int) (*Tensor, error) {
	sum, err := tp.SegmentSum(a, seg, nOut)
	if err != nil {
		return nil, err
	}
	counts := tp.scratchF64(nOut)
	for _, s := range seg {
		counts[s]++
	}
	inv := tp.resultRaw(1, nOut, a.Cols, false)
	for r := 0; r < nOut; r++ {
		c := counts[r]
		if c == 0 {
			c = 1
		}
		for j := 0; j < a.Cols; j++ {
			inv.Data[r*a.Cols+j] = 1 / c
		}
	}
	return tp.Mul(sum, inv)
}

// Sum reduces each lane to a scalar: unbatched input yields 1×1, K-lane
// input a K-lane 1×1 (one total per candidate; reduce further with
// SumLanes before Backward).
func (tp *Tape) Sum(a *Tensor) (*Tensor, error) {
	lanes := a.LaneCount()
	out := tp.resultRaw(lanes, 1, 1, a.requiresGrad)
	ast := a.laneStride()
	for l := 0; l < lanes; l++ {
		var s float64
		for _, v := range a.Data[l*ast : (l+1)*ast] {
			s += v
		}
		out.Data[l] = s
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for l := 0; l < lanes; l++ {
				g := out.Grad[l]
				ag := a.Grad[l*ast : (l+1)*ast]
				for i := range ag {
					ag[i] += g
				}
			}
		})
	}
	return out, nil
}

// LSE computes the Log-Sum-Exp smooth maximum of a vector with
// temperature gamma (paper Eq. 5):
//
//	LSE(x) = γ·log Σ exp(x_i/γ)
//
// Computed with the usual max-shift for stability.
func (tp *Tape) LSE(a *Tensor, gamma float64) (*Tensor, error) {
	if gamma <= 0 {
		return nil, fmt.Errorf("tensor: LSE gamma %g <= 0", gamma)
	}
	if a.Len() == 0 {
		return nil, fmt.Errorf("tensor: LSE of empty tensor")
	}
	lanes := a.LaneCount()
	ast := a.laneStride()
	out := tp.resultRaw(lanes, 1, 1, a.requiresGrad)
	shifts := tp.scratchF64(lanes)
	sums := tp.scratchF64(lanes)
	for l := 0; l < lanes; l++ {
		ad := a.Data[l*ast : (l+1)*ast]
		maxV := ad[0]
		for _, v := range ad {
			if v > maxV {
				maxV = v
			}
		}
		var s float64
		for _, v := range ad {
			s += math.Exp((v - maxV) / gamma)
		}
		shifts[l], sums[l] = maxV, s
		out.Data[l] = maxV + gamma*math.Log(s)
	}
	if out.requiresGrad {
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for l := 0; l < lanes; l++ {
				g := out.Grad[l]
				maxV, s := shifts[l], sums[l]
				ad := a.Data[l*ast : (l+1)*ast]
				ag := a.Grad[l*ast : (l+1)*ast]
				for i, v := range ad {
					ag[i] += g * math.Exp((v-maxV)/gamma) / s
				}
			}
		})
	}
	return out, nil
}

// SegmentLSE computes, per segment and per lane, the Log-Sum-Exp smooth
// maximum of a column vector: out[l][s] = γ·log Σ_{i: seg[i]=s}
// exp(a[l][i]/γ). Segments with no members yield 0. This is the smooth
// replacement for the per-pin max over fanin arrivals in the timing
// evaluator.
func (tp *Tape) SegmentLSE(a *Tensor, seg []int32, nOut int, gamma float64) (*Tensor, error) {
	if a.Cols != 1 {
		return nil, fmt.Errorf("tensor: SegmentLSE needs a column vector")
	}
	if gamma <= 0 {
		return nil, fmt.Errorf("tensor: SegmentLSE gamma %g <= 0", gamma)
	}
	if len(seg) != a.Rows {
		return nil, fmt.Errorf("tensor: %d segment ids for %d rows", len(seg), a.Rows)
	}
	if err := checkIndices("SegmentLSE", seg, nOut); err != nil {
		return nil, err
	}
	lanes := a.LaneCount()
	ast := a.laneStride()
	maxV := tp.scratchF64(lanes * nOut)
	seen := tp.scratchBool(lanes * nOut)
	sums := tp.scratchF64(lanes * nOut)
	out := tp.resultRaw(lanes, nOut, 1, a.requiresGrad)
	for l := 0; l < lanes; l++ {
		ad := a.Data[l*ast : (l+1)*ast]
		mv, sn, sm := maxV[l*nOut:(l+1)*nOut], seen[l*nOut:(l+1)*nOut], sums[l*nOut:(l+1)*nOut]
		for i, s := range seg {
			if !sn[s] || ad[i] > mv[s] {
				mv[s] = ad[i]
				sn[s] = true
			}
		}
		for i, s := range seg {
			sm[s] += math.Exp((ad[i] - mv[s]) / gamma)
		}
		od := out.Data[l*nOut : (l+1)*nOut]
		for s := 0; s < nOut; s++ {
			if sn[s] {
				od[s] = mv[s] + gamma*math.Log(sm[s])
			} else {
				od[s] = 0
			}
		}
	}
	if out.requiresGrad {
		ids := tp.captureI32(seg)
		tp.record(func() {
			if out.Grad == nil {
				return
			}
			a.ensureGrad()
			for l := 0; l < lanes; l++ {
				ad := a.Data[l*ast : (l+1)*ast]
				ag := a.Grad[l*ast : (l+1)*ast]
				og := out.Grad[l*nOut : (l+1)*nOut]
				mv, sm := maxV[l*nOut:(l+1)*nOut], sums[l*nOut:(l+1)*nOut]
				for i, s := range ids {
					w := math.Exp((ad[i]-mv[s])/gamma) / sm[s]
					ag[i] += og[s] * w
				}
			}
		})
	}
	return out, nil
}
