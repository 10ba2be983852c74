package tensor

import "fmt"

// Workspace is an arena of reusable tensor storage for the evaluation hot
// path: instead of allocating fresh Data/Grad buffers, tensor headers and
// index captures on every forward/backward pass, a tape bound to a
// workspace draws them from per-length free lists and the caller reclaims
// everything at once with Reset between iterations.
//
// Purity contract (the determinism invariant): arithmetic on pooled
// storage is byte-identical to arithmetic on freshly allocated storage,
// and no state can leak from one iteration into the next. A buffer an op
// accumulates into is zeroed first. A buffer handed out un-zeroed goes
// only to a kernel that writes every element before any read: a forward
// kernel filling its output (resultRaw), or a backward kernel writing
// every element of an operand's gradient (ensureGradRaw), which stores
// g + 0 where the allocating tape adds g to +0. The only observable
// difference between the pooled and allocating paths is the allocation
// count.
//
// Lifetime contract: Reset invalidates every tensor, slice and tape
// recording produced since the previous Reset — callers must copy any
// result they keep (gradients, metrics) out of workspace storage before
// resetting. A Workspace is not safe for concurrent use; parallel fan-outs
// own one workspace per goroutine.
type Workspace struct {
	f64   map[int][][]float64
	i32   map[int][][]int32
	bools map[int][][]bool

	usedF64  [][]float64
	usedI32  [][]int32
	usedBool [][]bool

	headers     []*Tensor
	usedHeaders []*Tensor

	tape *Tape

	grabs, hits int64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{
		f64:   map[int][][]float64{},
		i32:   map[int][][]int32{},
		bools: map[int][][]bool{},
	}
}

// Tape resets the workspace and returns its owned tape (also reset) —
// the per-iteration entry point: every tensor and recording from the
// previous iteration is reclaimed before the next forward pass begins.
func (ws *Workspace) Tape() *Tape {
	ws.Reset()
	if ws.tape == nil {
		ws.tape = &Tape{ws: ws}
	}
	ws.tape.Reset()
	return ws.tape
}

// Reset reclaims every buffer and tensor header handed out since the
// previous Reset. Tensors obtained before the call must no longer be used.
func (ws *Workspace) Reset() {
	for _, b := range ws.usedF64 {
		ws.f64[len(b)] = append(ws.f64[len(b)], b)
	}
	ws.usedF64 = ws.usedF64[:0]
	for _, b := range ws.usedI32 {
		ws.i32[len(b)] = append(ws.i32[len(b)], b)
	}
	ws.usedI32 = ws.usedI32[:0]
	for _, b := range ws.usedBool {
		ws.bools[len(b)] = append(ws.bools[len(b)], b)
	}
	ws.usedBool = ws.usedBool[:0]
	ws.headers = append(ws.headers, ws.usedHeaders...)
	ws.usedHeaders = ws.usedHeaders[:0]
}

// WorkspaceStats summarizes pool behavior for telemetry: Grabs counts
// buffer requests, Hits the requests served from a free list.
type WorkspaceStats struct {
	Grabs, Hits int64
}

// Stats returns cumulative pool counters (telemetry only — never fed back
// into computation).
func (ws *Workspace) Stats() WorkspaceStats {
	return WorkspaceStats{Grabs: ws.grabs, Hits: ws.hits}
}

// grabF64 returns a zeroed length-n float64 slice from the pool.
func (ws *Workspace) grabF64(n int) []float64 {
	b := ws.grabF64Raw(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// grabF64Raw returns a length-n float64 slice from the pool WITHOUT
// zeroing a reused buffer. Only for op outputs and gradient buffers whose
// kernel writes every element (a fresh pool miss is still zeroed by the
// allocator, so the contents must never be read before being written
// anyway).
func (ws *Workspace) grabF64Raw(n int) []float64 {
	if n == 0 {
		return nil
	}
	ws.grabs++
	var b []float64
	if free := ws.f64[n]; len(free) > 0 {
		b = free[len(free)-1]
		ws.f64[n] = free[:len(free)-1]
		ws.hits++
	} else {
		b = make([]float64, n)
	}
	ws.usedF64 = append(ws.usedF64, b)
	return b
}

// grabI32 returns a length-n int32 slice from the pool (contents
// unspecified; callers overwrite every element).
func (ws *Workspace) grabI32(n int) []int32 {
	if n == 0 {
		return nil
	}
	ws.grabs++
	var b []int32
	if free := ws.i32[n]; len(free) > 0 {
		b = free[len(free)-1]
		ws.i32[n] = free[:len(free)-1]
		ws.hits++
	} else {
		b = make([]int32, n)
	}
	ws.usedI32 = append(ws.usedI32, b)
	return b
}

// grabBool returns a zeroed length-n bool slice from the pool.
func (ws *Workspace) grabBool(n int) []bool {
	if n == 0 {
		return nil
	}
	ws.grabs++
	var b []bool
	if free := ws.bools[n]; len(free) > 0 {
		b = free[len(free)-1]
		ws.bools[n] = free[:len(free)-1]
		for i := range b {
			b[i] = false
		}
		ws.hits++
	} else {
		b = make([]bool, n)
	}
	ws.usedBool = append(ws.usedBool, b)
	return b
}

// header returns a zeroed tensor header from the pool.
func (ws *Workspace) header() *Tensor {
	var t *Tensor
	if n := len(ws.headers); n > 0 {
		t = ws.headers[n-1]
		ws.headers = ws.headers[:n-1]
		*t = Tensor{}
	} else {
		t = &Tensor{}
	}
	ws.usedHeaders = append(ws.usedHeaders, t)
	return t
}

// tensor builds an op-result tensor backed by pooled storage; lanes sets
// the batch-axis length (1 for unbatched). zeroed selects whether a
// reused Data buffer is cleared — accumulating kernels (MatMul,
// SegmentSum) need it, fully-overwriting kernels skip the memclr.
// Gradient buffers are allocated lazily by ensureGrad or ensureGradRaw
// during Backward, so forward-only evaluation never touches them.
func (ws *Workspace) tensor(tp *Tape, lanes, rows, cols int, reqGrad, zeroed bool) *Tensor {
	t := ws.header()
	t.Rows, t.Cols, t.Lanes = rows, cols, lanes
	if zeroed {
		t.Data = ws.grabF64(lanes * rows * cols)
	} else {
		t.Data = ws.grabF64Raw(lanes * rows * cols)
	}
	t.tape = tp
	t.requiresGrad = reqGrad
	t.wsOwned = true
	return t
}

// Alias wraps data as a rows×cols constant on the tape WITHOUT copying.
// The header is per-tape (pooled when the tape has a workspace) but the
// backing slice is shared: callers must not mutate data for the lifetime
// of the tape. Ops never write their inputs, so aliasing one read-only
// batch constant across many tapes — including concurrently — is safe.
func (tp *Tape) Alias(rows, cols int, data []float64) (*Tensor, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: %d values for %dx%d", len(data), rows, cols)
	}
	var t *Tensor
	if tp.ws != nil {
		t = tp.ws.header()
	} else {
		t = &Tensor{}
	}
	t.Rows, t.Cols = rows, cols
	t.Data = data
	t.tape = tp
	return t, nil
}

// Zeros returns a zeroed non-differentiable rows×cols tensor on the tape,
// drawn from the tape's workspace when present.
func (tp *Tape) Zeros(rows, cols int) *Tensor { return tp.result(rows, cols, false) }

// CopyIn copies data into a tape-owned rows×cols tensor — the pooled
// analogue of FromSlice + Constant.
func (tp *Tape) CopyIn(rows, cols int, data []float64) (*Tensor, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("tensor: %d values for %dx%d", len(data), rows, cols)
	}
	t := tp.result(rows, cols, false)
	copy(t.Data, data)
	return t, nil
}

// captureI32 copies an index slice for a backward closure, drawing the
// copy from the workspace when present (the defensive copy protects the
// recording from callers mutating their slice before Backward runs).
func (tp *Tape) captureI32(idx []int32) []int32 {
	if tp.ws != nil {
		c := tp.ws.grabI32(len(idx))
		copy(c, idx)
		return c
	}
	return append([]int32(nil), idx...)
}

// scratchF64 returns zeroed op-internal scratch (pooled when possible).
func (tp *Tape) scratchF64(n int) []float64 {
	if tp.ws != nil {
		return tp.ws.grabF64(n)
	}
	return make([]float64, n)
}

// scratchBool returns zeroed op-internal scratch (pooled when possible).
func (tp *Tape) scratchBool(n int) []bool {
	if tp.ws != nil {
		return tp.ws.grabBool(n)
	}
	return make([]bool, n)
}
