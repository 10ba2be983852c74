package gnn

import (
	"fmt"

	"tsteiner/internal/tensor"
)

// This file splits a batch's evaluation into the Steiner trees that hold
// a Steiner variable (moving) and the trees that do not (frozen).
// Steiner-graph broadcast and reduce never leave a net, so every row of
// the Steiner stage and the wire head depends on its own tree alone: a
// frozen tree's net capacitance and its sinks' wire deltas are the same
// at every coordinate set. Freeze evaluates them once; Frozen.ForwardBatch
// then runs the Steiner stage and the wire head on the moving trees only
// and merges the frozen rows in, while register launch and level
// propagation run in full.
//
// The result is bit-identical to Model.ForwardBatch, values and
// coordinate gradients alike:
//   - A sub-batch keeps its nodes, edges, subtree pairs, sinks and path
//     pairs in the full batch's relative order, so every sum over them
//     runs in the same order, and the dense kernel computes each row
//     independently.
//   - Trees keep their global ids, and a tree outside the sub-batch has
//     no edges: its net-cap row is c̄·(+0) + PinCapSumTree[t]. The moving
//     sub-batch stores the frozen net cap there (and a zero HPWL for the
//     netlist-only variant), so its netCap is the merged tensor. +0 + v is
//     v for every v but −0, and a capacitance is never −0.
//   - Wire deltas merge by ConcatRows and GatherRows, which copy.
//   - Every consumer reads the merged tensors, in forward's op order, so
//     each gradient buffer accumulates the same terms in the same order.
//     The merge hands each moving row the gradient +0 + g, which is g:
//     a gradient buffer starts at +0, or takes g + 0 as its first store,
//     and can never become −0.
//
// TestFrozenForwardMatchesFull holds values and gradients to the full
// forward; core's, bench's and exp's replay gates hold refinement end to
// end to the outputs a full-forward refiner recorded.

// Frozen is a batch's frozen rows under fixed model weights, with the
// moving sub-batch the frozen forward evaluates. It is valid while the
// model's parameters stay unchanged, as they do during refinement, and,
// like the model, must not be used from two goroutines at once; Clone
// gives each further goroutine a view of the same rows over its own
// model clone, with bit-identical results (core's refiner runs its lane
// groups this way).
type Frozen struct {
	m      *Model
	b      *Batch
	moving *Batch
	// wireDelta holds the frozen sinks' wire deltas in batch sink order.
	wireDelta []float64
	// sinkRow maps each batch sink to its row in [moving sinks' wire
	// deltas ; wireDelta].
	sinkRow []int32
}

// Freeze evaluates b's frozen trees through the Steiner stage and the
// wire head on tp, which is scratch: everything Freeze keeps is copied
// out of it.
func (m *Model) Freeze(tp *tensor.Tape, b *Batch) (*Frozen, error) {
	moving := make([]bool, b.NTrees)
	for _, ref := range b.SteinerIndex {
		moving[ref.Tree] = true
	}
	fb, err := b.subBatch(moving, false)
	if err != nil {
		return nil, err
	}
	mb, err := b.subBatch(moving, true)
	if err != nil {
		return nil, err
	}
	for _, p := range m.Params() {
		tp.Constant(p)
	}
	none := tp.Zeros(0, 1) // a frozen tree has no Steiner coordinates
	st, err := m.steinerStage(tp, fb, none, none)
	if err != nil {
		return nil, err
	}
	wd, err := m.wireHead(tp, fb, st)
	if err != nil {
		return nil, err
	}

	mb.PinCapSumTree = make([]float64, b.NTrees)
	mb.NetHPWL = make([]float64, b.NTrees)
	for t, mv := range moving {
		if mv {
			mb.PinCapSumTree[t], mb.NetHPWL[t] = b.PinCapSumTree[t], b.NetHPWL[t]
		} else {
			mb.PinCapSumTree[t] = st.netCap.Data[t]
		}
	}
	nMoving := int32(len(mb.SinkNet))
	sinkRow := make([]int32, len(b.SinkNet))
	var nm, nf int32
	for s, t := range b.SinkNet {
		if moving[t] {
			sinkRow[s] = nm
			nm++
		} else {
			sinkRow[s] = nMoving + nf
			nf++
		}
	}
	return &Frozen{
		m: m, b: b, moving: mb,
		wireDelta: append([]float64(nil), wd.Data...),
		sinkRow:   sinkRow,
	}, nil
}

// ForwardBatch is Model.ForwardBatch on the frozen batch with constant
// parameters, bit for bit, evaluating the Steiner stage and the wire head
// on the moving trees only.
func (fz *Frozen) ForwardBatch(tp *tensor.Tape, lanes int, coordsX, coordsY []float64) (*BatchPrediction, error) {
	return fz.m.forwardBatch(tp, fz.b, fz, lanes, coordsX, coordsY, false)
}

// Clone returns a Frozen over a clone of the model that shares the
// receiver's moving sub-batch, frozen wire deltas and sink rows, which
// are read-only after Freeze. The two may run forwards from two
// goroutines at once.
func (fz *Frozen) Clone() *Frozen {
	c := *fz
	c.m = fz.m.Clone()
	return &c
}

// mergeWireDelta places the moving sinks' wire deltas and the frozen ones
// in batch sink order.
func (fz *Frozen) mergeWireDelta(tp *tensor.Tape, moving *tensor.Tensor) (*tensor.Tensor, error) {
	frozen, err := tp.Alias(len(fz.wireDelta), 1, fz.wireDelta)
	if err != nil {
		return nil, err
	}
	all, err := tp.ConcatRows(moving, frozen)
	if err != nil {
		return nil, err
	}
	return tp.GatherRows(all, fz.sinkRow)
}

// subBatch returns the Steiner graph of the trees t with keep[t] == want
// as a batch of its own, for the Steiner stage and the wire head only: it
// has no netlist levels and no SteinerIndex. Nodes, edges, subtree pairs,
// sinks, path pairs and Steiner variables keep their relative order and
// are renumbered; tree ids stay global, so NTrees and the per-tree arrays
// are the full batch's.
func (b *Batch) subBatch(keep []bool, want bool) (*Batch, error) {
	s := &Batch{
		Design: b.Design, NTrees: b.NTrees, NPins: b.NPins,
		PinCapSumTree: b.PinCapSumTree, NetHPWL: b.NetHPWL,
		LenScale: b.LenScale, CapScale: b.CapScale, ElmScale: b.ElmScale,
		RAvg: b.RAvg, CAvg: b.CAvg,
	}
	kept := func(t int32) bool { return keep[t] == want }

	// Trees are contiguous node ranges in tree order, each opening with
	// its root: the one node no edge points at.
	isChild := make([]bool, b.NNodes)
	for _, c := range b.EdgeChild {
		isChild[c] = true
	}
	treeOf := make([]int32, b.NNodes)
	t := int32(-1)
	for g := range treeOf {
		if !isChild[g] {
			t++
		}
		if int(t) >= b.NTrees {
			break
		}
		treeOf[g] = t
	}
	if int(t)+1 != b.NTrees {
		return nil, fmt.Errorf("gnn: batch has %d tree roots for %d trees", t+1, b.NTrees)
	}

	varRow, nVars := rowsOf(b.NSteiner, func(i int) bool { return kept(b.SteinerIndex[i].Tree) })
	s.NSteiner = nVars
	nodeRow, nNodes := rowsOf(b.NNodes, func(g int) bool { return kept(treeOf[g]) })
	s.NNodes = nNodes
	s.SrcIdx = make([]int32, nNodes)
	s.NodeFeats = make([]float64, 4*nNodes)
	s.ConstPinX, s.ConstPinY = make([]float64, 0, nNodes), make([]float64, 0, nNodes)
	for g, r := range nodeRow {
		if r < 0 {
			continue
		}
		if src := int(b.SrcIdx[g]); src < b.NSteiner {
			s.SrcIdx[r] = varRow[src]
		} else {
			s.SrcIdx[r] = int32(s.NSteiner + len(s.ConstPinX))
			s.ConstPinX = append(s.ConstPinX, b.ConstPinX[src-b.NSteiner])
			s.ConstPinY = append(s.ConstPinY, b.ConstPinY[src-b.NSteiner])
		}
		copy(s.NodeFeats[4*r:4*r+4], b.NodeFeats[4*g:4*g+4])
	}

	edgeRow, nEdges := rowsOf(len(b.EdgeTree), func(e int) bool { return kept(b.EdgeTree[e]) })
	s.EdgePar, s.EdgeChild, s.EdgeTree = make([]int32, nEdges), make([]int32, nEdges), make([]int32, nEdges)
	s.PinCapBelowEdge = make([]float64, nEdges)
	for e, r := range edgeRow {
		if r >= 0 {
			s.EdgePar[r], s.EdgeChild[r] = nodeRow[b.EdgePar[e]], nodeRow[b.EdgeChild[e]]
			s.EdgeTree[r], s.PinCapBelowEdge[r] = b.EdgeTree[e], b.PinCapBelowEdge[e]
		}
	}
	s.SubPairAnchor = make([]int32, 0, len(b.SubPairAnchor))
	s.SubPairEdge = make([]int32, 0, len(b.SubPairEdge))
	for i, a := range b.SubPairAnchor {
		if r := edgeRow[a]; r >= 0 {
			s.SubPairAnchor = append(s.SubPairAnchor, r)
			s.SubPairEdge = append(s.SubPairEdge, edgeRow[b.SubPairEdge[i]])
		}
	}

	sinkRow, nSinks := rowsOf(len(b.SinkNet), func(i int) bool { return kept(b.SinkNet[i]) })
	s.SinkDriverPin, s.SinkSinkPin = make([]int32, nSinks), make([]int32, nSinks)
	s.SinkTreeNode, s.SinkDrvNode = make([]int32, nSinks), make([]int32, nSinks)
	s.SinkNet, s.SinkDistDirect = make([]int32, nSinks), make([]float64, nSinks)
	for i, r := range sinkRow {
		if r >= 0 {
			s.SinkDriverPin[r], s.SinkSinkPin[r] = b.SinkDriverPin[i], b.SinkSinkPin[i]
			s.SinkTreeNode[r], s.SinkDrvNode[r] = nodeRow[b.SinkTreeNode[i]], nodeRow[b.SinkDrvNode[i]]
			s.SinkNet[r], s.SinkDistDirect[r] = b.SinkNet[i], b.SinkDistDirect[i]
		}
	}
	s.PathPairSink = make([]int32, 0, len(b.PathPairSink))
	s.PathPairEdge = make([]int32, 0, len(b.PathPairEdge))
	for i, sk := range b.PathPairSink {
		if r := sinkRow[sk]; r >= 0 {
			s.PathPairSink = append(s.PathPairSink, r)
			s.PathPairEdge = append(s.PathPairEdge, edgeRow[b.PathPairEdge[i]])
		}
	}
	return s, nil
}

// rowsOf numbers the positions i < n with keep(i) in order: row[i] is
// i's index among them, or -1 when i is dropped; count is how many are
// kept.
func rowsOf(n int, keep func(int) bool) (row []int32, count int) {
	row = make([]int32, n)
	for i := range row {
		row[i] = -1
		if keep(i) {
			row[i] = int32(count)
			count++
		}
	}
	return row, count
}
