// Package gnn implements the paper's customized sign-off timing
// evaluation model (Fig. 3): a two-stage message-passing network that
// first fuses Steiner-tree geometry into pin embeddings (broadcast along
// Steiner edges, reduce along net edges) and then propagates arrival-time
// predictions over the netlist graph in topological order.
//
// The critical property is differentiability with respect to Steiner point
// coordinates: every geometric quantity — edge lengths, per-sink path
// lengths, a differentiable Elmore surrogate, net capacitance — is built
// from tensor ops over the (X_s, Y_s) leaves, so backward propagation
// yields the per-point timing gradients Algorithm 1 consumes.
package gnn

import (
	"fmt"

	"tsteiner/internal/geom"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/tensor"
)

// Level groups the netlist-graph work of one topological rank.
type Level struct {
	// SinkIdx indexes the batch's global sink arrays: net sinks whose pin
	// sits at this level.
	SinkIdx []int32
	// Cell arcs whose output pin sits at this level.
	ArcIn  []int32 // input pin per arc
	ArcOut []int32 // output pin per arc (repeated across arcs of a cell)
	// ArcOutLocal maps each arc to a compact output index within the
	// level; OutPins lists those outputs' pin ids.
	ArcOutLocal []int32
	OutPins     []int32
	// ArcNet is the net driven by the arc's output (index into trees),
	// or -1 when the output is unconnected.
	ArcNet []int32
	// ArcFeats are per-arc constant features [nArcs × 2]: nominal delay
	// and load slope extracted from the library LUTs.
	ArcFeats []float64

	// Derived constants precomputed by finalizeDerived so Forward never
	// rebuilds them: driver/sink pin ids per level sink, the clamped net
	// index and connected-output mask per arc, and ArcFeats split into
	// d0/slope columns for the anchored delay model.
	SinkDrvPin, SinkSnkPin []int32
	ArcNetIdx              []int32
	ArcLoadMask            []float64
	ArcD0, ArcSlope        []float64
}

// Batch is the tensorized graph pair (Steiner graph + netlist graph) of
// one design/forest, ready for Model.Forward.
type Batch struct {
	Design *netlist.Design

	// ---- Steiner graph ----
	NNodes int
	// SrcIdx maps each global tree node to a row of the combined
	// coordinate vector [steiner variables ; constant pin coords].
	SrcIdx []int32
	// NSteiner is the number of Steiner variables; SteinerIndex addresses
	// them in the forest (same order as rsmt.SteinerPositions).
	NSteiner     int
	SteinerIndex []rsmt.SteinerRef
	// ConstPinX/Y hold the fixed coordinates of pin nodes, in first-seen
	// order (rows NSteiner.. of the combined vector).
	ConstPinX, ConstPinY []float64
	// NodeFeats [NNodes × 4]: isSteiner, isDriver, pinCap(norm), degree(norm).
	NodeFeats []float64
	// Tree edges oriented away from the driver.
	EdgePar, EdgeChild, EdgeTree []int32
	NTrees                       int
	// PinCapBelowEdge[e] is the constant pin capacitance hanging below
	// edge e (its child-side subtree).
	PinCapBelowEdge []float64
	// Subtree pairs: for each edge a, every strict descendant edge b.
	SubPairAnchor, SubPairEdge []int32
	// PinCapSumTree[t] is the total sink pin cap of tree t.
	PinCapSumTree []float64
	// NetHPWL[t] is the half-perimeter wirelength of net t's pins — the
	// tree-free wirelength estimate used by the NoSteinerFeatures model
	// variant.
	NetHPWL []float64

	// ---- global sink arrays (one entry per netlist net edge) ----
	SinkDriverPin, SinkSinkPin []int32 // netlist pin ids
	SinkTreeNode, SinkDrvNode  []int32 // global Steiner-graph node ids
	SinkNet                    []int32
	SinkDistDirect             []float64 // constant driver→sink Manhattan distance
	// Path pairs: for each sink s, every tree edge on its driver path.
	PathPairSink, PathPairEdge []int32

	// ---- netlist propagation ----
	Levels []Level
	NPins  int
	// Startpoint boundary conditions.
	QPins, QNet []int32 // register outputs and their nets
	QFeats      []float64
	// QFeats split into d0/slope columns (finalizeDerived).
	QD0, QSlope   []float64
	PIPins, PINet []int32
	// Endpoints and their required times.
	Endpoints   []int32
	EndpointReq []float64

	// Feature normalization constants.
	LenScale, CapScale, ElmScale float64
	RAvg, CAvg                   float64
}

// NewBatch tensorizes a placed design and its Steiner forest. The forest's
// topology is frozen into the batch; only Steiner coordinates vary between
// Forward calls.
func NewBatch(d *netlist.Design, f *rsmt.Forest) (*Batch, error) {
	if len(f.Trees) != len(d.Nets) {
		return nil, fmt.Errorf("gnn: forest/netlist mismatch")
	}
	b := &Batch{Design: d, NTrees: len(f.Trees), NPins: d.NumPins()}
	l := d.Lib
	b.RAvg, b.CAvg = rc.AvgLayerRC(l)
	dieW := float64(d.Die.Width())
	if dieW <= 0 {
		return nil, fmt.Errorf("gnn: design has no die")
	}
	b.LenScale = 1 / dieW
	b.CapScale = 1 / (b.CAvg*dieW + 1e-12)
	b.ElmScale = 1 / (b.RAvg * b.CAvg * dieW * dieW / 2)

	if err := b.buildSteinerGraph(d, f); err != nil {
		return nil, err
	}
	b.buildNetlistLevels(d)
	b.finalizeDerived()
	return b, nil
}

// splitPairs decomposes [d0, slope] feature pairs into two columns.
func splitPairs(feats []float64) (d0, slope []float64) {
	n := len(feats) / 2
	d0 = make([]float64, n)
	slope = make([]float64, n)
	for i := 0; i < n; i++ {
		d0[i] = feats[2*i]
		slope[i] = feats[2*i+1]
	}
	return d0, slope
}

// finalizeDerived precomputes the per-level and per-startpoint constant
// arrays Forward used to rebuild on every call: they depend only on the
// frozen topology, so computing them once removes per-iteration
// allocation from the evaluation hot path.
func (b *Batch) finalizeDerived() {
	b.QD0, b.QSlope = splitPairs(b.QFeats)
	for li := range b.Levels {
		L := &b.Levels[li]
		L.SinkDrvPin = make([]int32, len(L.SinkIdx))
		L.SinkSnkPin = make([]int32, len(L.SinkIdx))
		for i, s := range L.SinkIdx {
			L.SinkDrvPin[i] = b.SinkDriverPin[s]
			L.SinkSnkPin[i] = b.SinkSinkPin[s]
		}
		L.ArcNetIdx = make([]int32, len(L.ArcIn))
		L.ArcLoadMask = make([]float64, len(L.ArcIn))
		for i, nt := range L.ArcNet {
			if nt >= 0 {
				L.ArcNetIdx[i] = nt
				L.ArcLoadMask[i] = 1
			}
		}
		L.ArcD0, L.ArcSlope = splitPairs(L.ArcFeats)
	}
}

// buildSteinerGraph assembles the global node/edge arrays and the
// engineered-feature index pairs.
func (b *Batch) buildSteinerGraph(d *netlist.Design, f *rsmt.Forest) error {
	// First the Steiner variables, in forest order (matching
	// rsmt.SteinerPositions).
	_, _, index := f.SteinerPositions()
	b.SteinerIndex = index
	b.NSteiner = len(index)
	varOf := map[[2]int32]int32{}
	for i, ref := range index {
		varOf[[2]int32{ref.Tree, ref.Node}] = int32(i)
	}

	// Global node ids.
	nodeBase := make([]int32, len(f.Trees)+1)
	total := 0
	for ti, tr := range f.Trees {
		nodeBase[ti] = int32(total)
		total += len(tr.Nodes)
	}
	nodeBase[len(f.Trees)] = int32(total)
	b.NNodes = total
	b.SrcIdx = make([]int32, total)
	b.NodeFeats = make([]float64, total*4)

	// sinkNodeOf[pin] per net: filled while walking trees.
	type sinkLoc struct{ node int32 }
	sinkNode := map[[2]int32]int32{} // (net, pin) -> global node
	_ = sinkLoc{}

	for ti, tr := range f.Trees {
		adjCount := make([]int, len(tr.Nodes))
		for _, e := range tr.Edges {
			adjCount[e.A]++
			adjCount[e.B]++
		}
		for ni := range tr.Nodes {
			g := nodeBase[ti] + int32(ni)
			nd := &tr.Nodes[ni]
			if nd.Kind == rsmt.SteinerNode {
				b.SrcIdx[g] = varOf[[2]int32{int32(ti), int32(ni)}]
				b.NodeFeats[g*4+0] = 1
			} else {
				b.SrcIdx[g] = int32(b.NSteiner + len(b.ConstPinX))
				p := d.Pin(nd.Pin)
				b.ConstPinX = append(b.ConstPinX, float64(p.Pos.X))
				b.ConstPinY = append(b.ConstPinY, float64(p.Pos.Y))
				if ni == 0 {
					b.NodeFeats[g*4+1] = 1 // driver flag
				} else {
					sinkNode[[2]int32{int32(ti), int32(nd.Pin)}] = g
				}
				b.NodeFeats[g*4+2] = p.Cap * 100 // pF → O(1)
			}
			b.NodeFeats[g*4+3] = float64(adjCount[ni]) / 4
		}

		// Orient edges away from the driver (BFS from node 0) and record
		// per-edge structural constants.
		parent, parentEdge, order, err := orientTree(tr)
		if err != nil {
			return fmt.Errorf("gnn: net %d: %w", tr.Net, err)
		}
		base := nodeBase[ti]
		// Per-node pin cap for subtree sums.
		nodePinCap := make([]float64, len(tr.Nodes))
		for ni := range tr.Nodes {
			if tr.Nodes[ni].Kind == rsmt.PinNode && ni != 0 {
				nodePinCap[ni] = d.Pin(tr.Nodes[ni].Pin).Cap
			}
		}
		// Edge ids in batch order for this tree, indexed by tree edge idx.
		edgeGlobal := make([]int32, len(tr.Edges))
		for _, v := range order[1:] { // skip root
			eIdx := parentEdge[v]
			edgeGlobal[eIdx] = int32(len(b.EdgePar))
			b.EdgePar = append(b.EdgePar, base+parent[v])
			b.EdgeChild = append(b.EdgeChild, base+int32(v))
			b.EdgeTree = append(b.EdgeTree, int32(ti))
		}
		// Subtree pin caps and descendant-edge pairs via reverse order.
		subPinCap := make([]float64, len(tr.Nodes))
		copy(subPinCap, nodePinCap)
		for i := len(order) - 1; i >= 1; i-- {
			v := order[i]
			subPinCap[parent[v]] += subPinCap[v]
		}
		treeCap := 0.0
		for ni := range tr.Nodes {
			treeCap += nodePinCap[ni]
		}
		b.PinCapSumTree = append(b.PinCapSumTree, treeCap)
		// Netlist-only wirelength estimate (no tree knowledge).
		netOfTree := d.Net(tr.Net)
		bb := geom.EmptyBBox()
		bb = bb.Expand(d.Pin(netOfTree.Driver).Pos)
		for _, sp := range netOfTree.Sinks {
			bb = bb.Expand(d.Pin(sp).Pos)
		}
		b.NetHPWL = append(b.NetHPWL, float64(bb.HalfPerimeter()))
		// PinCapBelowEdge: for edge (parent→v): subPinCap[v].
		pinCapBelow := make([]float64, len(tr.Edges))
		for _, v := range order[1:] {
			pinCapBelow[parentEdge[v]] = subPinCap[v]
		}
		// Extend the global array for this tree's edges, then fill via the
		// local→global edge map.
		b.PinCapBelowEdge = append(b.PinCapBelowEdge, make([]float64, len(tr.Edges))...)
		for ei := range tr.Edges {
			b.PinCapBelowEdge[edgeGlobal[ei]] = pinCapBelow[ei]
		}
		// Descendant pairs: walk each node's path to root, adding
		// (ancestorEdge, thisEdge) pairs (strict descendants).
		for _, v := range order[1:] {
			myEdge := edgeGlobal[parentEdge[v]]
			for a := parent[v]; a > 0; a = parent[a] {
				ancEdge := edgeGlobal[parentEdge[a]]
				b.SubPairAnchor = append(b.SubPairAnchor, ancEdge)
				b.SubPairEdge = append(b.SubPairEdge, myEdge)
			}
		}

		// Sink arrays and path pairs.
		net := d.Net(tr.Net)
		drvNode := base // node 0
		for _, spid := range net.Sinks {
			g, ok := sinkNode[[2]int32{int32(ti), int32(spid)}]
			if !ok {
				return fmt.Errorf("gnn: net %s sink %d missing in tree", net.Name, spid)
			}
			sIdx := int32(len(b.SinkSinkPin))
			b.SinkDriverPin = append(b.SinkDriverPin, int32(net.Driver))
			b.SinkSinkPin = append(b.SinkSinkPin, int32(spid))
			b.SinkTreeNode = append(b.SinkTreeNode, g)
			b.SinkDrvNode = append(b.SinkDrvNode, drvNode)
			b.SinkNet = append(b.SinkNet, int32(ti))
			dd := d.Pin(net.Driver).Pos
			sp := d.Pin(spid).Pos
			dx := dd.X - sp.X
			if dx < 0 {
				dx = -dx
			}
			dy := dd.Y - sp.Y
			if dy < 0 {
				dy = -dy
			}
			b.SinkDistDirect = append(b.SinkDistDirect, float64(dx+dy))
			// Path: walk v = sink node up to root.
			v := g - base
			for v != 0 {
				b.PathPairSink = append(b.PathPairSink, sIdx)
				b.PathPairEdge = append(b.PathPairEdge, edgeGlobal[parentEdge[v]])
				v = parent[v]
			}
		}
	}
	return nil
}

// orientTree BFS-orients a tree from node 0, returning parent node,
// parent edge index, and BFS order.
func orientTree(tr *rsmt.Tree) (parent []int32, parentEdge []int32, order []int32, err error) {
	n := len(tr.Nodes)
	adj := make([][]int32, n)
	adjEdge := make([][]int32, n)
	for ei, e := range tr.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
		adjEdge[e.A] = append(adjEdge[e.A], int32(ei))
		adjEdge[e.B] = append(adjEdge[e.B], int32(ei))
	}
	parent = make([]int32, n)
	parentEdge = make([]int32, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[0] = -1
	order = append(order, 0)
	for qi := 0; qi < len(order); qi++ {
		u := order[qi]
		for k, v := range adj[u] {
			if parent[v] == -2 {
				parent[v] = u
				parentEdge[v] = adjEdge[u][k]
				order = append(order, v)
			}
		}
	}
	if len(order) != n {
		return nil, nil, nil, fmt.Errorf("tree disconnected")
	}
	return parent, parentEdge, order, nil
}

// buildNetlistLevels groups net edges and cell arcs by the level of
// the timing-graph pin they write.
func (b *Batch) buildNetlistLevels(d *netlist.Design) {
	g := d.Graph()
	b.Levels = make([]Level, g.Levels())

	// Net sinks by sink pin level.
	for sIdx, s := range b.SinkSinkPin {
		lv := g.Level(netlist.PinID(s))
		b.Levels[lv].SinkIdx = append(b.Levels[lv].SinkIdx, int32(sIdx))
	}

	// Cell arcs by output pin level; startpoint boundary conditions.
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		out := inst.OutputPin()
		net := d.Pin(out).Net
		if inst.Master.Sequential {
			arc := inst.Master.ArcFrom("CK")
			if arc == nil || net == netlist.NoID {
				continue
			}
			b.QPins = append(b.QPins, int32(out))
			b.QNet = append(b.QNet, int32(net))
			d0, slope := arcConsts(arc)
			b.QFeats = append(b.QFeats, d0, slope)
			continue
		}
		L := &b.Levels[g.Level(out)]
		outLocal := int32(len(L.OutPins))
		L.OutPins = append(L.OutPins, int32(out))
		for i, in := range inst.InputPins() {
			arc := inst.Master.ArcFrom(inst.Master.Inputs[i])
			if arc == nil {
				continue
			}
			L.ArcIn = append(L.ArcIn, int32(in))
			L.ArcOut = append(L.ArcOut, int32(out))
			L.ArcOutLocal = append(L.ArcOutLocal, outLocal)
			if net == netlist.NoID {
				L.ArcNet = append(L.ArcNet, -1)
			} else {
				L.ArcNet = append(L.ArcNet, int32(net))
			}
			d0, slope := arcConsts(arc)
			L.ArcFeats = append(L.ArcFeats, d0, slope)
		}
	}
	for _, pid := range d.PIs {
		if net := d.Pin(pid).Net; net != netlist.NoID {
			b.PIPins = append(b.PIPins, int32(pid))
			b.PINet = append(b.PINet, int32(net))
		}
	}

	// Endpoints.
	for _, e := range d.Endpoints() {
		req := d.ClockPeriod
		p := d.Pin(e)
		if !p.IsPort {
			req -= d.Cell(p.Cell).Master.Setup
		}
		b.Endpoints = append(b.Endpoints, int32(e))
		b.EndpointReq = append(b.EndpointReq, req)
	}
}

// arcConsts summarizes a delay LUT by its nominal value and load slope —
// the constant per-arc features the cell-delay head consumes.
func arcConsts(arc *lib.Arc) (d0, slope float64) {
	d0 = arc.Delay.Lookup(0.05, 0.01)
	slope = (arc.Delay.Lookup(0.05, 0.20) - d0) / 0.19
	return d0, slope
}

// Labels extracts per-pin ground-truth arrivals from a sign-off STA
// result, the training target of the evaluator.
func Labels(res *sta.Result) []float64 {
	return append([]float64(nil), res.Arrival...)
}

// EngineeredFeatures evaluates the differentiable parasitic features the
// model's heads consume — per-sink Elmore surrogate and driver→sink path
// length (both from tree geometry), plus per-net capacitance — without
// gradients, through the same first stage Forward runs. Sinks are
// indexed in the batch's global sink order; nets in tree order. Exposed
// for analysis and validated against hand-computed Elmore in tests.
func (b *Batch) EngineeredFeatures(f *rsmt.Forest) (elm, pathLen, netCap []float64, err error) {
	tp := tensor.NewTape()
	xs, ys, err := b.SteinerLeaves(tp, f)
	if err != nil {
		return nil, nil, nil, err
	}
	ft, err := steinerFeatures(tp, b, xs, ys)
	if err != nil {
		return nil, nil, nil, err
	}
	return append([]float64(nil), ft.elmS.Data...),
		append([]float64(nil), ft.pathS.Data...),
		append([]float64(nil), ft.netCap.Data...), nil
}

// SteinerLeaves creates the (X_s, Y_s) leaf tensors for a forest snapshot
// on the given tape, in the batch's variable order.
func (b *Batch) SteinerLeaves(tp *tensor.Tape, f *rsmt.Forest) (xs, ys *tensor.Tensor, err error) {
	xsv := make([]float64, b.NSteiner)
	ysv := make([]float64, b.NSteiner)
	if err := b.FillSteinerCoords(f, xsv, ysv); err != nil {
		return nil, nil, err
	}
	return b.LeavesFromCoords(tp, xsv, ysv)
}

// FillSteinerCoords writes the forest's Steiner coordinates into
// caller-owned buffers (each of length NSteiner, the batch's variable
// order), validating that the forest still has the batch's topology.
// The allocation-free core of SteinerLeaves for the refine hot path.
func (b *Batch) FillSteinerCoords(f *rsmt.Forest, xs, ys []float64) error {
	if len(xs) != b.NSteiner || len(ys) != b.NSteiner {
		return fmt.Errorf("gnn: coordinate buffers of %d/%d for %d Steiner vars", len(xs), len(ys), b.NSteiner)
	}
	n := 0
	for ti, t := range f.Trees {
		for ni := range t.Nodes {
			if t.Nodes[ni].Kind != rsmt.SteinerNode {
				continue
			}
			if n >= b.NSteiner {
				return fmt.Errorf("gnn: forest has more than %d Steiner vars", b.NSteiner)
			}
			if ref := (rsmt.SteinerRef{Tree: int32(ti), Node: int32(ni)}); ref != b.SteinerIndex[n] {
				return fmt.Errorf("gnn: forest topology differs from batch at var %d", n)
			}
			xs[n] = t.Nodes[ni].Pos.X
			ys[n] = t.Nodes[ni].Pos.Y
			n++
		}
	}
	if n != b.NSteiner {
		return fmt.Errorf("gnn: forest has %d Steiner vars, batch %d", n, b.NSteiner)
	}
	return nil
}

// LeavesFromCoords builds the (X_s, Y_s) leaf tensors from coordinate
// slices already in batch variable order, copying into tape-owned
// (workspace-pooled, when available) storage.
func (b *Batch) LeavesFromCoords(tp *tensor.Tape, xs, ys []float64) (*tensor.Tensor, *tensor.Tensor, error) {
	xt, err := tp.CopyIn(len(xs), 1, xs)
	if err != nil {
		return nil, nil, err
	}
	yt, err := tp.CopyIn(len(ys), 1, ys)
	if err != nil {
		return nil, nil, err
	}
	return tp.Leaf(xt), tp.Leaf(yt), nil
}
