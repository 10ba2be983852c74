package gnn

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"

	"tsteiner/internal/guard"
	"tsteiner/internal/tensor"
)

// Config sizes the evaluator.
type Config struct {
	// Hidden is the Steiner-graph embedding width.
	Hidden int
	// WireHidden / CellHidden size the delay-head MLPs.
	WireHidden, CellHidden int
	// MPIters is the number of broadcast/reduce rounds (the paper uses 3;
	// 0 disables Steiner-graph message passing entirely). The last round
	// has no reduce (its output is never read), so WReduce and BReduce
	// train only at MPIters >= 2.
	MPIters int
	// ArcGamma is the LSE temperature (ns) smoothing the per-pin max over
	// fanin arrivals during netlist propagation.
	ArcGamma float64
	// NoSteinerFeatures replaces every tree-geometry feature (Elmore
	// surrogate, path lengths, tree capacitance) with netlist-only
	// equivalents (HPWL-based), turning the model into the paper's
	// reference [13] class of evaluator: pre-routing prediction with no
	// Steiner awareness. Used to quantify the Steiner graph's value
	// (and it removes all position gradients, so it cannot drive
	// refinement).
	NoSteinerFeatures bool
}

// DefaultConfig mirrors the paper's setup at a width that trains in
// seconds on a single core.
func DefaultConfig() Config {
	return Config{Hidden: 8, WireHidden: 8, CellHidden: 8, MPIters: 3, ArcGamma: 0.05}
}

// Model holds the trainable parameters of the timing evaluator.
type Model struct {
	Cfg Config

	// Steiner-graph stage.
	WNode, BNode     *tensor.Tensor // node encoder: 6 → H
	WBroad, BBroad   *tensor.Tensor // broadcast message: 2H+1 → H
	WReduce, BReduce *tensor.Tensor // reduce message: 2H+2 → H

	// Wire-delay head: H + 4 engineered features → WireHidden → 1.
	WWire1, BWire1, WWire2, BWire2 *tensor.Tensor
	// Cell-delay head: 3 features → CellHidden → 1.
	WCell1, BCell1, WCell2, BCell2 *tensor.Tensor
	// Register launch head (CK→Q): 3 features → 4 → 1.
	WQ1, BQ1, WQ2, BQ2 *tensor.Tensor

	// Physics anchors: learned non-negative gains (via softplus) on the
	// differentiable first-order delay models. They guarantee that the
	// dominant position gradient has the physical sign — more Elmore, more
	// delay — while the MLP heads learn non-negative residual corrections.
	PElm, PPath, PCell, PQ *tensor.Tensor
}

// NewModel initializes parameters deterministically from the seed.
func NewModel(cfg Config, seed int64) *Model {
	if cfg.Hidden <= 0 || cfg.WireHidden <= 0 || cfg.CellHidden <= 0 || cfg.MPIters < 0 || cfg.ArcGamma <= 0 {
		noSteiner := cfg.NoSteinerFeatures
		cfg = DefaultConfig()
		cfg.NoSteinerFeatures = noSteiner
	}
	rng := rand.New(rand.NewSource(seed))
	H := cfg.Hidden
	mk := func(r, c int) *tensor.Tensor {
		t := tensor.NewMatrix(r, c)
		tensor.XavierInit(t, rng)
		return t
	}
	vec := func(n int) *tensor.Tensor { return tensor.NewMatrix(1, n) }
	// Delta heads end in Softplus; biasing their output layers negative
	// makes initial predicted stage delays small (softplus(-3) ≈ 0.05 ns),
	// the right order of magnitude, which cuts training time sharply.
	negBias := func() *tensor.Tensor {
		t := vec(1)
		t.Data[0] = -3
		return t
	}
	scalar := func(v float64) *tensor.Tensor {
		t := vec(1)
		t.Data[0] = v
		return t
	}
	return &Model{
		Cfg:   cfg,
		WNode: mk(6, H), BNode: vec(H),
		WBroad: mk(2*H+1, H), BBroad: vec(H),
		WReduce: mk(2*H+2, H), BReduce: vec(H),
		WWire1: mk(H+4, cfg.WireHidden), BWire1: vec(cfg.WireHidden),
		WWire2: mk(cfg.WireHidden, 1), BWire2: negBias(),
		WCell1: mk(3, cfg.CellHidden), BCell1: vec(cfg.CellHidden),
		WCell2: mk(cfg.CellHidden, 1), BCell2: negBias(),
		WQ1: mk(3, 4), BQ1: vec(4),
		WQ2: mk(4, 1), BQ2: negBias(),
		// softplus(0.5413) ≈ 1: anchors start at unit gain; the path-term
		// gain starts tiny (it is a correction on top of Elmore).
		PElm:  scalar(0.5413),
		PPath: scalar(-3),
		PCell: scalar(0.5413),
		PQ:    scalar(0.5413),
	}
}

// Clone returns a deep copy of the model sharing no tensors with the
// receiver. Forward attaches parameters to the caller's tape (writing the
// tensors' tape pointer and, when training, their gradient buffers), so a
// model must not be used from two goroutines at once — concurrent
// evaluation or refinement runs must each operate on their own clone,
// and so does each lane group of a refiner's candidate pass, one per
// worker (Frozen.Clone). Cloned parameters are value-identical, so
// predictions and gradients are byte-identical to the original's.
func (m *Model) Clone() *Model {
	c := NewModel(m.Cfg, 0)
	dst := c.Params()
	for i, p := range m.Params() {
		copy(dst[i].Data, p.Data)
	}
	return c
}

// SnapshotParams deep-copies every trainable tensor's values in Params()
// order — the model half of a training checkpoint.
func (m *Model) SnapshotParams() [][]float64 {
	ps := m.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// RestoreParams overwrites the trainable tensors from a snapshot taken on
// an identically-configured model.
func (m *Model) RestoreParams(vals [][]float64) error {
	ps := m.Params()
	if len(vals) != len(ps) {
		return fmt.Errorf("gnn: snapshot has %d tensors, want %d", len(vals), len(ps))
	}
	for i, p := range ps {
		if len(vals[i]) != p.Len() {
			return fmt.Errorf("gnn: snapshot tensor %d has %d values, want %d", i, len(vals[i]), p.Len())
		}
	}
	for i, p := range ps {
		copy(p.Data, vals[i])
	}
	return nil
}

// Params returns every trainable tensor.
func (m *Model) Params() []*tensor.Tensor {
	return []*tensor.Tensor{
		m.WNode, m.BNode, m.WBroad, m.BBroad, m.WReduce, m.BReduce,
		m.WWire1, m.BWire1, m.WWire2, m.BWire2,
		m.WCell1, m.BCell1, m.WCell2, m.BCell2,
		m.WQ1, m.BQ1, m.WQ2, m.BQ2,
		m.PElm, m.PPath, m.PCell, m.PQ,
	}
}

// Prediction is the output of a forward pass.
type Prediction struct {
	// Arrival is the predicted arrival time per pin [NPins × 1].
	Arrival *tensor.Tensor
	// EndpointArrival gathers Arrival at the batch's endpoints.
	EndpointArrival *tensor.Tensor
	// Slack = required − arrival per endpoint.
	Slack *tensor.Tensor
}

// Forward runs the two-stage evaluation. xs/ys are the Steiner coordinate
// tensors (leaves when gradients are wanted, constants otherwise);
// trainParams controls whether model parameters join the tape as leaves.
func (m *Model) Forward(tp *tensor.Tape, b *Batch, xs, ys *tensor.Tensor, trainParams bool) (*Prediction, error) {
	return m.forward(tp, b, nil, xs, ys, trainParams)
}

// forward is the one evaluation body behind Forward, ForwardBatch and
// Frozen.ForwardBatch. With fz nil it evaluates the whole graph. With fz
// set, the Steiner stage and the wire head run on fz's moving sub-batch
// only and the frozen rows merge in (see frozen.go); register launch and
// level propagation always run on the whole batch.
//
// The op order is part of the result: register launch is recorded before
// the wire head, and both read the same net-capacitance tensor as the
// levels, so every gradient buffer accumulates its terms in one fixed
// order whether or not rows are frozen.
func (m *Model) forward(tp *tensor.Tape, b *Batch, fz *Frozen, xs, ys *tensor.Tensor, trainParams bool) (*Prediction, error) {
	attach := tp.Constant
	if trainParams {
		attach = tp.Leaf
	}
	for _, p := range m.Params() {
		attach(p)
	}
	sb := b
	if fz != nil {
		sb = fz.moving
	}
	st, err := m.steinerStage(tp, sb, xs, ys)
	if err != nil {
		return nil, err
	}
	arr, err := m.launch(tp, b, st.netCap)
	if err != nil {
		return nil, err
	}
	wireDelta, err := m.wireHead(tp, sb, st)
	if err != nil {
		return nil, err
	}
	if fz != nil {
		if wireDelta, err = fz.mergeWireDelta(tp, wireDelta); err != nil {
			return nil, err
		}
	}
	return m.propagate(tp, b, arr, wireDelta, st.netCap)
}

// stage is the output of the Steiner stage: per-node embeddings, the
// per-sink engineered parasitics and the per-net capacitance.
type stage struct {
	h           *tensor.Tensor
	elmS, pathS *tensor.Tensor
	netCap      *tensor.Tensor
}

// steinerStage runs the evaluator's Steiner-graph half on sb: the
// engineered parasitics, the netlist-only override, and message passing.
// Every row it produces depends on its own tree alone.
func (m *Model) steinerStage(tp *tensor.Tape, sb *Batch, xs, ys *tensor.Tensor) (stage, error) {
	ft, err := steinerFeatures(tp, sb, xs, ys)
	if err != nil {
		return stage{}, err
	}
	st := stage{elmS: ft.elmS, pathS: ft.pathS, netCap: ft.netCap}

	// Netlist-only variant: strip every tree-derived feature, leaving the
	// HPWL-based estimates a pre-routing predictor without Steiner
	// awareness would use (paper reference [13] class). Combined with
	// MPIters=0 the model becomes fully Steiner-blind.
	if m.Cfg.NoSteinerFeatures {
		nSinks := len(sb.SinkSinkPin)
		st.elmS = tp.Zeros(nSinks, 1)
		st.pathS = tp.Zeros(nSinks, 1)
		hp, err := tp.Alias(len(sb.NetHPWL), 1, sb.NetHPWL)
		if err != nil {
			return stage{}, err
		}
		hpCap, err := tp.Scale(hp, sb.CAvg)
		if err != nil {
			return stage{}, err
		}
		pinCapT, _ := tp.Alias(len(sb.PinCapSumTree), 1, sb.PinCapSumTree)
		if st.netCap, err = tp.Add(hpCap, pinCapT); err != nil {
			return stage{}, err
		}
	}

	// ---- Steiner-graph message passing ----
	st.h, err = m.steinerMP(tp, sb, ft.nodeX, ft.nodeY, ft.lenE, st.elmS, st.pathS)
	return st, err
}

// features is the evaluator's first stage (Fig. 3): the tree geometry
// and the engineered parasitics derived from it, all differentiable in
// the Steiner coordinates.
type features struct {
	nodeX, nodeY *tensor.Tensor // per-node coordinates
	lenE         *tensor.Tensor // per-edge Manhattan length |Δx|+|Δy|
	elmS, pathS  *tensor.Tensor // per-sink Elmore surrogate and driver→sink path length
	netCap       *tensor.Tensor // per-net capacitance
}

// steinerFeatures builds the first stage from the Steiner coordinate
// tensors: node coordinates, edge lengths, subtree length, Elmore, path
// length and net capacitance. Forward and EngineeredFeatures both run
// it, so the analysis export is the code the model runs.
func steinerFeatures(tp *tensor.Tape, b *Batch, xs, ys *tensor.Tensor) (features, error) {
	var ft features
	// Batch constants join the tape as aliases: the backing slices are
	// immutable for the batch's lifetime and ops never write inputs.
	pinX, err := tp.Alias(len(b.ConstPinX), 1, b.ConstPinX)
	if err != nil {
		return ft, err
	}
	pinY, _ := tp.Alias(len(b.ConstPinY), 1, b.ConstPinY)
	combX, err := tp.ConcatRows(xs, pinX)
	if err != nil {
		return ft, err
	}
	combY, err := tp.ConcatRows(ys, pinY)
	if err != nil {
		return ft, err
	}
	if ft.nodeX, err = tp.GatherRows(combX, b.SrcIdx); err != nil {
		return ft, err
	}
	if ft.nodeY, err = tp.GatherRows(combY, b.SrcIdx); err != nil {
		return ft, err
	}

	// Edge lengths.
	ax, err := tp.GatherRows(ft.nodeX, b.EdgePar)
	if err != nil {
		return ft, err
	}
	bx, _ := tp.GatherRows(ft.nodeX, b.EdgeChild)
	ay, _ := tp.GatherRows(ft.nodeY, b.EdgePar)
	by, _ := tp.GatherRows(ft.nodeY, b.EdgeChild)
	dx, err := tp.Sub(ax, bx)
	if err != nil {
		return ft, err
	}
	dy, _ := tp.Sub(ay, by)
	adx, err := tp.Abs(dx)
	if err != nil {
		return ft, err
	}
	ady, _ := tp.Abs(dy)
	if ft.lenE, err = tp.Add(adx, ady); err != nil {
		return ft, err
	}

	// Subtree wire length per edge: own length plus descendants.
	descLen, err := gatherSegSum(tp, ft.lenE, b.SubPairEdge, b.SubPairAnchor, len(b.EdgePar))
	if err != nil {
		return ft, err
	}
	subLen, err := tp.Add(ft.lenE, descLen)
	if err != nil {
		return ft, err
	}
	// Downstream cap per edge: c̄·subLen + pin cap below (const).
	wireCapDown, err := tp.Scale(subLen, b.CAvg)
	if err != nil {
		return ft, err
	}
	pinCapBelow, _ := tp.Alias(len(b.PinCapBelowEdge), 1, b.PinCapBelowEdge)
	capDown, err := tp.Add(wireCapDown, pinCapBelow)
	if err != nil {
		return ft, err
	}
	// Elmore contribution per edge: r̄·len ⊙ capDown.
	rE, err := tp.Scale(ft.lenE, b.RAvg)
	if err != nil {
		return ft, err
	}
	elmE, err := tp.Mul(rE, capDown)
	if err != nil {
		return ft, err
	}
	// Per-sink Elmore and path length.
	nSinks := len(b.SinkSinkPin)
	if ft.elmS, err = gatherSegSum(tp, elmE, b.PathPairEdge, b.PathPairSink, nSinks); err != nil {
		return ft, err
	}
	if ft.pathS, err = gatherSegSum(tp, ft.lenE, b.PathPairEdge, b.PathPairSink, nSinks); err != nil {
		return ft, err
	}
	// Net capacitance per tree: c̄·treeLen + Σ pin caps.
	treeLen, err := tp.SegmentSum(ft.lenE, b.EdgeTree, b.NTrees)
	if err != nil {
		return ft, err
	}
	wireCapT, err := tp.Scale(treeLen, b.CAvg)
	if err != nil {
		return ft, err
	}
	pinCapT, _ := tp.Alias(len(b.PinCapSumTree), 1, b.PinCapSumTree)
	ft.netCap, err = tp.Add(wireCapT, pinCapT)
	return ft, err
}

// gatherSegSum is the sparse accumulate out[dst[i]] += src[idx[i]].
func gatherSegSum(tp *tensor.Tape, src *tensor.Tensor, idx, dst []int32, nOut int) (*tensor.Tensor, error) {
	g, err := tp.GatherRows(src, idx)
	if err != nil {
		return nil, err
	}
	return tp.SegmentSum(g, dst, nOut)
}

// steinerMP runs MPIters rounds of broadcast (tree edges, parent→child)
// and reduce (net edges, sink→driver), the paper's bidirectional net
// propagation on the Steiner graph. The last round stops after its
// broadcast. Its reduce would write only driver-node rows of h, and
// nothing reads them: the wire head gathers h at sink nodes, and launch
// and level propagation never read h. So the skipped ops are dead, and
// their backward terms are exact zeros that could not change any
// gradient buffer.
func (m *Model) steinerMP(tp *tensor.Tape, b *Batch, nodeX, nodeY, lenE, elmS, pathS *tensor.Tensor) (*tensor.Tensor, error) {
	xn, err := tp.Scale(nodeX, b.LenScale)
	if err != nil {
		return nil, err
	}
	yn, _ := tp.Scale(nodeY, b.LenScale)
	feats, _ := tp.Alias(b.NNodes, 4, b.NodeFeats)
	f0, err := tp.ConcatCols(xn, yn, feats)
	if err != nil {
		return nil, err
	}
	lin, err := tp.Linear(f0, m.WNode, m.BNode)
	if err != nil {
		return nil, err
	}
	h, err := tp.Tanh(lin)
	if err != nil {
		return nil, err
	}

	lenEn, err := tp.Scale(lenE, b.LenScale)
	if err != nil {
		return nil, err
	}
	elmSn, _ := tp.Scale(elmS, b.ElmScale)
	pathSn, _ := tp.Scale(pathS, b.LenScale)

	for it := 0; it < m.Cfg.MPIters; it++ {
		// Broadcast: message along each tree edge to its child node.
		hp, err := tp.GatherRows(h, b.EdgePar)
		if err != nil {
			return nil, err
		}
		hc, _ := tp.GatherRows(h, b.EdgeChild)
		bin, err := tp.ConcatCols(hp, hc, lenEn)
		if err != nil {
			return nil, err
		}
		blin, err := tp.Linear(bin, m.WBroad, m.BBroad)
		if err != nil {
			return nil, err
		}
		bmsg, err := tp.Tanh(blin)
		if err != nil {
			return nil, err
		}
		upd, err := tp.SegmentSum(bmsg, b.EdgeChild, b.NNodes)
		if err != nil {
			return nil, err
		}
		h, err = tp.Add(h, upd)
		if err != nil {
			return nil, err
		}
		if it == m.Cfg.MPIters-1 {
			break // the last reduce writes only driver rows, which nothing reads
		}

		// Reduce: messages from sink pin nodes back to their driver node.
		hs, err := tp.GatherRows(h, b.SinkTreeNode)
		if err != nil {
			return nil, err
		}
		hd, _ := tp.GatherRows(h, b.SinkDrvNode)
		rin, err := tp.ConcatCols(hs, hd, elmSn, pathSn)
		if err != nil {
			return nil, err
		}
		rlin, err := tp.Linear(rin, m.WReduce, m.BReduce)
		if err != nil {
			return nil, err
		}
		rmsg, err := tp.Tanh(rlin)
		if err != nil {
			return nil, err
		}
		rupd, err := tp.SegmentMean(rmsg, b.SinkDrvNode, b.NNodes)
		if err != nil {
			return nil, err
		}
		h, err = tp.Add(h, rupd)
		if err != nil {
			return nil, err
		}
	}
	return h, nil
}

// launch seeds the per-pin arrival tensor with the register launches:
// arrival at Q = f(arc consts, net load).
func (m *Model) launch(tp *tensor.Tape, b *Batch, netCap *tensor.Tensor) (*tensor.Tensor, error) {
	arr := tp.Zeros(b.NPins, 1)
	if len(b.QPins) == 0 {
		return arr, nil
	}
	qf, err := tp.Alias(len(b.QPins), 2, b.QFeats)
	if err != nil {
		return nil, err
	}
	qcap, err := tp.GatherRows(netCap, b.QNet)
	if err != nil {
		return nil, err
	}
	qcapn, _ := tp.Scale(qcap, 20) // pF → O(1)
	qin, err := tp.ConcatCols(qf, qcapn)
	if err != nil {
		return nil, err
	}
	ql1, err := tp.Linear(qin, m.WQ1, m.BQ1)
	if err != nil {
		return nil, err
	}
	qa, err := tp.Tanh(ql1)
	if err != nil {
		return nil, err
	}
	ql2, err := tp.Linear(qa, m.WQ2, m.BQ2)
	if err != nil {
		return nil, err
	}
	qres, err := tp.Softplus(ql2)
	if err != nil {
		return nil, err
	}
	// Anchor: CK→Q ≈ d0 + slope·load, with a learned unit-init gain.
	qAnchor, err := m.anchoredDelay(tp, b.QD0, b.QSlope, qcap, m.PQ)
	if err != nil {
		return nil, err
	}
	qd, err := tp.Add(qAnchor, qres)
	if err != nil {
		return nil, err
	}
	upd, err := tp.SegmentSum(qd, b.QPins, b.NPins)
	if err != nil {
		return nil, err
	}
	return tp.Add(arr, upd)
}

// wireHead predicts the wire delta of every sink of sb, in sb's sink
// order. st.netCap is indexed by the global tree ids sb.SinkNet holds.
func (m *Model) wireHead(tp *tensor.Tape, sb *Batch, st stage) (*tensor.Tensor, error) {
	elmS, pathS := st.elmS, st.pathS
	elmSn, err := tp.Scale(elmS, sb.ElmScale)
	if err != nil {
		return nil, err
	}
	pathSn, _ := tp.Scale(pathS, sb.LenScale)
	distS, _ := tp.Alias(len(sb.SinkDistDirect), 1, sb.SinkDistDirect)
	distSn, _ := tp.Scale(distS, sb.LenScale)
	capS, err := tp.GatherRows(st.netCap, sb.SinkNet)
	if err != nil {
		return nil, err
	}
	capSn, _ := tp.Scale(capS, 20)

	// Precompute full per-sink wire features once; levels gather rows.
	hSink, err := tp.GatherRows(st.h, sb.SinkTreeNode)
	if err != nil {
		return nil, err
	}
	wireFeat, err := tp.ConcatCols(hSink, elmSn, pathSn, distSn, capSn)
	if err != nil {
		return nil, err
	}
	wl1, err := tp.Linear(wireFeat, m.WWire1, m.BWire1)
	if err != nil {
		return nil, err
	}
	wa, err := tp.Tanh(wl1)
	if err != nil {
		return nil, err
	}
	wl2, err := tp.Linear(wa, m.WWire2, m.BWire2)
	if err != nil {
		return nil, err
	}
	wireRes, err := tp.Softplus(wl2) // [nSinks,1] ≥ 0 residual
	if err != nil {
		return nil, err
	}
	// Physics anchor: wire delay ≈ gain_e·Elmore + gain_p·pathLen, both
	// gains non-negative, so ∂delay/∂position carries the Elmore sign.
	spElm, err := tp.Softplus(m.PElm)
	if err != nil {
		return nil, err
	}
	elmTerm, err := tp.MulBroadcast(elmS, spElm)
	if err != nil {
		return nil, err
	}
	spPath, err := tp.Softplus(m.PPath)
	if err != nil {
		return nil, err
	}
	pathSmall, err := tp.Scale(pathS, 1e-4)
	if err != nil {
		return nil, err
	}
	pathTerm, err := tp.MulBroadcast(pathSmall, spPath)
	if err != nil {
		return nil, err
	}
	wireAnchor, err := tp.Add(elmTerm, pathTerm)
	if err != nil {
		return nil, err
	}
	return tp.Add(wireAnchor, wireRes)
}

// propagate walks netlist levels from the launched arrivals, adding wire
// deltas for net sinks and cell deltas (with a smooth max over fanin) for
// cell outputs.
func (m *Model) propagate(tp *tensor.Tape, b *Batch, arr, wireDelta, netCap *tensor.Tensor) (*Prediction, error) {
	for li := range b.Levels {
		L := &b.Levels[li]
		// Net sinks: arrival = driver arrival + wire delta.
		if len(L.SinkIdx) > 0 {
			aDrv, err := tp.GatherRows(arr, L.SinkDrvPin)
			if err != nil {
				return nil, err
			}
			dlt, err := tp.GatherRows(wireDelta, L.SinkIdx)
			if err != nil {
				return nil, err
			}
			aSnk, err := tp.Add(aDrv, dlt)
			if err != nil {
				return nil, err
			}
			upd, err := tp.SegmentSum(aSnk, L.SinkSnkPin, b.NPins)
			if err != nil {
				return nil, err
			}
			arr, err = tp.Add(arr, upd)
			if err != nil {
				return nil, err
			}
		}
		// Cell arcs: out arrival = smoothmax over (in arrival + delta).
		if len(L.ArcIn) > 0 {
			af, err := tp.Alias(len(L.ArcIn), 2, L.ArcFeats)
			if err != nil {
				return nil, err
			}
			// Load of the driven net (0 for unconnected outputs);
			// mask/index arrays are precomputed by finalizeDerived.
			mask, _ := tp.Alias(len(L.ArcLoadMask), 1, L.ArcLoadMask)
			capArc, err := tp.GatherRows(netCap, L.ArcNetIdx)
			if err != nil {
				return nil, err
			}
			capMasked, err := tp.Mul(capArc, mask)
			if err != nil {
				return nil, err
			}
			capN, _ := tp.Scale(capMasked, 20)
			cin, err := tp.ConcatCols(af, capN)
			if err != nil {
				return nil, err
			}
			cl1, err := tp.Linear(cin, m.WCell1, m.BCell1)
			if err != nil {
				return nil, err
			}
			ca, err := tp.Tanh(cl1)
			if err != nil {
				return nil, err
			}
			cl2, err := tp.Linear(ca, m.WCell2, m.BCell2)
			if err != nil {
				return nil, err
			}
			cres, err := tp.Softplus(cl2)
			if err != nil {
				return nil, err
			}
			cAnchor, err := m.anchoredDelay(tp, L.ArcD0, L.ArcSlope, capMasked, m.PCell)
			if err != nil {
				return nil, err
			}
			cdlt, err := tp.Add(cAnchor, cres)
			if err != nil {
				return nil, err
			}
			aIn, err := tp.GatherRows(arr, L.ArcIn)
			if err != nil {
				return nil, err
			}
			cand, err := tp.Add(aIn, cdlt)
			if err != nil {
				return nil, err
			}
			aOut, err := tp.SegmentLSE(cand, L.ArcOutLocal, len(L.OutPins), m.Cfg.ArcGamma)
			if err != nil {
				return nil, err
			}
			upd, err := tp.SegmentSum(aOut, L.OutPins, b.NPins)
			if err != nil {
				return nil, err
			}
			arr, err = tp.Add(arr, upd)
			if err != nil {
				return nil, err
			}
		}
	}

	epArr, err := tp.GatherRows(arr, b.Endpoints)
	if err != nil {
		return nil, err
	}
	req, err := tp.Alias(len(b.EndpointReq), 1, b.EndpointReq)
	if err != nil {
		return nil, err
	}
	slack, err := tp.Sub(req, epArr)
	if err != nil {
		return nil, err
	}
	return &Prediction{Arrival: arr, EndpointArrival: epArr, Slack: slack}, nil
}

// anchoredDelay computes softplus(gain)·(d0 + slope·load) for per-arc
// constant columns (split once from [d0, slope] feature pairs by
// finalizeDerived) and a differentiable load column — the first-order
// LUT model that anchors each delay head.
func (m *Model) anchoredDelay(tp *tensor.Tape, d0, slope []float64, load *tensor.Tensor, gain *tensor.Tensor) (*tensor.Tensor, error) {
	n := len(d0)
	d0t, err := tp.Alias(n, 1, d0)
	if err != nil {
		return nil, err
	}
	slopeT, _ := tp.Alias(n, 1, slope)
	loadTerm, err := tp.Mul(slopeT, load)
	if err != nil {
		return nil, err
	}
	base, err := tp.Add(d0t, loadTerm)
	if err != nil {
		return nil, err
	}
	spGain, err := tp.Softplus(gain)
	if err != nil {
		return nil, err
	}
	return tp.MulBroadcast(base, spGain)
}

// modelJSON serializes parameters for Save/Load.
type modelJSON struct {
	Cfg    Config
	Params [][]float64
	Shapes [][2]int
}

// Hash returns a short stable digest of the model: the config plus the
// raw bits of every parameter, in parameter order. Run manifests record
// it so every refined result is attributable to the exact evaluator that
// produced it — two models with equal hashes are bit-identical.
func (m *Model) Hash() string {
	h := fnv.New64a()
	json.NewEncoder(h).Encode(m.Cfg)
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Save writes the model to path as JSON. The write is atomic (temp file +
// rename), so a crash mid-save leaves the previous model file intact
// instead of a truncated one.
func (m *Model) Save(path string) error {
	js := modelJSON{Cfg: m.Cfg}
	for _, p := range m.Params() {
		js.Params = append(js.Params, p.Data)
		js.Shapes = append(js.Shapes, [2]int{p.Rows, p.Cols})
	}
	data, err := json.Marshal(js)
	if err != nil {
		return err
	}
	return guard.AtomicWriteFile(path, data, 0o644)
}

// maxModelWidth bounds the layer sizes Decode will instantiate: a
// corrupt or hostile file must not be able to request multi-gigabyte
// parameter tensors before shape validation can reject it.
const maxModelWidth = 1 << 12

// validateConfig rejects configs that NewModel cannot size sanely.
func validateConfig(cfg Config) error {
	for _, d := range []struct {
		name string
		v    int
	}{{"Hidden", cfg.Hidden}, {"WireHidden", cfg.WireHidden}, {"CellHidden", cfg.CellHidden}} {
		if d.v < 1 || d.v > maxModelWidth {
			return fmt.Errorf("%s %d outside [1, %d]", d.name, d.v, maxModelWidth)
		}
	}
	if cfg.MPIters < 0 || cfg.MPIters > 64 {
		return fmt.Errorf("MPIters %d outside [0, 64]", cfg.MPIters)
	}
	if !(cfg.ArcGamma > 0) || cfg.ArcGamma > 100 {
		return fmt.Errorf("ArcGamma %g outside (0, 100]", cfg.ArcGamma)
	}
	return nil
}

// Decode reconstructs a model from the bytes Save wrote. path only
// labels errors. Arbitrary input must yield either a model or a
// *guard.CorruptError — never a panic, an over-allocation, or a partial
// decode (this is the fuzzing surface behind Load).
func Decode(path string, data []byte) (*Model, error) {
	var js modelJSON
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, &guard.CorruptError{Path: path, Reason: "truncated or malformed model JSON", Err: err}
	}
	if err := validateConfig(js.Cfg); err != nil {
		return nil, &guard.CorruptError{Path: path, Reason: fmt.Sprintf("invalid config: %v", err)}
	}
	m := NewModel(js.Cfg, 0)
	ps := m.Params()
	if len(js.Params) != len(ps) || len(js.Shapes) != len(ps) {
		return nil, &guard.CorruptError{Path: path,
			Reason: fmt.Sprintf("saved model has %d tensors, want %d", len(js.Params), len(ps))}
	}
	for i, p := range ps {
		if js.Shapes[i] != [2]int{p.Rows, p.Cols} {
			return nil, &guard.CorruptError{Path: path, Reason: fmt.Sprintf("tensor %d shape mismatch", i)}
		}
		if len(js.Params[i]) != p.Len() {
			return nil, &guard.CorruptError{Path: path, Reason: fmt.Sprintf("tensor %d has %d values, want %d", i, len(js.Params[i]), p.Len())}
		}
		copy(p.Data, js.Params[i])
	}
	return m, nil
}

// Load reads a model saved by Save. A truncated or structurally invalid
// file is rejected with a *guard.CorruptError — never a partial decode.
func Load(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(path, data)
}
