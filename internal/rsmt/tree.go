// Package rsmt constructs and manipulates rectilinear Steiner trees, the
// structures TSteiner optimizes. It plays the role of FLUTE + edge
// shifting in the paper's flow: every multi-pin net is decomposed into a
// tree of two-pin segments through additional Steiner points.
//
// Construction strategy (see DESIGN.md):
//   - ≤2 distinct terminals: direct edge.
//   - small nets: iterated 1-Steiner over the Hanan grid (near-optimal).
//   - large nets: Manhattan MST followed by local median Steinerization.
//
// Degree-2 Steiner nodes are spliced away (never increases wirelength) and
// leaf Steiner nodes dropped, so surviving Steiner nodes all have degree
// ≥3 — the movable points of the optimization, matching the paper's
// Steiner-node statistics.
package rsmt

import (
	"fmt"

	"tsteiner/internal/geom"
	"tsteiner/internal/netlist"
)

// Kind distinguishes the two node types of the (node-heterogeneous)
// Steiner graph.
type Kind uint8

// Node kinds.
const (
	PinNode Kind = iota
	SteinerNode
)

// Node is one vertex of a Steiner tree.
type Node struct {
	Kind Kind
	// Pin is set for PinNode.
	Pin netlist.PinID
	// Pos is the node position. Pin nodes are fixed; Steiner nodes are
	// moved continuously during refinement and rounded at post-processing.
	Pos geom.FPoint
}

// Edge connects two node indices within one tree.
type Edge struct {
	A, B int32
}

// Tree is the Steiner tree of one net. Node 0 is always the net's driver
// pin.
type Tree struct {
	Net   netlist.NetID
	Nodes []Node
	Edges []Edge
}

// SteinerCount returns the number of Steiner nodes.
func (t *Tree) SteinerCount() int {
	n := 0
	for i := range t.Nodes {
		if t.Nodes[i].Kind == SteinerNode {
			n++
		}
	}
	return n
}

// WirelengthF returns the total Manhattan length of the tree's edges using
// the continuous node positions.
func (t *Tree) WirelengthF() float64 {
	var sum float64
	for _, e := range t.Edges {
		sum += geom.ManhattanDistF(t.Nodes[e.A].Pos, t.Nodes[e.B].Pos)
	}
	return sum
}

// Adjacency returns the neighbor lists of the tree.
func (t *Tree) Adjacency() [][]int32 {
	adj := make([][]int32, len(t.Nodes))
	for _, e := range t.Edges {
		adj[e.A] = append(adj[e.A], e.B)
		adj[e.B] = append(adj[e.B], e.A)
	}
	return adj
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{Net: t.Net}
	c.Nodes = append([]Node(nil), t.Nodes...)
	c.Edges = append([]Edge(nil), t.Edges...)
	return c
}

// Validate checks tree invariants against the design:
//   - the net ID and every edge endpoint are in range,
//   - node 0 is the net's driver pin,
//   - the pin nodes are exactly the net's pins,
//   - |E| = |V|−1 and the tree is connected (hence acyclic).
//
// The range checks come first, so a malformed tree (one decoded from an
// untrusted file, say) is an error, never an index panic.
func (t *Tree) Validate(d *netlist.Design) error {
	if t.Net < 0 || int(t.Net) >= len(d.Nets) {
		return fmt.Errorf("rsmt: tree for net %d, design has %d nets", t.Net, len(d.Nets))
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("rsmt: empty tree for net %d", t.Net)
	}
	for _, e := range t.Edges {
		if e.A < 0 || int(e.A) >= len(t.Nodes) || e.B < 0 || int(e.B) >= len(t.Nodes) {
			return fmt.Errorf("rsmt: net %d: edge (%d,%d) outside %d nodes", t.Net, e.A, e.B, len(t.Nodes))
		}
	}
	net := d.Net(t.Net)
	if t.Nodes[0].Kind != PinNode || t.Nodes[0].Pin != net.Driver {
		return fmt.Errorf("rsmt: net %s: node 0 is not the driver", net.Name)
	}
	want := map[netlist.PinID]bool{net.Driver: true}
	for _, s := range net.Sinks {
		want[s] = true
	}
	seen := map[netlist.PinID]bool{}
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.Kind == PinNode {
			if !want[n.Pin] {
				return fmt.Errorf("rsmt: net %s: foreign pin %d in tree", net.Name, n.Pin)
			}
			if seen[n.Pin] {
				return fmt.Errorf("rsmt: net %s: duplicate pin node %d", net.Name, n.Pin)
			}
			seen[n.Pin] = true
		}
	}
	if len(seen) != len(want) {
		return fmt.Errorf("rsmt: net %s: tree covers %d of %d pins", net.Name, len(seen), len(want))
	}
	if len(t.Edges) != len(t.Nodes)-1 {
		return fmt.Errorf("rsmt: net %s: %d edges for %d nodes", net.Name, len(t.Edges), len(t.Nodes))
	}
	// Connectivity via BFS from node 0.
	adj := t.Adjacency()
	visited := make([]bool, len(t.Nodes))
	queue := []int32{0}
	visited[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	if count != len(t.Nodes) {
		return fmt.Errorf("rsmt: net %s: tree disconnected (%d of %d reachable)", net.Name, count, len(t.Nodes))
	}
	return nil
}

// PathLengths returns, for every node, the Manhattan length of the tree
// path from the driver (node 0) — the quantity timing-driven constructions
// like Prim–Dijkstra trade against total wirelength.
func (t *Tree) PathLengths() []float64 {
	adj := t.Adjacency()
	out := make([]float64, len(t.Nodes))
	visited := make([]bool, len(t.Nodes))
	stack := []int32{0}
	visited[0] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range adj[u] {
			if !visited[v] {
				visited[v] = true
				out[v] = out[u] + geom.ManhattanDistF(t.Nodes[u].Pos, t.Nodes[v].Pos)
				stack = append(stack, v)
			}
		}
	}
	return out
}

// Radius returns the largest driver→pin path length in the tree.
func (t *Tree) Radius() float64 {
	pl := t.PathLengths()
	r := 0.0
	for i := range t.Nodes {
		if t.Nodes[i].Kind == PinNode && pl[i] > r {
			r = pl[i]
		}
	}
	return r
}

// Forest is the Steiner tree set S_T of a design: one tree per net, in net
// order.
type Forest struct {
	Trees []*Tree
}

// Stats are the Steiner-side Table I statistics.
type Stats struct {
	SteinerNodes int // Steiner nodes over all trees
	TreeEdges    int // edges over all trees ("# Edges Net" in Table I)
}

// Stats aggregates node/edge counts over the forest.
func (f *Forest) Stats() Stats {
	var s Stats
	for _, t := range f.Trees {
		s.SteinerNodes += t.SteinerCount()
		s.TreeEdges += len(t.Edges)
	}
	return s
}

// TotalWirelengthF sums the continuous wirelength of all trees.
func (f *Forest) TotalWirelengthF() float64 {
	var sum float64
	for _, t := range f.Trees {
		sum += t.WirelengthF()
	}
	return sum
}

// Clone deep-copies the forest.
func (f *Forest) Clone() *Forest {
	c := &Forest{Trees: make([]*Tree, len(f.Trees))}
	for i, t := range f.Trees {
		c.Trees[i] = t.Clone()
	}
	return c
}

// Validate checks that slot i holds net i's tree and that every tree is
// valid.
func (f *Forest) Validate(d *netlist.Design) error {
	if len(f.Trees) != len(d.Nets) {
		return fmt.Errorf("rsmt: forest has %d trees for %d nets", len(f.Trees), len(d.Nets))
	}
	for i, t := range f.Trees {
		if int(t.Net) != i {
			return fmt.Errorf("rsmt: forest slot %d holds net %d's tree", i, t.Net)
		}
		if err := t.Validate(d); err != nil {
			return err
		}
	}
	return nil
}

// SteinerPositions extracts the continuous coordinates of every Steiner
// node in forest order — the optimization variables (X_s, Y_s) of the
// paper. The returned index slice records (tree, node) for each variable.
func (f *Forest) SteinerPositions() (xs, ys []float64, index []SteinerRef) {
	for ti, t := range f.Trees {
		for ni := range t.Nodes {
			if t.Nodes[ni].Kind == SteinerNode {
				xs = append(xs, t.Nodes[ni].Pos.X)
				ys = append(ys, t.Nodes[ni].Pos.Y)
				index = append(index, SteinerRef{Tree: int32(ti), Node: int32(ni)})
			}
		}
	}
	return xs, ys, index
}

// SteinerRef addresses one Steiner node within a forest.
type SteinerRef struct {
	Tree, Node int32
}

// CopySteinerPositionsInto writes the Steiner coordinates into
// caller-owned buffers in forest order (the same order SteinerPositions
// uses) and returns the count written. The allocation-free companion to
// SteinerPositions for hot loops; xs and ys must each hold at least the
// forest's Steiner-node count.
func (f *Forest) CopySteinerPositionsInto(xs, ys []float64) int {
	n := 0
	for _, t := range f.Trees {
		for ni := range t.Nodes {
			if t.Nodes[ni].Kind == SteinerNode {
				xs[n] = t.Nodes[ni].Pos.X
				ys[n] = t.Nodes[ni].Pos.Y
				n++
			}
		}
	}
	return n
}

// CopyPositionsFrom copies every node position from src into f without
// allocating. Both forests must share the same topology (tree count,
// node counts); only positions differ between candidate forests in the
// refinement loop, so this replaces Clone there.
func (f *Forest) CopyPositionsFrom(src *Forest) error {
	if len(f.Trees) != len(src.Trees) {
		return fmt.Errorf("rsmt: copy positions across %d vs %d trees", len(f.Trees), len(src.Trees))
	}
	for ti, t := range f.Trees {
		s := src.Trees[ti]
		if len(t.Nodes) != len(s.Nodes) {
			return fmt.Errorf("rsmt: tree %d has %d vs %d nodes", ti, len(t.Nodes), len(s.Nodes))
		}
		for ni := range t.Nodes {
			t.Nodes[ni].Pos = s.Nodes[ni].Pos
		}
	}
	return nil
}

// SetSteinerPositions writes coordinates back into the forest, clamping to
// the given bounding box (movement is constrained to the grid-graph
// boundary per the paper). The index must come from SteinerPositions on a
// forest with identical topology.
func (f *Forest) SetSteinerPositions(xs, ys []float64, index []SteinerRef, bound geom.BBox) error {
	if len(xs) != len(index) || len(ys) != len(index) {
		return fmt.Errorf("rsmt: position/index length mismatch")
	}
	for i, ref := range index {
		t := f.Trees[ref.Tree]
		if t.Nodes[ref.Node].Kind != SteinerNode {
			return fmt.Errorf("rsmt: ref %d does not address a Steiner node", i)
		}
		t.Nodes[ref.Node].Pos = bound.ClampF(geom.FPoint{X: xs[i], Y: ys[i]})
	}
	return nil
}

// RoundPositions snaps every Steiner node to integer DBU coordinates, the
// paper's post-processing step.
func (f *Forest) RoundPositions() {
	for _, t := range f.Trees {
		for i := range t.Nodes {
			if t.Nodes[i].Kind == SteinerNode {
				t.Nodes[i].Pos = t.Nodes[i].Pos.Round().ToF()
			}
		}
	}
}
