// Package grid models the 3D global-routing grid graph: the die is tiled
// into GCells; adjacent GCells are linked by routing edges with per-layer
// track capacities. Layers alternate preferred direction. The router
// operates on the aggregated 2D view (per-direction capacity) and a layer
// assignment step distributes 2D usage over the stack, the structure used
// by CUGR-class global routers.
package grid

import (
	"fmt"
	"math"

	"tsteiner/internal/geom"
)

// Dir is a routing direction.
type Dir uint8

// Routing directions.
const (
	Horiz Dir = iota
	Vert
)

// Grid is the global-routing graph.
type Grid struct {
	W, H      int // GCells per axis
	GCellSize int // DBU per GCell side
	Die       geom.BBox

	// LayerDir[l] is layer l's preferred direction. Layer 0 is the pin
	// layer and carries no routing capacity.
	LayerDir []Dir
	// LayerCap[l] is the track capacity per GCell edge on layer l.
	LayerCap []int

	// Aggregated per-direction capacities.
	capDir [2]int

	// 2D edge usage. useH[y*(W-1)+x] is the edge (x,y)→(x+1,y);
	// useV[y*W+x] is the edge (x,y)→(x,y+1).
	useH, useV []int32

	// Per-layer usage mirrors the 2D arrays after layer assignment.
	layerUseH, layerUseV [][]int32
}

// New builds a grid covering the die. gcellSize is the GCell side in DBU;
// layerCaps gives per-layer track capacity (index 0 is the pin layer and
// is forced to zero).
func New(die geom.BBox, gcellSize int, layerCaps []int) (*Grid, error) {
	if die.Empty() {
		return nil, fmt.Errorf("grid: empty die")
	}
	if gcellSize < 1 {
		return nil, fmt.Errorf("grid: gcell size %d < 1", gcellSize)
	}
	if len(layerCaps) < 3 {
		return nil, fmt.Errorf("grid: need at least 3 layers, got %d", len(layerCaps))
	}
	w := die.Width()/gcellSize + 1
	h := die.Height()/gcellSize + 1
	if w < 2 {
		w = 2
	}
	if h < 2 {
		h = 2
	}
	g := &Grid{
		W: w, H: h, GCellSize: gcellSize, Die: die,
		LayerCap: append([]int(nil), layerCaps...),
	}
	g.LayerCap[0] = 0
	g.LayerDir = make([]Dir, len(layerCaps))
	for l := range g.LayerDir {
		// Odd layers horizontal, even vertical (M1 pin layer unused).
		if l%2 == 1 {
			g.LayerDir[l] = Horiz
		} else {
			g.LayerDir[l] = Vert
		}
	}
	for l, c := range g.LayerCap {
		if c < 0 {
			return nil, fmt.Errorf("grid: negative capacity on layer %d", l)
		}
		g.capDir[g.LayerDir[l]] += c
	}
	if g.capDir[Horiz] == 0 || g.capDir[Vert] == 0 {
		return nil, fmt.Errorf("grid: a direction has zero total capacity")
	}
	g.useH = make([]int32, (w-1)*h)
	g.useV = make([]int32, w*(h-1))
	g.layerUseH = make([][]int32, len(layerCaps))
	g.layerUseV = make([][]int32, len(layerCaps))
	for l := range layerCaps {
		g.layerUseH[l] = make([]int32, (w-1)*h)
		g.layerUseV[l] = make([]int32, w*(h-1))
	}
	return g, nil
}

// GCellOf maps a DBU point to its GCell coordinates, clamped to the grid.
func (g *Grid) GCellOf(p geom.Point) (int, int) {
	x := (p.X - g.Die.XLo) / g.GCellSize
	y := (p.Y - g.Die.YLo) / g.GCellSize
	if x < 0 {
		x = 0
	}
	if x >= g.W {
		x = g.W - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= g.H {
		y = g.H - 1
	}
	return x, y
}

// Center returns the DBU center of GCell (x, y).
func (g *Grid) Center(x, y int) geom.Point {
	return geom.Point{
		X: g.Die.XLo + x*g.GCellSize + g.GCellSize/2,
		Y: g.Die.YLo + y*g.GCellSize + g.GCellSize/2,
	}
}

// hIndex returns the index of horizontal edge (x,y)→(x+1,y), or -1.
func (g *Grid) hIndex(x, y int) int {
	if x < 0 || x >= g.W-1 || y < 0 || y >= g.H {
		return -1
	}
	return y*(g.W-1) + x
}

// vIndex returns the index of vertical edge (x,y)→(x,y+1), or -1.
func (g *Grid) vIndex(x, y int) int {
	if x < 0 || x >= g.W || y < 0 || y >= g.H-1 {
		return -1
	}
	return y*g.W + x
}

// UsageH returns the 2D usage of horizontal edge (x,y)→(x+1,y).
func (g *Grid) UsageH(x, y int) int {
	if i := g.hIndex(x, y); i >= 0 {
		return int(g.useH[i])
	}
	return 0
}

// UsageV returns the 2D usage of vertical edge (x,y)→(x,y+1).
func (g *Grid) UsageV(x, y int) int {
	if i := g.vIndex(x, y); i >= 0 {
		return int(g.useV[i])
	}
	return 0
}

// CapDir returns the aggregate per-edge capacity for a direction.
func (g *Grid) CapDir(d Dir) int { return g.capDir[d] }

// AddH adjusts usage on horizontal edge (x,y)→(x+1,y) by delta.
func (g *Grid) AddH(x, y int, delta int) {
	if i := g.hIndex(x, y); i >= 0 {
		g.useH[i] += int32(delta)
	}
}

// AddV adjusts usage on vertical edge (x,y)→(x,y+1) by delta.
func (g *Grid) AddV(x, y int, delta int) {
	if i := g.vIndex(x, y); i >= 0 {
		g.useV[i] += int32(delta)
	}
}

// CostH returns the routing cost of crossing horizontal edge (x,y)→(x+1,y)
// with the current usage: a unit base plus a smooth congestion penalty
// that grows exponentially once demand approaches capacity. Used as the
// A* edge weight.
func (g *Grid) CostH(x, y int) float64 { return edgeCost(g.UsageH(x, y), g.capDir[Horiz]) }

// CostV returns the routing cost of crossing vertical edge (x,y)→(x,y+1).
func (g *Grid) CostV(x, y int) float64 { return edgeCost(g.UsageV(x, y), g.capDir[Vert]) }

func edgeCost(usage, cap int) float64 {
	r := float64(usage+1) / float64(cap)
	// Below ~70% utilization the penalty is negligible; past capacity it
	// dominates, pushing the maze router around hot spots.
	return 1.0 + math.Exp(6.0*(r-1.0))
}

// OverflowH returns max(0, usage-capacity) for a horizontal edge.
func (g *Grid) OverflowH(x, y int) int { return overflow(g.UsageH(x, y), g.capDir[Horiz]) }

// OverflowV returns max(0, usage-capacity) for a vertical edge.
func (g *Grid) OverflowV(x, y int) int { return overflow(g.UsageV(x, y), g.capDir[Vert]) }

func overflow(usage, cap int) int {
	if usage > cap {
		return usage - cap
	}
	return 0
}

// TotalOverflow sums overflow over all 2D edges — the global congestion
// figure of merit.
func (g *Grid) TotalOverflow() int {
	sum := 0
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W-1; x++ {
			sum += g.OverflowH(x, y)
		}
	}
	for y := 0; y < g.H-1; y++ {
		for x := 0; x < g.W; x++ {
			sum += g.OverflowV(x, y)
		}
	}
	return sum
}

// CongestionAt returns the worst incident-edge utilization of the GCell
// containing p — the signal edge shifting uses to steer Steiner points
// away from hot spots.
func (g *Grid) CongestionAt(p geom.Point) float64 {
	x, y := g.GCellOf(p)
	best := 0.0
	consider := func(u, c int) {
		if c > 0 {
			if r := float64(u) / float64(c); r > best {
				best = r
			}
		}
	}
	consider(g.UsageH(x, y), g.capDir[Horiz])
	consider(g.UsageH(x-1, y), g.capDir[Horiz])
	consider(g.UsageV(x, y), g.capDir[Vert])
	consider(g.UsageV(x, y-1), g.capDir[Vert])
	return best
}

// ResetUsage clears all 2D and per-layer usage.
func (g *Grid) ResetUsage() {
	clear32 := func(a []int32) {
		for i := range a {
			a[i] = 0
		}
	}
	clear32(g.useH)
	clear32(g.useV)
	for l := range g.layerUseH {
		clear32(g.layerUseH[l])
		clear32(g.layerUseV[l])
	}
}

// LayerUsageH returns per-layer usage of a horizontal edge (for layer
// assignment and tests).
func (g *Grid) LayerUsageH(l, x, y int) int {
	if i := g.hIndex(x, y); i >= 0 {
		return int(g.layerUseH[l][i])
	}
	return 0
}

// LayerUsageV returns per-layer usage of a vertical edge.
func (g *Grid) LayerUsageV(l, x, y int) int {
	if i := g.vIndex(x, y); i >= 0 {
		return int(g.layerUseV[l][i])
	}
	return 0
}

// AssignLayerH books one track on the least-used suitable layer for a
// horizontal edge and returns the chosen layer.
func (g *Grid) AssignLayerH(x, y int) int {
	return g.assignLayer(Horiz, g.hIndex(x, y), g.layerUseH)
}

// AssignLayerV books one track on the least-used suitable layer for a
// vertical edge and returns the chosen layer.
func (g *Grid) AssignLayerV(x, y int) int {
	return g.assignLayer(Vert, g.vIndex(x, y), g.layerUseV)
}

func (g *Grid) assignLayer(d Dir, idx int, use [][]int32) int {
	if idx < 0 {
		return -1
	}
	bestL := -1
	bestScore := math.MaxFloat64
	for l := 1; l < len(g.LayerCap); l++ {
		if g.LayerDir[l] != d || g.LayerCap[l] == 0 {
			continue
		}
		score := float64(use[l][idx]) / float64(g.LayerCap[l])
		if score < bestScore {
			bestScore = score
			bestL = l
		}
	}
	if bestL >= 0 {
		use[bestL][idx]++
	}
	return bestL
}

// StaticLayer returns the layer a static-mode route uses for one step:
// a pure function of the step's direction and track coordinate
// (round-robin over the suitable layers by track index), with no
// booking and no balancing state — so one net's layer assignment can
// never depend on another net's routing. This is what keeps
// incremental replay's changed-net set equal to the moved nets; the
// least-used balancer couples every net to every other through the
// usage arrays.
func (g *Grid) StaticLayer(horiz bool, x, y int) int {
	d, track := Vert, x // vertical runs cycle by column
	if horiz {
		d, track = Horiz, y // horizontal runs cycle by row
	}
	n := 0
	for l := 1; l < len(g.LayerCap); l++ {
		if g.LayerDir[l] == d && g.LayerCap[l] > 0 {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := track % n
	if k < 0 {
		k += n
	}
	for l := 1; l < len(g.LayerCap); l++ {
		if g.LayerDir[l] == d && g.LayerCap[l] > 0 {
			if k == 0 {
				return l
			}
			k--
		}
	}
	return -1
}
