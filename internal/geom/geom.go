// Package geom provides rectilinear geometry primitives used across the
// physical-design substrates: integer points, bounding boxes, Manhattan
// metrics and Hanan-grid helpers.
//
// All routing-related coordinates in this repository are expressed in
// database units (DBU). One DBU corresponds to one detailed-routing track
// pitch; the global-routing grid groups DBU coordinates into GCells.
package geom

import (
	"fmt"
	"sort"
)

// Point is an integer point in DBU space.
type Point struct {
	X, Y int
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// FPoint is a floating-point point, used while Steiner coordinates are
// being optimized continuously before the final rounding post-process.
type FPoint struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p FPoint) String() string { return fmt.Sprintf("(%.3f,%.3f)", p.X, p.Y) }

// Round converts a continuous point to the nearest integer DBU point.
func (p FPoint) Round() Point {
	return Point{X: roundHalfAway(p.X), Y: roundHalfAway(p.Y)}
}

// ToF converts an integer point to its continuous representation.
func (p Point) ToF() FPoint { return FPoint{X: float64(p.X), Y: float64(p.Y)} }

func roundHalfAway(v float64) int {
	if v >= 0 {
		return int(v + 0.5)
	}
	return -int(-v + 0.5)
}

// ManhattanDist returns the L1 distance between two integer points.
func ManhattanDist(a, b Point) int {
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

// ManhattanDistF returns the L1 distance between two continuous points.
func ManhattanDistF(a, b FPoint) float64 {
	return absF(a.X-b.X) + absF(a.Y-b.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// BBox is an axis-aligned integer bounding box. It is inclusive on all
// sides: a point p is inside iff XLo <= p.X <= XHi and YLo <= p.Y <= YHi.
type BBox struct {
	XLo, YLo, XHi, YHi int
}

// EmptyBBox returns a box that contains nothing and absorbs any point on
// the first Expand call.
func EmptyBBox() BBox {
	const big = int(^uint(0) >> 1)
	return BBox{XLo: big, YLo: big, XHi: -big - 1, YHi: -big - 1}
}

// Empty reports whether the box contains no points.
func (b BBox) Empty() bool { return b.XLo > b.XHi || b.YLo > b.YHi }

// Expand grows the box to include p.
func (b BBox) Expand(p Point) BBox {
	if p.X < b.XLo {
		b.XLo = p.X
	}
	if p.X > b.XHi {
		b.XHi = p.X
	}
	if p.Y < b.YLo {
		b.YLo = p.Y
	}
	if p.Y > b.YHi {
		b.YHi = p.Y
	}
	return b
}

// Contains reports whether p lies inside the (inclusive) box.
func (b BBox) Contains(p Point) bool {
	return p.X >= b.XLo && p.X <= b.XHi && p.Y >= b.YLo && p.Y <= b.YHi
}

// Clamp returns p moved to the nearest point inside the box.
func (b BBox) Clamp(p Point) Point {
	if p.X < b.XLo {
		p.X = b.XLo
	}
	if p.X > b.XHi {
		p.X = b.XHi
	}
	if p.Y < b.YLo {
		p.Y = b.YLo
	}
	if p.Y > b.YHi {
		p.Y = b.YHi
	}
	return p
}

// ClampF returns p moved to the nearest continuous point inside the box.
func (b BBox) ClampF(p FPoint) FPoint {
	if p.X < float64(b.XLo) {
		p.X = float64(b.XLo)
	}
	if p.X > float64(b.XHi) {
		p.X = float64(b.XHi)
	}
	if p.Y < float64(b.YLo) {
		p.Y = float64(b.YLo)
	}
	if p.Y > float64(b.YHi) {
		p.Y = float64(b.YHi)
	}
	return p
}

// Width returns the horizontal extent of the box (0 for a degenerate box).
func (b BBox) Width() int {
	if b.Empty() {
		return 0
	}
	return b.XHi - b.XLo
}

// Height returns the vertical extent of the box (0 for a degenerate box).
func (b BBox) Height() int {
	if b.Empty() {
		return 0
	}
	return b.YHi - b.YLo
}

// HalfPerimeter returns the half-perimeter wirelength of the box, the
// classic HPWL lower bound for the wirelength of a net.
func (b BBox) HalfPerimeter() int { return b.Width() + b.Height() }

// BBoxOf returns the bounding box of a point set.
func BBoxOf(pts []Point) BBox {
	b := EmptyBBox()
	for _, p := range pts {
		b = b.Expand(p)
	}
	return b
}

// HananGrid returns the Hanan grid of a terminal set: all points (x, y)
// where x is the abscissa of some terminal and y the ordinate of some
// (possibly different) terminal. A rectilinear Steiner minimum tree always
// has an embedding whose Steiner points lie on the Hanan grid, so Steiner
// candidate generation enumerates these points.
func HananGrid(pts []Point) []Point {
	xs := make([]int, 0, len(pts))
	ys := make([]int, 0, len(pts))
	for _, p := range pts {
		xs = append(xs, p.X)
		ys = append(ys, p.Y)
	}
	xs = dedupSorted(xs)
	ys = dedupSorted(ys)
	grid := make([]Point, 0, len(xs)*len(ys))
	for _, x := range xs {
		for _, y := range ys {
			grid = append(grid, Point{x, y})
		}
	}
	return grid
}

func dedupSorted(vs []int) []int {
	sort.Ints(vs)
	out := vs[:0]
	for i, v := range vs {
		if i == 0 || v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// Median returns the Manhattan median point of a point set: the component-
// wise median, which minimizes the total L1 distance to the set. For even
// counts the lower median is used, keeping the result on the Hanan grid.
func Median(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	xs := make([]int, len(pts))
	ys := make([]int, len(pts))
	for i, p := range pts {
		xs[i] = p.X
		ys[i] = p.Y
	}
	sort.Ints(xs)
	sort.Ints(ys)
	m := (len(pts) - 1) / 2
	return Point{xs[m], ys[m]}
}
