package geom

import (
	"testing"
	"testing/quick"
)

func TestManhattanDist(t *testing.T) {
	cases := []struct {
		a, b Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 7},
		{Point{-2, -3}, Point{2, 3}, 10},
		{Point{5, 5}, Point{5, 9}, 4},
	}
	for _, c := range cases {
		if got := ManhattanDist(c.a, c.b); got != c.want {
			t.Errorf("ManhattanDist(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestManhattanDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by int16) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		return ManhattanDist(a, b) == ManhattanDist(b, a) && ManhattanDist(a, b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestManhattanTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{int(ax), int(ay)}
		b := Point{int(bx), int(by)}
		c := Point{int(cx), int(cy)}
		return ManhattanDist(a, c) <= ManhattanDist(a, b)+ManhattanDist(b, c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFPointRound(t *testing.T) {
	cases := []struct {
		in   FPoint
		want Point
	}{
		{FPoint{0.4, 0.6}, Point{0, 1}},
		{FPoint{1.5, 2.5}, Point{2, 3}},
		{FPoint{-0.4, -0.6}, Point{0, -1}},
		{FPoint{-1.5, 1.49}, Point{-2, 1}},
	}
	for _, c := range cases {
		if got := c.in.Round(); got != c.want {
			t.Errorf("Round(%v)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestRoundTripPointToF(t *testing.T) {
	f := func(x, y int16) bool {
		p := Point{int(x), int(y)}
		return p.ToF().Round() == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEmptyBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.Empty() {
		t.Fatal("EmptyBBox should be empty")
	}
	if b.Width() != 0 || b.Height() != 0 || b.HalfPerimeter() != 0 {
		t.Fatal("empty box should have zero dimensions")
	}
	b = b.Expand(Point{3, 4})
	if b.Empty() {
		t.Fatal("box should be non-empty after Expand")
	}
	if !b.Contains(Point{3, 4}) {
		t.Fatal("box should contain its seed point")
	}
	if b.HalfPerimeter() != 0 {
		t.Fatal("single-point box has zero half-perimeter")
	}
}

func TestBBoxExpandContains(t *testing.T) {
	f := func(pts []struct{ X, Y int16 }) bool {
		b := EmptyBBox()
		var ps []Point
		for _, q := range pts {
			p := Point{int(q.X), int(q.Y)}
			ps = append(ps, p)
			b = b.Expand(p)
		}
		for _, p := range ps {
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxClamp(t *testing.T) {
	b := BBox{0, 0, 10, 5}
	cases := []struct {
		in, want Point
	}{
		{Point{5, 3}, Point{5, 3}},
		{Point{-3, 2}, Point{0, 2}},
		{Point{12, 9}, Point{10, 5}},
		{Point{4, -1}, Point{4, 0}},
	}
	for _, c := range cases {
		if got := b.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v)=%v want %v", c.in, got, c.want)
		}
	}
}

func TestBBoxClampIdempotentAndInside(t *testing.T) {
	b := BBox{-5, -5, 20, 13}
	f := func(x, y int16) bool {
		p := b.Clamp(Point{int(x), int(y)})
		return b.Contains(p) && b.Clamp(p) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBBoxClampF(t *testing.T) {
	b := BBox{0, 0, 10, 10}
	p := b.ClampF(FPoint{-1.5, 11.2})
	if p.X != 0 || p.Y != 10 {
		t.Errorf("ClampF got %v", p)
	}
	q := b.ClampF(FPoint{3.3, 4.4})
	if q.X != 3.3 || q.Y != 4.4 {
		t.Errorf("interior point should be unchanged, got %v", q)
	}
}

func TestHananGrid(t *testing.T) {
	pts := []Point{{0, 0}, {2, 3}, {5, 1}}
	grid := HananGrid(pts)
	if len(grid) != 9 {
		t.Fatalf("expected 3x3=9 Hanan points, got %d", len(grid))
	}
	seen := map[Point]bool{}
	for _, g := range grid {
		seen[g] = true
	}
	// Every terminal must be on its own Hanan grid.
	for _, p := range pts {
		if !seen[p] {
			t.Errorf("terminal %v missing from Hanan grid", p)
		}
	}
	if !seen[(Point{0, 3})] || !seen[(Point{5, 3})] {
		t.Error("expected cross points on Hanan grid")
	}
}

func TestHananGridDedup(t *testing.T) {
	pts := []Point{{1, 1}, {1, 1}, {1, 2}}
	grid := HananGrid(pts)
	if len(grid) != 2 {
		t.Fatalf("expected 1x2=2 Hanan points with duplicate terminals, got %d", len(grid))
	}
}

func TestMedianMinimizesL1(t *testing.T) {
	pts := []Point{{0, 0}, {10, 0}, {0, 10}, {4, 4}, {6, 2}}
	m := Median(pts)
	sum := func(q Point) int {
		s := 0
		for _, p := range pts {
			s += ManhattanDist(p, q)
		}
		return s
	}
	best := sum(m)
	for _, h := range HananGrid(pts) {
		if sum(h) < best {
			t.Fatalf("median %v (cost %d) beaten by %v (cost %d)", m, best, h, sum(h))
		}
	}
}

func TestMedianEmpty(t *testing.T) {
	if got := Median(nil); got != (Point{}) {
		t.Errorf("median of empty set should be origin, got %v", got)
	}
}

func TestHalfPerimeter(t *testing.T) {
	b := BBoxOf([]Point{{1, 2}, {4, 7}})
	if got := b.HalfPerimeter(); got != 3+5 {
		t.Errorf("HalfPerimeter=%d want 8", got)
	}
}
