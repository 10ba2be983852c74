package grid_test

import (
	"fmt"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/geom"
	"tsteiner/internal/grid"
)

// demand is one random routing-usage deposit on a GCell edge.
type demand struct {
	Horiz bool
	X, Y  int
	Count int
}

func demands() check.Gen[[]demand] {
	one := check.Gen[demand]{
		Generate: func(r *check.RNG) demand {
			return demand{
				Horiz: r.Bool(),
				X:     r.Intn(1 << 16),
				Y:     r.Intn(1 << 16),
				Count: 1 + r.Intn(6),
			}
		},
	}
	return check.SliceOf(0, 60, one)
}

// apply deposits the demands, wrapping coordinates onto valid edges.
func apply(g *grid.Grid, ds []demand) {
	for _, d := range ds {
		if d.Horiz {
			g.AddH(d.X%(g.W-1), d.Y%g.H, d.Count)
		} else {
			g.AddV(d.X%g.W, d.Y%(g.H-1), d.Count)
		}
	}
}

// TestPropOverflowMonotoneUnderCapacity is the congestion metamorphic
// invariant: at fixed demand, adding track capacity can only reduce
// (never increase) every edge overflow and the total overflow.
func TestPropOverflowMonotoneUnderCapacity(t *testing.T) {
	die := geom.BBox{XLo: 0, YLo: 0, XHi: 79, YHi: 59}
	g := check.Two(demands(), check.Int(1, 8))
	check.Run(t, g, func(in check.Pair[[]demand, int]) error {
		ds, extra := in.A, in.B
		base, err := grid.New(die, 10, []int{0, 2, 2, 3, 3})
		if err != nil {
			return err
		}
		roomy, err := grid.New(die, 10, []int{0, 2 + extra, 2 + extra, 3 + extra, 3 + extra})
		if err != nil {
			return err
		}
		apply(base, ds)
		apply(roomy, ds)
		for y := 0; y < base.H; y++ {
			for x := 0; x < base.W-1; x++ {
				if roomy.OverflowH(x, y) > base.OverflowH(x, y) {
					return fmt.Errorf("H edge (%d,%d): +%d tracks raised overflow %d -> %d",
						x, y, extra, base.OverflowH(x, y), roomy.OverflowH(x, y))
				}
			}
		}
		for y := 0; y < base.H-1; y++ {
			for x := 0; x < base.W; x++ {
				if roomy.OverflowV(x, y) > base.OverflowV(x, y) {
					return fmt.Errorf("V edge (%d,%d): +%d tracks raised overflow %d -> %d",
						x, y, extra, base.OverflowV(x, y), roomy.OverflowV(x, y))
				}
			}
		}
		if roomy.TotalOverflow() > base.TotalOverflow() {
			return fmt.Errorf("+%d tracks raised total overflow %d -> %d",
				extra, base.TotalOverflow(), roomy.TotalOverflow())
		}
		return nil
	})
}
