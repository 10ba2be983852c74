package route

import (
	"testing"

	"tsteiner/internal/grid"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

func benchFixture(b *testing.B) (*netlist.Design, *rsmt.Forest) {
	b.Helper()
	spec, err := synth.BenchmarkByName("APU")
	if err != nil {
		b.Fatal(err)
	}
	d, err := synth.Generate(spec, lib.Default())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return d, f
}

func BenchmarkGlobalRoute(b *testing.B) {
	d, f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Route(d, f, g, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeShift(b *testing.B) {
	d, f := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
		if err != nil {
			b.Fatal(err)
		}
		fc := f.Clone()
		EdgeShift(fc, g, DefaultEdgeShiftOptions())
	}
}

func BenchmarkIncrementalReroute(b *testing.B) {
	d, f := benchFixture(b)
	g, err := grid.New(d.Die, 8, []int{0, 12, 12, 10, 10})
	if err != nil {
		b.Fatal(err)
	}
	opt := DefaultOptions()
	opt.StaticPatterns = true
	prev, err := Route(d, f, g, opt)
	if err != nil {
		b.Fatal(err)
	}
	newF := f.Clone()
	xs, ys, idx := newF.SteinerPositions()
	for i := range xs {
		if i%7 == 0 {
			xs[i] += 16
		}
	}
	if err := newF.SetSteinerPositions(xs, ys, idx, d.Die); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := Incremental(d, f, newF, g, prev, opt)
		if err != nil {
			b.Fatal(err)
		}
		// Restore: route back to the original forest so every iteration
		// starts from the same grid state.
		_, _, err = Incremental(d, newF, f, g, res, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
}
