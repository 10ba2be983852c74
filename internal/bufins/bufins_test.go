package bufins

import (
	"testing"

	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rc"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/sta"
	"tsteiner/internal/synth"
)

func hubDesign(t *testing.T) *netlist.Design {
	t.Helper()
	spec, err := synth.BenchmarkByName("APU")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec.Scale(0.4), lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	return d
}

func maxFanout(d *netlist.Design) int {
	m := 0
	for ni := range d.Nets {
		if f := len(d.Nets[ni].Sinks); f > m {
			m = f
		}
	}
	return m
}

func TestInsertBoundsFanout(t *testing.T) {
	d := hubDesign(t)
	if maxFanout(d) <= 16 {
		t.Skip("fixture has no high-fanout nets")
	}
	out, st, err := Insert(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := maxFanout(out); got > 16 {
		t.Fatalf("max fanout %d after buffering", got)
	}
	if st.NetsBuffered == 0 || st.BuffersInserted == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
	// Buffers were added; everything else preserved.
	if len(out.Cells) != len(d.Cells)+st.BuffersInserted {
		t.Fatalf("cell count %d want %d+%d", len(out.Cells), len(d.Cells), st.BuffersInserted)
	}
	if len(out.PIs) != len(d.PIs) || len(out.POs) != len(d.POs) {
		t.Fatal("ports lost")
	}
	// All cells placed inside the die.
	for ci := range out.Cells {
		if !out.Die.Contains(out.Cells[ci].Pos) {
			t.Fatalf("cell %s outside die", out.Cells[ci].Name)
		}
	}
}

func TestInsertPreservesEndpointCount(t *testing.T) {
	d := hubDesign(t)
	out, _, err := Insert(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(out.Endpoints()), len(d.Endpoints()); got != want {
		t.Fatalf("endpoints %d want %d", got, want)
	}
}

func TestInsertImprovesTiming(t *testing.T) {
	// Buffering the hub nets must reduce the worst arrival: the monster
	// loads are split across buffer stages.
	d := hubDesign(t)
	tns := func(dd *netlist.Design) (float64, float64) {
		f, err := rsmt.BuildAll(dd, rsmt.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		rcs, err := rc.ExtractFromTrees(dd, f, dd.Lib)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sta.Run(dd, rcs)
		if err != nil {
			t.Fatal(err)
		}
		return res.WNS, res.TNS
	}
	w0, t0 := tns(d)
	out, _, err := Insert(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w1, t1 := tns(out)
	if w1 < w0 {
		t.Fatalf("buffering worsened WNS: %g -> %g", w0, w1)
	}
	if t1 < t0 {
		t.Fatalf("buffering worsened TNS: %g -> %g", t0, t1)
	}
	if w1 == w0 && t1 == t0 {
		t.Fatal("buffering changed nothing")
	}
}

func TestInsertNoOpOnLowFanout(t *testing.T) {
	l := lib.Default()
	b := netlist.NewBuilder("small", l)
	pi := b.AddPI("i")
	po := b.AddPO("o", 0.01)
	b.Connect(pi, po)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := Insert(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if st.NetsBuffered != 0 || st.BuffersInserted != 0 {
		t.Fatalf("buffered a low-fanout design: %+v", st)
	}
	if len(out.Cells) != 0 {
		t.Fatal("cells appeared from nowhere")
	}
}

func TestInsertValidation(t *testing.T) {
	d := hubDesign(t)
	if _, _, err := Insert(d, Options{MaxFanout: 1, BufferMaster: "BUF_X4"}); err == nil {
		t.Fatal("fanout bound 1 accepted")
	}
	if _, _, err := Insert(d, Options{MaxFanout: 8, BufferMaster: "NOPE"}); err == nil {
		t.Fatal("unknown buffer master accepted")
	}
}

func TestDeepRecursiveBuffering(t *testing.T) {
	// A net with fanout > MaxFanout² needs a second buffer level.
	l := lib.Default()
	b := netlist.NewBuilder("wide", l)
	pi := b.AddPI("i")
	var sinks []netlist.PinID
	for i := 0; i < 30; i++ {
		sinks = append(sinks, b.AddPO("o"+string(rune('a'+i%26))+string(rune('0'+i/26)), 0.01))
	}
	b.Connect(pi, sinks...)
	d, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := Insert(d, Options{MaxFanout: 4, BufferMaster: "BUF_X2"})
	if err != nil {
		t.Fatal(err)
	}
	if maxFanout(out) > 4 {
		t.Fatalf("fanout bound violated: %d", maxFanout(out))
	}
	// 30 sinks at fanout 4 → 8 leaf buffers → 2 mid buffers → driver.
	if st.BuffersInserted < 10 {
		t.Fatalf("expected two buffer levels, inserted %d", st.BuffersInserted)
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
}
