package viz

import (
	"bytes"
	"strings"
	"testing"

	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/place"
	"tsteiner/internal/rsmt"
	"tsteiner/internal/synth"
)

func fixture(t *testing.T) (*netlist.Design, *rsmt.Forest) {
	t.Helper()
	spec, err := synth.BenchmarkByName("spm")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := place.Place(d, place.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	f, err := rsmt.BuildAll(d, rsmt.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d, f
}

func TestWriteLayoutSVG(t *testing.T) {
	d, f := fixture(t)
	var buf bytes.Buffer
	if err := WriteLayoutSVG(&buf, d, f, DefaultLayoutOptions()); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(svg, "<rect") < len(d.Cells) {
		t.Fatalf("fewer rects (%d) than cells (%d)", strings.Count(svg, "<rect"), len(d.Cells))
	}
	if !strings.Contains(svg, "<circle") {
		t.Fatal("ports missing")
	}
	if f.Stats().SteinerNodes > 0 && !strings.Contains(svg, "#dd8800") {
		t.Fatal("Steiner markers missing")
	}
}

func TestLayoutHighlightAndCap(t *testing.T) {
	d, f := fixture(t)
	opt := DefaultLayoutOptions()
	opt.MaxNets = 1
	opt.Highlight = map[netlist.NetID]bool{f.Trees[len(f.Trees)-1].Net: true}
	var buf bytes.Buffer
	if err := WriteLayoutSVG(&buf, d, f, opt); err != nil {
		t.Fatal(err)
	}
	svg := buf.String()
	if !strings.Contains(svg, "#dd3322") {
		t.Fatal("highlighted net not drawn despite net cap")
	}
	// Zero options are defaulted.
	var buf2 bytes.Buffer
	if err := WriteLayoutSVG(&buf2, d, f, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
}
