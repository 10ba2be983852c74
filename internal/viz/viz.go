// Package viz renders layouts as SVG: die, cells and Steiner trees
// (pins, Steiner points, edges). Useful for eyeballing what refinement
// did to a design.
package viz

import (
	"fmt"
	"io"
	"strings"

	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
)

// LayoutOptions tunes the drawing.
type LayoutOptions struct {
	// PxPerDBU scales database units to SVG pixels.
	PxPerDBU float64
	// MaxNets bounds the number of trees drawn (0 = all); large designs
	// become unreadable (and huge files) beyond a few thousand edges.
	MaxNets int
	// Highlight marks these nets' trees in a standout color.
	Highlight map[netlist.NetID]bool
}

// DefaultLayoutOptions fits typical benchmark dies on a screen.
func DefaultLayoutOptions() LayoutOptions {
	return LayoutOptions{PxPerDBU: 2.0, MaxNets: 4000}
}

// WriteLayoutSVG draws the placed design and its Steiner forest.
func WriteLayoutSVG(w io.Writer, d *netlist.Design, f *rsmt.Forest, opt LayoutOptions) error {
	if opt.PxPerDBU <= 0 {
		opt.PxPerDBU = 2.0
	}
	s := opt.PxPerDBU
	px := func(v float64) float64 { return (v - float64(d.Die.XLo)) * s }
	py := func(v float64) float64 { return (float64(d.Die.YHi) - v) * s } // flip Y: SVG grows down
	width := float64(d.Die.Width()) * s
	height := float64(d.Die.Height()) * s

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		width+20, height+20, width+20, height+20)
	b.WriteString(`<g transform="translate(10,10)">` + "\n")
	fmt.Fprintf(&b, `<rect x="0" y="0" width="%.1f" height="%.1f" fill="#fcfcfc" stroke="#333"/>`+"\n", width, height)

	// Cells.
	for ci := range d.Cells {
		p := d.Cells[ci].Pos
		fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#8888cc" fill-opacity="0.55"/>`+"\n",
			px(float64(p.X))-s, py(float64(p.Y))-s, 2*s, 2*s)
	}

	// Trees.
	drawn := 0
	for _, tr := range f.Trees {
		if opt.MaxNets > 0 && drawn >= opt.MaxNets && !opt.Highlight[tr.Net] {
			continue
		}
		drawn++
		color := "#44aa44"
		widthPx := 0.8
		if opt.Highlight[tr.Net] {
			color = "#dd3322"
			widthPx = 2.0
		}
		for _, e := range tr.Edges {
			a, c := tr.Nodes[e.A].Pos, tr.Nodes[e.B].Pos
			fmt.Fprintf(&b, `<path d="M %.1f %.1f L %.1f %.1f L %.1f %.1f" fill="none" stroke="%s" stroke-width="%.1f" stroke-opacity="0.7"/>`+"\n",
				px(a.X), py(a.Y), px(c.X), py(a.Y), px(c.X), py(c.Y), color, widthPx)
		}
		for _, n := range tr.Nodes {
			if n.Kind == rsmt.SteinerNode {
				x, y := px(n.Pos.X), py(n.Pos.Y)
				fmt.Fprintf(&b, `<path d="M %.1f %.1f L %.1f %.1f L %.1f %.1f Z" fill="#dd8800"/>`+"\n",
					x, y-2.5, x-2.2, y+1.8, x+2.2, y+1.8)
			}
		}
	}

	// Ports.
	for _, pid := range append(append([]netlist.PinID{}, d.PIs...), d.POs...) {
		p := d.Pin(pid).Pos
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="2.2" fill="#222"/>`+"\n",
			px(float64(p.X)), py(float64(p.Y)))
	}
	b.WriteString("</g>\n</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}
