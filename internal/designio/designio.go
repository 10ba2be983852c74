// Package designio serializes designs and Steiner forests: a JSON format
// that round-trips the full design (netlist, placement, constraints) and a
// structural-Verilog writer for interoperability with conventional EDA
// flows. Loading goes through netlist.Builder, so every file is
// re-validated on the way in.
package designio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tsteiner/internal/geom"
	"tsteiner/internal/guard"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
	"tsteiner/internal/rsmt"
)

// jsonPoint mirrors geom.Point.
type jsonPoint struct {
	X, Y int
}

// jsonPort is a primary input or output.
type jsonPort struct {
	Name string
	Dir  string // "in" | "out"
	Cap  float64
	Pos  jsonPoint
}

// jsonCell is a placed instance.
type jsonCell struct {
	Name   string
	Master string
	Pos    jsonPoint
}

// jsonNet names its pins: ports by port name, cell pins as "inst/PIN".
type jsonNet struct {
	Name   string
	Driver string
	Sinks  []string
}

// jsonDesign is the on-disk schema.
type jsonDesign struct {
	Name    string
	ClockNS float64
	Die     [4]int // XLo, YLo, XHi, YHi
	Ports   []jsonPort
	Cells   []jsonCell
	Nets    []jsonNet
}

// WriteJSON serializes d.
func WriteJSON(w io.Writer, d *netlist.Design) error {
	out := jsonDesign{
		Name:    d.Name,
		ClockNS: d.ClockPeriod,
		Die:     [4]int{d.Die.XLo, d.Die.YLo, d.Die.XHi, d.Die.YHi},
	}
	for _, pid := range d.PIs {
		p := d.Pin(pid)
		out.Ports = append(out.Ports, jsonPort{Name: p.Name, Dir: "in", Pos: jsonPoint{p.Pos.X, p.Pos.Y}})
	}
	for _, pid := range d.POs {
		p := d.Pin(pid)
		out.Ports = append(out.Ports, jsonPort{Name: p.Name, Dir: "out", Cap: p.Cap, Pos: jsonPoint{p.Pos.X, p.Pos.Y}})
	}
	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		out.Cells = append(out.Cells, jsonCell{
			Name: inst.Name, Master: inst.Master.Name,
			Pos: jsonPoint{inst.Pos.X, inst.Pos.Y},
		})
	}
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		jn := jsonNet{Name: net.Name, Driver: pinRef(d, net.Driver)}
		for _, s := range net.Sinks {
			jn.Sinks = append(jn.Sinks, pinRef(d, s))
		}
		out.Nets = append(out.Nets, jn)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}

// pinRef names a pin for serialization.
func pinRef(d *netlist.Design, pid netlist.PinID) string {
	p := d.Pin(pid)
	if p.IsPort {
		return p.Name
	}
	return d.Cell(p.Cell).Name + "/" + d.MasterPinName(pid)
}

// WriteJSONFile serializes d to path atomically (temp file + rename), so
// a crash mid-write never leaves a truncated design file behind.
func WriteJSONFile(path string, d *netlist.Design) error {
	return guard.AtomicWriteFunc(path, func(w io.Writer) error { return WriteJSON(w, d) })
}

// ReadJSONFile loads a design from path; decode failures carry the path.
func ReadJSONFile(path string, l *lib.Library) (*netlist.Design, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := ReadJSON(f, l)
	if err != nil {
		if ce, ok := err.(*guard.CorruptError); ok && ce.Path == "" {
			ce.Path = path
		}
		return nil, err
	}
	return d, nil
}

// ReadJSON reconstructs a design against the given library, revalidating
// structure and reapplying placement. Truncated or malformed JSON is
// rejected with a *guard.CorruptError instead of a partial decode.
func ReadJSON(r io.Reader, l *lib.Library) (*netlist.Design, error) {
	var in jsonDesign
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, &guard.CorruptError{Path: "", Reason: "truncated or malformed design JSON", Err: err}
	}
	b := netlist.NewBuilder(in.Name, l)
	if in.ClockNS > 0 {
		b.SetClockPeriod(in.ClockNS)
	}
	b.SetDie(geom.BBox{XLo: in.Die[0], YLo: in.Die[1], XHi: in.Die[2], YHi: in.Die[3]})

	portPins := map[string]netlist.PinID{}
	portPos := map[netlist.PinID]geom.Point{}
	for _, jp := range in.Ports {
		var pid netlist.PinID
		switch jp.Dir {
		case "in":
			pid = b.AddPI(jp.Name)
		case "out":
			pid = b.AddPO(jp.Name, jp.Cap)
		default:
			return nil, fmt.Errorf("designio: port %q has direction %q", jp.Name, jp.Dir)
		}
		portPins[jp.Name] = pid
		portPos[pid] = geom.Point{X: jp.Pos.X, Y: jp.Pos.Y}
	}
	cellIDs := map[string]netlist.CellID{}
	cellPos := map[string]geom.Point{}
	for _, jc := range in.Cells {
		if _, dup := cellIDs[jc.Name]; dup {
			return nil, fmt.Errorf("designio: duplicate cell %q", jc.Name)
		}
		cellIDs[jc.Name] = b.AddCell(jc.Name, jc.Master)
		cellPos[jc.Name] = geom.Point{X: jc.Pos.X, Y: jc.Pos.Y}
	}
	d := b.Design()
	resolve := func(ref string) (netlist.PinID, error) {
		if pid, ok := portPins[ref]; ok {
			return pid, nil
		}
		slash := strings.IndexByte(ref, '/')
		if slash < 0 {
			return 0, fmt.Errorf("designio: unknown pin %q", ref)
		}
		cid, ok := cellIDs[ref[:slash]]
		if !ok {
			return 0, fmt.Errorf("designio: unknown cell in pin %q", ref)
		}
		inst := d.Cell(cid)
		want := ref[slash+1:]
		for i, in := range inst.Master.Inputs {
			if in == want {
				return inst.Pins[i], nil
			}
		}
		if inst.Master.Output == want {
			return inst.OutputPin(), nil
		}
		return 0, fmt.Errorf("designio: cell %q has no pin %q", ref[:slash], want)
	}
	for _, jn := range in.Nets {
		drv, err := resolve(jn.Driver)
		if err != nil {
			return nil, err
		}
		sinks := make([]netlist.PinID, 0, len(jn.Sinks))
		for _, sref := range jn.Sinks {
			s, err := resolve(sref)
			if err != nil {
				return nil, err
			}
			sinks = append(sinks, s)
		}
		b.Connect(drv, sinks...)
	}
	out, err := b.Finish()
	if err != nil {
		return nil, err
	}
	// Reapply placement.
	for name, pos := range cellPos {
		inst := out.Cell(cellIDs[name])
		inst.Pos = pos
		for _, pid := range inst.Pins {
			out.Pin(pid).Pos = pos
		}
	}
	for pid, pos := range portPos {
		out.Pin(pid).Pos = pos
	}
	return out, nil
}

// StreamDesign is ReadJSON, under the name the scaled-design callers
// load through.
func StreamDesign(r io.Reader, l *lib.Library) (*netlist.Design, error) { return ReadJSON(r, l) }

// WriteVerilog emits a structural Verilog view of the design: ports,
// wires, and one instance per cell with named port connections. Net names
// are reused as wire names; the ideal clock is emitted as an input port
// feeding every register CK pin.
func WriteVerilog(w io.Writer, d *netlist.Design) error {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s (\n", sanitize(d.Name))
	var portDecls []string
	for _, pid := range d.PIs {
		portDecls = append(portDecls, "  input "+sanitize(d.Pin(pid).Name))
	}
	hasSeq := false
	for ci := range d.Cells {
		if d.Cells[ci].Master.Sequential {
			hasSeq = true
			break
		}
	}
	if hasSeq {
		portDecls = append(portDecls, "  input clk")
	}
	for _, pid := range d.POs {
		portDecls = append(portDecls, "  output "+sanitize(d.Pin(pid).Name))
	}
	b.WriteString(strings.Join(portDecls, ",\n"))
	b.WriteString("\n);\n\n")

	// Wires: one per net whose driver is a cell output (port-driven nets
	// reuse the port name).
	netName := make([]string, len(d.Nets))
	for ni := range d.Nets {
		net := d.Net(netlist.NetID(ni))
		dp := d.Pin(net.Driver)
		if dp.IsPort {
			netName[ni] = sanitize(dp.Name)
			continue
		}
		netName[ni] = sanitize(net.Name)
		fmt.Fprintf(&b, " wire %s;\n", netName[ni])
	}
	b.WriteString("\n")

	for ci := range d.Cells {
		inst := d.Cell(netlist.CellID(ci))
		var conns []string
		for i, in := range inst.Master.Inputs {
			pid := inst.Pins[i]
			p := d.Pin(pid)
			switch {
			case inst.Master.Sequential && in == "CK":
				conns = append(conns, ".CK(clk)")
			case p.Net == netlist.NoID:
				conns = append(conns, fmt.Sprintf(".%s()", in))
			default:
				conns = append(conns, fmt.Sprintf(".%s(%s)", in, netName[p.Net]))
			}
		}
		out := inst.OutputPin()
		if net := d.Pin(out).Net; net != netlist.NoID {
			conns = append(conns, fmt.Sprintf(".%s(%s)", inst.Master.Output, netName[net]))
		} else {
			conns = append(conns, fmt.Sprintf(".%s()", inst.Master.Output))
		}
		fmt.Fprintf(&b, " %s %s (%s);\n", inst.Master.Name, sanitize(inst.Name), strings.Join(conns, ", "))
	}

	// Output assignments: PO sinks read their driving net.
	b.WriteString("\n")
	for _, pid := range d.POs {
		p := d.Pin(pid)
		if p.Net != netlist.NoID {
			fmt.Fprintf(&b, " assign %s = %s;\n", sanitize(p.Name), netName[p.Net])
		}
	}
	b.WriteString("endmodule\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func sanitize(name string) string {
	return strings.NewReplacer("/", "_", ".", "_", "-", "_", "[", "_", "]", "_").Replace(name)
}

// jsonForestNode / jsonForestTree form the forest schema.
type jsonForestNode struct {
	Kind int // 0 pin, 1 steiner
	Pin  int32
	X, Y float64
}

type jsonForestTree struct {
	Net   int32
	Nodes []jsonForestNode
	Edges [][2]int32
}

type jsonForest struct {
	Trees []jsonForestTree
}

// WriteForestJSONFile serializes a forest to path atomically.
func WriteForestJSONFile(path string, f *rsmt.Forest) error {
	return guard.AtomicWriteFunc(path, func(w io.Writer) error { return WriteForestJSON(w, f) })
}

// ReadForestJSONFile loads a forest from path; decode failures carry the
// path.
func ReadForestJSONFile(path string, d *netlist.Design) (*rsmt.Forest, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := ReadForestJSON(r, d)
	if err != nil {
		if ce, ok := err.(*guard.CorruptError); ok && ce.Path == "" {
			ce.Path = path
		}
		return nil, err
	}
	return f, nil
}

// WriteForestJSON serializes a Steiner forest (checkpointing refined
// solutions).
func WriteForestJSON(w io.Writer, f *rsmt.Forest) error {
	out := jsonForest{}
	for _, tr := range f.Trees {
		jt := jsonForestTree{Net: int32(tr.Net)}
		for _, n := range tr.Nodes {
			jn := jsonForestNode{Pin: int32(n.Pin), X: n.Pos.X, Y: n.Pos.Y}
			if n.Kind == rsmt.SteinerNode {
				jn.Kind = 1
				jn.Pin = -1
			}
			jt.Nodes = append(jt.Nodes, jn)
		}
		for _, e := range tr.Edges {
			jt.Edges = append(jt.Edges, [2]int32{e.A, e.B})
		}
		out.Trees = append(out.Trees, jt)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ReadForestJSON loads a forest and validates it against the design.
// Truncated or malformed JSON is rejected with a *guard.CorruptError.
func ReadForestJSON(r io.Reader, d *netlist.Design) (*rsmt.Forest, error) {
	var in jsonForest
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, &guard.CorruptError{Path: "", Reason: "truncated or malformed forest JSON", Err: err}
	}
	f := &rsmt.Forest{}
	for _, jt := range in.Trees {
		tr := &rsmt.Tree{Net: netlist.NetID(jt.Net)}
		for _, jn := range jt.Nodes {
			n := rsmt.Node{Pos: geom.FPoint{X: jn.X, Y: jn.Y}}
			if jn.Kind == 1 {
				n.Kind = rsmt.SteinerNode
			} else {
				n.Kind = rsmt.PinNode
				n.Pin = netlist.PinID(jn.Pin)
			}
			tr.Nodes = append(tr.Nodes, n)
		}
		for _, e := range jt.Edges {
			tr.Edges = append(tr.Edges, rsmt.Edge{A: e[0], B: e[1]})
		}
		f.Trees = append(f.Trees, tr)
	}
	// Trees must arrive in net order for the forest invariants.
	sort.Slice(f.Trees, func(i, j int) bool { return f.Trees[i].Net < f.Trees[j].Net })
	if err := f.Validate(d); err != nil {
		return nil, err
	}
	return f, nil
}
