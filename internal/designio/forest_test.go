package designio_test

import (
	"bytes"
	"strings"
	"testing"

	"tsteiner/internal/designio"
	"tsteiner/internal/lib"
	"tsteiner/internal/netlist"
)

// forestDesign has two nets: a fans out to three cell pins through one
// Steiner point, and u0 drives the output port.
const forestDesign = `{"Name":"tiny","ClockNS":1.5,"Die":[0,0,1000,1000],` +
	`"Ports":[{"Name":"a","Dir":"in","Pos":{"X":10,"Y":20}},{"Name":"y","Dir":"out","Cap":0.008,"Pos":{"X":900,"Y":900}}],` +
	`"Cells":[{"Name":"u0","Master":"NAND2_X1","Pos":{"X":500,"Y":500}},{"Name":"u1","Master":"INV_X1","Pos":{"X":700,"Y":100}}],` +
	`"Nets":[{"Name":"n0","Driver":"a","Sinks":["u0/A","u0/B","u1/A"]},{"Name":"n1","Driver":"u0/Z","Sinks":["y"]}]}`

// Trees of forestDesign as rsmt.BuildAll writes them.
const (
	forestTree0 = `{"Net":0,"Nodes":[{"Kind":0,"Pin":0,"X":10,"Y":20},{"Kind":0,"Pin":2,"X":500,"Y":500},` +
		`{"Kind":0,"Pin":5,"X":700,"Y":100},{"Kind":1,"Pin":-1,"X":500,"Y":100},{"Kind":0,"Pin":3,"X":500,"Y":500}],` +
		`"Edges":[[0,3],[1,4],[3,1],[3,2]]}`
	forestTree1 = `{"Net":1,"Nodes":[{"Kind":0,"Pin":4,"X":500,"Y":500},{"Kind":0,"Pin":1,"X":900,"Y":900}],"Edges":[[0,1]]}`
	validForest = `{"Trees":[` + forestTree0 + `,` + forestTree1 + `]}`
)

func loadForestDesign(tb testing.TB) *netlist.Design {
	tb.Helper()
	d, err := designio.ReadJSON(strings.NewReader(forestDesign), lib.Default())
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestReadForestJSONRejectsHostile: forests whose net IDs or edge
// endpoints index outside the design are errors, never panics, and so
// is a forest that covers one net twice and another not at all.
func TestReadForestJSONRejectsHostile(t *testing.T) {
	d := loadForestDesign(t)
	if _, err := designio.ReadForestJSON(strings.NewReader(validForest), d); err != nil {
		t.Fatalf("valid forest rejected: %v", err)
	}
	for _, tc := range []struct{ name, body string }{
		{"huge net", strings.Replace(validForest, `"Net":1`, `"Net":1073741824`, 1)},
		{"negative net", strings.Replace(validForest, `"Net":0`, `"Net":-1`, 1)},
		{"edge past nodes", strings.Replace(validForest, `[[0,1]]`, `[[0,2]]`, 1)},
		{"negative edge", strings.Replace(validForest, `[[0,1]]`, `[[0,-1]]`, 1)},
		{"duplicate net", `{"Trees":[` + forestTree0 + `,` + forestTree0 + `]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := designio.ReadForestJSON(strings.NewReader(tc.body), d); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// FuzzReadForestJSON feeds arbitrary bytes to the forest reader against
// a fixed design. Contract: no panic on any input, and every forest the
// reader accepts passes validation against that design.
func FuzzReadForestJSON(f *testing.F) {
	d := loadForestDesign(f)
	f.Add([]byte(validForest))
	f.Add([]byte(validForest[:len(validForest)/2]))
	f.Fuzz(func(t *testing.T, data []byte) {
		fo, err := designio.ReadForestJSON(bytes.NewReader(data), d)
		if err != nil {
			return
		}
		if err := fo.Validate(d); err != nil {
			t.Fatalf("ReadForestJSON accepted an invalid forest: %v", err)
		}
	})
}
