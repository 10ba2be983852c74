package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tsteiner/internal/check"
)

// pinnedRun is one CLI invocation and the sha256 digests of its stdout
// and of the artifacts it writes.
type pinnedRun struct {
	args   []string
	stdout string
	files  map[string]string // artifact name → sha256
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOutputsPinned holds the compiled CLI's stdout and artifact bytes
// to recorded sha256 digests. Stdout alone is hashed: stderr carries
// timestamps. The runs cover the local refine path with rounds and the
// trace table, lanes with the corner matrix, and -model's train-and-save
// then load paths, which must print the same bytes.
func TestOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale CLI runs")
	}
	const spmForest = "d76b9b4a7731fa16684d3849fe038e5606ff9c9f910240c8d256bd6697f97a3e"
	model := pinnedRun{
		args:   []string{"-design", "spm", "-seed", "1", "-epochs", "60", "-lanes", "2", "-model", "m.json", "-save-forest", "f.json"},
		stdout: "6982d8a35378db9889e4dbd78f415e4e40ca673f5ee726f9361a960db2142a46",
		files: map[string]string{
			"f.json": spmForest,
			"m.json": "266935d312a7dcb72d41d02f6a48b61bf1ff343d3aa84df6e211d336d133d2cc",
		},
	}
	runs := []pinnedRun{
		{
			args:   []string{"-design", "spm", "-seed", "1", "-epochs", "60", "-rounds", "2", "-trace", "-save-forest", "f.json"},
			stdout: "930c940164f38bdc4e85280476b254d9c55e8c25f8ecd4ab913b9480630b5b63",
			files:  map[string]string{"f.json": spmForest},
		},
		{
			args: []string{"-design", "usb_cdc_core", "-seed", "1", "-epochs", "60", "-lanes", "4",
				"-corners", "fast,typical,slow", "-save-forest", "f.json"},
			stdout: "cf7ebfbec11a24231bf64d2e0f2731e742e23faacfb92ea794515401e720b2c5",
			files:  map[string]string{"f.json": "970dbfd7a27c105ca7386f96f41007f6147047a95d314c66ee2d68381e0a57b9"},
		},
		model, // trains the evaluator and saves m.json
		model, // loads m.json
	}

	bin := check.GoBuild(t, "tsteiner/cmd/tsteiner")
	dir := t.TempDir()
	for _, r := range runs {
		if got := sha256Hex(check.RunStdout(t, dir, bin, r.args...)); got != r.stdout {
			t.Errorf("%v: stdout sha256 %s, want %s", r.args, got, r.stdout)
		}
		for name, want := range r.files {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(b); got != want {
				t.Errorf("%v: %s sha256 %s, want %s", r.args, name, got, want)
			}
		}
	}
}
