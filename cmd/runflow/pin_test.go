package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/designio"
	"tsteiner/internal/lib"
	"tsteiner/internal/synth"
)

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestOutputsPinned holds the compiled CLI's stdout and layout SVG to
// recorded sha256 digests. Stdout alone is hashed: stderr carries
// timestamps. One run on usb_cdc_core covers the baseline, sharded,
// refined and corner-matrix output.
func TestOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale CLI run")
	}
	spec, err := synth.BenchmarkByName("usb_cdc_core")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.Generate(spec, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := designio.WriteJSONFile(filepath.Join(dir, "usb.json"), d); err != nil {
		t.Fatal(err)
	}

	bin := check.GoBuild(t, "tsteiner/cmd/runflow")
	out := check.RunStdout(t, dir, bin, "-design", "usb.json", "-shards", "2", "-rounds", "2",
		"-refine", "-epochs", "60", "-lanes", "4", "-corners", "fast,typical,slow", "-svg", "l.svg")
	if got, want := sha256Hex(out), "50b4b84261d78b7f0740e526f70d6e667d649b48afddf3cc320d854587ad8955"; got != want {
		t.Errorf("stdout sha256 %s, want %s\n%s", got, want, out)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "l.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sha256Hex(svg), "c8c8eb0ef88fc0aa9a867d02f45e32daad3f4b07ee4122144cbac649bd07156b"; got != want {
		t.Errorf("l.svg sha256 %s, want %s", got, want)
	}
}
