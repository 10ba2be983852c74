package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/obs"
)

// TestSmoke exercises help and the misuse path through a compiled
// binary, and a miniature end-to-end run (train 2 epochs, refine 2
// iterations at reduced scale, every artifact kind) through main() in
// process, so `go test -cover` attributes the executed lines.
func TestSmoke(t *testing.T) {
	bin := check.GoBuild(t, "tsteiner/cmd/tsteiner")
	dir := t.TempDir()

	help := check.RunOK(t, dir, bin, "-h")
	if !strings.Contains(help, "-design") {
		t.Fatalf("help output lacks flag listing:\n%s", help)
	}

	out := check.RunMain(t, dir, main,
		"-design", "spm", "-scale", "0.12", "-epochs", "2", "-iters", "2",
		"-svg", filepath.Join(dir, "layout.svg"),
		"-save-design", filepath.Join(dir, "design.json"),
		"-save-verilog", filepath.Join(dir, "design.v"),
		"-save-forest", filepath.Join(dir, "forest.json"))
	if !strings.Contains(out, "WNS") {
		t.Fatalf("run output lacks sign-off metrics:\n%s", out)
	}
	for _, f := range []string{"layout.svg", "design.json", "design.v", "forest.json"} {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Fatalf("artifact %s: %v", f, err)
		}
		if st.Size() == 0 {
			t.Fatalf("artifact %s is empty", f)
		}
		// Every artifact carries its provenance record alongside.
		raw, err := os.ReadFile(filepath.Join(dir, f+".manifest.json"))
		if err != nil {
			t.Fatalf("artifact %s has no manifest: %v", f, err)
		}
		var m obs.Manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("manifest for %s corrupt: %v", f, err)
		}
		if m.Tool != "tsteiner" || m.Seed != 2023 || m.LibFingerprint == "" {
			t.Fatalf("manifest for %s incomplete: %+v", f, m)
		}
	}

	check.RunFail(t, dir, bin, "-design", "no_such_benchmark")
}

// TestDeadlineSignsOffBestSoFar: a -deadline that expires during training
// cuts training and refinement short, but the final sign-off runs without
// the budget, so the run exits 0 and prints the comparison for the best
// forest so far.
func TestDeadlineSignsOffBestSoFar(t *testing.T) {
	bin := check.GoBuild(t, "tsteiner/cmd/tsteiner")
	out := check.RunStdout(t, t.TempDir(), bin,
		"-design", "spm", "-scale", "0.12", "-epochs", "1000000", "-deadline", "2s")
	if !bytes.Contains(out, []byte("sign-off comparison")) {
		t.Fatalf("no refined sign-off after the deadline:\n%s", out)
	}
}

// TestModelFileUnloadable: a -model file that exists but does not load
// fails the run by name and is left as it was, never trained over.
func TestModelFileUnloadable(t *testing.T) {
	bin := check.GoBuild(t, "tsteiner/cmd/tsteiner")
	dir := t.TempDir()
	bad := []byte(`{"not":"a model"`)
	path := filepath.Join(dir, "bad_model.json")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	out := check.RunFail(t, dir, bin,
		"-design", "spm", "-scale", "0.12", "-epochs", "2", "-iters", "2", "-model", "bad_model.json")
	if !strings.Contains(out, "bad_model.json") {
		t.Errorf("failure does not name the model file:\n%s", out)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, bad) {
		t.Errorf("model file changed: %q (%v)", got, err)
	}
}
