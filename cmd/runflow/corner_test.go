package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsteiner/internal/check"
	"tsteiner/internal/designio"
	"tsteiner/internal/lib"
	"tsteiner/internal/synth"
)

// writeDesign generates a small design JSON for the in-process flow runs.
func writeDesign(t *testing.T, dir string, seed int64) string {
	t.Helper()
	d, err := synth.Generate(synth.Spec{
		Name: "rf", Seed: seed, Cells: 40, Endpoints: 8, PIs: 4, Depth: 5, ClockNS: 1.0,
	}, lib.Default())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "design.json")
	if err := designio.WriteJSONFile(path, d); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedCorners drives the large-design path end to end: sharded
// refinement and the multi-corner matrix tables for both the baseline
// and the sharded result.
func TestShardedCorners(t *testing.T) {
	dir := t.TempDir()
	path := writeDesign(t, dir, 5)
	out := check.RunMain(t, dir, main,
		"-design", path, "-shards", "2", "-rounds", "2",
		"-corners", "default")
	for _, want := range []string{"sign-off corner matrix", "sharded corner matrix",
		"fast", "typical", "slow", "sharded:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestRefineCornersSVG drives the GNN refinement path with a corner
// matrix plus the buffer and SVG side outputs.
func TestRefineCornersSVG(t *testing.T) {
	dir := t.TempDir()
	path := writeDesign(t, dir, 7)
	svg := filepath.Join(dir, "layout.svg")
	out := check.RunMain(t, dir, main,
		"-design", path, "-replace", "-buffer", "-svg", svg,
		"-refine", "-epochs", "2", "-iters", "2", "-lanes", "2",
		"-corners", "fast,typical,slow")
	for _, want := range []string{"refined:", "refined corner matrix", "buffered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	if fi, err := os.Stat(svg); err != nil || fi.Size() == 0 {
		t.Fatalf("svg not written: %v", err)
	}
}

// TestDeadlineSignsOffBestSoFar: a -deadline that expires during training
// cuts training and refinement short, but the final sign-off runs without
// the budget, so the run exits 0 and prints the refined sign-off of the
// best forest so far.
func TestDeadlineSignsOffBestSoFar(t *testing.T) {
	bin := check.GoBuild(t, "tsteiner/cmd/runflow")
	dir := t.TempDir()
	path := writeDesign(t, dir, 7)
	out := check.RunStdout(t, dir, bin,
		"-design", path, "-refine", "-epochs", "1000000", "-deadline", "2s")
	if !strings.Contains(string(out), "refined:") {
		t.Fatalf("no refined sign-off after the deadline:\n%s", out)
	}
}

// TestCornerMisuse pins the misuse exit codes for the corner flag and
// corrupt design input.
func TestCornerMisuse(t *testing.T) {
	bin := check.GoBuild(t, "tsteiner/cmd/runflow")
	dir := t.TempDir()
	path := writeDesign(t, dir, 9)
	check.RunFail(t, dir, bin, "-design", path, "-corners", "warp9")
	check.RunFail(t, dir, bin, "-design", path, "-corners", "typical:0:1:1")
	check.RunFail(t, dir, bin, "-design", path, "-corners", "typical,typical")

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"Name": "x", "Cells": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	check.RunFail(t, dir, bin, "-design", bad)
}
