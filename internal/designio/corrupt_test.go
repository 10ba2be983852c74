package designio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsteiner/internal/guard"
	"tsteiner/internal/lib"
)

// TestReadJSONRejectsTruncated: truncated design JSON surfaces as a
// *guard.CorruptError, not a partial decode.
func TestReadJSONRejectsTruncated(t *testing.T) {
	l := lib.Default()
	d := placedDesign(t, "spm", 1.0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	for _, cut := range []int{len(full) / 3, len(full) / 2, len(full) - 2} {
		_, err := ReadJSON(strings.NewReader(full[:cut]), l)
		var ce *guard.CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("cut at %d: got %v, want *guard.CorruptError", cut, err)
		}
	}
}

// TestFileRoundTripAtomic: the design file helpers write atomically and
// reject corruption with the path filled in.
func TestFileRoundTripAtomic(t *testing.T) {
	l := lib.Default()
	d := placedDesign(t, "spm", 1.0)
	dir := t.TempDir()
	dPath := filepath.Join(dir, "design.json")
	if err := WriteJSONFile(dPath, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadJSONFile(dPath, l)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats() != d.Stats() {
		t.Fatal("design stats lost through file round trip")
	}

	// Corrupt the file: the load must fail typed, carrying the path.
	data, _ := os.ReadFile(dPath)
	if err := os.WriteFile(dPath, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = ReadJSONFile(dPath, l)
	var ce *guard.CorruptError
	if !errors.As(err, &ce) || ce.Path != dPath {
		t.Fatalf("design corrupt: got %v, want *guard.CorruptError with path", err)
	}

	// No temp litter.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(ents))
	}
}
