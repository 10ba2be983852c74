package check

// Binary smoke-test helpers: compile a main package with the Go
// toolchain and run it with an exit-status assertion. Used by the
// cmd/* and examples smoke tests.

import (
	"flag"
	"io"
	"log"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// GoBuild compiles the named main package into a test temp dir and
// returns the binary path. The build failing fails the test.
func GoBuild(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), path.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// RunOK executes bin with args in workDir, asserting exit status 0 and
// non-empty combined output; the output is returned for content checks.
func RunOK(t *testing.T, workDir, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	if len(out) == 0 {
		t.Fatalf("%s %v: exit 0 but no output", filepath.Base(bin), args)
	}
	return string(out)
}

// RunStdout executes bin with args in workDir, asserting exit status 0,
// and returns its stdout alone. Stderr carries progress logs with
// timestamps, so it is shown only when the run fails.
func RunStdout(t *testing.T, workDir, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return out
}

// RunFail executes bin with args, asserting a non-zero exit status —
// the misuse path (missing required flags, bad input) must not
// silently succeed. Returns combined output.
func RunFail(t *testing.T, workDir, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Dir = workDir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v: expected failure, got exit 0\n%s", filepath.Base(bin), args, out)
	}
	return string(out)
}

// RunMain invokes a command's main function in-process: it chdirs into
// workDir, swaps os.Args and the global flag set (commands register
// their flags inside main, so a fresh flag.CommandLine per call avoids
// redefinition panics), redirects stdout, stderr and the log package
// into a pipe, and returns the combined output after mainFn finishes.
//
// Running in-process is what lets `go test -cover` attribute executed
// lines to the main package — an external binary contributes nothing
// to coverage. mainFn must return normally on the exercised path; keep
// misuse paths (log.Fatal, os.Exit) on the compiled-binary helpers.
func RunMain(t *testing.T, workDir string, mainFn func(), args ...string) string {
	t.Helper()
	oldArgs, oldFlag := os.Args, flag.CommandLine
	oldStdout, oldStderr := os.Stdout, os.Stderr
	oldWD, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(workDir); err != nil {
		t.Fatal(err)
	}
	os.Args = append([]string{oldArgs[0]}, args...)
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	os.Stdout, os.Stderr = w, w
	log.SetOutput(w)

	collected := make(chan string, 1)
	go func() {
		var b strings.Builder
		io.Copy(&b, r)
		collected <- b.String()
	}()
	defer func() {
		os.Args, flag.CommandLine = oldArgs, oldFlag
		os.Stdout, os.Stderr = oldStdout, oldStderr
		log.SetOutput(os.Stderr)
		w.Close() // idempotent; unblocks the reader if mainFn panicked
		if err := os.Chdir(oldWD); err != nil {
			t.Fatal(err)
		}
	}()
	mainFn()
	w.Close()
	return <-collected
}
