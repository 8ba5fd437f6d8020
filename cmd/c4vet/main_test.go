package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSmokeKnownBadModule runs c4vet end to end over the known-bad
// fixture module and asserts the exit code and one diagnostic per
// analyzer — the whole-binary counterpart of the per-analyzer
// analysistest fixtures.
func TestSmokeKnownBadModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", "testdata/badmod", "./..."})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, wanted := range []string{
		"[mapiterfloat] float += on \"s\" inside range over map",
		"[wallclock] time.Now reads the wall clock",
		"[wallclock] time.Since reads the wall clock",
		"[globalrand] math/rand.Intn outside internal/sim",
		"[sinkerr] error result of Sink.Flush discarded",
		"[ctxleak] context.Background() in a function that already has a Context (param ctx)",
		"[timeconfuse] sim.Time(...) of a time.Duration reinterprets a span",
		"[deprecated] use of deprecated NewSim: use OpenSim.",
		"[allow] allow directive for \"wallclock\" has no reason",
		"bad.go:",
	} {
		if !strings.Contains(out, wanted) {
			t.Errorf("output missing %q\nfull output:\n%s", wanted, out)
		}
	}
	if !strings.Contains(stderr.String(), "findings") {
		t.Errorf("stderr missing findings count: %q", stderr.String())
	}
}

// TestCleanModuleExitsZero pins the blocking-gate contract on the real
// repository: zero unsuppressed findings, exit 0. This is the same run
// `make lint` performs.
func TestCleanModuleExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type-check is slow; covered by make lint and the full suite")
	}
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-C", "../..", "./..."})
	if code != 0 {
		t.Fatalf("c4vet over the repository = exit %d, want clean\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"-list"})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"mapiterfloat", "wallclock", "globalrand", "sinkerr", "ctxleak", "timeconfuse", "layering", "deprecated"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"./no/such/dir/..."}); code != 2 {
		t.Fatalf("exit code = %d, want 2 (load failure)", code)
	}
}
