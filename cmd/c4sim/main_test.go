package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The smoke tests drive the CLI's registry paths end to end (the
// interactive sim loop is exercised by the harness packages).

func TestRunScenariosSmoke(t *testing.T) {
	if code := runScenarios("tableI", 1, 1); code != 0 {
		t.Fatalf("runScenarios(tableI) = %d, want 0", code)
	}
}

func TestRunScenariosUnknown(t *testing.T) {
	if code := runScenarios("no-such-scenario", 1, 1); code != 2 {
		t.Fatalf("runScenarios(unknown) = %d, want 2", code)
	}
}

func TestRunTenancySmoke(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`{"events": [
		{"at_s": 0, "name": "a", "nodes": 2, "duration_s": 10},
		{"at_s": 1, "name": "b", "nodes": 2, "duration_s": 10}
	]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runTenancy(trace, "packed", "c4p", 8, 30*time.Second, 1); code != 0 {
		t.Fatalf("runTenancy = %d, want 0", code)
	}
}

func TestRunTenancyBadInputs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(trace, []byte(`{"events": [{"at_s": 0, "nodes": 2, "duration_s": 10}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runTenancy(filepath.Join(t.TempDir(), "missing.json"), "packed", "c4p", 8, time.Second, 1); code != 2 {
		t.Fatalf("missing trace file: code %d, want 2", code)
	}
	if code := runTenancy(trace, "diagonal", "c4p", 8, time.Second, 1); code != 2 {
		t.Fatalf("bad policy: code %d, want 2", code)
	}
	if code := runTenancy(trace, "packed", "carrier-pigeon", 8, time.Second, 1); code != 2 {
		t.Fatalf("bad provider: code %d, want 2", code)
	}
}

func TestRunPlanSmoke(t *testing.T) {
	if code := runPlan("tp8/pp2/dp2/ga2", "gpt22b", "c4p", 0, false, 2, 1, ""); code != 0 {
		t.Fatalf("runPlan = %d, want 0", code)
	}
}

func TestRunPlanBadInputs(t *testing.T) {
	if code := runPlan("qp4", "gpt22b", "c4p", 0, false, 1, 1, ""); code != 2 {
		t.Fatalf("bad strategy: code %d, want 2", code)
	}
	if code := runPlan("tp8/dp2", "gpt9000", "c4p", 0, false, 1, 1, ""); code != 2 {
		t.Fatalf("bad model: code %d, want 2", code)
	}
	if code := runPlan("pp8/dp8", "gpt22b", "c4p", 0, false, 1, 1, ""); code != 2 {
		t.Fatalf("oversized world: code %d, want 2", code)
	}
	if code := runPlan("tp8/dp2", "gpt22b", "smoke-signals", 0, false, 1, 1, ""); code != 2 {
		t.Fatalf("bad provider: code %d, want 2", code)
	}
}
