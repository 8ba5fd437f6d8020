package analysis_test

import (
	"testing"

	"c4/internal/analysis"
	"c4/internal/analysis/analysistest"
)

// The fixture suite: every custom analyzer proves both that it still
// fires (the acceptance criterion — each fixture contains live hits) and
// that a //c4vet:allow with a reason silences it.

func TestMapIterFloat(t *testing.T) {
	analysistest.Run(t, analysis.MapIterFloat, "c4/internal/fixture", "mapiterfloat.go")
}

// TestMapIterFloatCatchesSteeringRegression pins the acceptance
// criterion that reintroducing the PR 4 map-order accumulation in
// steering.Breakdown.DiagnosisTotal fails lint: the fixture is that
// function's pre-fix body, so if this shape stops firing, `make lint`
// has lost the guard.
func TestMapIterFloatCatchesSteeringRegression(t *testing.T) {
	analysistest.Run(t, analysis.MapIterFloat, "c4/internal/steering", "steering_regress.go")
}

func TestWallClock(t *testing.T) {
	analysistest.Run(t, analysis.WallClock, "c4/internal/fixture", "wallclock.go")
}

func TestWallClockExemptsCommandPackages(t *testing.T) {
	analysistest.Run(t, analysis.WallClock, "c4/cmd/fixture", "wallclock_exempt.go")
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, analysis.GlobalRand, "c4/internal/fixture", "globalrand.go")
}

func TestGlobalRandExemptsSimPackage(t *testing.T) {
	analysistest.Run(t, analysis.GlobalRand, "c4/internal/sim", "globalrand_sim.go")
}

func TestTimeConfuse(t *testing.T) {
	analysistest.RunWithDeps(t, analysis.TimeConfuse, "c4/internal/fixture",
		[]analysistest.Dep{{Path: "c4/internal/sim", Files: []string{"simdep/sim.go"}}},
		"timeconfuse.go")
}

func TestTimeConfuseExemptsSimPackage(t *testing.T) {
	analysistest.Run(t, analysis.TimeConfuse, "c4/internal/sim", "timeconfuse_sim.go")
}

func TestSinkErr(t *testing.T) {
	analysistest.Run(t, analysis.SinkErr, "c4/internal/fixture", "sinkerr.go")
}

func TestCtxLeak(t *testing.T) {
	analysistest.Run(t, analysis.CtxLeak, "c4/internal/fixture", "ctxleak.go")
}

func TestLayering(t *testing.T) {
	analysistest.RunWithDeps(t, analysis.Layering, "c4/internal/fixture",
		[]analysistest.Dep{{Path: "c4/internal/scenario", Files: []string{"scenariodep/scenario.go"}}},
		"layering.go", "layering_allow.go")
}

func TestLayeringExemptsHarnessAndCommands(t *testing.T) {
	deps := []analysistest.Dep{{Path: "c4/internal/scenario", Files: []string{"scenariodep/scenario.go"}}}
	for _, pkg := range []string{"c4/internal/harness", "c4/internal/campaign", "c4/cmd/fixture"} {
		analysistest.RunWithDeps(t, analysis.Layering, pkg, deps, "layering_exempt.go")
	}
}

func TestDeprecated(t *testing.T) {
	analysistest.Run(t, analysis.Deprecated(), "c4/internal/fixture", "deprecated.go")
}
