package analysis

import "strconv"

// scenarioPkg is the experiment registry's import path.
const scenarioPkg = "c4/internal/scenario"

// scenarioImporters are the internal packages allowed to import the
// registry: harness registers every experiment, and campaign runs its
// trial pool on the registry's worker pool.
var scenarioImporters = map[string]bool{
	"c4/internal/harness":  true,
	"c4/internal/campaign": true,
}

// Layering pins the top-down package layering: library packages under
// internal/ must not import the scenario registry to register their own
// experiments, so the registry glue lives in internal/harness and the
// simulation core never depends on the experiment layer. Commands and
// the public facade sit above the registry and are exempt; test files
// are not loaded.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "imports of internal/scenario from internal packages other than harness and campaign; experiment glue belongs in internal/harness",
	Run:  runLayering,
}

func runLayering(pass *Pass) error {
	path := pass.Pkg.Path()
	if !isInternalPkg(path) || scenarioImporters[path] {
		return nil
	}
	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && p == scenarioPkg {
				pass.Reportf(imp.Pos(),
					"%s imports the scenario registry; register experiments from internal/harness instead (layering)", path)
			}
		}
	}
	return nil
}
