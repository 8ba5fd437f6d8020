package fixture

import (
	"c4/internal/scenario" // want `imports the scenario registry`
)

// Registering an experiment from a library package is the finding.
func init() { scenario.Register(scenario.Scenario{Name: "fixture"}) }
