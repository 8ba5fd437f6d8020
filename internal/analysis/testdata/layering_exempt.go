package fixture

import "c4/internal/scenario"

// Checked under the harness and cmd/* import paths, which may import
// the registry: no findings.
func init() { scenario.Register(scenario.Scenario{Name: "exempt"}) }
