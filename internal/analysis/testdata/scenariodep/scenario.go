// Package scenario is the layering dependency fixture: a stand-in for
// the real registry, type-checked under the c4/internal/scenario import
// path so fixtures can import it.
package scenario

// Scenario is one named experiment.
type Scenario struct{ Name string }

// Register adds a scenario to the registry.
func Register(Scenario) {}
