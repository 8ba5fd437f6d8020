package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"c4/internal/scenario"
)

// familyPins are SHA-256 digests of representative scenarios' renderings
// at seed 1, recorded while the per-flow reference was still the
// production kernel and unchanged by the switch to the flow-class kernel.
// They cover families whose code builds its own engines and networks —
// figures, tenancy, planner and fault campaigns — and fig12, which has no
// bench-baseline entry, has no other exact guard.
var familyPins = []struct {
	name, sha string
	slow      bool
}{
	{name: "fig9", sha: "8b08ca23f8b58fa63d084b1d53db2548eb2b2d264e0ce08c18a90275dc122ad8"},
	{name: "fig12", sha: "64b3a864f1d585def9996d1838f778a89a67a212bd71f64eeb4ee0f065be8e0b"},
	{name: "tenancy/collision-sweep", sha: "e727167c0ba69f0f3df4eacaa5a48814bdd09799d1fd9a7e0be746f2284b46a4"},
	{name: "tenancy/placement-compare", sha: "7443dbfddd8e0b31309410084dc6ab489c75c220f2172c77adfac42e96b06e2b"},
	{name: "plan/bucket-sweep", sha: "5d3817f221bb4ce06adf69adf2a90cc4e062cbc6ec1cf2c520a20c7c5c3ebe33"},
	{name: "plan/overlap-ablation", sha: "b8af216b13b27d893f9f8b24d08543787b0f197e9dbc30d3137024e6d96f0253"},
	{name: "campaign/mixed", sha: "0a4569684301b83e180db2f7af860636354fce3afab98c769fbf44cc4beb6584", slow: true},
}

// TestFamilyRenderingsPinned replays each pinned scenario and requires its
// rendering to hash to the recorded digest, byte for byte. The fault
// campaign joins in outside -short.
func TestFamilyRenderingsPinned(t *testing.T) {
	const seed = 1
	for _, pin := range familyPins {
		if pin.slow && testing.Short() {
			continue
		}
		s, ok := scenario.Get(pin.name)
		if !ok {
			t.Fatalf("scenario %q not registered", pin.name)
		}
		out := s.Run(scenario.NewCtx(seed)).String()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != pin.sha {
			t.Errorf("scenario %s: rendering digest %s, pinned %s\n%s", pin.name, got, pin.sha, out)
		}
	}
}
