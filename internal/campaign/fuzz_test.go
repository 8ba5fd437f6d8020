package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"c4/internal/faults"
)

// addManifestSeeds seeds a fuzzer with the committed manifests plus the
// literals these tests use.
func addManifestSeeds(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "campaigns", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no committed manifests to seed from (err %v)", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(tinyManifest))
	f.Add([]byte(badKnobManifest))
}

// FuzzReadManifest checks the manifest decoder never panics and that an
// accepted manifest is a fixed point of normalization: re-encoded and
// re-read, it keeps its content hash. It never calls Expand: the trial
// counts in a fuzzed manifest are unbounded.
func FuzzReadManifest(f *testing.F) {
	addManifestSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-encoding an accepted manifest: %v", err)
		}
		again, err := ReadManifest(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading an accepted manifest: %v\n%s", err, enc)
		}
		if m.Hash() != again.Hash() {
			t.Fatalf("hash moved across a re-read: %s vs %s\n%s", m.Hash(), again.Hash(), enc)
		}
	})
}

// seedPartial is a small well-formed partial: what a shard of
// tinyManifest writes, with made-up measurements.
func seedPartial(f *testing.F) []byte {
	f.Helper()
	m, err := ReadManifest(bytes.NewReader([]byte(tinyManifest)))
	if err != nil {
		f.Fatal(err)
	}
	p := &Partial{
		Version: Version, Name: m.Name, ManifestHash: m.Hash(), Seed: m.Seed,
		Trials: 5, Shard: 1, Of: 2,
		Records: []Record{
			{Index: 3, Family: "mixed", Seed: 1, HorizonS: 90, Result: faults.TrialResult{
				ID: "mix-03", Faults: 3, Score: faults.Score{Events: 2, TP: 1, FP: 1, Relevant: 2, Detected: 1},
				BaseGoodput: 61.86666666666667, SteeredGoodput: 74.66666666666667,
				BaseIters: 87, SteeredIters: 105, Events: 51234,
			}},
			{Index: 1, Family: "mixed", Seed: 1, Knobs: "placement=packed", HorizonS: 90, Result: faults.TrialResult{
				ID: "mix-01", Faults: 2, BaseGoodput: 79.4, SteeredGoodput: 79.4,
				BaseIters: 112, SteeredIters: 112, Events: 40000,
			}},
		},
	}
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadPartial checks the partial artifact's canonical form is a
// fixed point: whatever ReadPartial accepts, WriteJSON then ReadPartial
// then WriteJSON reproduces byte for byte.
func FuzzReadPartial(f *testing.F) {
	f.Add(seedPartial(f))
	f.Add([]byte(`{"version": 1, "records": [{"index": 2}, {"index": 0}, {"index": 2, "family": "x"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPartial(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := p.WriteJSON(&first); err != nil {
			t.Fatalf("writing an accepted partial: %v", err)
		}
		again, err := ReadPartial(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written partial: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := again.WriteJSON(&second); err != nil {
			t.Fatalf("re-writing a partial: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("partial does not round-trip:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
