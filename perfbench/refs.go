package main

import (
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// Reference digests: for each workload and each seed in [0, refSeeds),
// the first refDigestLen hex digits of every run's output digest,
// concatenated in run order. A run whose digest differs from its
// reference has changed the simulator's output and counts as failed.
// Record them with -record-refs; they change only together with the
// benchmark.
//
//go:embed refs.json
var refsJSON []byte

const (
	refDigestLen = 8
	refSeeds     = 32
)

type refFile struct {
	Note      string                       `json:"note"`
	Workloads map[string]map[string]string `json:"workloads"`
}

func loadRefs() (refFile, error) {
	var rf refFile
	if err := json.Unmarshal(refsJSON, &rf); err != nil {
		return rf, fmt.Errorf("reading embedded refs.json: %w", err)
	}
	return rf, nil
}

// lookup returns the per-run reference digests for a workload and seed,
// or nil when none were recorded.
func (rf refFile) lookup(name string, seed int64, runs int) ([]string, error) {
	s, ok := rf.Workloads[name][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil, nil
	}
	if len(s) != runs*refDigestLen {
		return nil, fmt.Errorf("refs.json: %s seed %d holds %d digests, the workload has %d runs",
			name, seed, len(s)/refDigestLen, runs)
	}
	out := make([]string, runs)
	for i := range out {
		out[i] = s[i*refDigestLen : (i+1)*refDigestLen]
	}
	return out, nil
}

func shortDigest(d [32]byte) string { return hex.EncodeToString(d[:])[:refDigestLen] }

// recordRefs runs one pass of every workload for each seed in
// [0, refSeeds) and writes the reference file.
func recordRefs(path string) error {
	rf := refFile{
		Note:      "Per-run output digests recorded by `perfbench -record-refs`; change only with the benchmark.",
		Workloads: map[string]map[string]string{},
	}
	for _, name := range workloadNames {
		rf.Workloads[name] = map[string]string{}
		for seed := int64(0); seed < refSeeds; seed++ {
			w, err := buildWorkload(name, seed, nil)
			if err != nil {
				return err
			}
			var all string
			for i, r := range w.runs {
				o, err := sealed(r.exec(nil, i))
				if err != nil {
					return fmt.Errorf("%s seed %d run %d (%s): %w", name, seed, i, r.label, err)
				}
				all += shortDigest(o.digest)
			}
			rf.Workloads[name][strconv.FormatInt(seed, 10)] = all
			fmt.Fprintf(os.Stderr, "recorded %s seed %d: %d runs\n", name, seed, len(w.runs))
		}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
