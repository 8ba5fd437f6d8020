package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"syscall"

	"c4"
	"c4/internal/campaign"
	"c4/internal/faults"
)

// A workload is the list of runs one pass executes, generated from the
// workload seed. Every run is independent and deterministic: the same
// seed gives the same specs, and the same spec gives the same outcome.
type workload struct {
	runs []benchRun
}

// benchRun is one closed-loop request: a campaign trial or a Session.
type benchRun struct {
	label string
	exec  func(rec *recorder, run int) (outcome, error)
}

// outcome is what one run returns through the public entry points: its
// deterministic outputs, which seal digests after the run's latency has
// been taken, plus the counters the metrics and the sanity checks read.
// Nothing here is measured on the host.
type outcome struct {
	digest [sha256.Size]byte

	// Raw outputs, cleared by seal once digested: the trial result, or
	// the session's metrics map and the bytes its sink wrote. stream
	// aliases a buffer the next run reuses.
	trial   *faults.TrialResult
	metrics map[string]float64
	stream  []byte

	events     uint64
	iterations float64

	// Simulated training goodput in samples/s: the steered arm on
	// campaign trials, the single arm on sessions. base is the pinned arm.
	samples float64
	base    float64

	score faults.Score // campaign trials only

	telemetryRecords float64
	streamed         uint64 // records the attached JSONL sink serialized
	c4dEvents        float64
	exposedShare     float64
	bubbleS          float64
}

var workloadNames = []string{"campaign", "pipeline3d", "detect"}

// buildWorkload generates and validates a workload's runs from its seed.
func buildWorkload(name string, seed int64, rec *recorder) (*workload, error) {
	switch name {
	case "campaign":
		return campaignWorkload(seed, rec)
	case "pipeline3d":
		return sessionWorkload(pipeline3dSpecs(seed)), nil
	case "detect":
		return sessionWorkload(detectSpecs(seed)), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Campaign workload: one manifest of mixed-family trials, expanded exactly
// as c4campaign expands it, each trial run through TrialSpec.Run (the
// function a campaign shard calls per trial) on this goroutine.
const (
	campaignTrials   = 140
	campaignHorizonS = 120
)

func campaignManifest(seed int64) *campaign.Manifest {
	return &campaign.Manifest{
		Version: campaign.Version,
		Name:    "perfbench-campaign",
		Seed:    seed,
		Entries: []campaign.Entry{{
			Family:   "mixed",
			Trials:   campaignTrials,
			HorizonS: campaignHorizonS,
			Seeds:    &campaign.SeedRange{From: seed, Count: 1},
		}},
	}
}

// campaignWorkload builds the manifest document and loads it the way
// c4campaign loads a manifest file: decode, normalize, validate, expand.
func campaignWorkload(seed int64, rec *recorder) (*workload, error) {
	doc, err := json.Marshal(campaignManifest(seed))
	if err != nil {
		return nil, err
	}
	m, err := campaign.ReadManifest(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	end := rec.begin(-1, "expand")
	specs, err := m.Expand()
	end()
	if err != nil {
		return nil, err
	}
	w := &workload{}
	for _, ts := range specs {
		ts := ts
		w.runs = append(w.runs, benchRun{
			label: fmt.Sprintf("%s/%d", ts.Trial.ID, ts.Seed),
			exec: func(rec *recorder, run int) (outcome, error) {
				end := rec.begin(run, "trial_run")
				res := ts.Run()
				end()
				return trialOutcome(res)
			},
		})
	}
	return w, nil
}

func trialOutcome(res faults.TrialResult) (outcome, error) {
	o := outcome{
		trial:      &res,
		events:     res.Events,
		iterations: float64(res.BaseIters + res.SteeredIters),
		samples:    res.SteeredGoodput,
		base:       res.BaseGoodput,
		score:      res.Score,
		c4dEvents:  float64(res.Score.Events),
	}
	if res.BaseIters == 0 || res.SteeredIters == 0 {
		return o, fmt.Errorf("trial %s: an arm completed no iterations (base %d, steered %d)",
			res.ID, res.BaseIters, res.SteeredIters)
	}
	return o, nil
}

// seal digests the run's raw outputs and drops them: the trial result as
// JSON, or the metrics map in sorted key order with each value's exact
// bits followed by the hash of the telemetry stream.
func (o *outcome) seal() error {
	switch {
	case o.trial != nil:
		b, err := json.Marshal(o.trial)
		if err != nil {
			return fmt.Errorf("encoding trial result: %w", err)
		}
		o.digest = sha256.Sum256(b)
	case o.metrics != nil:
		keys := make([]string, 0, len(o.metrics))
		for k := range o.metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h := sha256.New()
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, strconv.FormatUint(math.Float64bits(o.metrics[k]), 16))
		}
		stream := sha256.Sum256(o.stream)
		h.Write(stream[:])
		copy(o.digest[:], h.Sum(nil))
	}
	o.trial, o.metrics, o.stream = nil, nil, nil
	return nil
}

// sealed seals a run's outcome and folds a digest error into err.
func sealed(o outcome, err error) (outcome, error) {
	if serr := o.seal(); err == nil {
		err = serr
	}
	return o, err
}

// sessionCase is one Session run: its spec and whether it streams
// telemetry to a JSONL sink (the path c4serve's SSE stream uses).
type sessionCase struct {
	label  string
	spec   c4.SessionSpec
	stream bool
}

// Pipeline3d grid: every TP8 strategy below × DP bucket size × overlap ×
// provider, in a seeded order with seeded session seeds. Every seed runs
// the whole grid, so seeds differ in jitter and ECMP hashing, not in mix.
var (
	pipelineStrategies = []string{
		"tp8/pp1/dp8/ga1", "tp8/pp2/dp8/ga4", "tp8/pp4/dp4/ga8", "tp8/pp8/dp2/ga16",
		"tp8/pp1/dp4/ga1", "tp8/pp2/dp4/ga4", "tp8/pp4/dp2/ga4", "tp8/pp2/dp2/ga2",
	}
	pipelineBucketsMiB = []float64{0, 32, 64, 128, 256}
	pipelineProviders  = []string{"baseline", "c4p"}
)

const pipelineIters = 4

func pipeline3dSpecs(seed int64) []sessionCase {
	var out []sessionCase
	for _, st := range pipelineStrategies {
		for _, b := range pipelineBucketsMiB {
			for _, overlap := range []bool{false, true} {
				for _, prov := range pipelineProviders {
					out = append(out, sessionCase{
						label: fmt.Sprintf("%s/b%g/ov=%v/%s", st, b, overlap, prov),
						spec: c4.SessionSpec{Job: &c4.SessionJob{
							Provider: prov, Plan: st, PlanBucketMiB: b,
							PlanOverlap: overlap, PlanIters: pipelineIters,
						}},
					})
				}
			}
		}
	}
	return seedCases(out, seed)
}

// Detect grid: fault kind × provider, repeated with a seeded victim and
// onset, each session monitored by the C4D fleet and the online detector
// and streaming its telemetry. The horizon covers detection, the 30 s
// isolation and the 3 min restart, and some iterations after it.
var (
	detectFaults    = []string{"nic", "straggler", "crash"}
	detectProviders = []string{"c4p", "c4p-dynamic"}
)

const (
	detectReps     = 17
	detectHorizonS = 300
)

func detectSpecs(seed int64) []sessionCase {
	r := rand.New(rand.NewSource(seed ^ 0x5dec7))
	var out []sessionCase
	for rep := 0; rep < detectReps; rep++ {
		for _, f := range detectFaults {
			for _, prov := range detectProviders {
				victim := r.Intn(16)
				at := float64(10 + r.Intn(31))
				out = append(out, sessionCase{
					label: fmt.Sprintf("%s@%gs/n%d/%s", f, at, victim, prov),
					spec: c4.SessionSpec{Job: &c4.SessionJob{
						Provider: prov, Fault: f, FaultAtS: at, Victim: &victim,
						HorizonS: detectHorizonS, Online: true,
					}},
					stream: true,
				})
			}
		}
	}
	return seedCases(out, seed)
}

// seedCases gives each case its own session seed and shuffles the order,
// both drawn from the workload seed.
func seedCases(cs []sessionCase, seed int64) []sessionCase {
	r := rand.New(rand.NewSource(seed))
	for i := range cs {
		cs[i].spec.Seed = r.Int63n(1 << 40)
	}
	r.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	return cs
}

// sessionWorkload encodes every spec as the JSON body c4serve receives
// on POST /v1/sessions, validates it the way the server does (decode,
// then NewSession resolves it against the registries), and wraps it into
// a run that drives the full Session lifecycle from that body.
func sessionWorkload(cases []sessionCase) *workload {
	w := &workload{}
	for _, sc := range cases {
		label, stream := sc.label, sc.stream
		body, err := json.Marshal(sc.spec)
		exec := func(rec *recorder, run int) (outcome, error) { return runSession(rec, run, label, body, stream) }
		if err == nil {
			var spec c4.SessionSpec
			if err = json.Unmarshal(body, &spec); err == nil {
				var s *c4.Session
				if s, err = c4.NewSession(c4.SessionOptions{Spec: spec}); err == nil {
					err = s.Close()
				}
			}
		}
		if err != nil {
			// A rejected spec stays in the pass as a run that fails.
			err = fmt.Errorf("spec rejected: %w", err)
			exec = func(*recorder, int) (outcome, error) { return outcome{}, err }
		}
		w.runs = append(w.runs, benchRun{label: label, exec: exec})
	}
	return w
}

// runSession drives one Session from its JSON spec. With stream, a JSONL
// sink writes the session's telemetry into streamBuf.
func runSession(rec *recorder, run int, label string, body []byte, stream bool) (outcome, error) {
	end := rec.begin(run, "spec_build")
	var spec c4.SessionSpec
	err := json.Unmarshal(body, &spec)
	end()
	if err != nil {
		return outcome{}, fmt.Errorf("spec %s: %w", label, err)
	}

	end = rec.begin(run, "new_session")
	s, err := c4.NewSession(c4.SessionOptions{Spec: spec})
	end()
	if err != nil {
		return outcome{}, fmt.Errorf("spec %s rejected: %w", label, err)
	}
	var sink *c4.TelemetryStreamWriter
	if stream {
		if err := streamBuf.reset(); err != nil {
			s.Close()
			return outcome{}, err
		}
		sink = c4.NewTelemetryStreamWriter(&streamBuf)
		s.AttachSink(sink)
	}

	end = rec.begin(run, "session_run")
	runErr := s.Run(context.Background())
	end()

	var o outcome
	if runErr == nil && sink != nil {
		runErr = sink.Flush()
		o.streamed = sink.Written()
		o.stream = streamBuf.bytes()
	}
	m := s.Metrics()

	end = rec.begin(run, "close")
	closeErr := s.Close()
	end()
	if runErr != nil {
		return o, fmt.Errorf("session %s: %w", label, runErr)
	}
	if closeErr != nil {
		return o, fmt.Errorf("session %s: %w", label, closeErr)
	}

	o.metrics = m
	o.events = uint64(m["sim_events"])
	o.iterations = m["iterations"]
	o.samples = m["samples_per_sec"]
	o.telemetryRecords = m["telemetry_records"]
	o.c4dEvents = m["c4d_events"]
	o.exposedShare = m["exposed_share"]
	o.bubbleS = m["bubble_s"]
	switch {
	case o.iterations == 0:
		return o, fmt.Errorf("session %s: zero iterations", label)
	case m["telemetry_dropped"] > 0:
		return o, fmt.Errorf("session %s: telemetry dropped %g records", label, m["telemetry_dropped"])
	case sink != nil && float64(o.streamed) != o.telemetryRecords:
		return o, fmt.Errorf("session %s: sink serialized %d records, pipeline streamed %g",
			label, o.streamed, o.telemetryRecords)
	}
	return o, nil
}

// streamBuf receives a streaming session's telemetry. Its writes are plain
// copies, as c4serve keeps a session's lines in memory, and the stream is
// hashed after the run, outside the timed window. Its memory is mapped
// outside the Go heap, so holding a stream neither shows in peak_heap_mb
// nor paces the collector. Only the pages a stream reaches become
// resident.
var streamBuf streamBuffer

const streamCap = 64 << 20 // the longest stream, on detect, is about 4 MiB

type streamBuffer struct {
	mem []byte
	n   int
}

// reset empties the buffer, mapping it on first use.
func (b *streamBuffer) reset() error {
	if b.mem == nil {
		mem, err := syscall.Mmap(-1, 0, streamCap, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return fmt.Errorf("mapping stream buffer: %w", err)
		}
		b.mem = mem
	}
	b.n = 0
	return nil
}

func (b *streamBuffer) Write(p []byte) (int, error) {
	if len(p) > len(b.mem)-b.n {
		return 0, fmt.Errorf("telemetry stream exceeds %d bytes", len(b.mem))
	}
	b.n += copy(b.mem[b.n:], p)
	return len(p), nil
}

// bytes is the stream written since reset; the next reset reuses it.
func (b *streamBuffer) bytes() []byte { return b.mem[:b.n] }
