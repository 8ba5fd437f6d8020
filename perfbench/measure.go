package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"c4/internal/faults"
)

// phase is one timed stretch of the closed loop.
type phase struct {
	elapsed time.Duration   // wall time
	lat     []time.Duration // per-run latency scaled to reference speed, in execution order
	idx     []int           // the run index of each latency
	events  uint64          // sim events over the phase
	heap    []uint64        // heap bytes allocated as each run ended
	setup   []time.Duration // set-up times, one per calibration
	factor  float64         // median calibration factor over the phase
	cals    int             // calibrations taken
}

// setupSeconds is the median set-up time, scaled like the runs.
func (p phase) setupSeconds() float64 {
	s := make([]float64, len(p.setup))
	for i, d := range p.setup {
		s[i] = d.Seconds()
	}
	return median(s) * p.factor
}

func (p phase) busy() time.Duration {
	var sum time.Duration
	for _, d := range p.lat {
		sum += d
	}
	return sum
}

// runsPerS is runs completed per scaled second spent in them.
func (p phase) runsPerS() float64 { return float64(len(p.lat)) / p.busy().Seconds() }

// eventsPerS is simulated events per scaled second.
func (p phase) eventsPerS() float64 { return float64(p.events) / p.busy().Seconds() }

// rateRatio compares p's throughput with base's over the runs both phases
// executed, each counted once, so a difference in which runs the phases
// reached does not show as a difference in speed.
func (p phase) rateRatio(base phase) float64 {
	first := func(ph phase) map[int]time.Duration {
		m := map[int]time.Duration{}
		for k, i := range ph.idx {
			if _, ok := m[i]; !ok {
				m[i] = ph.lat[k]
			}
		}
		return m
	}
	mine, theirs := first(p), first(base)
	var a, b time.Duration
	for i, d := range mine {
		if e, ok := theirs[i]; ok {
			a += d
			b += e
		}
	}
	return float64(b) / float64(a)
}

// percentileMs is the nearest-rank percentile of the scaled latencies.
func (p phase) percentileMs(q float64) float64 {
	s := append([]time.Duration(nil), p.lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(math.Ceil(q*float64(len(s))))-1]) / 1e6
}

// peakHeapMB is the 90th percentile of the heap bytes allocated as each
// run ended. The heap saws between the live data and the collector's
// goal; this reads near the top of the tooth without hanging on the one
// largest run, as the maximum would.
func (p phase) peakHeapMB() float64 {
	s := append([]uint64(nil), p.heap...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(math.Ceil(0.9*float64(len(s))))-1]) / 1e6
}

// measure runs the workload's runs in order, pass after pass, until the
// phase has lasted b.seconds and every run has been checked at least once.
// It calibrates every calEvery and scales the phase's latencies by the
// median factor: one factor per phase follows the host's slow stretches,
// which last tens of seconds, without adding each calibration's own noise
// to individual runs. With each calibration an untraced phase also times
// one set-up of the workload, so set-up is measured many times under the
// same host conditions as the runs.
func (b *bench) measure(rec *recorder) (phase, error) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var ph phase
	var factors []float64
	runtime.GC()
	start := time.Now()
	lastCal := start
	for done := false; !done; {
		for i, r := range b.w.runs {
			end := rec.begin(i, "run")
			t0 := time.Now()
			o, err := r.exec(rec, i)
			ph.lat = append(ph.lat, time.Since(t0))
			end()
			o, err = sealed(o, err)
			ph.idx = append(ph.idx, i)
			ph.events += o.events
			metrics.Read(heap)
			ph.heap = append(ph.heap, heap[0].Value.Uint64())
			b.chk.check(i, r.label, o, err)

			ph.elapsed = time.Since(start)
			done = ph.elapsed >= b.seconds && b.chk.complete()
			if done || time.Since(lastCal) >= calEvery {
				factors = append(factors, b.cal.factor())
				if rec == nil { // keep the traced phase's profile to the runs
					t0 := time.Now()
					if _, err := buildWorkload(b.name, b.seed, nil); err != nil {
						return ph, err
					}
					ph.setup = append(ph.setup, time.Since(t0))
				}
				lastCal = time.Now()
			}
			if done {
				break
			}
		}
	}
	ph.factor, ph.cals = median(factors), len(factors)
	for k := range ph.lat {
		ph.lat[k] = time.Duration(float64(ph.lat[k]) * ph.factor)
	}
	return ph, nil
}

// checker validates every run's outcome and keeps the first outcome of
// each run, which the exact model metrics and the repeat check read.
type checker struct {
	ref       []string // per-run reference digests; nil when none recorded
	first     []*outcome
	seen      int
	attempted int
	failed    int
	errs      []string
}

const maxReported = 10

func newChecker(runs int, ref []string) *checker {
	return &checker{ref: ref, first: make([]*outcome, runs)}
}

// check counts one attempted run. It fails when the run returned an
// error (spec rejected, run error, failed sanity check), when its digest
// differs from the recorded reference, or when it differs from the same
// run's digest earlier in this invocation.
func (c *checker) check(i int, label string, o outcome, err error) {
	c.attempted++
	if err == nil && c.ref != nil {
		if got := shortDigest(o.digest); got != c.ref[i] {
			err = fmt.Errorf("output digest %s, reference %s", got, c.ref[i])
		}
	}
	if f := c.first[i]; f == nil {
		c.first[i] = &o
		c.seen++
	} else if err == nil && f.digest != o.digest {
		err = fmt.Errorf("output digest %s, earlier in this run %s", shortDigest(o.digest), shortDigest(f.digest))
	}
	if err != nil {
		c.failed++
		if len(c.errs) < maxReported {
			c.errs = append(c.errs, fmt.Sprintf("run %d (%s): %v", i, label, err))
		}
	}
}

func (c *checker) complete() bool { return c.seen == len(c.first) }

func (c *checker) okFrac() float64 { return 1 - float64(c.failed)/float64(c.attempted) }

// passDigest hashes the per-run digests of the first pass, in run order.
func (c *checker) passDigest() string {
	h := sha256.New()
	for _, o := range c.first {
		if o != nil {
			h.Write(o.digest[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func (c *checker) refState() string {
	if c.ref == nil {
		return fmt.Sprintf("NOT CHECKED: none recorded for this seed, only seeds 0-%d have references; outputs checked for repeatability only", refSeeds-1)
	}
	return "checked per run"
}

// model aggregates the first pass's outcomes. These numbers describe the
// simulated cluster and are exact: a change that only speeds up the
// simulator leaves every one of them unchanged.
type model struct {
	samples   float64 // mean simulated goodput, samples/s
	steerGain float64 // steered over pinned goodput; 1 with no pinned arm
	score     faults.Score

	events           uint64
	iterations       float64
	telemetryRecords float64
	c4dEvents        float64
	detected         float64
	relevant         float64
	exposedShare     float64
	bubbleS          float64
}

func (b *bench) modelMetrics() model {
	var m model
	var steered, base float64
	n := 0
	for _, o := range b.chk.first {
		if o == nil {
			continue
		}
		n++
		m.samples += o.samples
		steered += o.samples
		base += o.base
		m.score = m.score.Add(o.score)
		m.events += o.events
		m.iterations += o.iterations
		m.telemetryRecords += o.telemetryRecords
		m.c4dEvents += o.c4dEvents
		m.exposedShare += o.exposedShare
		m.bubbleS += o.bubbleS
		if b.name == "detect" {
			// One injected fault per session, on a node of the job.
			m.relevant++
			if o.c4dEvents > 0 {
				m.detected++
			}
		}
	}
	if b.name == "campaign" {
		m.detected, m.relevant = float64(m.score.Detected), float64(m.score.Relevant)
	}
	m.samples /= float64(n)
	m.exposedShare /= float64(n)
	m.bubbleS /= float64(n)
	m.steerGain = 1
	if base > 0 {
		m.steerGain = steered / base
	}
	return m
}

// cpuClasses reads the runtime's CPU accounting.
type cpuClasses struct{ gc, idle, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuClasses{gc: s[0].Value.Float64(), idle: s[1].Value.Float64(), total: s[2].Value.Float64()}
}

// gcFrac is the share of busy CPU the garbage collector used since c0.
func (c cpuClasses) gcFrac(c0 cpuClasses) float64 {
	busy := (c.total - c0.total) - (c.idle - c0.idle)
	if busy <= 0 {
		return 0
	}
	return (c.gc - c0.gc) / busy
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git work tree.
func commit() string {
	rev, dirty := "none", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes every Go source and go.mod under root, so records
// taken from checkouts without git history still name the code measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
