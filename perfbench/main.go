// Command perfbench is the C4 simulator's performance benchmark. It runs
// one named workload through the public entry points — the campaign
// trial runner that c4campaign uses, and c4.Session, which c4sim and
// c4serve use — as a closed loop with one client, checks every run's
// output, and prints the end-to-end metrics. With -trace 1 it measures
// the same workload again under a CPU profile and its own spans and
// prints per-layer metrics instead. See README.md.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 40 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

const (
	warmupRuns = 3 // untimed runs before the first timed phase
	outDir     = ".bench_build/perfbench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: campaign | pipeline3d | detect")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 40, "measured seconds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := fs.String("record-refs", "", "record reference digests for the reference seeds into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkRepo(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *record != "" {
		if err := recordRefs(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames)
		return 2
	}
	// One process, one client: the runs are serial and campaign trials run
	// on this goroutine. One P keeps the garbage collector on the same CPU
	// as the simulation, so hosts with different CPU counts, and a busy
	// second CPU, do not change the figures.
	runtime.GOMAXPROCS(1)
	b := &bench{name: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: stdout}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traceMode)
	fmt.Fprintf(stdout, "# host go=%s %s/%s GOMAXPROCS=%d nproc=%d commit=%s src=%s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(),
		commit(), sourceDigest("."))
	cal, err := newCalibrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer cal.close()
	b.cal = cal
	if *traceMode == 0 {
		err = b.endToEnd()
	} else {
		err = b.traced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// checkRepo makes sure the benchmark runs from a checkout of the
// repository root, where the program it measures lives.
func checkRepo() error {
	for _, p := range []string{"go.mod", "session.go", "internal/sim", "perfbench/go.mod"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("run from the repository root (%v)", err)
		}
	}
	return nil
}

// bench is one invocation: a workload, its seed and the phases run on it.
type bench struct {
	name    string
	seed    int64
	seconds time.Duration
	out     io.Writer

	cal *calibrator
	w   *workload
	chk *checker
}

// setup generates and validates the workload, then runs the untimed
// warm-up. Set-up is timed again during the timed phase (see measure).
func (b *bench) setup(rec *recorder) error {
	w, err := buildWorkload(b.name, b.seed, rec)
	if err != nil {
		return err
	}
	b.w = w
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	ref, err := refs.lookup(b.name, b.seed, len(b.w.runs))
	if err != nil {
		return err
	}
	b.chk = newChecker(len(b.w.runs), ref)
	for i := 0; i < warmupRuns && i < len(b.w.runs); i++ {
		o, err := sealed(b.w.runs[i].exec(nil, i))
		b.chk.check(i, b.w.runs[i].label, o, err)
	}
	return nil
}

func (b *bench) endToEnd() error {
	if err := b.setup(nil); err != nil {
		return err
	}
	ph, err := b.measure(nil)
	if err != nil {
		return err
	}
	m := b.modelMetrics()
	res := newResult(b.chk)
	res.add("setup_s", ph.setupSeconds(), "s")
	res.add("runs_per_s", ph.runsPerS(), "1/s")
	res.add("run_p50_ms", ph.percentileMs(0.5), "ms")
	res.add("run_p90_ms", ph.percentileMs(0.9), "ms")
	res.add("sim_events_per_s", ph.eventsPerS(), "1/s")
	res.add("peak_heap_mb", ph.peakHeapMB(), "MB")
	res.add("ok_frac", b.chk.okFrac(), "ratio")
	res.add("model.samples_per_s", m.samples, "samples/s")
	res.add("model.steer_gain", m.steerGain, "ratio")
	res.add("model.c4d_precision", m.score.Precision(), "ratio")
	res.add("model.c4d_recall", m.score.Recall(), "ratio")
	fmt.Fprintf(b.out, "# %d timed runs of %d distinct in %.2fs, p90 has %d samples beyond it\n",
		len(ph.lat), len(b.w.runs), ph.elapsed.Seconds(), len(ph.lat)-int(math.Ceil(0.9*float64(len(ph.lat)))))
	fmt.Fprintf(b.out, "# host speed %.3f of reference (median of %d calibrations); every host time is scaled by it; %d set-ups timed\n",
		ph.factor, ph.cals, len(ph.setup))
	b.finish(res)
	return nil
}

// traced measures the workload untraced, then again under a CPU profile,
// runtime counters and the benchmark's spans, and reports per layer.
func (b *bench) traced() error {
	rec := newRecorder()
	if err := b.setup(rec); err != nil {
		return err
	}
	// The run's time is split between the two phases.
	b.seconds /= 2
	plain, err := b.measure(nil)
	if err != nil {
		return err
	}

	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	cpu0 := readCPUClasses()
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	tr, err := b.measure(rec)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	cpu1 := readCPUClasses()

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	lt := reduce(p)
	if err := b.writeArtifacts(prof.Bytes(), rec); err != nil {
		return err
	}

	runs := float64(len(tr.lat))
	events := float64(tr.events)
	res := newResult(b.chk)
	fmt.Fprintf(b.out, "# layer table: %d CPU samples, %.2fs CPU over %d traced runs\n", lt.Samples, float64(lt.TotalNs)/1e9, len(tr.lat))
	for _, l := range reportedLayers {
		res.add(l+".self_s", float64(lt.SelfNs[l])/1e9/runs, "s")
		res.add(l+".self_share", lt.share(lt.SelfNs[l]), "ratio")
	}
	res.add("runtime.gc_bg_s", float64(lt.SelfNs[gcBackground])/1e9/runs, "s")
	res.add("runtime.gc_bg_share", lt.share(lt.SelfNs[gcBackground]), "ratio")
	res.add("runtime.alloc_s", float64(lt.AllocNs)/1e9/runs, "s")
	res.add("runtime.alloc_share", lt.share(lt.AllocNs), "ratio")
	res.add("runtime.alloc_bytes_per_event", float64(ms1.TotalAlloc-ms0.TotalAlloc)/events, "B")
	res.add("runtime.mallocs_per_event", float64(ms1.Mallocs-ms0.Mallocs)/events, "count")
	res.add("runtime.gc_cycles_per_run", float64(ms1.NumGC-ms0.NumGC)/runs, "count")
	res.add("runtime.gc_cpu_frac", cpu1.gcFrac(cpu0), "ratio")

	m := b.modelMetrics()
	res.add("sim.events", float64(m.events), "count")
	res.add("sim.events_per_run", float64(m.events)/float64(len(b.w.runs)), "count")
	res.add("job.iterations", m.iterations, "count")
	res.add("telemetry.records", m.telemetryRecords, "count")
	res.add("c4d.events", m.c4dEvents, "count")
	res.add("c4d.detected", m.detected, "count")
	res.add("faults.relevant", m.relevant, "count")
	res.add("rca.accuracy", m.score.RCAAccuracy(), "ratio")
	res.add("plan.exposed_share", m.exposedShare, "ratio")
	res.add("plan.bubble_s", m.bubbleS, "s")

	res.add("bench.trace_overhead", tr.rateRatio(plain), "ratio")
	res.add("bench.profile_samples", float64(lt.Samples), "count")
	stats := map[string]spanStat{}
	for _, st := range rec.stats() {
		stats[st.Name] = st
		fmt.Fprintf(b.out, "# span %-12s n=%-5d total=%9.3fs self=%9.3fs\n", st.Name, st.Count, st.Total.Seconds(), st.Self.Seconds())
	}
	for _, n := range spanNames {
		st := stats[n]
		mean := 0.0
		if st.Count > 0 {
			mean = st.Self.Seconds() * 1e3 / float64(st.Count)
		}
		res.add("span."+n+".self_ms", mean, "ms")
	}
	b.finish(res)
	return nil
}

// spanNames are the benchmark-side spans, in the order a run opens them.
var spanNames = []string{"expand", "run", "trial_run", "spec_build", "new_session", "session_run", "close"}

// writeArtifacts saves the traced run's CPU profile (readable with
// `go tool pprof`) and its spans (Chrome trace-event JSON).
func (b *bench) writeArtifacts(prof []byte, rec *recorder) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	if err := os.WriteFile(base+".cpu.pprof", prof, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.json")
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "# wrote %s.cpu.pprof and %s.spans.json\n", base, base)
	return nil
}

// finish prints the check summary, the digest, the metric table and the
// result line, which is the last line of standard output.
func (b *bench) finish(res *result) {
	fmt.Fprintf(b.out, "# digest %s seed=%d %s (reference: %s)\n", b.name, b.seed, b.chk.passDigest(), b.chk.refState())
	if b.chk.ref == nil {
		fmt.Fprintf(os.Stderr, "perfbench: reference %s\n", b.chk.refState())
	}
	for _, e := range b.chk.errs {
		fmt.Fprintln(b.out, "# FAIL", e)
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b.out, "# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	fmt.Fprintln(b.out, string(line))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newResult(c *checker) *result {
	return &result{
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricValue{},
	}
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
