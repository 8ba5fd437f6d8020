// Command c4sim runs an end-to-end training scenario on the simulated
// cluster: a distributed job under C4D monitoring and C4P traffic
// engineering, with an injectable fault, driving the full detect ->
// isolate -> restart loop and printing the timeline. It can also run any
// experiment from the scenario registry by name.
//
// Every mode compiles its flags into a c4.SessionSpec and runs it through
// the same c4.Session lifecycle the c4serve daemon serves, so a CLI run
// and a served session with the same spec and seed are byte-identical.
//
// Example:
//
//	c4sim -job gpt22b -fault crash -fault-at 30s
//	c4sim -job llama7b -fault straggler -horizon 10m
//	c4sim -job gpt22b -fault nic -no-c4d   # watch the job hang without C4D
//	c4sim -list                            # enumerate registered scenarios
//	c4sim -scenario fig12                  # run one paper experiment
//	c4sim -scenario 'fig*,pipeline'        # run a selection concurrently
//	c4sim -scenario 'campaign/*'           # every fault-injection campaign
//	c4sim -tenancy-trace trace.json        # replay a multi-tenant arrival trace
//	c4sim -tenancy-trace trace.json -tenancy-policy spread -provider baseline
//	c4sim -plan tp8/pp4/dp2/ga8            # compile + run a 3D-parallelism plan
//	c4sim -plan tp8/pp2/dp8/ga4 -job gpt175b -plan-bucket-mib 256 -plan-overlap
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"c4"
	"c4/internal/scenario"
	"c4/internal/workload"
)

func main() {
	var (
		jobName   = flag.String("job", "gpt22b", "workload model: "+strings.Join(workload.ModelNames(), " | "))
		provider  = flag.String("provider", "c4p", "path control: baseline | c4p | c4p-dynamic")
		fault     = flag.String("fault", "none", "inject: none | crash | straggler | nic")
		faultAt   = flag.Duration("fault-at", 30*time.Second, "fault injection time")
		victim    = flag.Int("victim", 6, "faulty node")
		horizon   = flag.Duration("horizon", 15*time.Minute, "virtual time to simulate")
		noC4D     = flag.Bool("no-c4d", false, "disable C4D monitoring and recovery")
		placement = flag.String("placement", "spread", "node placement: topo (pack leaf groups) | spread (maximize spine traffic)")
		seed      = flag.Int64("seed", 1, "simulation seed")
		list      = flag.Bool("list", false, "list registered scenarios and exit")
		scenarios = flag.String("scenario", "", "run registered scenarios by name (comma-separated, globs allowed) instead of the interactive job sim")
		workers   = flag.Int("workers", 0, "concurrent scenarios with -scenario (0 = GOMAXPROCS)")
		telemOut  = flag.String("telemetry-out", "", "write the run's telemetry stream as JSONL to this file (replay offline with c4watch)")
		traceOut  = flag.String("trace-out", "", "write the run's causal trace as Chrome trace-event JSON to this file (open in Perfetto, summarize with c4trace)")
		online    = flag.Bool("online", false, "attach the streaming online detector and log its detections live")
		tenTrace  = flag.String("tenancy-trace", "", "replay a multi-tenant JSON arrival trace on a shared fabric (see README for the format)")
		tenPolicy = flag.String("tenancy-policy", "packed", "with -tenancy-trace: placement policy: packed | spread | random")
		tenSpines = flag.Int("tenancy-spines", 8, "with -tenancy-trace: spine switches per rail (8 = 1:1, 4 = 2:1)")
		planStr   = flag.String("plan", "", "compile and run a 3D-parallelism plan for -job, e.g. 'tp8/pp4/dp2/ga8' (PP*DP nodes, spread placement; TP stays intra-node)")
		planBkt   = flag.Float64("plan-bucket-mib", 0, "with -plan: DP gradient bucket size in MiB (0 = one bucket)")
		planOvl   = flag.Bool("plan-overlap", false, "with -plan: launch buckets inside the final backward pass (comm/compute overlap)")
		planIters = flag.Int("plan-iters", 5, "with -plan: iterations to run")
	)
	flag.Parse()

	if *list {
		scenario.FprintList(os.Stdout, scenario.All())
		return
	}
	if *scenarios != "" {
		os.Exit(runScenarios(*scenarios, *seed, *workers))
	}
	if *tenTrace != "" {
		os.Exit(runTenancy(*tenTrace, *tenPolicy, *provider, *tenSpines, *horizon, *seed))
	}
	if *planStr != "" {
		os.Exit(runPlan(*planStr, *jobName, *provider, *planBkt, *planOvl, *planIters, *seed, *traceOut))
	}

	spec := c4.SessionSpec{
		Seed: *seed,
		Job: &c4.SessionJob{
			Model:     *jobName,
			Provider:  *provider,
			Placement: *placement,
			Fault:     *fault,
			FaultAtS:  faultAt.Seconds(),
			Victim:    victim,
			HorizonS:  horizon.Seconds(),
			NoC4D:     *noC4D,
			Online:    *online,
		},
	}
	os.Exit(runSession(spec, *telemOut, *traceOut))
}

// runSession executes one job/plan-mode session spec, optionally exporting
// its telemetry stream as JSONL and its causal trace as Chrome JSON — the
// CLI face of the shared session API. Spec errors exit 2 (bad flags),
// runtime errors exit 1.
func runSession(spec c4.SessionSpec, telemOut, traceOut string) int {
	sess, err := c4.NewSession(c4.SessionOptions{Spec: spec, Log: os.Stdout})
	if err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 2
	}
	defer sess.Close()
	var streamW *c4.TelemetryStreamWriter
	var streamFile *os.File
	if telemOut != "" {
		f, err := os.Create(telemOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
			return 1
		}
		streamFile = f
		streamW = c4.NewTelemetryStreamWriter(f)
		sess.AttachSink(streamW)
	}
	var tracer *c4.Tracer
	if traceOut != "" {
		tracer = c4.NewTracer()
		sess.AttachTracer(tracer)
	}
	if err := sess.Run(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 1
	}
	if streamW != nil {
		if err := streamW.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "c4sim: writing telemetry stream: %v\n", err)
			return 1
		}
		streamFile.Close()
		fmt.Printf("telemetry: %d records written to %s\n", streamW.Written(), telemOut)
	}
	if tracer != nil {
		if err := writeTraceFile(traceOut, tracer); err != nil {
			fmt.Fprintf(os.Stderr, "c4sim: writing trace: %v\n", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tracer.Spans()), traceOut)
	}
	return 0
}

// writeTraceFile exports the tracer's spans as Chrome trace-event JSON.
func writeTraceFile(path string, tracer *c4.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c4.WriteTrace(f, tracer.Spans()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTenancy replays a JSON arrival trace through the multi-tenant engine:
// concurrent jobs placed by the chosen policy, contending on one shared
// fabric under the chosen steering arm.
func runTenancy(path, policy, provider string, spines int, horizon time.Duration, seed int64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 2
	}
	sess, err := c4.NewSession(c4.SessionOptions{
		Spec: c4.SessionSpec{
			Seed: seed,
			Tenancy: &c4.SessionTenancy{
				Trace:    data,
				Policy:   policy,
				Provider: provider,
				Spines:   spines,
				HorizonS: horizon.Seconds(),
			},
		},
		Log: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 2
	}
	defer sess.Close()
	if err := sess.Run(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 1
	}
	return 0
}

// runPlan compiles one 3D-parallelism strategy into a training-iteration
// plan, executes it on the 16-node testbed under the chosen provider, and
// prints the compiled schedule plus the measured iteration breakdown —
// the single-job window into what the plan/* scenario family sweeps.
func runPlan(strategy, modelName, provider string, bucketMiB float64, overlap bool, iters int, seed int64, traceOut string) int {
	return runSession(c4.SessionSpec{
		Seed: seed,
		Job: &c4.SessionJob{
			Model:         modelName,
			Provider:      provider,
			Plan:          strategy,
			PlanBucketMiB: bucketMiB,
			PlanOverlap:   overlap,
			PlanIters:     iters,
		},
	}, "", traceOut)
}

// runScenarios executes a registry selection on the worker-pool runner and
// prints each result with its shape verdict and execution stats.
func runScenarios(selection string, seed int64, workers int) int {
	scns, err := scenario.Select(selection)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c4sim: %v\n", err)
		return 2
	}
	reports := (&scenario.Runner{Workers: workers}).Run(context.Background(), seed, scns)
	failures := 0
	for _, rep := range reports {
		if scenario.FprintReport(os.Stdout, rep) {
			failures++
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}
