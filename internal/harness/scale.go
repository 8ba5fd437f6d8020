package harness

import (
	"fmt"
	"strings"

	"c4/internal/metrics"
	"c4/internal/netsim"
	"c4/internal/scenario"
	"c4/internal/sim"
	"c4/internal/topo"
)

// This file registers the netsim/scale-* family: the flow-class kernel
// measured at datacenter scale. Each scenario drives the same
// gang-partitioned world — groups of 8 nodes running ring traffic, the
// communication shape of pure-DP training with gang scheduling — and pins
// the kernel's absolute work: KernelStats link visits and component
// fills/reuses, the class and component census, makespan and event count,
// all deterministic and safe for the bench-regression baseline. The reuse
// count gates the incremental settle exactly: a kernel that fell back to
// refilling every component would keep its makespan but lose its reuses. Equivalence to the per-flow
// reference and the work reduction against it are proven by the netsim
// package tests, where the reference lives.

// scaleSpec is the gang-partitioned datacenter slice the family runs on:
// groups of 8 nodes on a 2-rail, 4-spine fabric.
func scaleSpec(nodes int) topo.Spec {
	return topo.Spec{
		Nodes:         nodes,
		GPUsPerNode:   8,
		Rails:         2,
		NodesPerGroup: 8,
		Spines:        4,
		PortGbps:      200,
		NVLinkGbps:    362,
	}
}

// scaleFlowsPerPair models one ring edge's transfer as 2 QPs with 16
// chunks in flight each: 32 equal-path flows that collapse into a single
// flow class.
const scaleFlowsPerPair = 32

// scaleComponents is how many independent link components the gang world
// decomposes into: ring edge i of each gang runs on (plane i%2, spine
// i%4), so edges sharing both coordinates chain through the same leaf-up
// link — lcm(planes, spines) = 4 components per gang.
func scaleComponents(nodes int) int { return scaleSpec(nodes).Groups() * 4 }

// ScaleArm is one kernel configuration's complete run of the gang world:
// the observables that must match across configurations (makespan, probe
// bytes, event count) plus the kernel's work counters.
type ScaleArm struct {
	Kernel     string
	Flows      int
	Completed  int
	Makespan   sim.Time
	Probe0     float64 // carried bits on node 0's rail-0/plane-0 uplink
	Probe1     float64 // carried bits on node 1's rail-0/plane-1 uplink
	Events     uint64
	Recomputes uint64
	LinkVisits uint64
	Fills      uint64 // components filled from scratch
	Reuses     uint64 // clean components kept across a recompute
	Classes    int    // live flow classes mid-run
	Components int    // link components mid-run
}

// runScaleArm builds a fresh engine, fabric and network under cfg, starts
// flowsPerPair flows on every ring edge of every gang, and runs to
// completion. Sizes vary per edge and member — not per group — so
// completions arrive in many deterministic waves, each one a recompute,
// and matching flows of different gangs finish at the same instant.
func runScaleArm(ctx *scenario.Ctx, nodes, flowsPerPair int, cfg netsim.Config, kernel string) ScaleArm {
	eng := sim.NewEngine()
	tp := topo.MustNew(scaleSpec(nodes))
	n := netsim.New(eng, tp, cfg)
	ctx.Track(eng)

	arm := ScaleArm{Kernel: kernel}
	finish := func(f *netsim.Flow) {
		arm.Completed++
		arm.Makespan = eng.Now()
	}
	spec := tp.Spec
	for g := 0; g < spec.Groups(); g++ {
		for i := 0; i < spec.NodesPerGroup; i++ {
			src := g*spec.NodesPerGroup + i
			dst := g*spec.NodesPerGroup + (i+1)%spec.NodesPerGroup
			plane := i % topo.Planes
			p, err := tp.PathFor(src, dst, 0, plane, i%spec.Spines, plane)
			if err != nil {
				panic(err)
			}
			for k := 0; k < flowsPerPair; k++ {
				size := 20e9 * (1 + 0.11*float64(k) + 0.013*float64(i))
				n.StartFlow(p, size, fmt.Sprintf("g%d-e%d-m%d", g, i, k), finish)
				arm.Flows++
			}
		}
	}
	// Sample the class/component census mid-run, after every flow has been
	// admitted and long before the first completion.
	eng.Schedule(sim.Second, func() {
		arm.Classes = n.ClassCount()
		arm.Components = n.ComponentCount()
	})
	eng.Run()

	st := n.Stats()
	arm.Recomputes = st.Recomputes
	arm.LinkVisits = st.LinkVisits
	arm.Fills = st.ComponentFills
	arm.Reuses = st.ComponentReuses
	arm.Probe0 = n.CarriedBits(tp.PortAt(0, 0, 0).Up)
	arm.Probe1 = n.CarriedBits(tp.PortAt(1, 0, 1).Up)
	arm.Events = eng.Fired()
	return arm
}

// armDiverged compares the observables of two arms; any difference is a
// determinism bug, not tolerance-worthy noise.
func armDiverged(ref, a ScaleArm) error {
	if a.Makespan != ref.Makespan {
		return fmt.Errorf("%s makespan %v != %s %v", a.Kernel, a.Makespan, ref.Kernel, ref.Makespan)
	}
	if a.Probe0 != ref.Probe0 || a.Probe1 != ref.Probe1 {
		return fmt.Errorf("%s probe bits (%g, %g) != %s (%g, %g)",
			a.Kernel, a.Probe0, a.Probe1, ref.Kernel, ref.Probe0, ref.Probe1)
	}
	if a.Events != ref.Events {
		return fmt.Errorf("%s fired %d events != %s %d", a.Kernel, a.Events, ref.Kernel, ref.Events)
	}
	return nil
}

// ScaleKernelResult holds kernel arms on one world: every arm after the
// first must match the first bit for bit, and every arm must decompose the
// fabric into scaleComponents independent filling problems.
type ScaleKernelResult struct {
	Nodes int
	Arms  []ScaleArm
}

// String renders the per-arm table.
func (r ScaleKernelResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "netsim kernel on the %d-node gang world (%d flows)\n", r.Nodes, r.Arms[0].Flows)
	rows := make([][]string, len(r.Arms))
	for i, a := range r.Arms {
		rows[i] = []string{
			a.Kernel,
			fmt.Sprintf("%.3f s", a.Makespan.Seconds()),
			fmt.Sprintf("%d", a.Recomputes),
			fmt.Sprintf("%d", a.LinkVisits),
			fmt.Sprintf("%d/%d", a.Fills, a.Reuses),
			fmt.Sprintf("%d", a.Classes),
			fmt.Sprintf("%d", a.Components),
		}
	}
	sb.WriteString(metrics.Table([]string{"kernel", "makespan", "recomputes", "link visits", "fills/reuses", "classes", "components"}, rows))
	return sb.String()
}

// CheckShape: full completion, bit-identical observables across arms, one
// class per ring edge, four components per gang, and clean components
// reused across recomputes.
func (r ScaleKernelResult) CheckShape() error {
	ref := r.Arms[0]
	for _, a := range r.Arms {
		if a.Completed != a.Flows {
			return fmt.Errorf("%s completed %d of %d flows", a.Kernel, a.Completed, a.Flows)
		}
		if err := armDiverged(ref, a); err != nil {
			return err
		}
		if a.Classes != r.Nodes {
			return fmt.Errorf("%s saw %d flow classes, want %d (one per ring edge)", a.Kernel, a.Classes, r.Nodes)
		}
		if want := scaleComponents(r.Nodes); a.Components != want {
			return fmt.Errorf("%s saw %d link components, want %d (four per gang)",
				a.Kernel, a.Components, want)
		}
		if a.Reuses == 0 {
			return fmt.Errorf("%s reused no clean component in %d recomputes", a.Kernel, a.Recomputes)
		}
	}
	return nil
}

// runScaleAggregate runs the flow-class kernel once on the 256-node world
// and pins its absolute work.
func runScaleAggregate(ctx *scenario.Ctx) ScaleKernelResult {
	const nodes = 256
	return ScaleKernelResult{
		Nodes: nodes,
		Arms:  []ScaleArm{runScaleArm(ctx, nodes, scaleFlowsPerPair, netsim.DefaultConfig(), "class")},
	}
}

// runScaleParallel races serial component settle against the 8-worker
// parallel settle on the same world: byte-identical by construction, with
// one component per gang available to fill concurrently.
func runScaleParallel(ctx *scenario.Ctx) ScaleKernelResult {
	const nodes = 256
	serial := netsim.DefaultConfig()
	par := serial
	par.SettleWorkers = 8
	return ScaleKernelResult{
		Nodes: nodes,
		Arms: []ScaleArm{
			runScaleArm(ctx, nodes, scaleFlowsPerPair, serial, "agg-serial"),
			runScaleArm(ctx, nodes, scaleFlowsPerPair, par, "agg-parallel-8"),
		},
	}
}

// ScaleSweepResult tracks the class kernel's work as the aggregation
// factor grows. The gang world is embarrassingly parallel, so world size
// alone scales work linearly; the axis real workloads scale along is the
// number of flows per identical chain — QPs times in-flight chunks. More
// members per class add completion waves (recomputes) but no per-recompute
// work: each pass stays one visit per chain.
type ScaleSweepResult struct {
	Nodes int
	Arms  []ScaleArm // one per flows-per-chain factor, ascending
}

// scaleSweepMembers are the flows-per-chain factors the sweep runs.
var scaleSweepMembers = []int{8, 32, 128}

// runScaleSweep runs the 4-worker class kernel at each aggregation factor
// on the 256-node world.
func runScaleSweep(ctx *scenario.Ctx) ScaleSweepResult {
	const nodes = 256
	cfg := netsim.DefaultConfig()
	cfg.SettleWorkers = 4
	res := ScaleSweepResult{Nodes: nodes}
	for _, members := range scaleSweepMembers {
		res.Arms = append(res.Arms, runScaleArm(ctx, nodes, members, cfg, fmt.Sprintf("%d flows/chain", members)))
	}
	return res
}

// visitsPerRecompute is an arm's mean kernel work per recompute.
func visitsPerRecompute(a ScaleArm) float64 {
	return float64(a.LinkVisits) / float64(a.Recomputes)
}

// String renders the sweep.
func (r ScaleSweepResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "netsim class-kernel work vs flows per chain (%d-node world)\n", r.Nodes)
	rows := make([][]string, len(r.Arms))
	for i, a := range r.Arms {
		rows[i] = []string{
			a.Kernel,
			fmt.Sprintf("%d", a.Flows),
			fmt.Sprintf("%d", a.Recomputes),
			fmt.Sprintf("%d", a.LinkVisits),
			fmt.Sprintf("%.0f", visitsPerRecompute(a)),
			fmt.Sprintf("%d/%d", a.Fills, a.Reuses),
			fmt.Sprintf("%.3f s", a.Makespan.Seconds()),
		}
	}
	sb.WriteString(metrics.Table([]string{"aggregation", "flows", "recomputes", "link visits", "visits/recompute", "fills/reuses", "makespan"}, rows))
	return sb.String()
}

// CheckShape: every factor completes all flows in one class per ring
// edge, and per-recompute work stays flat while flows per chain grow 16x:
// it must not even double, where a per-flow kernel's would grow with the
// member count.
func (r ScaleSweepResult) CheckShape() error {
	for _, a := range r.Arms {
		if a.Completed != a.Flows {
			return fmt.Errorf("scale sweep: %s completed %d of %d flows", a.Kernel, a.Completed, a.Flows)
		}
		if a.Classes != r.Nodes {
			return fmt.Errorf("scale sweep: %s saw %d flow classes, want %d", a.Kernel, a.Classes, r.Nodes)
		}
	}
	first, last := r.Arms[0], r.Arms[len(r.Arms)-1]
	if visitsPerRecompute(last) >= 2*visitsPerRecompute(first) {
		return fmt.Errorf("scale sweep: %.0f link visits per recompute at %s, not below twice the %.0f at %s",
			visitsPerRecompute(last), last.Kernel, visitsPerRecompute(first), first.Kernel)
	}
	return nil
}

// Metrics feeds the bench-regression baseline.
func (r ScaleSweepResult) Metrics() map[string]float64 {
	m := map[string]float64{}
	for i, members := range scaleSweepMembers {
		a := r.Arms[i]
		m[fmt.Sprintf("linkvisits_m%d", members)] = float64(a.LinkVisits)
		m[fmt.Sprintf("component_fills_m%d", members)] = float64(a.Fills)
		m[fmt.Sprintf("component_reuses_m%d", members)] = float64(a.Reuses)
		m[fmt.Sprintf("makespan_s_m%d", members)] = a.Makespan.Seconds()
	}
	return m
}

// registerScale is invoked from the main registration init (register.go)
// so the netsim family lists after the planner.
func registerScale() {
	reg := scenario.Register

	reg(scenario.Scenario{
		Name: "netsim/scale-aggregate", Group: "netsim",
		Description: "flow-class kernel work on a 256-node gang world",
		Paper:       "kernel cost per recompute is O(classes + touched links), not O(flows x links)",
		Params:      map[string]string{"nodes": "256", "flows_per_pair": "32", "shape": "gang rings"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleAggregate(c) },
		Summarize: func(r scenario.Result) string {
			a := r.(ScaleKernelResult).Arms[0]
			return fmt.Sprintf("%d flows in %d classes, %d link visits, %d/%d component fills/reuses, makespan %.3fs",
				a.Flows, a.Classes, a.LinkVisits, a.Fills, a.Reuses, a.Makespan.Seconds())
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			a := r.(ScaleKernelResult).Arms[0]
			return map[string]float64{
				"makespan_s":       a.Makespan.Seconds(),
				"linkvisits":       float64(a.LinkVisits),
				"component_fills":  float64(a.Fills),
				"component_reuses": float64(a.Reuses),
				"classes":          float64(a.Classes),
				"components":       float64(a.Components),
			}
		},
	})
	reg(scenario.Scenario{
		Name: "netsim/scale-parallel", Group: "netsim",
		Description: "serial vs 8-worker parallel component settle on a 256-node gang world",
		Paper:       "max-min filling decomposes along link components; the parallel settle is byte-identical to serial",
		Params:      map[string]string{"nodes": "256", "workers": "8"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleParallel(c) },
		Summarize: func(r scenario.Result) string {
			res := r.(ScaleKernelResult)
			last := res.Arms[len(res.Arms)-1]
			return fmt.Sprintf("%d components fill on 8 workers, byte-identical to serial", last.Components)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			res := r.(ScaleKernelResult)
			last := res.Arms[len(res.Arms)-1]
			return map[string]float64{
				"components": float64(last.Components),
				"classes":    float64(last.Classes),
				"makespan_s": res.Arms[0].Makespan.Seconds(),
			}
		},
	})
	reg(scenario.Scenario{
		Name: "netsim/scale-sweep", Group: "netsim", Slow: true,
		Description: "class-kernel work as flows per chain grow from 8 to 128 on 256 nodes",
		Paper:       "per-class recompute cost does not grow with QPs x in-flight chunks",
		Params:      map[string]string{"nodes": "256", "flows_per_pair": "8,32,128"},
		Run:         func(c *scenario.Ctx) scenario.Result { return runScaleSweep(c) },
		Summarize: func(r scenario.Result) string {
			res := r.(ScaleSweepResult)
			first, last := res.Arms[0], res.Arms[len(res.Arms)-1]
			return fmt.Sprintf("%.0f link visits/recompute at %s, %.0f at %s",
				visitsPerRecompute(first), first.Kernel, visitsPerRecompute(last), last.Kernel)
		},
		Metrics: func(r scenario.Result) map[string]float64 {
			return r.(ScaleSweepResult).Metrics()
		},
	})
}
