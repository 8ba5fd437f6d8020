package netsim

import (
	"fmt"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// kernel is one of the three rate-kernel setups every equivalence test
// runs: the per-flow reference oracle (reference_test.go), the flow-class
// kernel serial, and the class kernel with parallel component settle. All
// three must produce bit-identical simulations.
type kernel struct {
	name    string
	oracle  bool
	workers int
	bare    bool // no invariant checker: benchmarks time the kernel alone
}

var kernels = []kernel{
	{name: "oracle", oracle: true},
	{name: "class"},
	{name: "parallel", workers: 4},
}

// build creates a network on tp under the kernel setup, with the
// invariant checker (invariants_test.go) armed unless k is bare.
func (k kernel) build(eng *sim.Engine, tp *topo.Topology) *Network {
	cfg := DefaultConfig()
	cfg.SettleWorkers = k.workers
	n := New(eng, tp, cfg)
	if !k.bare {
		withInvariants(n)
	}
	if k.oracle {
		useOracle(n)
	}
	return n
}

// testbed is the package testbed under the kernel setup.
func (k kernel) testbed() (*sim.Engine, *Network) {
	eng := sim.NewEngine()
	return eng, k.build(eng, topo.MustNew(topo.PaperTestbed()))
}

// wtrace is the observable outcome of one simulated workload: completion
// instants per flow label, cumulative carried bits and CNPs on probe
// points, and the engine's event count. Two kernels are equivalent iff
// their traces are identical.
type wtrace struct {
	done  map[string]sim.Time
	bits  map[string]float64
	cnps  float64
	fired uint64
}

func (tr *wtrace) equal(other *wtrace) error {
	for k, v := range tr.done {
		if other.done[k] != v {
			return fmt.Errorf("flow %s completed at %v vs %v", k, v, other.done[k])
		}
	}
	for k, v := range tr.bits {
		if other.bits[k] != v {
			return fmt.Errorf("link %s carried %v vs %v bits", k, v, other.bits[k])
		}
	}
	if tr.cnps != other.cnps {
		return fmt.Errorf("cnp count %v vs %v", tr.cnps, other.cnps)
	}
	if tr.fired != other.fired {
		return fmt.Errorf("fired %d vs %d events", tr.fired, other.fired)
	}
	return nil
}

// runWorkload drives a mixed workload exercising every lifecycle edge the
// kernel has — multi-member classes, shared bottlenecks, loss, capacity
// degradation, a link failure with reroute, and a mid-flight cancel — and
// returns its trace.
func runWorkload(k kernel) *wtrace {
	eng, n := k.testbed()
	tp := n.Topo
	tr := &wtrace{done: map[string]sim.Time{}, bits: map[string]float64{}}

	finish := func(f *Flow) { tr.done[f.Label] = eng.Now() }

	// Three classes of four members each converging on node 4: two spine
	// routes from node 0 and one from node 2. Member sizes differ, so the
	// classes shed members over time.
	for k := 0; k < 4; k++ {
		p0, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		p1, _ := tp.PathFor(0, 4, 0, 0, 1, 0)
		p2, _ := tp.PathFor(2, 4, 0, 1, 0, 1)
		n.StartFlow(p0, 40e9*float64(k+1), fmt.Sprintf("a%d", k), finish)
		n.StartFlow(p1, 30e9*float64(k+1), fmt.Sprintf("b%d", k), finish)
		n.StartFlow(p2, 50e9*float64(k+1), fmt.Sprintf("c%d", k), finish)
	}
	// A disjoint gang on rail 1 between nodes 8..11 (second leaf group
	// pairs), forming separate components.
	for k := 0; k < 3; k++ {
		p, _ := tp.PathFor(8, 10, 1, 0, 2, 0)
		q, _ := tp.PathFor(9, 11, 1, 1, 3, 1)
		n.StartFlow(p, 60e9+7e9*float64(k), fmt.Sprintf("d%d", k), finish)
		n.StartFlow(q, 55e9+9e9*float64(k), fmt.Sprintf("e%d", k), finish)
	}

	// Mid-run churn: degrade a shared link, make another lossy, fail a
	// spine path (rerouting one member of the class, stalling none), and
	// cancel a flow outright.
	var rerouted *Flow
	pr, _ := tp.PathFor(6, 12, 2, 0, 1, 0)
	rerouted = n.StartFlow(pr, 500e9, "reroute-me", finish)
	rerouted.OnPathDown = func(f *Flow) {
		alt, _ := tp.PathFor(6, 12, 2, 0, 4, 0)
		n.Reroute(f, alt)
	}
	victim := n.StartFlow(func() *topo.Path { p, _ := tp.PathFor(5, 13, 3, 1, 2, 1); return p }(), 900e9, "victim", finish)

	down := pr.Links[2] // the leaf-up link of spine 1 on rail 2
	eng.Schedule(200*sim.Millisecond, func() { n.SetLinkCapacity(tp.PortAt(4, 0, 0).Down, 120) })
	eng.Schedule(300*sim.Millisecond, func() { n.SetLinkLoss(tp.PortAt(10, 1, 0).Down, 0.05) })
	eng.Schedule(400*sim.Millisecond, func() { n.SetLinkUp(down, false) })
	eng.Schedule(600*sim.Millisecond, func() { n.SetLinkUp(down, true) })
	eng.Schedule(700*sim.Millisecond, func() { n.Cancel(victim) })
	eng.Run()

	tr.bits["n4-down"] = n.CarriedBits(tp.PortAt(4, 0, 0).Down)
	tr.bits["n10-down"] = n.CarriedBits(tp.PortAt(10, 1, 0).Down)
	tr.bits["n0-up"] = n.CarriedBits(tp.PortAt(0, 0, 0).Up)
	tr.cnps = n.CNPCount(tp.PortAt(0, 0, 0))
	tr.fired = eng.Fired()
	return tr
}

// TestKernelsEquivalentOnMixedWorkload is the core oath of the flow-class
// kernel: serial or parallel, it replays the per-flow oracle byte for
// byte.
func TestKernelsEquivalentOnMixedWorkload(t *testing.T) {
	ref := runWorkload(kernels[0])
	for _, k := range kernels[1:] {
		if err := runWorkload(k).equal(ref); err != nil {
			t.Fatalf("%s kernel diverged from the oracle: %v", k.name, err)
		}
	}
}

// Cancelling one member mid-flight must shrink the class, not kill it:
// the survivors keep flowing and the freed share speeds them up exactly
// like the per-flow oracle says it should.
func TestClassMemberCancelMidClass(t *testing.T) {
	var refDone sim.Time
	var refFired uint64
	for _, k := range kernels {
		eng, n := k.testbed()
		p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		var survivorDone sim.Time
		doomed := n.StartFlow(p, 400e9, "doomed", func(f *Flow) { t.Error("cancelled flow completed") })
		n.StartFlow(p, 400e9, "survivor", func(f *Flow) { survivorDone = eng.Now() })
		eng.Schedule(sim.Second, func() { n.Cancel(doomed) })
		eng.Run()
		// 100 Gbps for 1s (200 shared by 2), then 200 Gbps for the last
		// 300 Gb: done at ~2.5s.
		if !almostEqual(survivorDone.Seconds(), 2.5, 0.01) {
			t.Fatalf("[%s] survivor done at %v, want ~2.5s", k.name, survivorDone)
		}
		if n.ActiveFlows() != 0 {
			t.Fatalf("[%s] %d active flows left", k.name, n.ActiveFlows())
		}
		if k.oracle {
			refDone, refFired = survivorDone, eng.Fired()
		} else if survivorDone != refDone || eng.Fired() != refFired {
			t.Fatalf("[%s] survivor done at %v after %d events, oracle %v after %d",
				k.name, survivorDone, eng.Fired(), refDone, refFired)
		}
	}
}

// Rerouting a member must split it out of its class into the class of the
// new chain (created on demand) and merge it with any existing one, and
// the split must not change the outcome relative to the oracle.
func TestRerouteSplitsClass(t *testing.T) {
	var ref [2]sim.Time
	for _, k := range kernels {
		eng, n := k.testbed()
		tp := n.Topo
		p, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		alt, _ := tp.PathFor(0, 4, 0, 0, 1, 0)
		var done [2]sim.Time
		a := n.StartFlow(p, 800e9, "a", func(*Flow) { done[0] = eng.Now() })
		n.StartFlow(p, 900e9, "b", func(*Flow) { done[1] = eng.Now() })
		eng.RunUntil(100 * sim.Millisecond)
		if n.ClassCount() != 1 {
			t.Fatalf("[%s] classes = %d, want 1 before the split", k.name, n.ClassCount())
		}
		n.Reroute(a, alt)
		eng.RunUntil(200 * sim.Millisecond)
		if n.ClassCount() != 2 {
			t.Fatalf("[%s] classes = %d, want 2 after rerouting one member", k.name, n.ClassCount())
		}
		if a.class == nil || len(a.class.members) != 1 {
			t.Fatalf("[%s] rerouted flow must sit alone in the new chain's class", k.name)
		}
		// Rerouting back merges it into the surviving class again.
		n.Reroute(a, p)
		if n.ClassCount() != 1 || len(a.class.members) != 2 {
			t.Fatalf("[%s] classes = %d (members %d), want the original class re-merged",
				k.name, n.ClassCount(), len(a.class.members))
		}
		eng.Run()
		if k.oracle {
			ref = done
		} else if done != ref {
			t.Fatalf("[%s] completions %v, oracle %v", k.name, done, ref)
		}
	}
}

// A link failure must fan OnPathDown out to every member of every class
// crossing it, in flow admission order, exactly like the per-flow oracle.
func TestOnPathDownFansOutToMembers(t *testing.T) {
	for _, k := range kernels {
		eng, n := k.testbed()
		p, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		var notified []string
		for i := 0; i < 5; i++ {
			f := n.StartFlow(p, 1e12, fmt.Sprintf("m%d", i), nil)
			f.OnPathDown = func(f *Flow) { notified = append(notified, f.Label) }
		}
		eng.Schedule(sim.Second, func() { n.SetLinkUp(p.SrcPort.Up, false) })
		eng.RunUntil(2 * sim.Second)
		want := []string{"m0", "m1", "m2", "m3", "m4"}
		if len(notified) != len(want) {
			t.Fatalf("[%s] %d notifications, want %d", k.name, len(notified), len(want))
		}
		for i := range want {
			if notified[i] != want[i] {
				t.Fatalf("[%s] notification order %v, want %v", k.name, notified, want)
			}
		}
	}
}

// Classes must die with their last member: after everything completes or
// is cancelled the class table is empty, not leaking one entry per chain
// ever seen.
func TestClassLifecycle(t *testing.T) {
	eng, n := testbed()
	tp := n.Topo
	p, _ := tp.PathFor(0, 2, 0, 0, 0, 0)
	q, _ := tp.PathFor(4, 6, 1, 1, 1, 1)
	n.StartFlow(p, 10e9, "a", nil)
	n.StartFlow(p, 20e9, "b", nil)
	c := n.StartFlow(q, 1e12, "c", nil)
	eng.RunUntil(50 * sim.Millisecond)
	if n.ClassCount() != 2 {
		t.Fatalf("classes = %d, want 2 mid-run", n.ClassCount())
	}
	n.Cancel(c)
	eng.Run()
	if n.ClassCount() != 0 {
		t.Fatalf("classes = %d after all flows ended, want 0", n.ClassCount())
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("%d active flows left", n.ActiveFlows())
	}
}

// gangRun is the observable outcome and kernel work of one run of a
// bench_test.go world to completion.
type gangRun struct {
	makespan sim.Time
	fired    uint64
	probe    float64 // carried bits on node 0's rail-0/plane-0 uplink
	stats    KernelStats
}

// finishRun checks that every flow of a bench world completed and
// collects the run's outcome.
func finishRun(tb testing.TB, k kernel, eng *sim.Engine, n *Network) gangRun {
	if n.ActiveFlows() != 0 {
		tb.Fatalf("[%s] %d flows never completed", k.name, n.ActiveFlows())
	}
	return gangRun{
		makespan: eng.Now(),
		fired:    eng.Fired(),
		probe:    n.CarriedBits(n.Topo.PortAt(0, 0, 0).Up),
		stats:    n.Stats(),
	}
}

func runGang(tb testing.TB, k kernel, nodes, flowsPerPair int) gangRun {
	eng := sim.NewEngine()
	tp := topo.MustNew(benchSpec(nodes))
	n := k.build(eng, tp)
	startGangRings(n, tp, flowsPerPair)
	eng.Run()
	return finishRun(tb, k, eng, n)
}

// TestClassKernelScalesAgainstOracle holds the class kernel's promise on a
// 256-node gang world: bit-identical to the per-flow oracle, serial and
// parallel, with at least 10x fewer link visits from 32 flows per chain
// up, and an advantage that grows with flows per chain — the per-flow
// kernel revisits every member each recompute, the class kernel one
// representative per chain.
func TestClassKernelScalesAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node oracle sweep")
	}
	const nodes = 256
	prev := 0.0
	for _, members := range []int{8, 32, 128} {
		ref := runGang(t, kernels[0], nodes, members)
		var class gangRun
		for _, k := range kernels[1:] {
			got := runGang(t, k, nodes, members)
			if got.makespan != ref.makespan || got.fired != ref.fired || got.probe != ref.probe {
				t.Fatalf("%d flows/chain: %s kernel (makespan %v, %d events, probe %g) diverged from the oracle (%v, %d, %g)",
					members, k.name, got.makespan, got.fired, got.probe, ref.makespan, ref.fired, ref.probe)
			}
			class = got
		}
		ratio := float64(ref.stats.LinkVisits) / float64(class.stats.LinkVisits)
		t.Logf("%3d flows/chain: oracle %d vs class %d link visits (%.1fx)", members, ref.stats.LinkVisits, class.stats.LinkVisits, ratio)
		if members >= 32 && ratio < 10 {
			t.Errorf("%d flows/chain: work ratio %.1fx, want >= 10x", members, ratio)
		}
		if ratio <= prev {
			t.Errorf("%d flows/chain: work ratio %.1fx not above %.1fx at the previous factor", members, ratio, prev)
		}
		prev = ratio
	}
}

// replayKernels runs one workload under every kernel setup, the invariant
// checker armed, and fails unless each class kernel replays the oracle's
// completion instants and event count. It returns the oracle's
// completions and the work counters of each setup, in kernels order.
func replayKernels(t *testing.T, workload func(eng *sim.Engine, n *Network, finish func(*Flow))) (map[string]sim.Time, []KernelStats) {
	t.Helper()
	var ref map[string]sim.Time
	var refFired uint64
	var stats []KernelStats
	for _, k := range kernels {
		eng, n := k.testbed()
		done := map[string]sim.Time{}
		workload(eng, n, func(f *Flow) { done[f.Label] = eng.Now() })
		eng.Run()
		stats = append(stats, n.Stats())
		if k.oracle {
			ref, refFired = done, eng.Fired()
			continue
		}
		if len(done) != len(ref) || eng.Fired() != refFired {
			t.Fatalf("[%s] %d completions after %d events, oracle %d after %d",
				k.name, len(done), eng.Fired(), len(ref), refFired)
		}
		for label, at := range ref {
			if done[label] != at {
				t.Fatalf("[%s] flow %s completed at %v, oracle %v", k.name, label, done[label], at)
			}
		}
	}
	return ref, stats
}

// A stalled class revives on links that meanwhile belong to a clean
// component: flow a has no OnPathDown handler and stalls on its downed
// spine link, flow b shares node 0's up-link and keeps running alone, and
// flow c starts mid-outage on a disjoint rail. When the link comes back,
// a re-enters on b's links, so b's component must refill even though no
// mutation named it — otherwise b keeps the whole up-link and finishes at
// ~3.5 s instead of ~5 s.
func TestReviveNextToCleanComponent(t *testing.T) {
	done, stats := replayKernels(t, func(eng *sim.Engine, n *Network, finish func(*Flow)) {
		tp := n.Topo
		pa, _ := tp.PathFor(0, 4, 0, 0, 0, 0)
		pb, _ := tp.PathFor(0, 4, 0, 0, 1, 0)
		pc, _ := tp.PathFor(8, 12, 1, 0, 2, 0)
		n.StartFlow(pa, 500e9, "a", finish)
		n.StartFlow(pb, 600e9, "b", finish)
		down := pa.Links[2] // a's leaf-up link to spine 0
		eng.Schedule(sim.Second, func() { n.SetLinkUp(down, false) })
		eng.Schedule(1500*sim.Millisecond, func() { n.StartFlow(pc, 2000e9, "c", finish) })
		eng.Schedule(2*sim.Second, func() { n.SetLinkUp(down, true) })
	})
	// 0-1 s: a and b share the 200 Gbps up-link. 1-2 s: b alone at 200.
	// From 2 s: 100 each, b's last 300 Gb take 3 s; a finishes alone.
	if !almostEqual(done["b"].Seconds(), 5, 0.01) || !almostEqual(done["a"].Seconds(), 5.5, 0.01) {
		t.Fatalf("a done at %v, b at %v; want ~5.5 s and ~5 s", done["a"], done["b"])
	}
	for i, st := range stats[1:] {
		if st.ComponentReuses == 0 {
			t.Fatalf("[%s] no clean component reused: %+v", kernels[i+1].name, st)
		}
	}
}

// SetLinkLoss on one link must refill that link's component and leave the
// disjoint one untouched: y's goodput drops by the loss, x keeps going.
func TestSetLinkLossOnCleanComponent(t *testing.T) {
	done, _ := replayKernels(t, func(eng *sim.Engine, n *Network, finish func(*Flow)) {
		px, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		py, _ := n.Topo.PathFor(8, 12, 1, 0, 2, 0)
		n.StartFlow(px, 400e9, "x", finish)
		n.StartFlow(py, 400e9, "y", finish)
		eng.Schedule(sim.Second, func() { n.SetLinkLoss(py.DstPort.Down, 0.2) })
	})
	// x: 400 Gb at 200 Gbps. y: 200 Gb in the first second, then 160 Gbps.
	if !almostEqual(done["x"].Seconds(), 2, 0.01) || !almostEqual(done["y"].Seconds(), 2.25, 0.01) {
		t.Fatalf("x done at %v, y at %v; want ~2 s and ~2.25 s", done["x"], done["y"])
	}
}

// SetLinkCapacity on a link no live class crosses dirties nothing, yet the
// new capacity must hold once a flow arrives on the link.
func TestSetLinkCapacityOnIdleLink(t *testing.T) {
	done, _ := replayKernels(t, func(eng *sim.Engine, n *Network, finish func(*Flow)) {
		px, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		py, _ := n.Topo.PathFor(8, 12, 1, 0, 2, 0)
		n.StartFlow(px, 400e9, "x", finish)
		eng.Schedule(sim.Second, func() { n.SetLinkCapacity(py.Links[2], 50) })
		eng.Schedule(1500*sim.Millisecond, func() { n.StartFlow(py, 100e9, "y", finish) })
	})
	if !almostEqual(done["x"].Seconds(), 2, 0.01) || !almostEqual(done["y"].Seconds(), 3.5, 0.01) {
		t.Fatalf("x done at %v, y at %v; want ~2 s and ~3.5 s", done["x"], done["y"])
	}
}

// A recompute with no dirty component fills nothing: every component is
// reused and only the completion ETA is re-derived from the members'
// remaining bits, landing on the oracle's instants exactly.
func TestCleanRecomputeOnlyRearms(t *testing.T) {
	var before, after KernelStats
	var comps int
	done, _ := replayKernels(t, func(eng *sim.Engine, n *Network, finish func(*Flow)) {
		px, _ := n.Topo.PathFor(0, 4, 0, 0, 0, 0)
		py, _ := n.Topo.PathFor(8, 12, 1, 0, 2, 0)
		idle, _ := n.Topo.PathFor(2, 6, 2, 1, 3, 1)
		n.StartFlow(px, 300e9, "x", finish)
		n.StartFlow(py, 500e9, "y", finish)
		eng.Schedule(sim.Second, func() {
			before = n.Stats()
			n.SetLinkLoss(idle.Links[2], 0.5)
			n.flush()
			after = n.Stats()
			comps = n.ComponentCount()
		})
	})
	// The last run is the parallel class kernel.
	if after.Recomputes != before.Recomputes+1 || after.ComponentFills != before.ComponentFills {
		t.Fatalf("idle-link mutation refilled: before %+v, after %+v", before, after)
	}
	if comps != 2 || after.ComponentReuses != before.ComponentReuses+2 {
		t.Fatalf("%d components, reuses %d -> %d; want both reused", comps, before.ComponentReuses, after.ComponentReuses)
	}
	if !almostEqual(done["x"].Seconds(), 1.5, 0.01) || !almostEqual(done["y"].Seconds(), 2.5, 0.01) {
		t.Fatalf("x done at %v, y at %v; want ~1.5 s and ~2.5 s", done["x"], done["y"])
	}
}

// The churn world (bench_test.go) is the campaign shape: one-member
// classes replaced one completion at a time in five independent
// components. The class kernels must replay the oracle while refilling
// only the component each completion touched and recycling the dropped
// classes.
func TestChurnRefillsOneComponent(t *testing.T) {
	ref := runChurn(t, kernels[0], 8)
	for _, k := range kernels[1:] {
		got := runChurn(t, k, 8)
		if got.makespan != ref.makespan || got.fired != ref.fired || got.probe != ref.probe {
			t.Fatalf("%s kernel (makespan %v, %d events, probe %g) diverged from the oracle (%v, %d, %g)",
				k.name, got.makespan, got.fired, got.probe, ref.makespan, ref.fired, ref.probe)
		}
		st := got.stats
		if st.ComponentReuses < 3*st.ComponentFills {
			t.Fatalf("[%s] %d fills vs %d reuses over %d recomputes: want most components reused",
				k.name, st.ComponentFills, st.ComponentReuses, st.Recomputes)
		}
	}
}
