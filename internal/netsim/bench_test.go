package netsim

import (
	"fmt"
	"testing"

	"c4/internal/sim"
	"c4/internal/topo"
)

// benchSpec is a gang-partitioned datacenter slice: groups of 8 nodes,
// ring traffic inside each group, nothing between groups — the communication
// shape of pure-DP training with gang scheduling, and the best case for
// both flow-class aggregation (16 flows per ring edge collapse into one
// class) and parallel settle (each gang splits into independent link
// components, one per (plane, spine) coordinate its ring edges use).
func benchSpec(nodes int) topo.Spec {
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

// startGangRings launches flowsPerPair flows on every ring edge of every
// group. Sizes vary per edge and member — not per group — so completions
// arrive in many deterministic waves, each wave triggering a recompute.
func startGangRings(n *Network, tp *topo.Topology, flowsPerPair int) int {
	spec := tp.Spec
	groups := spec.Groups()
	flows := 0
	for g := 0; g < groups; g++ {
		for i := 0; i < spec.NodesPerGroup; i++ {
			src := g*spec.NodesPerGroup + i
			dst := g*spec.NodesPerGroup + (i+1)%spec.NodesPerGroup
			plane := i % topo.Planes
			spine := i % spec.Spines
			p, err := tp.PathFor(src, dst, 0, plane, spine, plane)
			if err != nil {
				panic(err)
			}
			for k := 0; k < flowsPerPair; k++ {
				size := 20e9 * (1 + 0.11*float64(k) + 0.013*float64(i))
				n.StartFlow(p, size, fmt.Sprintf("g%d-e%d-m%d", g, i, k), nil)
				flows++
			}
		}
	}
	return flows
}

// churnComponents and churnClasses shape the churn world: five
// independent components of six one-member classes each.
const (
	churnComponents = 5
	churnClasses    = 6
)

// runChurn drives the campaign shape on the paper testbed: many small
// one-member classes in a few independent components, replaced one
// completion at a time. Component c is node 2c sending to its leaf
// neighbour 2c+1 over one spine path per rail, so the components share
// no link; within one, the classes couple through the nodes' NVLink
// endpoints. Each completion restarts its flow on the next spine, which
// drops one class and creates another, until every flow has restarted
// restarts times.
func runChurn(tb testing.TB, k kernel, restarts int) gangRun {
	eng := sim.NewEngine()
	tp := topo.MustNew(topo.PaperTestbed())
	n := k.build(eng, tp)
	for c := 0; c < churnComponents; c++ {
		for r := 0; r < churnClasses; r++ {
			left, spine := restarts, r
			var start func()
			start = func() {
				p, err := tp.PathFor(2*c, 2*c+1, r, 0, spine%tp.Spec.Spines, 0)
				if err != nil {
					panic(err)
				}
				size := 10e9 * (1 + 0.17*float64(r) + 0.07*float64(c) + 0.03*float64(left))
				n.StartFlow(p, size, fmt.Sprintf("c%d-r%d-%d", c, r, left), func(*Flow) {
					if left > 0 {
						left--
						spine++
						start()
					}
				})
			}
			start()
		}
	}
	eng.Run()
	return finishRun(tb, k, eng, n)
}

func runGangWorld(b *testing.B, k kernel, nodes, flowsPerPair int) {
	b.ReportAllocs()
	k.bare = true
	var visits uint64
	for i := 0; i < b.N; i++ {
		visits += runGang(b, k, nodes, flowsPerPair).stats.LinkVisits
	}
	b.ReportMetric(float64(visits)/float64(b.N), "linkvisits/run")
}

// BenchmarkRecomputePerFlow is the per-flow reference oracle on a 64-node
// world: every recompute scans all flows and the dense link-ID space.
func BenchmarkRecomputePerFlow(b *testing.B) {
	runGangWorld(b, kernels[0], 64, 16)
}

// BenchmarkRecomputeAggregated is the same workload through the
// flow-class kernel: 16 flows per ring edge cost one class.
func BenchmarkRecomputeAggregated(b *testing.B) {
	runGangWorld(b, kernels[1], 64, 16)
}

// BenchmarkSettleParallel adds parallel component settle on top of
// aggregation: the 8 gangs fill on 4 workers.
func BenchmarkSettleParallel(b *testing.B) {
	runGangWorld(b, kernels[2], 64, 16)
}

// BenchmarkRecomputeChurn is the campaign shape through the class kernel:
// five components of one-member classes under single-flow churn, where
// each recompute refills one component and reuses the other four.
func BenchmarkRecomputeChurn(b *testing.B) {
	b.ReportAllocs()
	k := kernels[1]
	k.bare = true
	var visits uint64
	for i := 0; i < b.N; i++ {
		visits += runChurn(b, k, 40).stats.LinkVisits
	}
	b.ReportMetric(float64(visits)/float64(b.N), "linkvisits/run")
}
