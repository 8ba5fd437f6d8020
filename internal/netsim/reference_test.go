package netsim

import (
	"math"

	"c4/internal/sim"
)

// This file holds the per-flow reference kernel, the oracle the flow-class
// kernel (class.go, parallel.go) is proven against. It runs progressive
// filling flow by flow, so it shares none of the class kernel's grouping,
// partitioning or fan-out logic. The equivalence tests run every workload
// through both and require identical rates, completion instants, carried
// bits, CNPs and event counts. Change the two together or not at all.

// perFlowOracle is the reference kernel's own scratch: the flows crossing
// each link and the flows frozen in the current filling.
type perFlowOracle struct {
	flows  [][]*Flow
	frozen map[*Flow]bool
}

// useOracle switches n from the class kernel to the per-flow reference
// and returns n.
func useOracle(n *Network) *Network {
	o := &perFlowOracle{
		flows:  make([][]*Flow, len(n.Topo.Links)),
		frozen: map[*Flow]bool{},
	}
	n.refKernel = func() { n.recomputePerFlow(o) }
	return n
}

// recomputePerFlow allocates rates flow by flow: progressive filling over
// every flow and the dense link space. It shares the network's link
// scratch and work counters with the class kernel and keeps its per-flow
// state in o.
func (n *Network) recomputePerFlow(o *perFlowOracle) {
	n.scTouched = n.scTouched[:0]
	clear(o.frozen)
	unfrozen := 0
	for _, f := range n.flows {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		f.rate = 0
		alive := true
		for _, l := range f.Path.Links {
			if !l.Up() {
				alive = false
				break
			}
		}
		if !alive {
			o.frozen[f] = true // stalled at rate 0
			continue
		}
		unfrozen++
		for _, l := range f.Path.Links {
			if !n.scSeen[l.ID] {
				n.scSeen[l.ID] = true
				n.scCap[l.ID] = l.Gbps * Gbps
				n.scCount[l.ID] = 0
				o.flows[l.ID] = o.flows[l.ID][:0]
				n.scTouched = append(n.scTouched, l.ID)
			}
			n.scCount[l.ID]++
			o.flows[l.ID] = append(o.flows[l.ID], f)
		}
	}

	// Bottleneck scanning must visit links in a deterministic order; link
	// IDs are dense indices, so walking the whole ID space ascending and
	// skipping untouched entries is both ordered and cheaper than sorting
	// the touched list on every recompute.
	nl := len(n.scSeen)
	for unfrozen > 0 {
		// Find the tightest link.
		best := math.Inf(1)
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.scSeen[id] || n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share < best {
				best = share
			}
		}
		if math.IsInf(best, 1) {
			break // remaining flows cross no capacity-bearing links
		}
		// Freeze every unfrozen flow on links at the bottleneck share.
		progressed := false
		n.stats.LinkVisits += uint64(nl)
		for id := 0; id < nl; id++ {
			if !n.scSeen[id] || n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share > best*(1+rateEpsilon) {
				continue
			}
			for _, f := range o.flows[id] {
				if o.frozen[f] {
					continue
				}
				n.stats.FlowVisits++
				n.stats.LinkVisits += uint64(len(f.Path.Links))
				f.rate = best
				o.frozen[f] = true
				unfrozen--
				progressed = true
				for _, l := range f.Path.Links {
					n.scCap[l.ID] -= best
					if n.scCap[l.ID] < 0 {
						n.scCap[l.ID] = 0
					}
					n.scCount[l.ID]--
				}
			}
		}
		if !progressed {
			break
		}
	}

	// CNP rates: saturated links with contention emit notifications toward
	// every sender crossing them. A single flow at line rate builds no
	// queue in the fluid model, so saturation requires ≥2 competing flows.
	for _, id := range n.scTouched {
		n.scLoad[id] = 0
		n.scLoadCnt[id] = 0
	}
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		for _, l := range f.Path.Links {
			n.scLoad[l.ID] += f.rate
			n.scLoadCnt[l.ID]++
		}
	}
	n.stats.LinkVisits += uint64(len(n.scTouched))
	for _, id := range n.scTouched {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.scLoad[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}
	for _, f := range n.flows {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(f.Path.Links))
		f.cnpRate = 0
		loss := 1.0
		for _, l := range f.Path.Links {
			if factor := n.scFactor[l.ID]; factor > 0 {
				f.cnpRate += n.Cfg.CNPPerSecond * factor
			}
			if fr := n.lossFrac[l.ID]; fr > 0 {
				loss *= 1 - fr
			}
		}
		f.goodRate = f.rate * loss
	}
	n.snapshotUtil()
	// Restore the between-calls invariant: scSeen and scFactor all zero, so
	// links untouched by the next flow set read as absent, not stale.
	for _, id := range n.scTouched {
		n.scSeen[id] = false
		n.scFactor[id] = 0
	}

	// Reschedule the next completion: the earliest ETA across all moving
	// flows. Round up by 1 ns: FromSeconds truncates, and an ETA that
	// lands a sub-nanosecond early would re-fire at the same instant with
	// zero progress. Overshoot is harmless — settle clamps delivery to the
	// remaining bits, so at the scheduled instant the finishing flows sit
	// at exactly zero remaining.
	minEta := sim.MaxTime
	for _, f := range n.flows {
		n.stats.FlowVisits++
		if f.goodRate <= 0 {
			continue
		}
		eta := sim.FromSeconds(f.remaining/f.goodRate) + 1
		if eta < 1 {
			eta = 1
		}
		if eta < minEta {
			minEta = eta
		}
	}
	n.rearmCompletion(minEta)
}
