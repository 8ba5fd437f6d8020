package netsim

import (
	"math"
	"slices"

	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
)

// Flow-class aggregation: the paper's workloads are N-rank collectives, so
// at any instant the flow set is dominated by transfers whose paths are
// literally identical — the same QP pipelining chunks, ECMP hashing two
// sibling QPs onto one spine, tenants sharing a planned route. Max-min
// filling treats equal-path flows identically (they see the same links, so
// they freeze in the same round at the same share), which means the kernel
// only needs one representative per distinct link chain plus a member
// count. This file groups admitted flows into such classes and runs the
// filling, CNP, and ETA passes over classes instead of flows.
//
// The aggregation is strictly behind the per-flow semantics: StartFlow,
// Cancel, Reroute, OnPathDown and per-member OnComplete callbacks are
// untouched, settle still advances each member's remaining bits
// individually (members may differ in size), and the arithmetic is
// arranged so the allocations match per-flow progressive filling bit for
// bit — per-member capacity subtraction with per-step clamping rather than
// one fused multiply, so repeated subtraction of the same bottleneck share
// rounds exactly like a flow-by-flow loop. The package tests hold the
// kernel to a per-flow reference oracle (reference_test.go).

// flowClass is the unit of aggregated allocation: every admitted flow
// whose path has an identical link chain. Dropped classes go to a free
// list and are reused, backing arrays included, by the next new chain.
type flowClass struct {
	key     string
	links   []*topo.Link // the shared chain, in path order
	members []*Flow      // admission order

	// comp is the live link component the class was last filled in; nil
	// for a class that is new since the last recompute or stalled on a
	// down link.
	comp *component

	// Kernel state, written only while the class's component fills. When
	// components fill in parallel each class belongs to exactly one
	// component, so there is no cross-goroutine sharing. rate and good
	// persist while the component stays clean: good is the per-member
	// goodput the completion ETA is re-derived from.
	alive  bool
	frozen bool
	rate   float64
	good   float64

	span *trace.Span // class-lifetime span; nil when tracing is off
}

// classAdmit joins f to the class of its link chain, creating the class if
// it is the chain's first member. The aggregation key is the path's dense
// link IDs packed little-endian: two paths with equal keys cross exactly
// the same resources in the same order and are indistinguishable to the
// kernel. The key is built in a reusable byte buffer; Go's map lookup on
// string(buf) does not allocate, so only the first member of a new chain
// pays for a string. Growing a class dirties its component; a new class
// has none yet and is picked up by the next recompute.
func (n *Network) classAdmit(f *Flow) {
	b := n.classKey[:0]
	for _, l := range f.Path.Links {
		id := uint32(l.ID)
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	n.classKey = b
	fc := n.classIndex[string(b)]
	if fc == nil {
		if k := len(n.spareClasses); k > 0 {
			fc = n.spareClasses[k-1]
			n.spareClasses = n.spareClasses[:k-1]
		} else {
			fc = &flowClass{}
		}
		fc.key = string(b)
		fc.links = append(fc.links, f.Path.Links...)
		n.classIndex[fc.key] = fc
		n.classes = append(n.classes, fc)
		if n.Trace.Enabled() {
			fc.span = n.Trace.Start(nil, "class", classLabel(fc))
		}
	}
	n.markDirty(fc.comp)
	fc.members = append(fc.members, f)
	f.class = fc
}

// classLabel names a class span by its shared link chain's endpoints.
func classLabel(fc *flowClass) string {
	if len(fc.links) == 0 {
		return "empty"
	}
	return fc.links[0].Name + ".." + fc.links[len(fc.links)-1].Name
}

// classRemove detaches f from its class and dirties the class's
// component, dropping the class to the free list when f was the last
// member. Removal preserves member admission order and the class creation
// order of n.classes, which the kernel iterates.
func (n *Network) classRemove(f *Flow) {
	fc := f.class
	f.class = nil
	n.markDirty(fc.comp)
	i := slices.Index(fc.members, f)
	fc.members = slices.Delete(fc.members, i, i+1)
	if len(fc.members) == 0 {
		fc.span.FinishAt(n.Engine.Now())
		delete(n.classIndex, fc.key)
		i = slices.Index(n.classes, fc)
		n.classes = slices.Delete(n.classes, i, i+1)
		*fc = flowClass{links: fc.links[:0], members: fc.members}
		n.spareClasses = append(n.spareClasses, fc)
	}
}

// chainUp reports whether every link of the class's chain is up.
func chainUp(fc *flowClass) bool {
	for _, l := range fc.links {
		if !l.Up() {
			return false
		}
	}
	return true
}

// recomputeAggregated is the rate kernel. Clean components keep their
// allocation; the dirty ones are retired, their classes and the
// componentless ones register their links, the registered links are
// partitioned into fresh components (parallel.go), and each fresh
// component runs progressive filling, the CNP pass, and the ETA pass
// independently — serially or on a bounded worker pool, byte-identically
// either way. The result is bit-identical to refilling every component.
func (n *Network) recomputeAggregated() {
	// A componentless class is new or stalled. Once alive, it may cross
	// links of clean components it now joins: those must refill.
	for _, fc := range n.classes {
		if fc.comp != nil {
			continue
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		if fc.alive = chainUp(fc); fc.alive {
			for _, l := range fc.links {
				n.markDirty(n.linkComp[l.ID])
			}
		}
	}
	for _, c := range n.dirtyComps {
		n.retire(c)
	}
	n.dirtyComps = n.dirtyComps[:0]
	clean := len(n.comps)

	n.scTouched = n.scTouched[:0]
	n.scLive = n.scLive[:0]
	for _, fc := range n.classes {
		if fc.comp != nil {
			continue
		}
		if !fc.alive {
			// Stalled at rate 0: no capacity, no CNPs, no goodput until the
			// path heals.
			fc.frozen = true
			fc.rate = 0
			fc.good = 0
			for _, f := range fc.members {
				f.rate = 0
				f.cnpRate = 0
				f.goodRate = 0
			}
			continue
		}
		n.stats.LinkVisits += uint64(len(fc.links))
		fc.frozen = false
		m := len(fc.members)
		for _, l := range fc.links {
			id := l.ID
			if !n.scSeen[id] {
				n.scSeen[id] = true
				n.scCap[id] = l.Gbps * Gbps
				n.scCount[id] = 0
				n.scClasses[id] = n.scClasses[id][:0]
				n.scTouched = append(n.scTouched, id)
			}
			n.scCount[id] += m
			n.scClasses[id] = append(n.scClasses[id], fc)
		}
		n.scLive = append(n.scLive, fc)
	}
	for _, id := range n.scTouched {
		n.scSeen[id] = false
	}

	minEta := n.settleComponents(n.partition())

	// Clean components only re-derive their completion ETA: members'
	// remaining bits moved since the last recompute, their rates did not.
	for _, c := range n.comps[:clean] {
		n.stats.ComponentReuses++
		for _, fc := range c.classes {
			n.stats.FlowVisits++
			if eta := fc.eta(); eta < minEta {
				minEta = eta
			}
		}
	}
	n.rearmCompletion(minEta)
}

// eta is the class's earliest member completion from now at its cached
// goodput, or sim.MaxTime when it does not move. Members share goodput,
// so min(remaining)/good is the same monotone transform the per-flow
// reference applies member-wise. Round up by 1 ns: FromSeconds truncates,
// and an ETA that lands a sub-nanosecond early would re-fire at the same
// instant with zero progress. Overshoot is harmless — settle clamps
// delivery to the remaining bits.
func (fc *flowClass) eta() sim.Time {
	if fc.good <= 0 {
		return sim.MaxTime
	}
	minRem := math.Inf(1)
	for _, f := range fc.members {
		if f.remaining < minRem {
			minRem = f.remaining
		}
	}
	eta := sim.FromSeconds(minRem/fc.good) + 1
	if eta < 1 {
		eta = 1
	}
	return eta
}

// fillComponent runs the three kernel passes over one link component. It
// may execute on a worker goroutine: it touches only the component's own
// links (disjoint scratch indices by construction), its own classes and
// their members, and read-only shared state (topology, config, loss
// fractions). Work counters accumulate in the component and are folded
// into the network's stats during the deterministic merge.
func (n *Network) fillComponent(c *component) {
	// Progressive filling over classes. The inner per-member subtraction
	// loop is deliberately NOT fused into one multiply: the per-flow
	// reference subtracts the bottleneck share once per flow with a clamp
	// at zero, and only the same sequence of operations reproduces its
	// floating-point results exactly.
	unfrozen := 0
	for _, fc := range c.classes {
		if !fc.frozen {
			unfrozen += len(fc.members)
		}
	}
	for unfrozen > 0 {
		best := math.Inf(1)
		c.linkVisits += uint64(len(c.links))
		for _, id := range c.links {
			if n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share < best {
				best = share
			}
		}
		if math.IsInf(best, 1) {
			break // remaining classes cross no capacity-bearing links
		}
		progressed := false
		c.linkVisits += uint64(len(c.links))
		for _, id := range c.links {
			if n.scCount[id] <= 0 {
				continue
			}
			share := n.scCap[id] / float64(n.scCount[id])
			if share > best*(1+rateEpsilon) {
				continue
			}
			for _, fc := range n.scClasses[id] {
				if fc.frozen {
					continue
				}
				c.flowVisits++
				c.linkVisits += uint64(len(fc.links))
				fc.rate = best
				fc.frozen = true
				m := len(fc.members)
				unfrozen -= m
				progressed = true
				for _, l := range fc.links {
					capLeft := n.scCap[l.ID]
					for k := 0; k < m; k++ {
						capLeft -= best
						if capLeft < 0 {
							capLeft = 0
						}
					}
					n.scCap[l.ID] = capLeft
					n.scCount[l.ID] -= m
				}
			}
		}
		if !progressed {
			break
		}
	}

	// CNP pass, class-wise. Adding a class's rate once per member mirrors
	// the per-flow reference's accumulation order closely enough to
	// stay inside the saturation threshold's 1e-6 relative slack.
	for _, id := range c.links {
		n.scLoad[id] = 0
		n.scLoadCnt[id] = 0
	}
	for _, fc := range c.classes {
		if fc.rate <= 0 {
			continue
		}
		c.flowVisits++
		c.linkVisits += uint64(len(fc.links))
		m := len(fc.members)
		for _, l := range fc.links {
			v := n.scLoad[l.ID]
			for k := 0; k < m; k++ {
				v += fc.rate
			}
			n.scLoad[l.ID] = v
			n.scLoadCnt[l.ID] += m
		}
	}
	c.linkVisits += uint64(len(c.links))
	for _, id := range c.links {
		n.scFactor[id] = 0
		capBits := n.linkCap(id)
		if n.scLoadCnt[id] >= 2 && capBits > 0 && n.scLoad[id] >= capBits*(1-1e-6) {
			n.scFactor[id] = float64(n.scLoadCnt[id]-1) / float64(n.scLoadCnt[id])
		}
	}

	// Fan the class results out to the members, refresh the component's
	// utilization snapshot, and find its earliest completion ETA. Members
	// share rate, CNP rate, and goodput; only remaining bits differ.
	for _, id := range c.links {
		n.utilRate[id] = n.scLoad[id]
	}
	c.eta = sim.MaxTime
	for _, fc := range c.classes {
		c.flowVisits++
		c.linkVisits += uint64(len(fc.links))
		cnp := 0.0
		loss := 1.0
		for _, l := range fc.links {
			if factor := n.scFactor[l.ID]; factor > 0 {
				cnp += n.Cfg.CNPPerSecond * factor
			}
			if fr := n.lossFrac[l.ID]; fr > 0 {
				loss *= 1 - fr
			}
		}
		fc.good = fc.rate * loss
		for _, f := range fc.members {
			f.rate = fc.rate
			f.cnpRate = cnp
			f.goodRate = fc.good
		}
		if eta := fc.eta(); eta < c.eta {
			c.eta = eta
		}
	}
}
