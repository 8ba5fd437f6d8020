package netsim

import (
	"math"

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
// whose path has an identical link chain.
type flowClass struct {
	key     string
	links   []*topo.Link // the shared chain, in path order
	members []*Flow      // admission order

	// Kernel scratch, valid during one recompute. When components fill in
	// parallel each class belongs to exactly one component, so there is no
	// cross-goroutine sharing.
	alive  bool
	frozen bool
	rate   float64

	span *trace.Span // class-lifetime span; nil when tracing is off
}

// classAdmit joins f to the class of its link chain, creating the class if
// it is the chain's first member. The aggregation key is the path's dense
// link IDs packed little-endian: two paths with equal keys cross exactly
// the same resources in the same order and are indistinguishable to the
// kernel. The key is built in a reusable byte buffer; Go's map lookup on
// string(buf) does not allocate, so only the first member of a new chain
// pays for a string.
func (n *Network) classAdmit(f *Flow) {
	b := n.classKey[:0]
	for _, l := range f.Path.Links {
		id := uint32(l.ID)
		b = append(b, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	n.classKey = b
	fc := n.classIndex[string(b)]
	if fc == nil {
		fc = &flowClass{key: string(b), links: append([]*topo.Link(nil), f.Path.Links...)}
		n.classIndex[fc.key] = fc
		n.classes = append(n.classes, fc)
		if n.Trace.Enabled() {
			fc.span = n.Trace.Start(nil, "class", classLabel(fc))
		}
	}
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

// classRemove detaches f from its class, dropping the class when f was the
// last member. Removal preserves member admission order and the class
// creation order of n.classes, which the kernel iterates.
func (n *Network) classRemove(f *Flow) {
	fc := f.class
	f.class = nil
	for i, m := range fc.members {
		if m == f {
			fc.members = append(fc.members[:i], fc.members[i+1:]...)
			break
		}
	}
	if len(fc.members) == 0 {
		fc.span.FinishAt(n.Engine.Now())
		delete(n.classIndex, fc.key)
		for i, c := range n.classes {
			if c == fc {
				n.classes = append(n.classes[:i], n.classes[i+1:]...)
				break
			}
		}
	}
}

// recomputeAggregated is the rate kernel: classes register their links
// once, the touched links are partitioned into connected components
// (parallel.go), and each component runs progressive filling, the CNP
// pass, and the ETA pass independently — serially or on a bounded worker
// pool, byte-identically either way.
func (n *Network) recomputeAggregated() {
	n.scTouched = n.scTouched[:0]
	for _, fc := range n.classes {
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		fc.alive = true
		for _, l := range fc.links {
			if !l.Up() {
				fc.alive = false
				break
			}
		}
		if !fc.alive {
			// Stalled at rate 0: no capacity, no CNPs, no goodput until the
			// path heals.
			fc.frozen = true
			fc.rate = 0
			for _, f := range fc.members {
				f.rate = 0
				f.cnpRate = 0
				f.goodRate = 0
			}
			continue
		}
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
	}

	comps := n.partition()
	minEta := n.settleComponents(comps)

	n.snapshotUtil()
	// Restore the between-calls invariant: scSeen and scFactor all zero, so
	// links untouched by the next flow set read as absent, not stale.
	for _, id := range n.scTouched {
		n.scSeen[id] = false
		n.scFactor[id] = 0
	}
	n.rearmCompletion(minEta)
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

	// Fan the class results out to the members and find the component's
	// earliest completion ETA. Members share rate, CNP rate, and goodput;
	// only remaining bits differ, and min(remaining)/goodRate is the same
	// monotone transform the per-flow reference applies member-wise.
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
		good := fc.rate * loss
		minRem := math.Inf(1)
		for _, f := range fc.members {
			f.rate = fc.rate
			f.cnpRate = cnp
			f.goodRate = good
			if f.remaining < minRem {
				minRem = f.remaining
			}
		}
		if good > 0 {
			eta := sim.FromSeconds(minRem/good) + 1
			if eta < 1 {
				eta = 1
			}
			if eta < c.eta {
				c.eta = eta
			}
		}
	}
}
