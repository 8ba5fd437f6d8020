package netsim

import (
	"slices"
	"sync"

	"c4/internal/sim"
)

// Persistent link components and the parallel settle. Max-min filling
// decomposes exactly along the connected components of the bipartite
// class/link graph: a bottleneck round in one component never reads or
// writes capacity in another. The kernel exploits that twice.
//
// Across events, components are Network state. A component stays clean,
// and keeps its rates, CNP factors and utilization snapshot, until a
// mutation touches it: a class of it is admitted to, grows or shrinks, a
// SetLink* call lands on one of its links, or a new or revived class
// crosses one of its links. A recompute retires only the dirty
// components, re-partitions their classes together with the classes that
// have no component, and refills just those (incremental repartitioning
// under local refinement). Collective traffic is a few long-lived flows
// on predictable chains, so between two events most of the fabric's
// allocation is unchanged and most components are reused.
//
// Within a recompute, the fresh components fill on separate goroutines
// and merge deterministically. Components generalize "per plane":
// leaf-up/spine-down links are per (plane, leaf, spine), so plane- and
// gang-partitioned traffic falls apart into many components naturally —
// but a node's NVLink injection/delivery links sit on every path the node
// originates or terminates, coupling its planes, and only component
// analysis handles that soundly. When the whole fabric is one traffic web
// there is one component and the kernel degrades to the serial order,
// never to a wrong answer.

// component is one independent filling problem: a set of links no alive
// class crosses out of, and the classes confined to it.
type component struct {
	links   []int // dense link IDs, ascending
	classes []*flowClass

	slot  int  // index in Network.comps
	dirty bool // queued in Network.dirtyComps for the next recompute

	// Per-fill outputs, folded into Network state serially after the
	// parallel phase so worker goroutines never share scratch.
	eta        sim.Time
	linkVisits uint64
	flowVisits uint64
}

// markDirty queues c for a refill at the next recompute. A nil c (a link
// or class with no live component) needs none.
func (n *Network) markDirty(c *component) {
	if c == nil || c.dirty {
		return
	}
	c.dirty = true
	n.dirtyComps = append(n.dirtyComps, c)
}

// retire dissolves a dirty component: its links leave the link map and
// drop their utilization snapshot, and its still-attached classes become
// componentless, with their liveness re-derived, so the next registration
// picks them up. The component object is kept for reuse.
func (n *Network) retire(c *component) {
	for _, id := range c.links {
		n.linkComp[id] = nil
		n.utilRate[id] = 0
	}
	for _, fc := range c.classes {
		if fc.comp != c {
			continue // dropped from the network since the last fill
		}
		n.stats.FlowVisits++
		n.stats.LinkVisits += uint64(len(fc.links))
		fc.comp = nil
		fc.alive = chainUp(fc)
	}
	last := n.comps[len(n.comps)-1]
	n.comps[c.slot] = last
	last.slot = c.slot
	n.comps = n.comps[:len(n.comps)-1]
	*c = component{links: c.links[:0], classes: c.classes[:0]}
	n.spareComps = append(n.spareComps, c)
}

// partition groups the registered links into connected components via
// union-find, attaches each registered class to the component of its
// links, and appends the new components to n.comps. Only the links of
// this recompute's registered classes are sorted and walked, never the
// whole link-ID space. Component contents are deterministic: links are
// listed ascending (the representative, the smallest link ID, comes
// first) and classes keep creation order.
func (n *Network) partition() []*component {
	slices.Sort(n.scTouched)
	for _, id := range n.scTouched {
		n.ufParent[id] = int32(id)
	}
	for _, fc := range n.scLive {
		r := n.ufFind(int32(fc.links[0].ID))
		for _, l := range fc.links[1:] {
			s := n.ufFind(int32(l.ID))
			if s == r {
				continue
			}
			if s < r {
				r, s = s, r
			}
			n.ufParent[s] = r
		}
	}

	fresh := n.fresh[:0]
	for _, id := range n.scTouched {
		root := int(n.ufFind(int32(id)))
		c := n.linkComp[root]
		if root == id {
			c = n.newComponent()
			fresh = append(fresh, c)
		}
		n.linkComp[id] = c
		c.links = append(c.links, id)
	}
	for _, fc := range n.scLive {
		c := n.linkComp[fc.links[0].ID]
		fc.comp = c
		c.classes = append(c.classes, fc)
	}
	n.fresh = fresh
	return fresh
}

// newComponent registers an empty live component, recycling a retired
// one when there is one.
func (n *Network) newComponent() *component {
	var c *component
	if k := len(n.spareComps); k > 0 {
		c = n.spareComps[k-1]
		n.spareComps = n.spareComps[:k-1]
	} else {
		c = &component{}
	}
	c.slot = len(n.comps)
	n.comps = append(n.comps, c)
	return c
}

// ufFind resolves a link's component representative with path halving.
func (n *Network) ufFind(x int32) int32 {
	for n.ufParent[x] != x {
		n.ufParent[x] = n.ufParent[n.ufParent[x]]
		x = n.ufParent[x]
	}
	return x
}

// settleComponents fills the fresh components and returns the earliest
// completion ETA across them. With SettleWorkers > 1 the components run on
// a bounded goroutine pool; each worker takes a static stride so no
// channel or lock sits on the hot path, and because components are
// memory-disjoint the schedule cannot affect the results. Outputs merge in
// component order, so the parallel run is byte-identical to the serial
// one — the property the replay tests and the -race CI lane pin down.
func (n *Network) settleComponents(comps []*component) sim.Time {
	n.stats.ComponentFills += uint64(len(comps))
	if workers := min(n.Cfg.SettleWorkers, len(comps)); workers > 1 {
		n.fillParallel(comps, workers)
	} else {
		for _, c := range comps {
			n.fillComponent(c)
		}
	}
	minEta := sim.MaxTime
	for _, c := range comps {
		n.stats.LinkVisits += c.linkVisits
		n.stats.FlowVisits += c.flowVisits
		if c.eta < minEta {
			minEta = c.eta
		}
	}
	return minEta
}

// fillParallel fills comps on workers goroutines and returns once all are
// done. It is its own function so the serial path allocates nothing for
// the goroutines' captured state.
func (n *Network) fillParallel(comps []*component, workers int) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(comps); i += workers {
				n.fillComponent(comps[i])
			}
		}(w)
	}
	wg.Wait()
}
