package netsim

import (
	"sync"

	"c4/internal/sim"
)

// Per-plane parallel settle. Max-min filling decomposes exactly along the
// connected components of the bipartite class/link graph: a bottleneck
// round in one component never reads or writes capacity in another, so the
// components can fill on separate goroutines and merge deterministically.
// Components generalize "per plane": leaf-up/spine-down links are per
// (plane, leaf, spine), so plane- and gang-partitioned traffic falls apart
// into many components naturally — but a node's NVLink injection/delivery
// links sit on every path the node originates or terminates, coupling its
// planes, and only component analysis handles that soundly. When the
// whole fabric is one traffic web there is one component and the kernel
// degrades to the serial order, never to a wrong answer.

// component is one independent filling problem: a set of links no class
// crosses out of, and the classes confined to it.
type component struct {
	links   []int // dense link IDs, ascending
	classes []*flowClass

	// Per-component outputs, folded into Network state serially after the
	// parallel phase so worker goroutines never share scratch.
	eta        sim.Time
	linkVisits uint64
	flowVisits uint64
}

// partition groups the touched links into connected components via
// union-find, attaching each alive class to the component of its links.
// Component identity and internal ordering are deterministic: the
// representative is the smallest link ID, components are numbered in
// ascending-representative order, links are listed ascending, and classes
// keep creation order.
func (n *Network) partition() []*component {
	for _, id := range n.scTouched {
		n.ufParent[id] = int32(id)
	}
	for _, fc := range n.classes {
		if !fc.alive {
			continue
		}
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

	// Walk the dense link-ID space ascending instead of sorting
	// scTouched: the representative is its component's smallest link, so
	// it is reached before any other member and numbers the component.
	comps := n.compPool[:0]
	for id := range n.scSeen {
		if !n.scSeen[id] {
			continue
		}
		root := n.ufFind(int32(id))
		if root == int32(id) {
			n.compSlot[id] = int32(len(comps))
			comps = append(comps, nextComponent(comps))
		}
		c := comps[n.compSlot[root]]
		c.links = append(c.links, id)
	}
	for _, fc := range n.classes {
		if !fc.alive {
			continue
		}
		slot := n.compSlot[n.ufFind(int32(fc.links[0].ID))]
		comps[slot].classes = append(comps[slot].classes, fc)
	}
	n.compPool = comps
	return comps
}

// nextComponent returns an empty component for slot len(comps), recycling
// the pooled one an earlier partition left there, slice capacity included.
func nextComponent(comps []*component) *component {
	if len(comps) < cap(comps) {
		if c := comps[:len(comps)+1][len(comps)]; c != nil {
			*c = component{links: c.links[:0], classes: c.classes[:0]}
			return c
		}
	}
	return &component{}
}

// ufFind resolves a link's component representative with path halving.
func (n *Network) ufFind(x int32) int32 {
	for n.ufParent[x] != x {
		n.ufParent[x] = n.ufParent[n.ufParent[x]]
		x = n.ufParent[x]
	}
	return x
}

// settleComponents fills every component and returns the earliest
// completion ETA across all of them. With SettleWorkers > 1 the components
// run on a bounded goroutine pool; each worker takes a static stride so no
// channel or lock sits on the hot path, and because components are
// memory-disjoint the schedule cannot affect the results. Outputs merge in
// component order, so the parallel run is byte-identical to the serial
// one — the property the replay tests and the -race CI lane pin down.
func (n *Network) settleComponents(comps []*component) sim.Time {
	n.lastComps = len(comps)
	workers := n.Cfg.SettleWorkers
	if workers > len(comps) {
		workers = len(comps)
	}
	if workers > 1 {
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
