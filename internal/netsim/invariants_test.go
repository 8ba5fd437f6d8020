package netsim

import (
	"fmt"
	"math"
	"slices"
)

// This file holds the opt-in invariant checker the package tests run
// after every recompute (the Network.checkInvariants seam). Output
// equality with the oracle proves the kernels agree; the checker proves
// the allocation they agree on is a max-min allocation, and that the
// class kernel's persistent component state matches its flow set.

// withInvariants arms the checker on n and returns n. A violation panics
// with the simulated instant: it is a kernel bug, and the test fails on
// the recompute that introduced it rather than on a later observable.
func withInvariants(n *Network) *Network {
	n.checkInvariants = func() {
		if err := checkAllocation(n); err != nil {
			panic(fmt.Sprintf("netsim invariant violated at %v: %v", n.Engine.Now(), err))
		}
		if n.refKernel == nil {
			if err := checkComponents(n); err != nil {
				panic(fmt.Sprintf("netsim component map inconsistent at %v: %v", n.Engine.Now(), err))
			}
		}
	}
	return n
}

// checkAllocation verifies the current rates from the flows alone:
//   - no link carries more than its capacity·(1+1e-6);
//   - the max-min certificate: every flow on a healthy path has a
//     saturated link where no other flow gets more, and a flow on a down
//     path gets nothing;
//   - Utilization's snapshot equals the per-link sum of flow rates, so no
//     stale entry survives a retired component or a vanished flow set.
func checkAllocation(n *Network) error {
	nl := len(n.Topo.Links)
	load := make([]float64, nl)
	top := make([]float64, nl)
	for _, f := range n.flows {
		for _, l := range f.Path.Links {
			load[l.ID] += f.rate
			top[l.ID] = math.Max(top[l.ID], f.rate)
		}
	}
	for id, l := range n.Topo.Links {
		capBits := l.Gbps * Gbps
		if load[id] > capBits*(1+1e-6) {
			return fmt.Errorf("link %s carries %g b/s over its %g capacity", l.Name, load[id], capBits)
		}
		if d := math.Abs(n.utilRate[id] - load[id]); d > 1e-9*math.Max(capBits, load[id]) {
			return fmt.Errorf("link %s utilization %g, flows sum to %g", l.Name, n.utilRate[id], load[id])
		}
	}
	for _, f := range n.flows {
		if !f.Path.Up() {
			if f.rate != 0 || f.goodRate != 0 || f.cnpRate != 0 {
				return fmt.Errorf("flow %s on a down path moves at %g b/s", f.Label, f.rate)
			}
			continue
		}
		bottlenecked := false
		for _, l := range f.Path.Links {
			if load[l.ID] >= l.Gbps*Gbps*(1-1e-6) && f.rate >= top[l.ID]*(1-1e-6) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %s at %g b/s has no saturated link where its rate is maximal", f.Label, f.rate)
		}
	}
	return nil
}

// checkComponents verifies the class kernel's persistent component map:
// nothing is left dirty, each link sits in at most one live component and
// maps back to it, every live component holds only its own classes, and
// each alive class's links all map to the class's own component while a
// stalled class has none.
func checkComponents(n *Network) error {
	if len(n.dirtyComps) != 0 {
		return fmt.Errorf("%d components still dirty", len(n.dirtyComps))
	}
	owner := make([]*component, len(n.Topo.Links))
	for i, c := range n.comps {
		if c.slot != i || c.dirty {
			return fmt.Errorf("component %d: slot %d, dirty %v", i, c.slot, c.dirty)
		}
		for _, id := range c.links {
			if owner[id] != nil {
				return fmt.Errorf("link %d in two live components", id)
			}
			owner[id] = c
		}
		for _, fc := range c.classes {
			if fc.comp != c {
				return fmt.Errorf("component %d lists class %s it does not own", i, classLabel(fc))
			}
		}
	}
	for id, c := range n.linkComp {
		if c != owner[id] {
			return fmt.Errorf("link %d maps to a component that does not list it", id)
		}
	}
	for _, fc := range n.classes {
		if !chainUp(fc) {
			if fc.comp != nil {
				return fmt.Errorf("stalled class %s kept a component", classLabel(fc))
			}
			continue
		}
		if fc.comp == nil || !slices.Contains(fc.comp.classes, fc) {
			return fmt.Errorf("alive class %s is not in a live component", classLabel(fc))
		}
		for _, l := range fc.links {
			if n.linkComp[l.ID] != fc.comp {
				return fmt.Errorf("alive class %s crosses link %s outside its component", classLabel(fc), l.Name)
			}
		}
	}
	return nil
}
