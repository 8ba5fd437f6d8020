package netsim

import "c4/internal/sim"

// This file holds the kernel's shared bookkeeping: the work counters and
// the post-allocation steps (utilization snapshot, completion rearm).

// KernelStats counts deterministic units of algorithmic work performed by
// rate recomputation. LinkVisits counts per-link steps (bottleneck scans,
// capacity updates, CNP bookkeeping); FlowVisits counts per-class steps —
// the quantity flow-class aggregation shrinks from O(flows) to O(classes).
// The counters are pure step counts, no wall-clock, so they are
// byte-for-byte reproducible across runs and safe to track in bench
// baselines.
type KernelStats struct {
	Recomputes uint64
	LinkVisits uint64
	FlowVisits uint64
}

// snapshotUtil copies the aggregate allocated rate per touched link out of
// the CNP-pass scratch into the persistent utilization snapshot that
// Utilization serves, clearing links touched by the previous flow set but
// not this one. The kernel calls it with scLoad/scTouched populated.
func (n *Network) snapshotUtil() {
	for _, id := range n.utilLinks {
		n.utilRate[id] = 0
	}
	n.utilLinks = append(n.utilLinks[:0], n.scTouched...)
	for _, id := range n.utilLinks {
		n.utilRate[id] = n.scLoad[id]
	}
}

// rearmCompletion points the network's single completion event at minEta
// from now. The event is moved in place (Engine.Reschedule) whenever it is
// still queued: recompute runs on every flow-set change, and under the old
// cancel-and-recreate pattern each run leaked one dead event into the
// engine heap — a reroute-heavy run accumulated them faster than pops
// drained them.
func (n *Network) rearmCompletion(minEta sim.Time) {
	if minEta == sim.MaxTime {
		if n.completeEv != nil {
			n.completeEv.Cancel()
			n.completeEv = nil
		}
		return
	}
	if n.Engine.Reschedule(n.completeEv, n.Engine.Now()+minEta) {
		return
	}
	n.completeEv = n.Engine.After(minEta, n.completions)
}
