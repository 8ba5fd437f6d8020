package netsim

import "c4/internal/sim"

// This file holds the kernel's shared bookkeeping: the work counters and
// the completion rearm.

// KernelStats counts deterministic units of algorithmic work performed by
// rate recomputation. LinkVisits counts per-link steps (registration,
// bottleneck scans, capacity updates, CNP bookkeeping); FlowVisits counts
// per-class steps — the quantity flow-class aggregation shrinks from
// O(flows) to O(classes). ComponentFills counts link components refilled
// from scratch and ComponentReuses components a recompute found clean and
// kept, re-deriving only their completion ETA; a kernel that silently
// fell back to full refills would show zero reuses. The counters are pure
// step counts, no wall-clock, so they are byte-for-byte reproducible
// across runs and safe to track in bench baselines.
type KernelStats struct {
	Recomputes      uint64
	LinkVisits      uint64
	FlowVisits      uint64
	ComponentFills  uint64
	ComponentReuses uint64
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
	n.completeEv = n.Engine.After(minEta, n.completionsFn)
}
