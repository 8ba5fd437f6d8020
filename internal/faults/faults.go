// Package faults is the fault model of the C4 reproduction's campaigns.
// It provides a composable, seed-deterministic fault model — link flap
// with duty cycle, NIC bandwidth degradation, spine/switch outage,
// straggler compute, silent packet drop — that injects timed events into
// any netsim/topo instance, the campaign families that sweep fault type ×
// severity × topology scale × placement as generated trial lists, and
// the single-trial runner.
//
// Each campaign trial runs the same fault schedule twice: once with C4P
// dynamic steering responding to the faults, once with routes pinned (no
// fault response), and scores C4D's diagnosis precision/recall against the
// injected ground truth plus the goodput delta steering buys. Running and
// aggregating many trials is internal/campaign's job, which backs both the
// campaign/* registry scenarios and manifest-driven runs.
package faults

import (
	"fmt"
	"slices"
	"sort"

	"c4/internal/netsim"
	"c4/internal/rca"
	"c4/internal/sim"
	"c4/internal/topo"
	"c4/internal/trace"
)

// Kind is one fault archetype of the model.
type Kind int

// The five fault archetypes.
const (
	// LinkFlap periodically kills and revives both directions of one leaf
	// uplink cable. Severity is the duty cycle: the fraction of each
	// Period the link spends down.
	LinkFlap Kind = iota
	// NICDegrade renegotiates a node's NIC to a lower rate: every port
	// link of (Node, Rail) loses a Severity fraction of its capacity.
	NICDegrade
	// SpineOutage takes a whole spine switch out: every leaf-up and
	// spine-down link touching (Rail, Spine) goes down for the duration.
	SpineOutage
	// Straggler slows a node's compute by Severity seconds per iteration
	// (a thermally throttled or otherwise degraded GPU).
	Straggler
	// PacketDrop silently discards a Severity fraction of packets on one
	// leaf uplink. The link stays up at full capacity — no link-state
	// monitor sees it; only transport statistics can.
	PacketDrop
)

func (k Kind) String() string {
	switch k {
	case LinkFlap:
		return "link-flap"
	case NICDegrade:
		return "nic-degrade"
	case SpineOutage:
		return "spine-outage"
	case Straggler:
		return "straggler"
	case PacketDrop:
		return "packet-drop"
	}
	return "unknown"
}

// Spec is one parameterized fault instance. Target fields are used
// per-kind: Node for NICDegrade/Straggler, (Plane, Group, Uplink) for
// LinkFlap/PacketDrop, Spine for SpineOutage; Rail applies to all fabric
// faults.
type Spec struct {
	Kind   Kind
	Node   int
	Rail   int
	Plane  int
	Group  int
	Uplink int
	Spine  int
	// Severity is the fault magnitude: duty cycle (LinkFlap), capacity
	// fraction lost (NICDegrade), loss fraction (PacketDrop), or extra
	// seconds of compute per iteration (Straggler). Ignored by SpineOutage.
	Severity float64
	Start    sim.Time
	Duration sim.Time
	// Period is the flap cycle length (LinkFlap only).
	Period sim.Time
}

// End reports when the fault clears.
func (s Spec) End() sim.Time { return s.Start + s.Duration }

func (s Spec) String() string {
	switch s.Kind {
	case LinkFlap:
		return fmt.Sprintf("%v r%d/p%d/g%d/up%d duty=%.2f period=%v [%v..%v]",
			s.Kind, s.Rail, s.Plane, s.Group, s.Uplink, s.Severity, s.Period, s.Start, s.End())
	case PacketDrop:
		return fmt.Sprintf("%v r%d/p%d/g%d/up%d loss=%.2f [%v..%v]",
			s.Kind, s.Rail, s.Plane, s.Group, s.Uplink, s.Severity, s.Start, s.End())
	case SpineOutage:
		return fmt.Sprintf("%v r%d/spine%d [%v..%v]", s.Kind, s.Rail, s.Spine, s.Start, s.End())
	case Straggler:
		return fmt.Sprintf("%v n%d +%.1fs/iter [%v..%v]", s.Kind, s.Node, s.Severity, s.Start, s.End())
	}
	return fmt.Sprintf("%v n%d sev=%.2f [%v..%v]", s.Kind, s.Node, s.Severity, s.Start, s.End())
}

// Validate reports a descriptive error for an inconsistent spec.
func (s Spec) Validate(t *topo.Topology) error {
	spec := t.Spec
	if s.Start < 0 || s.Duration <= 0 {
		return fmt.Errorf("faults: %v has empty window [%v..%v]", s.Kind, s.Start, s.End())
	}
	switch s.Kind {
	case LinkFlap:
		if s.Severity <= 0 || s.Severity >= 1 {
			return fmt.Errorf("faults: flap duty %v outside (0,1)", s.Severity)
		}
		if s.Period <= 0 {
			return fmt.Errorf("faults: flap with no period")
		}
		fallthrough
	case PacketDrop:
		if s.Kind == PacketDrop && (s.Severity <= 0 || s.Severity >= 1) {
			return fmt.Errorf("faults: loss fraction %v outside (0,1)", s.Severity)
		}
		if s.Plane < 0 || s.Plane >= topo.Planes || s.Group < 0 || s.Group >= spec.Groups() {
			return fmt.Errorf("faults: no leaf (rail %d, plane %d, group %d)", s.Rail, s.Plane, s.Group)
		}
		if s.Uplink < 0 || s.Uplink >= spec.Spines {
			return fmt.Errorf("faults: uplink %d outside [0,%d)", s.Uplink, spec.Spines)
		}
	case NICDegrade:
		if s.Severity <= 0 || s.Severity >= 1 {
			return fmt.Errorf("faults: degrade fraction %v outside (0,1)", s.Severity)
		}
		if s.Node < 0 || s.Node >= spec.Nodes {
			return fmt.Errorf("faults: node %d outside fabric", s.Node)
		}
	case SpineOutage:
		if s.Spine < 0 || s.Spine >= spec.Spines {
			return fmt.Errorf("faults: spine %d outside [0,%d)", s.Spine, spec.Spines)
		}
	case Straggler:
		if s.Severity <= 0 || s.Severity > 10 {
			return fmt.Errorf("faults: straggler delay %vs outside (0,10]", s.Severity)
		}
		if s.Node < 0 || s.Node >= spec.Nodes {
			return fmt.Errorf("faults: node %d outside fabric", s.Node)
		}
	default:
		return fmt.Errorf("faults: unknown kind %d", int(s.Kind))
	}
	if s.Rail < 0 || s.Rail >= spec.Rails {
		return fmt.Errorf("faults: rail %d outside fabric", s.Rail)
	}
	return nil
}

// Links resolves the fabric links the fault manipulates (none for
// Straggler).
func (s Spec) Links(t *topo.Topology) []*topo.Link {
	switch s.Kind {
	case LinkFlap:
		leaf := t.LeafAt(s.Rail, s.Plane, s.Group)
		return []*topo.Link{leaf.Ups[s.Uplink], leaf.Downs[s.Uplink]}
	case PacketDrop:
		leaf := t.LeafAt(s.Rail, s.Plane, s.Group)
		return []*topo.Link{leaf.Ups[s.Uplink]}
	case NICDegrade:
		var out []*topo.Link
		for p := 0; p < topo.Planes; p++ {
			port := t.PortAt(s.Node, s.Rail, p)
			out = append(out, port.Up, port.Down)
		}
		return out
	case SpineOutage:
		return t.SpineLinks(s.Rail, s.Spine)
	}
	return nil
}

// telemetry is the hardware-monitor signal the fault's onset produces, or
// nil for silent faults (PacketDrop is invisible to every monitor).
func (s Spec) telemetry() *rca.Telemetry {
	switch s.Kind {
	case LinkFlap, SpineOutage:
		return &rca.Telemetry{Kind: rca.TelemetryLinkFlap, Node: -1}
	case NICDegrade:
		return &rca.Telemetry{Kind: rca.TelemetryNICDown, Node: s.Node}
	case Straggler:
		return &rca.Telemetry{Kind: rca.TelemetryThermal, Node: s.Node}
	}
	return nil
}

// Injector arms fault specs onto a live simulation. Overlapping faults
// compose: a link stays down until every outage holding it down has
// cleared (reference counting), and concurrent capacity degradations or
// loss fractions multiply.
type Injector struct {
	Eng  *sim.Engine
	Net  *netsim.Network
	Topo *topo.Topology
	// SetStraggler applies (or, with extra=0, clears) a per-iteration
	// compute delay on a node; required only to arm Straggler specs.
	SetStraggler func(node int, extra sim.Time)
	// OnTelemetry, when set, receives the hardware-monitor signal each
	// non-silent fault emits at onset (feeds the RCA service).
	OnTelemetry func(rca.Telemetry)

	armed    []Spec
	baseGbps map[int]float64
	downRefs map[int]int
	degrades map[int][]float64
	losses   map[int][]float64
}

// NewInjector creates an injector for the environment.
func NewInjector(eng *sim.Engine, net *netsim.Network, t *topo.Topology) *Injector {
	return &Injector{
		Eng: eng, Net: net, Topo: t,
		baseGbps: map[int]float64{},
		downRefs: map[int]int{},
		degrades: map[int][]float64{},
		losses:   map[int][]float64{},
	}
}

// Armed returns every spec armed so far, in arming order.
func (in *Injector) Armed() []Spec { return append([]Spec(nil), in.armed...) }

// Arm validates the spec and schedules its timed events on the engine.
func (in *Injector) Arm(s Spec) error {
	if err := s.Validate(in.Topo); err != nil {
		return err
	}
	if s.Kind == Straggler && in.SetStraggler == nil {
		return fmt.Errorf("faults: straggler armed without a SetStraggler hook")
	}
	links := s.Links(in.Topo)
	end := s.End()
	// The fault-window span opens before the onset events scheduled below
	// (same instant, earlier sequence), so everything the fault causes can
	// nest under it; the "fault" mark is how c4d parents its detection
	// spans without a package dependency. With overlapping faults the mark
	// holds the most recently opened window — the best single attribution
	// guess a detector could make too.
	if tr := in.Net.Trace; tr.Enabled() {
		var fsp *trace.Span
		in.Eng.Schedule(s.Start, func() {
			fsp = tr.Start(nil, "fault", s.Kind.String()).Annotate("spec", s.String())
			tr.SetMark("fault", fsp)
		})
		in.Eng.Schedule(end, func() {
			fsp.FinishAt(in.Eng.Now())
			if tr.Mark("fault") == fsp {
				tr.SetMark("fault", nil)
			}
		})
	}
	switch s.Kind {
	case LinkFlap:
		downSpan := sim.Time(float64(s.Period) * s.Severity)
		for at := s.Start; at < end; at += s.Period {
			at := at
			upAt := at + downSpan
			if upAt > end {
				upAt = end
			}
			in.Eng.Schedule(at, func() {
				for _, l := range links {
					in.down(l)
				}
			})
			in.Eng.Schedule(upAt, func() {
				for _, l := range links {
					in.up(l)
				}
			})
		}
	case SpineOutage:
		in.Eng.Schedule(s.Start, func() {
			for _, l := range links {
				in.down(l)
			}
		})
		in.Eng.Schedule(end, func() {
			for _, l := range links {
				in.up(l)
			}
		})
	case NICDegrade:
		in.Eng.Schedule(s.Start, func() {
			for _, l := range links {
				in.degrade(l, s.Severity)
			}
		})
		in.Eng.Schedule(end, func() {
			for _, l := range links {
				in.undegrade(l, s.Severity)
			}
		})
	case PacketDrop:
		in.Eng.Schedule(s.Start, func() {
			for _, l := range links {
				in.addLoss(l, s.Severity)
			}
		})
		in.Eng.Schedule(end, func() {
			for _, l := range links {
				in.removeLoss(l, s.Severity)
			}
		})
	case Straggler:
		in.Eng.Schedule(s.Start, func() {
			in.SetStraggler(s.Node, sim.FromSeconds(s.Severity))
		})
		in.Eng.Schedule(end, func() {
			in.SetStraggler(s.Node, 0)
		})
	}
	if tel := s.telemetry(); tel != nil && in.OnTelemetry != nil {
		tel := *tel
		in.Eng.Schedule(s.Start, func() {
			tel.Time = in.Eng.Now()
			in.OnTelemetry(tel)
		})
	}
	in.armed = append(in.armed, s)
	return nil
}

// Truth computes the injected ground truth against a job's node set: each
// armed spec plus the job nodes it can impact (empty when the fault cannot
// touch the job's traffic — e.g. a fabric fault under a single-leaf
// placement, which never crosses the spine layer).
func (in *Injector) Truth(jobNodes []int) []GroundTruth {
	out := make([]GroundTruth, 0, len(in.armed))
	for _, s := range in.armed {
		out = append(out, makeTruth(s, in.Topo, jobNodes))
	}
	return out
}

// down marks one outage holding the link down; the first one fails it.
func (in *Injector) down(l *topo.Link) {
	in.downRefs[l.ID]++
	if in.downRefs[l.ID] == 1 {
		in.Net.SetLinkUp(l, false)
	}
}

// up releases one outage; the link recovers when the last clears.
func (in *Injector) up(l *topo.Link) {
	if in.downRefs[l.ID] == 0 {
		return
	}
	in.downRefs[l.ID]--
	if in.downRefs[l.ID] == 0 {
		in.Net.SetLinkUp(l, true)
	}
}

func (in *Injector) degrade(l *topo.Link, frac float64) {
	if _, ok := in.baseGbps[l.ID]; !ok {
		in.baseGbps[l.ID] = l.Gbps
	}
	in.degrades[l.ID] = append(in.degrades[l.ID], frac)
	in.applyCapacity(l)
}

func (in *Injector) undegrade(l *topo.Link, frac float64) {
	fr := in.degrades[l.ID]
	for i, f := range fr {
		if f == frac {
			in.degrades[l.ID] = append(fr[:i], fr[i+1:]...)
			break
		}
	}
	in.applyCapacity(l)
}

func (in *Injector) applyCapacity(l *topo.Link) {
	g := in.baseGbps[l.ID]
	for _, f := range in.degrades[l.ID] {
		g *= 1 - f
	}
	in.Net.SetLinkCapacity(l, g)
}

func (in *Injector) addLoss(l *topo.Link, frac float64) {
	in.losses[l.ID] = append(in.losses[l.ID], frac)
	in.applyLoss(l)
}

func (in *Injector) removeLoss(l *topo.Link, frac float64) {
	fr := in.losses[l.ID]
	for i, f := range fr {
		if f == frac {
			in.losses[l.ID] = append(fr[:i], fr[i+1:]...)
			break
		}
	}
	in.applyLoss(l)
}

func (in *Injector) applyLoss(l *topo.Link) {
	keep := 1.0
	for _, f := range in.losses[l.ID] {
		keep *= 1 - f
	}
	in.Net.SetLinkLoss(l, 1-keep)
}

func sortedCopy(xs []int) []int {
	cp := slices.Clone(xs)
	sort.Ints(cp)
	return cp
}
