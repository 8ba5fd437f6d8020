// Package topo models the physical fabric of an AI training cluster: compute
// nodes with GPUs and dual-port RDMA NICs, and a dual-plane leaf/spine Clos
// network like the one described in §II-D of the C4 paper (HPCA'25).
//
// Conventions:
//
//   - A node has Rails NICs; NIC r is "rail r". Rails are independent
//     subnetworks (rail-optimized fabric): NIC r of one node only ever talks
//     to NIC r of another node.
//   - Each NIC has two physical ports. Port 0 attaches to the left plane
//     (plane 0) leaf of its rail, port 1 to the right plane (plane 1) leaf.
//     The two ports are bonded into one logical 2×PortGbps port.
//   - Nodes are partitioned into leaf groups of NodesPerGroup nodes. Each
//     (rail, plane, group) triple has one leaf switch. Every leaf of a rail
//     connects to every spine of that rail, so cross-plane paths exist (a
//     flow entering on plane 0 can descend to a destination port on plane 1)
//     exactly as in the paper, where C4P must actively forbid them.
//   - All links are unidirectional; a full-duplex cable is two Links.
package topo

import "fmt"

// Spec describes a cluster fabric to build.
type Spec struct {
	Nodes         int     // number of compute nodes
	GPUsPerNode   int     // GPUs per node (8 on the paper's testbed)
	Rails         int     // NICs per node; each NIC is one rail
	NodesPerGroup int     // nodes attached to one leaf (per rail/plane)
	Spines        int     // spine switches per rail (shared by both planes)
	PortGbps      float64 // bandwidth of one physical NIC port / fabric link
	NVLinkGbps    float64 // per-node intra-node fabric injection ceiling
}

// PaperTestbed returns the configuration of the paper's controlled testbed
// (Table II): 16 nodes × 8 H800 GPUs, 8 dual-port 200 Gbps NICs per node,
// fat-tree with 1:1 oversubscription, and the ~362 Gbps NVLink-fabric
// ceiling the paper reports for bus bandwidth.
func PaperTestbed() Spec {
	return Spec{
		Nodes:         16,
		GPUsPerNode:   8,
		Rails:         8,
		NodesPerGroup: 2,
		Spines:        8,
		PortGbps:      200,
		NVLinkGbps:    362,
	}
}

// MultiJobTestbed returns the fabric used for the multi-tenant experiments
// (Figs 10–13): the same 16 nodes arranged as two leaf groups of 8, so the
// eight 2-node jobs of Fig 10 can each span "distinct groups of leaf
// switches" and every leaf has 8 uplinks — making the paper's "1 link
// error among the 8 uplinks → ideal 7/8" arithmetic hold. spines=8 gives
// the 1:1 oversubscription fabric; spines=4 the 2:1 variant of Fig 10b.
func MultiJobTestbed(spines int) Spec {
	s := PaperTestbed()
	s.NodesPerGroup = 8
	s.Spines = spines
	return s
}

// Validate reports a descriptive error for inconsistent specs.
func (s Spec) Validate() error {
	switch {
	case s.Nodes <= 0:
		return fmt.Errorf("topo: Nodes = %d, must be positive", s.Nodes)
	case s.GPUsPerNode <= 0:
		return fmt.Errorf("topo: GPUsPerNode = %d, must be positive", s.GPUsPerNode)
	case s.Rails <= 0:
		return fmt.Errorf("topo: Rails = %d, must be positive", s.Rails)
	case s.NodesPerGroup <= 0:
		return fmt.Errorf("topo: NodesPerGroup = %d, must be positive", s.NodesPerGroup)
	case s.Spines <= 0:
		return fmt.Errorf("topo: Spines = %d, must be positive", s.Spines)
	case s.PortGbps <= 0:
		return fmt.Errorf("topo: PortGbps = %v, must be positive", s.PortGbps)
	case s.NVLinkGbps <= 0:
		return fmt.Errorf("topo: NVLinkGbps = %v, must be positive", s.NVLinkGbps)
	}
	return nil
}

// Groups reports the number of leaf groups the nodes are partitioned into.
func (s Spec) Groups() int {
	return (s.Nodes + s.NodesPerGroup - 1) / s.NodesPerGroup
}

// TotalGPUs reports the GPU count of the cluster.
func (s Spec) TotalGPUs() int { return s.Nodes * s.GPUsPerNode }

// Planes is the number of network planes (physical ports per NIC).
const Planes = 2

// LinkKind classifies a unidirectional link.
type LinkKind int

const (
	// LinkNodeUp carries traffic from a node port up to its leaf.
	LinkNodeUp LinkKind = iota
	// LinkNodeDown carries traffic from a leaf down to a node port.
	LinkNodeDown
	// LinkLeafUp carries traffic from a leaf up to a spine.
	LinkLeafUp
	// LinkSpineDown carries traffic from a spine down to a leaf.
	LinkSpineDown
	// LinkNVLinkTx models a node's intra-node fabric injection capacity
	// (data leaving GPU memory toward the NICs).
	LinkNVLinkTx
	// LinkNVLinkRx models a node's intra-node fabric delivery capacity.
	LinkNVLinkRx
)

func (k LinkKind) String() string {
	switch k {
	case LinkNodeUp:
		return "node-up"
	case LinkNodeDown:
		return "node-down"
	case LinkLeafUp:
		return "leaf-up"
	case LinkSpineDown:
		return "spine-down"
	case LinkNVLinkTx:
		return "nvlink-tx"
	case LinkNVLinkRx:
		return "nvlink-rx"
	}
	return "unknown"
}

// Link is one unidirectional network resource.
type Link struct {
	ID   int
	Kind LinkKind
	// Gbps is the capacity. Once the link carries live netsim flows, change
	// it only through netsim.Network.SetLinkCapacity: the simulator keeps
	// clean allocations across events and must learn of the change.
	Gbps float64
	Name string

	// Endpoints, by kind:
	//   node-up/node-down: Port and Leaf set
	//   leaf-up/spine-down: Leaf and Spine set
	//   nvlink-*: NodeID set
	Port   *Port
	Leaf   *Leaf
	Spine  *Spine
	NodeID int

	up bool
}

// Up reports whether the link is healthy.
func (l *Link) Up() bool { return l.up }

// SetUp marks the link healthy or failed. Once the link carries live
// netsim flows, use netsim.Network.SetLinkUp instead: it re-allocates the
// affected flows and notifies their OnPathDown handlers, and the
// simulator, which keeps clean allocations across events, relies on it.
func (l *Link) SetUp(up bool) { l.up = up }

func (l *Link) String() string { return l.Name }

// Port is one physical NIC port on a node.
type Port struct {
	Node  int // node index
	Rail  int // NIC index on the node
	Plane int // 0 = left, 1 = right
	Leaf  *Leaf
	Up    *Link // port -> leaf
	Down  *Link // leaf -> port
}

// Name returns a stable human-readable identifier.
func (p *Port) Name() string {
	return fmt.Sprintf("n%d/nic%d/p%d", p.Node, p.Rail, p.Plane)
}

// Leaf is a leaf (ToR) switch serving one (rail, plane, group) triple.
type Leaf struct {
	Rail, Plane, Group int
	Ups                []*Link // leaf -> spine, indexed by spine
	Downs              []*Link // spine -> leaf, indexed by spine
	Ports              []*Port // node ports attached to this leaf
}

// Name returns a stable human-readable identifier.
func (l *Leaf) Name() string {
	return fmt.Sprintf("leaf-r%d-p%d-g%d", l.Rail, l.Plane, l.Group)
}

// Spine is a spine switch serving one rail.
type Spine struct {
	Rail, Index int
}

// Name returns a stable human-readable identifier.
func (s *Spine) Name() string { return fmt.Sprintf("spine-r%d-%d", s.Rail, s.Index) }

// Topology is a fully built fabric.
type Topology struct {
	Spec   Spec
	Links  []*Link
	Ports  [][][]*Port // [node][rail][plane]
	Leaves []*Leaf
	Spines []*Spine

	// NVLinkTx/NVLinkRx are per-node fabric injection/delivery links.
	NVLinkTx []*Link
	NVLinkRx []*Link

	leafIndex map[[3]int]*Leaf // (rail, plane, group) -> leaf
}

// New builds the fabric for the given spec.
func New(spec Spec) (*Topology, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	t := &Topology{
		Spec:      spec,
		leafIndex: make(map[[3]int]*Leaf),
	}
	groups := spec.Groups()

	newLink := func(kind LinkKind, gbps float64, name string) *Link {
		l := &Link{ID: len(t.Links), Kind: kind, Gbps: gbps, Name: name, up: true}
		t.Links = append(t.Links, l)
		return l
	}

	// Spines: one pool per rail, shared across both planes.
	for r := 0; r < spec.Rails; r++ {
		for s := 0; s < spec.Spines; s++ {
			t.Spines = append(t.Spines, &Spine{Rail: r, Index: s})
		}
	}

	// Leaves and leaf<->spine links.
	for r := 0; r < spec.Rails; r++ {
		for p := 0; p < Planes; p++ {
			for g := 0; g < groups; g++ {
				leaf := &Leaf{Rail: r, Plane: p, Group: g}
				for s := 0; s < spec.Spines; s++ {
					sp := t.SpineAt(r, s)
					up := newLink(LinkLeafUp, spec.PortGbps,
						fmt.Sprintf("%s->%s", leaf.Name(), sp.Name()))
					up.Leaf, up.Spine = leaf, sp
					down := newLink(LinkSpineDown, spec.PortGbps,
						fmt.Sprintf("%s->%s", sp.Name(), leaf.Name()))
					down.Leaf, down.Spine = leaf, sp
					leaf.Ups = append(leaf.Ups, up)
					leaf.Downs = append(leaf.Downs, down)
				}
				t.Leaves = append(t.Leaves, leaf)
				t.leafIndex[[3]int{r, p, g}] = leaf
			}
		}
	}

	// Nodes: ports, port<->leaf links, NVLink injection links.
	t.Ports = make([][][]*Port, spec.Nodes)
	for n := 0; n < spec.Nodes; n++ {
		g := n / spec.NodesPerGroup
		t.Ports[n] = make([][]*Port, spec.Rails)
		for r := 0; r < spec.Rails; r++ {
			t.Ports[n][r] = make([]*Port, Planes)
			for p := 0; p < Planes; p++ {
				leaf := t.leafIndex[[3]int{r, p, g}]
				port := &Port{Node: n, Rail: r, Plane: p, Leaf: leaf}
				up := newLink(LinkNodeUp, spec.PortGbps,
					fmt.Sprintf("%s->%s", port.Name(), leaf.Name()))
				up.Port, up.Leaf = port, leaf
				down := newLink(LinkNodeDown, spec.PortGbps,
					fmt.Sprintf("%s->%s", leaf.Name(), port.Name()))
				down.Port, down.Leaf = port, leaf
				port.Up, port.Down = up, down
				leaf.Ports = append(leaf.Ports, port)
				t.Ports[n][r][p] = port
			}
		}
		tx := newLink(LinkNVLinkTx, spec.NVLinkGbps, fmt.Sprintf("n%d/nvlink-tx", n))
		tx.NodeID = n
		rx := newLink(LinkNVLinkRx, spec.NVLinkGbps, fmt.Sprintf("n%d/nvlink-rx", n))
		rx.NodeID = n
		t.NVLinkTx = append(t.NVLinkTx, tx)
		t.NVLinkRx = append(t.NVLinkRx, rx)
	}
	return t, nil
}

// MustNew builds the fabric or panics; for tests and examples.
func MustNew(spec Spec) *Topology {
	t, err := New(spec)
	if err != nil {
		panic(err)
	}
	return t
}

// SpineAt returns the spine at (rail, index).
func (t *Topology) SpineAt(rail, index int) *Spine {
	return t.Spines[rail*t.Spec.Spines+index]
}

// SpineLinks returns every fabric link touching the spine at (rail, index):
// the leaf-up and spine-down links of all leaves on that rail, across both
// planes. It is the blast radius of a spine/switch outage.
func (t *Topology) SpineLinks(rail, index int) []*Link {
	var out []*Link
	for _, leaf := range t.Leaves {
		if leaf.Rail != rail {
			continue
		}
		out = append(out, leaf.Ups[index], leaf.Downs[index])
	}
	return out
}

// LeafAt returns the leaf serving (rail, plane, group).
func (t *Topology) LeafAt(rail, plane, group int) *Leaf {
	return t.leafIndex[[3]int{rail, plane, group}]
}

// PortAt returns the port for (node, rail, plane).
func (t *Topology) PortAt(node, rail, plane int) *Port {
	return t.Ports[node][rail][plane]
}

// Group reports the leaf group a node belongs to.
func (t *Topology) Group(node int) int { return node / t.Spec.NodesPerGroup }
