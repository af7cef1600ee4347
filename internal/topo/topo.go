// Package topo models GPU interconnect topologies for collective
// communication optimization: directed graphs of GPU and switch nodes
// whose links carry a capacity (bytes/second) and a fixed latency α
// (seconds), following the α-β cost model of Hockney that TE-CCL and its
// baselines all use.
package topo

import (
	"encoding/json"
	"fmt"
	"math"
)

// NodeID identifies a node within a Topology.
type NodeID int32

// LinkID identifies a directed link within a Topology.
type LinkID int32

// Node is a GPU or a switch.
type Node struct {
	Name   string `json:"name"`
	Switch bool   `json:"switch,omitempty"`
}

// Link is a unidirectional connection. Capacity is in bytes per second;
// Alpha is the fixed per-transfer latency in seconds.
type Link struct {
	Src      NodeID  `json:"src"`
	Dst      NodeID  `json:"dst"`
	Capacity float64 `json:"capacity"`
	Alpha    float64 `json:"alpha"`
}

// Topology is a directed graph of nodes and links. The zero value is an
// empty topology ready for use.
//
// A topology may carry churn state: links marked down (see ApplyDelta)
// keep their ID and metadata — so schedules and deltas stated against
// the original IDs stay meaningful — but are removed from the adjacency
// lists and skipped by every aggregate (shortest paths, capacity
// extrema), as if the wire were unplugged.
type Topology struct {
	Name  string
	nodes []Node
	links []Link
	out   [][]LinkID
	in    [][]LinkID
	// down marks links removed by ApplyDelta; nil when no link is down.
	down []bool
}

// New returns an empty topology with the given name.
func New(name string) *Topology { return &Topology{Name: name} }

// AddNode adds a node and returns its ID.
func (t *Topology) AddNode(name string, isSwitch bool) NodeID {
	t.nodes = append(t.nodes, Node{Name: name, Switch: isSwitch})
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	return NodeID(len(t.nodes) - 1)
}

// AddLink adds a unidirectional link and returns its ID.
func (t *Topology) AddLink(src, dst NodeID, capacity, alpha float64) LinkID {
	if src == dst {
		panic(fmt.Sprintf("topo: self-loop on node %d", src))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("topo: non-positive capacity %g on link %d->%d", capacity, src, dst))
	}
	t.links = append(t.links, Link{Src: src, Dst: dst, Capacity: capacity, Alpha: alpha})
	id := LinkID(len(t.links) - 1)
	t.out[src] = append(t.out[src], id)
	t.in[dst] = append(t.in[dst], id)
	return id
}

// AddDuplex adds a pair of opposite links with identical parameters.
func (t *Topology) AddDuplex(a, b NodeID, capacity, alpha float64) (LinkID, LinkID) {
	return t.AddLink(a, b, capacity, alpha), t.AddLink(b, a, capacity, alpha)
}

// NumNodes reports the node count.
func (t *Topology) NumNodes() int { return len(t.nodes) }

// NumLinks reports the directed link count.
func (t *Topology) NumLinks() int { return len(t.links) }

// Node returns node metadata.
func (t *Topology) Node(n NodeID) Node { return t.nodes[n] }

// Link returns link metadata.
func (t *Topology) Link(l LinkID) Link { return t.links[l] }

// IsSwitch reports whether n is a switch.
func (t *Topology) IsSwitch(n NodeID) bool { return t.nodes[n].Switch }

// LinkDown reports whether l has been taken down by ApplyDelta. Down
// links keep their ID and metadata but carry no traffic: they are absent
// from Out/In and skipped by shortest paths and capacity aggregates.
func (t *Topology) LinkDown(l LinkID) bool {
	return t.down != nil && t.down[l]
}

// Out returns the IDs of links leaving n.
func (t *Topology) Out(n NodeID) []LinkID { return t.out[n] }

// In returns the IDs of links entering n.
func (t *Topology) In(n NodeID) []LinkID { return t.in[n] }

// GPUs returns all non-switch node IDs in ID order.
func (t *Topology) GPUs() []NodeID {
	var out []NodeID
	for i := range t.nodes {
		if !t.nodes[i].Switch {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// Switches returns all switch node IDs in ID order.
func (t *Topology) Switches() []NodeID {
	var out []NodeID
	for i := range t.nodes {
		if t.nodes[i].Switch {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// FindLink returns the ID of the first link src->dst, or -1.
func (t *Topology) FindLink(src, dst NodeID) LinkID {
	for _, l := range t.out[src] {
		if t.links[l].Dst == dst {
			return l
		}
	}
	return -1
}

// MinCapacity returns the smallest link capacity, or 0 for an empty graph.
func (t *Topology) MinCapacity() float64 {
	if len(t.links) == 0 {
		return 0
	}
	min := math.Inf(1)
	for i := range t.links {
		if t.LinkDown(LinkID(i)) {
			continue
		}
		if t.links[i].Capacity < min {
			min = t.links[i].Capacity
		}
	}
	if math.IsInf(min, 1) {
		return 0
	}
	return min
}

// MaxCapacity returns the largest link capacity, or 0 for an empty graph.
func (t *Topology) MaxCapacity() float64 {
	max := 0.0
	for i := range t.links {
		if t.LinkDown(LinkID(i)) {
			continue
		}
		if t.links[i].Capacity > max {
			max = t.links[i].Capacity
		}
	}
	return max
}

// MaxAlpha returns the largest link α.
func (t *Topology) MaxAlpha() float64 {
	max := 0.0
	for i := range t.links {
		if t.LinkDown(LinkID(i)) {
			continue
		}
		if t.links[i].Alpha > max {
			max = t.links[i].Alpha
		}
	}
	return max
}

// Validate checks structural invariants: GPU-to-GPU reachability among all
// non-switch nodes (collectives need every GPU to reach every other) and
// positive capacities.
func (t *Topology) Validate() error { return t.validate(t.GPUs()) }

// ValidateLive is Validate for a churned topology: a GPU whose links are
// all down is a lost node (Delta.NodesDown) and is skipped; every other
// GPU must still reach every other.
func (t *Topology) ValidateLive() error {
	var live []NodeID
	for _, g := range t.GPUs() {
		if len(t.out[g])+len(t.in[g]) > 0 {
			live = append(live, g)
		}
	}
	return t.validate(live)
}

func (t *Topology) validate(gpus []NodeID) error {
	if len(gpus) == 0 {
		return fmt.Errorf("topology %q has no GPU nodes", t.Name)
	}
	dist := t.FloydWarshall(func(l Link) float64 { return 1 })
	for _, a := range gpus {
		for _, b := range gpus {
			if a != b && math.IsInf(dist[a][b], 1) {
				return fmt.Errorf("topology %q: GPU %s cannot reach GPU %s",
					t.Name, t.nodes[a].Name, t.nodes[b].Name)
			}
		}
	}
	return nil
}

// FloydWarshall returns all-pairs shortest distances under the given link
// weight function. Unreachable pairs are +Inf; diagonal is 0.
func (t *Topology) FloydWarshall(weight func(Link) float64) [][]float64 {
	n := len(t.nodes)
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = math.Inf(1)
			}
		}
	}
	for i, l := range t.links {
		if t.LinkDown(LinkID(i)) {
			continue
		}
		w := weight(l)
		if w < dist[l.Src][l.Dst] {
			dist[l.Src][l.Dst] = w
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	return dist
}

// AlphaDistances returns all-pairs shortest α-path distances, the edge
// weights the A* technique uses for its progress reward (Appendix D).
func (t *Topology) AlphaDistances() [][]float64 {
	return t.FloydWarshall(func(l Link) float64 { return l.Alpha })
}

// ReachableWithout returns the all-pairs reachability of the topology
// with the given node (and its links) removed: reach[s][d] reports
// whether d can be reached from s avoiding skip. Pairs that lose
// reachability identify traffic that must relay through skip, which
// epoch estimation uses to account for relay serialization (e.g. the
// shared IB switch between NDv2 chassis).
func (t *Topology) ReachableWithout(skip NodeID) [][]bool {
	n := len(t.nodes)
	reach := make([][]bool, n)
	queue := make([]NodeID, 0, n)
	for s := 0; s < n; s++ {
		reach[s] = make([]bool, n)
		if NodeID(s) == skip {
			continue
		}
		reach[s][s] = true
		queue = append(queue[:0], NodeID(s))
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, lid := range t.out[u] {
				v := t.links[lid].Dst
				if v == skip || reach[s][v] {
					continue
				}
				reach[s][v] = true
				queue = append(queue, v)
			}
		}
	}
	return reach
}

// Clone returns an independent deep copy of t: node, link, adjacency,
// and down-state storage are all owned by the copy, so mutation of
// either side (AddNode, AddLink, ApplyDelta) never touches the other.
// Sessions snapshot their topology with Clone so a caller mutating its
// *Topology after NewPlanner cannot corrupt cached derived state.
func (t *Topology) Clone() *Topology {
	out := &Topology{
		Name:  t.Name,
		nodes: append([]Node(nil), t.nodes...),
		links: append([]Link(nil), t.links...),
		out:   make([][]LinkID, len(t.out)),
		in:    make([][]LinkID, len(t.in)),
	}
	for i := range t.out {
		out.out[i] = append([]LinkID(nil), t.out[i]...)
	}
	for i := range t.in {
		out.in[i] = append([]LinkID(nil), t.in[i]...)
	}
	if t.down != nil {
		out.down = append([]bool(nil), t.down...)
	}
	return out
}

// LinkScale is one multiplicative link edit of a Delta: the link's
// capacity is multiplied by Capacity (0 < Capacity; use Delta.LinksDown
// for an outright failure) and its α by Alpha (0 allowed: the latency
// vanishes). A zero-valued multiplier field means "leave unchanged", so
// partial literals like {Link: l, Capacity: 0.5} do what they look like.
type LinkScale struct {
	Link     LinkID
	Capacity float64
	Alpha    float64
}

// Delta describes topology churn: links lost outright, nodes lost (all
// their links go down), links degraded or slowed by scaling, and
// structural growth (new nodes and links appended to the cluster).
// Deltas are applied immutably via ApplyDelta; IDs refer to the
// topology the delta is applied to, except that AddLinks may also name
// the nodes added by the same delta (IDs continue past the current
// node count, in AddNodes order).
type Delta struct {
	// LinksDown lists links that failed.
	LinksDown []LinkID
	// NodesDown lists nodes that failed; every link touching one goes
	// down. The node itself remains (IDs stay stable) but is isolated.
	NodesDown []NodeID
	// Scale lists per-link capacity/α multipliers — bandwidth
	// degradation and straggler slowdown.
	Scale []LinkScale
	// AddNodes appends new nodes; they receive the next NodeIDs in
	// order, so existing IDs stay stable.
	AddNodes []Node
	// AddLinks appends new links (next LinkIDs in order). Endpoints may
	// be existing nodes or nodes added by this delta. A link that
	// duplicates a live existing link, self-loops, or has non-positive
	// capacity or negative α is rejected.
	AddLinks []Link
}

// Empty reports whether the delta edits nothing.
func (d Delta) Empty() bool {
	return len(d.LinksDown) == 0 && len(d.NodesDown) == 0 && len(d.Scale) == 0 &&
		len(d.AddNodes) == 0 && len(d.AddLinks) == 0
}

// Grows reports whether the delta structurally grows the topology.
func (d Delta) Grows() bool {
	return len(d.AddNodes) > 0 || len(d.AddLinks) > 0
}

// ApplyDelta returns a new topology with the delta applied; t itself is
// never mutated. Downed links keep their ID and metadata but leave the
// adjacency lists (Out/In) and every aggregate, so link and node IDs —
// and therefore schedules and further deltas — stay aligned between the
// two topologies. Scaling a down link is allowed and has no effect
// until the link's metadata is read. An invalid delta (unknown IDs,
// negative scale factors) returns an error and no topology.
func (t *Topology) ApplyDelta(d Delta) (*Topology, error) {
	for _, l := range d.LinksDown {
		if int(l) < 0 || int(l) >= len(t.links) {
			return nil, fmt.Errorf("topo: delta downs unknown link %d", l)
		}
	}
	for _, n := range d.NodesDown {
		if int(n) < 0 || int(n) >= len(t.nodes) {
			return nil, fmt.Errorf("topo: delta downs unknown node %d", n)
		}
	}
	for _, s := range d.Scale {
		if int(s.Link) < 0 || int(s.Link) >= len(t.links) {
			return nil, fmt.Errorf("topo: delta scales unknown link %d", s.Link)
		}
		if s.Capacity < 0 || s.Alpha < 0 {
			return nil, fmt.Errorf("topo: delta scales link %d by negative factor", s.Link)
		}
	}
	// Growth validation happens before any mutation: a malformed delta
	// returns an error and leaves t (and any session holding it) intact.
	// A duplicate is found through one map of the links by endpoints, the
	// live ones seeded first in index order (so a pair names its lowest
	// live link), then each added link once it passed; -1 marks an added
	// link.
	grownNodes := len(t.nodes) + len(d.AddNodes)
	type pair struct{ src, dst NodeID }
	var seen map[pair]int
	if len(d.AddLinks) > 0 {
		seen = make(map[pair]int, len(t.links)+len(d.AddLinks))
		for l, lk := range t.links {
			p := pair{lk.Src, lk.Dst}
			if _, ok := seen[p]; !ok && !t.LinkDown(LinkID(l)) {
				seen[p] = l
			}
		}
	}
	for i, lk := range d.AddLinks {
		if int(lk.Src) < 0 || int(lk.Src) >= grownNodes || int(lk.Dst) < 0 || int(lk.Dst) >= grownNodes {
			return nil, fmt.Errorf("topo: delta adds link %d with unknown endpoint (%d→%d)", i, lk.Src, lk.Dst)
		}
		if lk.Src == lk.Dst {
			return nil, fmt.Errorf("topo: delta adds self-loop link %d on node %d", i, lk.Src)
		}
		if lk.Capacity <= 0 {
			return nil, fmt.Errorf("topo: delta adds link %d with non-positive capacity %g", i, lk.Capacity)
		}
		if lk.Alpha < 0 {
			return nil, fmt.Errorf("topo: delta adds link %d with negative alpha %g", i, lk.Alpha)
		}
		p := pair{lk.Src, lk.Dst}
		if l, ok := seen[p]; ok {
			if l < 0 {
				return nil, fmt.Errorf("topo: delta adds duplicate link %d→%d", lk.Src, lk.Dst)
			}
			return nil, fmt.Errorf("topo: delta adds link %d→%d duplicating live link %d", lk.Src, lk.Dst, l)
		}
		seen[p] = -1
	}

	out := t.Clone()
	for _, n := range d.AddNodes {
		out.nodes = append(out.nodes, n)
		out.out = append(out.out, nil)
		out.in = append(out.in, nil)
	}
	if len(d.AddLinks) > 0 {
		out.links = append(out.links, d.AddLinks...)
		if out.down != nil {
			out.down = append(out.down, make([]bool, len(d.AddLinks))...)
		}
	}
	if out.down == nil {
		out.down = make([]bool, len(out.links))
	}
	for _, l := range d.LinksDown {
		out.down[l] = true
	}
	for _, n := range d.NodesDown {
		for l := range out.links {
			if out.links[l].Src == n || out.links[l].Dst == n {
				out.down[l] = true
			}
		}
	}
	for _, s := range d.Scale {
		lk := &out.links[s.Link]
		if s.Capacity != 0 {
			lk.Capacity *= s.Capacity
		}
		if s.Alpha != 0 {
			lk.Alpha *= s.Alpha
		}
		// Factors compound: repeated or huge ones can overflow a link's
		// metadata to +Inf (which no topology serializes) or underflow
		// its capacity to 0, and neither comes back.
		if !(lk.Capacity > 0) || math.IsInf(lk.Capacity, 0) || math.IsNaN(lk.Alpha) || math.IsInf(lk.Alpha, 0) {
			return nil, fmt.Errorf("topo: delta scales link %d to capacity %g, alpha %g", s.Link, lk.Capacity, lk.Alpha)
		}
	}

	// Rebuild adjacency without the downed links, so every
	// adjacency-driven consumer (solvers, greedy bounds, baselines,
	// reachability) ignores them for free.
	for n := range out.out {
		out.out[n] = out.out[n][:0]
		out.in[n] = out.in[n][:0]
	}
	anyDown := false
	for l := range out.links {
		if out.down[l] {
			anyDown = true
			continue
		}
		lk := out.links[l]
		out.out[lk.Src] = append(out.out[lk.Src], LinkID(l))
		out.in[lk.Dst] = append(out.in[lk.Dst], LinkID(l))
	}
	if !anyDown {
		out.down = nil
	}
	return out, nil
}

// topologyJSON is the serialized form.
type topologyJSON struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Links []Link `json:"links"`
	// Down lists the IDs of links taken down by ApplyDelta.
	Down []LinkID `json:"down,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (t *Topology) MarshalJSON() ([]byte, error) {
	var down []LinkID
	for l := range t.links {
		if t.LinkDown(LinkID(l)) {
			down = append(down, LinkID(l))
		}
	}
	return json.Marshal(topologyJSON{Name: t.Name, Nodes: t.nodes, Links: t.links, Down: down})
}

// UnmarshalJSON implements json.Unmarshaler.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var tj topologyJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return err
	}
	*t = Topology{Name: tj.Name}
	for _, n := range tj.Nodes {
		t.AddNode(n.Name, n.Switch)
	}
	for _, l := range tj.Links {
		if int(l.Src) >= len(t.nodes) || int(l.Dst) >= len(t.nodes) || l.Src < 0 || l.Dst < 0 {
			return fmt.Errorf("topo: link %d->%d references missing node", l.Src, l.Dst)
		}
		// What AddLink would panic on, and the negative α ApplyDelta
		// refuses, is an error here: the input is someone else's JSON.
		if l.Src == l.Dst || !(l.Capacity > 0) || l.Alpha < 0 {
			return fmt.Errorf("topo: link %d->%d has capacity %g, alpha %g (want distinct endpoints, capacity > 0, alpha >= 0)",
				l.Src, l.Dst, l.Capacity, l.Alpha)
		}
		t.AddLink(l.Src, l.Dst, l.Capacity, l.Alpha)
	}
	if len(tj.Down) > 0 {
		applied, err := t.ApplyDelta(Delta{LinksDown: tj.Down})
		if err != nil {
			return err
		}
		*t = *applied
	}
	return nil
}

// ZeroAlpha returns a copy of t with every link's α set to zero, keeping
// link IDs aligned so schedules transfer between the two (Figure 2's
// α-blind solve, SCCL's barrier model). Down-link state carries over.
func ZeroAlpha(t *Topology) *Topology {
	out := t.Clone()
	out.Name = t.Name + "-a0"
	for i := range out.links {
		out.links[i].Alpha = 0
	}
	return out
}
