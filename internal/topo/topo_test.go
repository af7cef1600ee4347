package topo

import (
	"encoding/json"
	"math"
	"testing"
)

func TestAddNodesAndLinks(t *testing.T) {
	tp := New("t")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	l := tp.AddLink(a, b, 100, 1e-6)
	if tp.NumNodes() != 2 || tp.NumLinks() != 1 {
		t.Fatalf("counts: %d nodes %d links", tp.NumNodes(), tp.NumLinks())
	}
	lk := tp.Link(l)
	if lk.Src != a || lk.Dst != b || lk.Capacity != 100 || lk.Alpha != 1e-6 {
		t.Fatalf("link = %+v", lk)
	}
	if len(tp.Out(a)) != 1 || len(tp.In(b)) != 1 || len(tp.Out(b)) != 0 {
		t.Fatal("adjacency wrong")
	}
}

func TestAddDuplex(t *testing.T) {
	tp := New("t")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	tp.AddDuplex(a, b, 10, 0)
	if tp.NumLinks() != 2 {
		t.Fatalf("links = %d, want 2", tp.NumLinks())
	}
	if tp.FindLink(a, b) < 0 || tp.FindLink(b, a) < 0 {
		t.Fatal("duplex links missing")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New("t")
	a := tp.AddNode("a", false)
	tp.AddLink(a, a, 1, 0)
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tp := New("t")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	tp.AddLink(a, b, 0, 0)
}

func TestGPUsAndSwitches(t *testing.T) {
	tp := Star(4, 10*GB, 1e-6)
	if got := len(tp.GPUs()); got != 4 {
		t.Fatalf("GPUs = %d, want 4", got)
	}
	if got := len(tp.Switches()); got != 1 {
		t.Fatalf("Switches = %d, want 1", got)
	}
	if !tp.IsSwitch(tp.Switches()[0]) {
		t.Fatal("switch not marked")
	}
}

func TestFloydWarshall(t *testing.T) {
	tp := Line(4, 10, 2e-6)
	d := tp.AlphaDistances()
	g := tp.GPUs()
	if got := d[g[0]][g[3]]; math.Abs(got-6e-6) > 1e-12 {
		t.Fatalf("alpha dist 0->3 = %g, want 6e-6", got)
	}
	if d[g[1]][g[1]] != 0 {
		t.Fatal("diagonal not zero")
	}
}

func TestFloydWarshallUnreachable(t *testing.T) {
	tp := New("t")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	tp.AddLink(a, b, 1, 0) // one direction only
	d := tp.FloydWarshall(func(l Link) float64 { return 1 })
	if !math.IsInf(d[b][a], 1) {
		t.Fatal("b->a should be unreachable")
	}
	if d[a][b] != 1 {
		t.Fatalf("a->b = %g, want 1", d[a][b])
	}
}

func TestValidate(t *testing.T) {
	for _, tp := range []*Topology{
		DGX1(), NDv2(1), NDv2(2), DGX2(1), DGX2(2),
		Internal1(2), Internal2(2), Ring(5, 10, 0), FullMesh(3, 10, 0),
		Star(4, 10, 0), Line(3, 10, 0), Internal1NoAlpha(2),
	} {
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", tp.Name, err)
		}
	}
}

func TestValidateDisconnected(t *testing.T) {
	tp := New("t")
	tp.AddNode("a", false)
	tp.AddNode("b", false)
	if err := tp.Validate(); err == nil {
		t.Fatal("expected error for disconnected GPUs")
	}
}

func TestValidateEmpty(t *testing.T) {
	if err := New("t").Validate(); err == nil {
		t.Fatal("expected error for empty topology")
	}
}

func TestDGX1Shape(t *testing.T) {
	tp := DGX1()
	if tp.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8", tp.NumNodes())
	}
	// Table 2: 32 directed edges per chassis.
	if tp.NumLinks() != 32 {
		t.Fatalf("links = %d, want 32", tp.NumLinks())
	}
	if len(tp.Switches()) != 0 {
		t.Fatal("DGX1 has no switches")
	}
}

func TestNDv2Shape(t *testing.T) {
	tp := NDv2(2)
	// 2 chassis x 8 GPUs + 1 switch.
	if got := len(tp.GPUs()); got != 16 {
		t.Fatalf("GPUs = %d, want 16", got)
	}
	if got := len(tp.Switches()); got != 1 {
		t.Fatalf("switches = %d, want 1", got)
	}
	// 2x32 NVLink edges + 2 chassis x 2 GPUs x 2 directions to switch.
	if got := tp.NumLinks(); got != 64+8 {
		t.Fatalf("links = %d, want 72", got)
	}
	// Single chassis NDv2 has no switch.
	if got := len(NDv2(1).Switches()); got != 0 {
		t.Fatalf("1-chassis NDv2 switches = %d, want 0", got)
	}
}

func TestDGX2Shape(t *testing.T) {
	tp := DGX2(2)
	// Table 2: 17 nodes per chassis.
	if tp.NumNodes() != 34 {
		t.Fatalf("nodes = %d, want 34", tp.NumNodes())
	}
	// 32 intra edges per chassis + 8 cross links per ordered pair.
	if got := tp.NumLinks(); got != 64+16 {
		t.Fatalf("links = %d, want 80", got)
	}
}

func TestInternalShapes(t *testing.T) {
	t1 := Internal1(2)
	// Table 2: 4 GPUs, 8 GPU-GPU edges per chassis.
	if got := len(t1.GPUs()); got != 8 {
		t.Fatalf("internal1 GPUs = %d, want 8", got)
	}
	t2 := Internal2(3)
	if got := len(t2.GPUs()); got != 6 {
		t.Fatalf("internal2 GPUs = %d, want 6", got)
	}
	// 2 GPU-GPU directed edges per chassis.
	var gg int
	for i := 0; i < t2.NumLinks(); i++ {
		l := t2.Link(LinkID(i))
		if !t2.IsSwitch(l.Src) && !t2.IsSwitch(l.Dst) {
			gg++
		}
	}
	if gg != 6 {
		t.Fatalf("internal2 GPU-GPU edges = %d, want 6", gg)
	}
}

func TestInternal1NoAlpha(t *testing.T) {
	tp := Internal1NoAlpha(2)
	if tp.MaxAlpha() != 0 {
		t.Fatalf("max alpha = %g, want 0", tp.MaxAlpha())
	}
}

func TestCapacityStats(t *testing.T) {
	tp := NDv2(2)
	if tp.MinCapacity() != 12.5*GB {
		t.Fatalf("min capacity = %g", tp.MinCapacity())
	}
	if tp.MaxCapacity() != 50*GB {
		t.Fatalf("max capacity = %g", tp.MaxCapacity())
	}
	empty := New("e")
	if empty.MinCapacity() != 0 || empty.MaxCapacity() != 0 {
		t.Fatal("empty capacity stats should be 0")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tp := NDv2(2)
	data, err := json.Marshal(tp)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.NumNodes() != tp.NumNodes() || back.NumLinks() != tp.NumLinks() {
		t.Fatal("round trip changed shape")
	}
	for i := 0; i < tp.NumLinks(); i++ {
		if back.Link(LinkID(i)) != tp.Link(LinkID(i)) {
			t.Fatalf("link %d changed", i)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("validate after round trip: %v", err)
	}
}

func TestJSONBadLink(t *testing.T) {
	var tp Topology
	err := json.Unmarshal([]byte(`{"name":"x","nodes":[{"name":"a"}],"links":[{"src":0,"dst":5,"capacity":1}]}`), &tp)
	if err == nil {
		t.Fatal("expected error for out-of-range link")
	}
	// Links AddLink panics on, or ApplyDelta refuses, are errors too.
	for _, link := range []string{
		`{"src":0,"dst":0,"capacity":1}`,
		`{"src":0,"dst":1,"capacity":0}`,
		`{"src":0,"dst":1,"capacity":-1}`,
		`{"src":0,"dst":1,"capacity":1,"alpha":-1e-6}`,
	} {
		js := `{"name":"x","nodes":[{"name":"a"},{"name":"b"}],"links":[` + link + `]}`
		if err := json.Unmarshal([]byte(js), &tp); err == nil {
			t.Errorf("link %s accepted", link)
		}
	}
}

func TestRingStructure(t *testing.T) {
	tp := Ring(6, 10, 0)
	for _, g := range tp.GPUs() {
		if len(tp.Out(g)) != 2 || len(tp.In(g)) != 2 {
			t.Fatalf("gpu %d degree wrong", g)
		}
	}
}

func TestFullMeshStructure(t *testing.T) {
	tp := FullMesh(4, 10, 0)
	if tp.NumLinks() != 12 {
		t.Fatalf("links = %d, want 12", tp.NumLinks())
	}
}

func TestCloneIndependent(t *testing.T) {
	tp := DGX1()
	cp := tp.Clone()
	if cp.NumNodes() != tp.NumNodes() || cp.NumLinks() != tp.NumLinks() {
		t.Fatal("clone changed shape")
	}
	// Mutating the original must not leak into the clone, and vice versa.
	n := tp.AddNode("extra", false)
	tp.AddLink(n, 0, 1, 0)
	if cp.NumNodes() == tp.NumNodes() || cp.NumLinks() == tp.NumLinks() {
		t.Fatal("clone shares node/link storage with original")
	}
	m := cp.AddNode("other", true)
	cp.AddLink(0, m, 1, 0)
	outBefore := len(tp.Out(0))
	cp.AddLink(0, 1, 1, 0)
	if len(tp.Out(0)) != outBefore {
		t.Fatal("clone shares adjacency storage with original")
	}
}

func TestApplyDeltaImmutable(t *testing.T) {
	tp := DGX1()
	before, _ := json.Marshal(tp)
	down := tp.Out(0)[0]
	edited, err := tp.ApplyDelta(Delta{
		LinksDown: []LinkID{down},
		Scale:     []LinkScale{{Link: tp.Out(1)[0], Capacity: 0.5}},
	})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	after, _ := json.Marshal(tp)
	if string(before) != string(after) {
		t.Fatal("ApplyDelta mutated the receiver")
	}
	if !edited.LinkDown(down) || tp.LinkDown(down) {
		t.Fatal("down state on wrong topology")
	}
	if edited.NumLinks() != tp.NumLinks() || edited.NumNodes() != tp.NumNodes() {
		t.Fatal("ApplyDelta changed ID space")
	}
}

func TestApplyDeltaAdjacencyAndAggregates(t *testing.T) {
	tp := DGX1()
	down := tp.Out(0)[0]
	src, dst := tp.Link(down).Src, tp.Link(down).Dst
	edited, err := tp.ApplyDelta(Delta{LinksDown: []LinkID{down}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	for _, l := range edited.Out(src) {
		if l == down {
			t.Fatal("down link still in Out")
		}
	}
	for _, l := range edited.In(dst) {
		if l == down {
			t.Fatal("down link still in In")
		}
	}
	if edited.FindLink(src, dst) == down {
		t.Fatal("FindLink returned a down link")
	}
	// Metadata survives for ID alignment.
	if edited.Link(down) != tp.Link(down) {
		t.Fatal("down link metadata changed")
	}

	// Degrade one link below the global minimum: capacity extrema must
	// follow the live links' edited values.
	factor := 0.5 * tp.MinCapacity() / tp.Link(down).Capacity
	half, err := tp.ApplyDelta(Delta{Scale: []LinkScale{{Link: down, Capacity: factor}}})
	if err != nil {
		t.Fatalf("scale delta: %v", err)
	}
	if half.Link(down).Capacity != tp.Link(down).Capacity*factor {
		t.Fatal("capacity scale not applied")
	}
	if half.MinCapacity() != tp.MinCapacity()*0.5 {
		t.Fatal("MinCapacity ignored degraded link")
	}
	// Aggregates skip down links entirely.
	if edited.MinCapacity() != tp.MinCapacity() {
		// DGX1 is uniform-capacity NVLink, so dropping one link must
		// leave the extrema unchanged.
		t.Fatal("MinCapacity counted a down link")
	}
}

func TestApplyDeltaNodeDown(t *testing.T) {
	tp := NDv2(2)
	var sw NodeID = -1
	for _, s := range tp.Switches() {
		sw = s
	}
	if sw < 0 {
		t.Fatal("NDv2(2) should have a switch")
	}
	edited, err := tp.ApplyDelta(Delta{NodesDown: []NodeID{sw}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if len(edited.Out(sw)) != 0 || len(edited.In(sw)) != 0 {
		t.Fatal("downed node still has live links")
	}
	for l := 0; l < tp.NumLinks(); l++ {
		lk := tp.Link(LinkID(l))
		wantDown := lk.Src == sw || lk.Dst == sw
		if edited.LinkDown(LinkID(l)) != wantDown {
			t.Fatalf("link %d down=%v, want %v", l, edited.LinkDown(LinkID(l)), wantDown)
		}
	}
	// Cross-chassis reachability is gone: Validate must now fail.
	if err := edited.Validate(); err == nil {
		t.Fatal("expected Validate to fail with the IB switch down")
	}
	if err := edited.ValidateLive(); err == nil {
		t.Fatal("expected ValidateLive to fail: the chassis' GPUs are live but cut apart")
	}
}

// TestValidateLiveSkipsLostGPUs: a GPU taken down is lost, not cut off,
// so ValidateLive accepts the churned topology Validate refuses — and
// still refuses one whose live GPUs cannot all reach each other.
func TestValidateLiveSkipsLostGPUs(t *testing.T) {
	tp := DGX1()
	lost, err := tp.ApplyDelta(Delta{NodesDown: []NodeID{3}})
	if err != nil {
		t.Fatal(err)
	}
	if lost.Validate() == nil || lost.ValidateLive() != nil {
		t.Fatalf("GPU 3 down: Validate %v, ValidateLive %v; want only Validate to refuse", lost.Validate(), lost.ValidateLive())
	}
	// Every link into GPU 0 down, its outgoing ones live: GPU 0 is live
	// and nothing reaches it.
	cut, err := lost.ApplyDelta(Delta{LinksDown: append([]LinkID(nil), lost.In(0)...)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Out(0)) == 0 || cut.ValidateLive() == nil {
		t.Fatal("ValidateLive accepted a live GPU nothing can reach")
	}
}

func TestApplyDeltaInvalid(t *testing.T) {
	tp := DGX1()
	cases := []Delta{
		{LinksDown: []LinkID{LinkID(tp.NumLinks())}},
		{LinksDown: []LinkID{-1}},
		{NodesDown: []NodeID{NodeID(tp.NumNodes())}},
		{Scale: []LinkScale{{Link: -1, Capacity: 0.5}}},
		{Scale: []LinkScale{{Link: 0, Capacity: -1}}},
		{Scale: []LinkScale{{Link: 0, Alpha: -0.5}}},
	}
	for i, d := range cases {
		if _, err := tp.ApplyDelta(d); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if !(Delta{}).Empty() {
		t.Fatal("zero Delta should be Empty")
	}
	if (Delta{LinksDown: []LinkID{0}}).Empty() {
		t.Fatal("non-zero Delta should not be Empty")
	}
}

func TestApplyDeltaSequencedAndJSON(t *testing.T) {
	tp := DGX1()
	first, err := tp.ApplyDelta(Delta{LinksDown: []LinkID{0}})
	if err != nil {
		t.Fatalf("first delta: %v", err)
	}
	second, err := first.ApplyDelta(Delta{LinksDown: []LinkID{1}})
	if err != nil {
		t.Fatalf("second delta: %v", err)
	}
	if !second.LinkDown(0) || !second.LinkDown(1) {
		t.Fatal("deltas must accumulate")
	}
	if first.LinkDown(1) {
		t.Fatal("second delta mutated first topology")
	}

	data, err := json.Marshal(second)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Topology
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	for l := 0; l < second.NumLinks(); l++ {
		if back.LinkDown(LinkID(l)) != second.LinkDown(LinkID(l)) {
			t.Fatalf("down state lost in round trip at link %d", l)
		}
	}
	if len(back.Out(second.Link(0).Src)) != len(second.Out(second.Link(0).Src)) {
		t.Fatal("adjacency diverged after round trip")
	}
}

func TestZeroAlphaKeepsDownState(t *testing.T) {
	tp := NDv2(2)
	edited, err := tp.ApplyDelta(Delta{LinksDown: []LinkID{3}})
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	za := ZeroAlpha(edited)
	if !za.LinkDown(3) {
		t.Fatal("ZeroAlpha dropped down state")
	}
	for l := 0; l < za.NumLinks(); l++ {
		if za.Link(LinkID(l)).Alpha != 0 {
			t.Fatalf("link %d alpha not zeroed", l)
		}
	}
	for _, lnk := range za.Out(za.Link(3).Src) {
		if lnk == 3 {
			t.Fatal("ZeroAlpha resurrected a down link into adjacency")
		}
	}
}
