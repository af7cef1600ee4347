package topo

// Fuzz/property coverage for ApplyDelta — including the structural
// growth fields — and for JSON round-trips of grown topologies. The
// central invariants: an invalid delta errors without any observable
// mutation of the receiver, a valid delta grows/downs exactly what it
// says, and serialization preserves grown structure bit-for-bit.

import (
	"bytes"
	"encoding/json"
	"testing"
)

// deltaFromBytes decodes an arbitrary byte string into a Delta against
// t, deliberately spanning both valid and invalid edits: IDs one past
// the end, negative scales, self-loops, zero capacities, duplicate
// links. The fuzzer explores the acceptance boundary; the properties
// checked afterwards hold on both sides of it.
func deltaFromBytes(t *Topology, data []byte) Delta {
	var d Delta
	nL, nN := t.NumLinks(), t.NumNodes()
	added := 0
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i]%6, int(data[i+1]), int(data[i+2])
		switch op {
		case 0:
			d.LinksDown = append(d.LinksDown, LinkID(a%(nL+2)-1))
		case 1:
			d.NodesDown = append(d.NodesDown, NodeID(a%(nN+2)-1))
		case 2:
			// Factors from -0.25 to ~7.7, hitting negative, zero (leave
			// unchanged), and valid ranges.
			d.Scale = append(d.Scale, LinkScale{
				Link:     LinkID(a%(nL+2) - 1),
				Capacity: float64(b)/32.0 - 0.25,
			})
		case 3:
			d.Scale = append(d.Scale, LinkScale{
				Link:  LinkID(a%(nL+2) - 1),
				Alpha: float64(b)/32.0 - 0.25,
			})
		case 4:
			d.AddNodes = append(d.AddNodes, Node{Name: "fz", Switch: a%2 == 1})
			added++
		case 5:
			span := nN + added + 1 // +1 reaches one past the grown end
			d.AddLinks = append(d.AddLinks, Link{
				Src:      NodeID(a % span),
				Dst:      NodeID(b % span),
				Capacity: float64(b%3) * 10e9, // 0 is invalid on purpose
				Alpha:    float64(a%3)*1e-6 - 1e-6,
			})
		}
	}
	return d
}

func FuzzApplyDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0})                   // simple link down
	f.Add([]byte{4, 0, 0, 5, 8, 1})          // grow node + link onto it
	f.Add([]byte{5, 3, 3})                   // self-loop
	f.Add([]byte{2, 200, 0})                 // invalid link id scale
	f.Add([]byte{5, 1, 2, 5, 1, 2})          // duplicate added link
	f.Add([]byte{1, 9, 0, 3, 1, 200})        // node down + huge alpha
	f.Add([]byte{4, 1, 0, 4, 0, 0, 5, 9, 1}) // two nodes + cross link
	f.Fuzz(func(t *testing.T, data []byte) {
		tp := DGX1()
		pristine, err := json.Marshal(tp)
		if err != nil {
			t.Fatal(err)
		}
		d := deltaFromBytes(tp, data)
		out, err := tp.ApplyDelta(d)

		// Invariant 1: the receiver is immutable, success or failure.
		after, merr := json.Marshal(tp)
		if merr != nil {
			t.Fatal(merr)
		}
		if !bytes.Equal(pristine, after) {
			t.Fatalf("ApplyDelta mutated its receiver (delta %+v)", d)
		}
		if err != nil {
			if out != nil {
				t.Fatalf("error %v returned a topology", err)
			}
			return
		}

		// Invariant 2: growth is exactly what the delta declared.
		if out.NumNodes() != tp.NumNodes()+len(d.AddNodes) {
			t.Fatalf("node count %d, want %d", out.NumNodes(), tp.NumNodes()+len(d.AddNodes))
		}
		if out.NumLinks() != tp.NumLinks()+len(d.AddLinks) {
			t.Fatalf("link count %d, want %d", out.NumLinks(), tp.NumLinks()+len(d.AddLinks))
		}
		// Pre-existing node and link identities are stable.
		for n := 0; n < tp.NumNodes(); n++ {
			if out.Node(NodeID(n)).Name != tp.Node(NodeID(n)).Name {
				t.Fatalf("node %d renamed by delta", n)
			}
		}
		// Downed links carry no adjacency; live links appear exactly once.
		seen := make(map[LinkID]int)
		for n := 0; n < out.NumNodes(); n++ {
			for _, l := range out.Out(NodeID(n)) {
				seen[l]++
			}
		}
		for l := 0; l < out.NumLinks(); l++ {
			id := LinkID(l)
			want := 1
			if out.LinkDown(id) {
				want = 0
			}
			if seen[id] != want {
				t.Fatalf("link %d appears %d times in adjacency, want %d (down=%v)",
					l, seen[id], want, out.LinkDown(id))
			}
		}

		// Invariant 3: the grown/churned topology survives a JSON round
		// trip with structure, metadata, and down-state intact.
		blob, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		var back Topology
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumNodes() != out.NumNodes() || back.NumLinks() != out.NumLinks() {
			t.Fatal("round trip changed shape")
		}
		for l := 0; l < out.NumLinks(); l++ {
			id := LinkID(l)
			if back.LinkDown(id) != out.LinkDown(id) {
				t.Fatalf("down state of link %d lost in round trip", l)
			}
			a, b := back.Link(id), out.Link(id)
			if a.Src != b.Src || a.Dst != b.Dst || a.Capacity != b.Capacity || a.Alpha != b.Alpha {
				t.Fatalf("link %d metadata diverged: %+v vs %+v", l, a, b)
			}
		}
	})
}

// TestApplyDeltaGrowthValidation pins each growth rejection rule, and
// that growth composes with the legacy edits in one delta.
func TestApplyDeltaGrowthValidation(t *testing.T) {
	tp := DGX1()
	n := NodeID(tp.NumNodes())
	bad := []struct {
		name string
		d    Delta
	}{
		{"unknown src", Delta{AddLinks: []Link{{Src: n + 5, Dst: 0, Capacity: 1e9}}}},
		{"unknown dst", Delta{AddLinks: []Link{{Src: 0, Dst: -1, Capacity: 1e9}}}},
		{"self-loop", Delta{AddLinks: []Link{{Src: 2, Dst: 2, Capacity: 1e9}}}},
		{"zero capacity", Delta{AddLinks: []Link{{Src: n, Dst: 0}}, AddNodes: []Node{{Name: "x"}}}},
		{"negative alpha", Delta{AddLinks: []Link{{Src: 0, Dst: 1, Capacity: 1e9, Alpha: -1}}}},
		{"duplicate within delta", Delta{
			AddNodes: []Node{{Name: "x"}},
			AddLinks: []Link{{Src: n, Dst: 0, Capacity: 1e9}, {Src: n, Dst: 0, Capacity: 2e9}},
		}},
		{"duplicates live link", Delta{AddLinks: []Link{{
			Src: tp.Link(0).Src, Dst: tp.Link(0).Dst, Capacity: 1e9,
		}}}},
	}
	for _, tc := range bad {
		if _, err := tp.ApplyDelta(tc.d); err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}

	// Replacing a downed link with a fresh one is legal growth: only
	// live duplicates are rejected.
	downed, err := tp.ApplyDelta(Delta{LinksDown: []LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	lk := tp.Link(0)
	replaced, err := downed.ApplyDelta(Delta{AddLinks: []Link{{
		Src: lk.Src, Dst: lk.Dst, Capacity: lk.Capacity, Alpha: lk.Alpha,
	}}})
	if err != nil {
		t.Fatalf("re-provisioning a downed link's route should be legal: %v", err)
	}
	if replaced.NumLinks() != tp.NumLinks()+1 {
		t.Fatal("replacement link not appended")
	}

	// Growth composes with the legacy edits in a single delta, and the
	// added node participates in adjacency immediately.
	grown, err := tp.ApplyDelta(Delta{
		LinksDown: []LinkID{1},
		Scale:     []LinkScale{{Link: 2, Capacity: 0.5}},
		AddNodes:  []Node{{Name: "joiner"}},
		AddLinks: []Link{
			{Src: n, Dst: 0, Capacity: 5e9, Alpha: 1e-6},
			{Src: 0, Dst: n, Capacity: 5e9, Alpha: 1e-6},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(grown.Out(n)) != 1 || len(grown.In(n)) != 1 {
		t.Fatalf("joiner adjacency = out %d in %d, want 1/1", len(grown.Out(n)), len(grown.In(n)))
	}
	if !grown.LinkDown(1) {
		t.Fatal("legacy edit lost when combined with growth")
	}
	if got := grown.Link(2).Capacity; got != tp.Link(2).Capacity*0.5 {
		t.Fatalf("scale lost when combined with growth: %g", got)
	}
}

// TestApplyDeltaDuplicateLinkErrors pins the two duplicate-link errors
// word for word: a pair added twice in one delta, and a pair that a live
// link already joins, named by the lowest such link — a downed link of
// the pair is passed over, and a pair whose only link is down may be
// added again.
func TestApplyDeltaDuplicateLinkErrors(t *testing.T) {
	tp := New("parallel")
	a, b, c := tp.AddNode("a", false), tp.AddNode("b", false), tp.AddNode("c", false)
	tp.AddLink(a, b, 1e9, 0) // link 0
	tp.AddLink(b, c, 1e9, 0) // link 1
	tp.AddLink(a, b, 1e9, 0) // link 2, parallel to link 0
	tp.AddLink(c, a, 1e9, 0) // link 3

	downed, err := tp.ApplyDelta(Delta{LinksDown: []LinkID{0, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		on   *Topology
		add  []Link
		want string
	}{
		{"twice in one delta", tp,
			[]Link{{Src: b, Dst: a, Capacity: 1}, {Src: c, Dst: b, Capacity: 1}, {Src: b, Dst: a, Capacity: 2}},
			"topo: delta adds duplicate link 1→0"},
		{"lowest live link", tp, []Link{{Src: a, Dst: b, Capacity: 1}},
			"topo: delta adds link 0→1 duplicating live link 0"},
		{"downed parallel passed over", downed, []Link{{Src: b, Dst: a, Capacity: 1}, {Src: a, Dst: b, Capacity: 1}},
			"topo: delta adds link 0→1 duplicating live link 2"},
		{"validity before duplicates", tp, []Link{{Src: b, Dst: a, Capacity: 1}, {Src: b, Dst: a, Capacity: 0}},
			"topo: delta adds link 1 with non-positive capacity 0"},
	} {
		if _, err := tc.on.ApplyDelta(Delta{AddLinks: tc.add}); err == nil || err.Error() != tc.want {
			t.Fatalf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}

	// Link 3 (c→a) is down and has no live twin: re-adding it is growth,
	// and so is a link twice over a pair whose only link is down — once.
	grown, err := downed.ApplyDelta(Delta{AddLinks: []Link{{Src: c, Dst: a, Capacity: 2e9}}})
	if err != nil {
		t.Fatalf("re-adding downed link 3: %v", err)
	}
	if l := grown.Link(LinkID(grown.NumLinks() - 1)); l.Src != c || l.Dst != a || grown.LinkDown(LinkID(grown.NumLinks()-1)) {
		t.Fatalf("re-added link is %+v (down %v)", l, grown.LinkDown(LinkID(grown.NumLinks()-1)))
	}
	if _, err := grown.ApplyDelta(Delta{AddLinks: []Link{{Src: c, Dst: a, Capacity: 1}}}); err == nil ||
		err.Error() != "topo: delta adds link 2→0 duplicating live link 4" {
		t.Fatalf("adding over the re-added link: error %v", err)
	}
}

// BenchmarkApplyDeltaAddLinks applies one delta that adds 10⁴ distinct
// links among 128 new nodes of a DGX1 — a replan body well under the
// daemon's size cap — so the duplicate checks' cost is visible.
func BenchmarkApplyDeltaAddLinks(b *testing.B) {
	tp := DGX1()
	n0 := NodeID(tp.NumNodes())
	const nodes, links = 128, 10_000
	d := Delta{AddNodes: make([]Node, nodes)}
	for i := NodeID(0); i < nodes && len(d.AddLinks) < links; i++ {
		for j := NodeID(0); j < nodes && len(d.AddLinks) < links; j++ {
			if i != j {
				d.AddLinks = append(d.AddLinks, Link{Src: n0 + i, Dst: n0 + j, Capacity: 1e9})
			}
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tp.ApplyDelta(d); err != nil {
			b.Fatal(err)
		}
	}
}
