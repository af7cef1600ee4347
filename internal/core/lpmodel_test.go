package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// problemShape is an LP problem up to the order its columns and rows
// were created in: the sorted (name, bounds, objective) of every
// variable and the sorted right-hand sides.
func problemShape(p *lp.Problem) (vars []string, rhs []float64) {
	for v := 0; v < p.NumVars(); v++ {
		lo, hi := p.Bounds(lp.VarID(v))
		vars = append(vars, fmt.Sprintf("%s [%v,%v] obj=%v", p.Name(lp.VarID(v)), lo, hi, p.Obj(lp.VarID(v))))
	}
	sort.Strings(vars)
	for r := 0; r < p.NumRows(); r++ {
		rhs = append(rhs, p.RHS(r))
	}
	sort.Float64s(rhs)
	return vars, rhs
}

// TestAppendMatchesColdUnion is the demand-append path's oracle: pricing
// new demand into an incumbent model (appendDemand) must state the same
// LP as a cold build of the union demand at the incumbent discretization
// — the same variables with the same bounds and rewards, and the same
// right-hand sides — only in a different creation order.
func TestAppendMatchesColdUnion(t *testing.T) {
	for _, tt := range []*topo.Topology{topo.DGX1(), topo.NDv2Mini(2), topo.Internal2(4)} {
		t.Run(tt.Name, func(t *testing.T) {
			g := testGPUs(tt)
			// A horizon every appended pair's arrival window fits in.
			K := NewWindowInstance(tt, collective.AllToAll(tt.NumNodes(), g, 1, 25e3), Options{}).Epochs()
			// Three chunks per source, so no appended pair shares a chunk
			// with another destination (that would be multicast, which the
			// append refuses).
			d := collective.New(tt.NumNodes(), 3, 25e3)
			d.Set(g[0], 0, g[1])
			d.Set(g[1], 0, g[2])
			pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Epochs: K}})
			if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
				t.Fatal(err)
			}
			steps := []struct {
				name  string
				pairs [][3]int // src, chunk, dst
			}{
				{"count bump", [][3]int{{g[0], 1, g[1]}}},
				{"new pair on an existing source", [][3]int{{g[0], 2, g[2]}}},
				{"two pairs from a new source", [][3]int{{g[3], 0, g[1]}, {g[3], 1, g[2]}}},
			}
			for _, stp := range steps {
				add := collective.New(tt.NumNodes(), 3, 25e3)
				for _, pr := range stp.pairs {
					add.Set(pr[0], pr[1], pr[2])
				}
				rp, err := pl.Replan(context.Background(), Delta{AddDemand: add})
				if err != nil {
					t.Fatalf("%s: %v", stp.name, err)
				}
				if rp.ReplanFallback {
					t.Fatalf("%s: cold fallback, want an incremental append", stp.name)
				}
				got := pl.incumbent.model.p
				want := must(prepLP(tt, rp.Schedule.Demand, Options{Epochs: rp.Epochs, Tau: rp.Tau})).m.p
				if got.NumVars() != want.NumVars() || got.NumRows() != want.NumRows() {
					t.Fatalf("%s: appended model is %d vars x %d rows, cold union %d x %d",
						stp.name, got.NumVars(), got.NumRows(), want.NumVars(), want.NumRows())
				}
				gv, gr := problemShape(got)
				wv, wr := problemShape(want)
				for i := range wv {
					if gv[i] != wv[i] {
						t.Fatalf("%s: variable %d: appended %q, cold union %q", stp.name, i, gv[i], wv[i])
					}
				}
				for i := range wr {
					if gr[i] != wr[i] {
						t.Fatalf("%s: sorted RHS %d: appended %v, cold union %v", stp.name, i, gr[i], wr[i])
					}
				}
			}
		})
	}
}

// checkRowIndexes verifies the row indexes emit recorded for a model
// over epochs [lo, hi): each recorded row carries the right-hand side
// the formulation gives it, no row is recorded twice, and an entry is
// noVar exactly where emit had nothing to state.
func checkRowIndexes(t *testing.T, m *lpModel, lo, hi int, final bool) {
	t.Helper()
	in, p := m.in, m.p
	tp := in.topo
	seen := map[int32]string{}
	row := func(r int32, what string, want float64) {
		t.Helper()
		if r < 0 || int(r) >= p.NumRows() {
			t.Fatalf("%s: row index %d out of range (%d rows)", what, r, p.NumRows())
		}
		if prev, dup := seen[r]; dup {
			t.Fatalf("%s and %s share row %d", what, prev, r)
		}
		seen[r] = what
		if got := p.RHS(int(r)); got != want {
			t.Errorf("%s: RHS %v, want %v", what, got, want)
		}
	}
	fAt := func(si, l, k int) bool {
		return k >= 0 && k < in.K && m.fvar[si][l][k] != noVar
	}

	for l := range m.capRow {
		for k, r := range m.capRow[l] {
			populated := false
			for kk := max(k-in.kappa[l]+1, 0); kk <= k; kk++ {
				for si := range m.sources {
					populated = populated || fAt(si, l, kk)
				}
			}
			switch {
			case r != noVar:
				row(r, fmt.Sprintf("capRow[%d][%d]", l, k), in.capBudget(l, k))
			case populated && k >= lo && k < hi:
				t.Errorf("capRow[%d][%d] missing though the window has flow columns", l, k)
			}
		}
	}
	for si, s := range m.sources {
		supply := 0.0
		for dst, cnt := range m.dem[si] {
			supply += cnt
			what := fmt.Sprintf("destRow[%d][%d]", si, dst)
			reads := false
			for _, v := range m.rvar[si][dst] {
				reads = reads || v != noVar
			}
			switch r := m.destRow[si][dst]; {
			case r != noVar:
				row(r, what, cnt)
			case cnt > 0 && (final || reads):
				t.Errorf("%s missing for a demanded pair", what)
			}
		}
		if m.initRow[si] == noVar {
			t.Fatalf("initRow[%d] missing", si)
		}
		row(m.initRow[si], fmt.Sprintf("initRow[%d]", si), supply)
		for n := range m.consRow[si] {
			for k, r := range m.consRow[si][n] {
				what := fmt.Sprintf("consRow[%d][%d][%d]", si, n, k)
				terms := m.bvar[si][n][k] != noVar || m.bvar[si][n][k+1] != noVar || m.rvar[si][n][k] != noVar
				for _, lid := range tp.In(topo.NodeID(n)) {
					l := int(lid)
					terms = terms || fAt(si, l, k-in.delta[l]-in.kappa[l]+1)
				}
				for _, lid := range tp.Out(topo.NodeID(n)) {
					terms = terms || (k+1 < hi && fAt(si, int(lid), k+1))
				}
				stated := m.buffered(in, si, n) && k >= lo && k < hi && terms
				switch {
				case r != noVar && !stated:
					t.Errorf("%s recorded for a (node, epoch) emit skips", what)
				case r != noVar:
					row(r, what, 0)
				case stated:
					t.Errorf("%s missing (source %d)", what, s)
				}
			}
		}
	}
}

// TestLPModelRowIndexes pins the row indexes the replan layer edits
// models through, for the three ways a model comes to be: the full-span
// build, a mid-stream window, and a demand append onto an incumbent.
func TestLPModelRowIndexes(t *testing.T) {
	tt := topo.NDv2Mini(2) // switches, and κ > 1 on the slow links
	g := testGPUs(tt)
	d := collective.AllToAll(tt.NumNodes(), g, 1, 25e3)

	t.Run("full-span", func(t *testing.T) {
		pr := must(prepLP(tt, d, Options{}))
		checkRowIndexes(t, pr.m, 0, pr.in.K, true)
	})

	t.Run("mid-stream window", func(t *testing.T) {
		// A window opened after an idle prefix: nothing committed, so the
		// boundary still holds the full supply and demand.
		wi := NewWindowInstance(tt, d, Options{})
		lo, hi := 2, wi.Epochs()-1
		w, err := wi.BuildWindow(lo, hi, false, wi.InitialBoundary())
		if err != nil {
			t.Fatal(err)
		}
		checkRowIndexes(t, w.m, lo, hi, false)
	})

	t.Run("appended", func(t *testing.T) {
		K := NewWindowInstance(tt, d, Options{}).Epochs()
		base := collective.New(tt.NumNodes(), 2, 25e3)
		base.Set(g[0], 0, g[1])
		pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Epochs: K}})
		if _, err := pl.Plan(context.Background(), Request{Demand: base, Solver: SolverLP}); err != nil {
			t.Fatal(err)
		}
		add := collective.New(tt.NumNodes(), 2, 25e3)
		add.Set(g[0], 1, g[2]) // new pair on the existing source
		add.Set(g[3], 0, g[1]) // new source
		rp, err := pl.Replan(context.Background(), Delta{AddDemand: add})
		if err != nil {
			t.Fatal(err)
		}
		if rp.ReplanFallback {
			t.Fatal("cold fallback, want an incremental append")
		}
		checkRowIndexes(t, pl.incumbent.model, 0, K, true)
	})
}

// TestDownedLinkEqualsNeverAdded is ROADMAP 3f's link relation at the
// emit level: a link added through ApplyDelta and then taken down must
// leave the LP model exactly what the topology that never had it builds —
// no column on the down link, and no τ, δ/κ, horizon or bound that still
// sees it. The added duplex is made much faster and much slower than the
// fabric, so an estimate that read a down link under either epoch mode
// would move τ and the capacity right-hand sides with it. The relation
// holds for every model emit states: the monolithic LP (prepLP), the
// first and the final rolling-horizon window opened from the initial
// boundary, and a model grown by appendDemand.
func TestDownedLinkEqualsNeverAdded(t *testing.T) {
	const capacity, alpha = 25e9, 0.6e-6
	type fabric struct {
		t    *topo.Topology
		a, b topo.NodeID // the added duplex's endpoints, not yet linked
	}
	var fabrics []fabric
	for n := 3; n <= 5; n++ {
		if n >= 4 {
			fabrics = append(fabrics, fabric{topo.Ring(n, capacity, alpha), 0, 2})
		}
		fabrics = append(fabrics, fabric{topo.Line(n, capacity, alpha), 0, topo.NodeID(n - 1)})
		fabrics = append(fabrics, fabric{topo.Star(n-1, capacity, alpha), 1, 2}) // two GPUs
	}
	for _, fb := range fabrics {
		g := testGPUs(fb.t)
		demands := map[string]*collective.Demand{
			"alltoall":  collective.AllToAll(fb.t.NumNodes(), g, 1, 25e3),
			"allgather": collective.AllGather(fb.t.NumNodes(), g, 1, 25e3),
		}
		for _, added := range []struct {
			name       string
			cap, alpha float64
		}{{"fast", 4 * capacity, 0}, {"slow", capacity / 4, 10 * alpha}} {
			nL := topo.LinkID(fb.t.NumLinks())
			grown, err := fb.t.ApplyDelta(topo.Delta{AddLinks: []topo.Link{
				{Src: fb.a, Dst: fb.b, Capacity: added.cap, Alpha: added.alpha},
				{Src: fb.b, Dst: fb.a, Capacity: added.cap, Alpha: added.alpha},
			}})
			if err != nil {
				t.Fatal(err)
			}
			downed, err := grown.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{nL, nL + 1}})
			if err != nil {
				t.Fatal(err)
			}
			for dname, d := range demands {
				for _, mode := range []EpochMode{FastestLink, SlowestLink} {
					name := fmt.Sprintf("%s/%s-link/%s/mode%d", fb.t.Name, added.name, dname, mode)
					opt := Options{EpochMode: mode}
					never, churned := must(prepLP(fb.t, d, opt)), must(prepLP(downed, d, opt))
					if !churned.m.p.EqualTo(never.m.p) {
						t.Errorf("%s: the model with the added link down differs from the one that never had it (%d×%d vs %d×%d, τ %g vs %g, K %d vs %d)",
							name, churned.m.p.NumRows(), churned.m.p.NumVars(), never.m.p.NumRows(), never.m.p.NumVars(),
							churned.in.tau, never.in.tau, churned.in.K, never.in.K)
					}
					// A live slow link lands nothing inside a fastest-link
					// horizon; every other live variant must move the model.
					bites := added.name == "fast" || mode == SlowestLink
					if live := must(prepLP(grown, d, opt)); bites && live.m.p.EqualTo(never.m.p) {
						t.Errorf("%s: the live added link changes nothing; the relation measures nothing", name)
					}
					checkWindowsEqual(t, name, fb.t, downed, d, opt)
					// The append path refuses a multicast incumbent before
					// it reads the topology, so only the unicast demand
					// gets that far.
					if dname == "alltoall" {
						checkAppendEqual(t, name, fb.t, downed, d, g[0], opt)
					}
				}
			}
		}
	}
}

// checkWindowsEqual requires the first and the final rolling-horizon
// window of (downed, d), each opened from the initial boundary, to state
// the windows (never, d) states.
func checkWindowsEqual(t *testing.T, name string, never, downed *topo.Topology, d *collective.Demand, opt Options) {
	t.Helper()
	wn, wd := NewWindowInstance(never, d, opt), NewWindowInstance(downed, d, opt)
	K := wn.Epochs()
	if wd.Epochs() != K {
		t.Errorf("%s: window horizon %d, never-linked %d", name, wd.Epochs(), K)
		return
	}
	span := max(1, K/2)
	for _, w := range []struct {
		lo, hi int
		final  bool
	}{{0, span, false}, {K - span, K, true}} {
		a, err := wn.BuildWindow(w.lo, w.hi, w.final, wn.InitialBoundary())
		if err != nil {
			t.Fatal(err)
		}
		b, err := wd.BuildWindow(w.lo, w.hi, w.final, wd.InitialBoundary())
		if err != nil {
			t.Fatal(err)
		}
		if !b.P.EqualTo(a.P) {
			t.Errorf("%s: window [%d,%d) final=%v with the added link down differs from the never-linked one (%d×%d vs %d×%d)",
				name, w.lo, w.hi, w.final, b.P.NumRows(), b.P.NumVars(), a.P.NumRows(), a.P.NumVars())
		}
	}
}

// checkAppendEqual appends src's demand of d through appendDemand onto
// the model of d without src's demand, on never and on downed at the
// horizon d itself needs, and requires the two grown models to be equal.
func checkAppendEqual(t *testing.T, name string, never, downed *topo.Topology, d *collective.Demand, src int, opt Options) {
	t.Helper()
	opt.Epochs = must(prepLP(never, d, opt)).in.K
	grow := func(tp *topo.Topology) *lp.Problem {
		base, add := d.Clone(), collective.New(d.NumNodes(), d.NumChunks(), d.ChunkBytes)
		for dst := 0; dst < d.NumNodes(); dst++ {
			for _, c := range d.DestWantsFromSource(src, dst) {
				add.Set(src, c, dst)
			}
			base.DropPair(src, dst)
		}
		m := must(prepLP(tp, base, opt)).m
		if err := m.appendDemand(add, false); err != nil {
			t.Fatalf("%s: appending source %d on %s: %v", name, src, tp.Name, err)
		}
		return m.p
	}
	if a, b := grow(never), grow(downed); !b.EqualTo(a) {
		t.Errorf("%s: source %d appended with the added link down differs from the never-linked append (%d×%d vs %d×%d)",
			name, src, b.NumRows(), b.NumVars(), a.NumRows(), a.NumVars())
	}
}
