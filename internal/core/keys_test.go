package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/topo"
)

// keys_test.go is the oracle of the column-key channel: model columns
// used to carry formatted names and bases were carried between models by
// matching those strings; they now carry packed lp.VarKeys and bases are
// matched by key. refTransfer is the by-name transfer kept as a test-only
// reference, checkColumns ties every column's key to the name it used to
// have, and the tests require the two channels to agree on every kind of
// model pair a basis is carried across.

// refTransfer is the by-name projection TransferBasis used to be: index
// the source basis by Name, read each destination column's status back
// by Name, nil when nothing basic carried over.
func refTransfer(src *lp.Problem, basis *lp.Basis, dst *lp.Problem) *lp.Basis {
	byName := map[string]lp.BasisStatus{}
	for j, st := range basis.Vars {
		if name := src.Name(lp.VarID(j)); name != "" {
			byName[name] = st
		}
	}
	b := &lp.Basis{
		Vars: make([]lp.BasisStatus, dst.NumVars()),
		Rows: make([]lp.BasisStatus, dst.NumRows()),
	}
	matched := 0
	for j := range b.Vars {
		if st, ok := byName[dst.Name(lp.VarID(j))]; ok {
			b.Vars[j] = st
			if st == lp.BasisBasic {
				matched++
			}
		}
	}
	if matched == 0 {
		return nil
	}
	return b
}

// checkTransfer requires the by-key transfer of basis from src onto dst
// to be the by-name one, and to carry something.
func checkTransfer(t *testing.T, what string, src *lp.Problem, basis *lp.Basis, dst *lp.Problem) {
	t.Helper()
	want := refTransfer(src, basis, dst)
	if want == nil {
		t.Fatalf("%s: the by-name reference carries nothing over; the case tests nothing", what)
	}
	if got := TransferBasis(src, basis, dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: by-key transfer differs from the by-name reference", what)
	}
	// The session path: the same projection behind a lazily built map and
	// an (empty) fingerprint store.
	if got := sessionHint(src.Keys(), basis, newBasisStore()).basisFor(dst); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: session hint differs from the by-name reference", what)
	}
}

// solveRelaxation returns the optimal basis of p as stated.
func solveRelaxation(t *testing.T, p *lp.Problem) *lp.Basis {
	t.Helper()
	sol, err := lp.Solve(p, lp.Options{})
	if err != nil || sol.Status != lp.StatusOptimal {
		t.Fatalf("solve: %v (%+v)", err, sol)
	}
	return sol.Basis
}

// checkColumns requires every column the model's indexes know to carry a
// non-zero key no other column of the problem carries, named exactly as
// the builders used to name it, and every other column to be anonymous.
func checkColumns(t *testing.T, what string, p *lp.Problem, indexed map[int32]string) {
	t.Helper()
	seen := map[lp.VarKey]int{}
	for v := 0; v < p.NumVars(); v++ {
		key, name := p.Key(lp.VarID(v)), p.Name(lp.VarID(v))
		want, ok := indexed[int32(v)]
		switch {
		case !ok && (key != 0 || name != ""):
			t.Fatalf("%s: column %d is outside the model's indexes but carries key %#x, name %q", what, v, uint64(key), name)
		case ok && (key == 0 || name != want):
			t.Fatalf("%s: column %d has key %#x named %q, want a key named %q", what, v, uint64(key), name, want)
		}
		if prev, dup := seen[key]; dup && key != 0 {
			t.Fatalf("%s: columns %d and %d share key %q", what, prev, v, key)
		}
		seen[key] = v
	}
	if len(indexed) == 0 {
		t.Fatalf("%s: no indexed columns", what)
	}
}

// lpColumns names every column of an LP-form model the way emit used to.
func lpColumns(m *lpModel) map[int32]string {
	out := map[int32]string{}
	for si, s := range m.sources {
		for kind, vars := range map[string][][]int32{"f[s%d,l%d,k%d]": m.fvar[si], "b[s%d,n%d,k%d]": m.bvar[si], "r[s%d,d%d,k%d]": m.rvar[si]} {
			for at, col := range vars {
				for k, v := range col {
					if v != noVar {
						out[v] = fmt.Sprintf(kind, s, at, k)
					}
				}
			}
		}
	}
	return out
}

// milpColumns names every F and B column of a general-form model the way
// emit used to (removal variables were and are anonymous).
func milpColumns(m *milpModel) map[int32]string {
	out := map[int32]string{}
	for ci, cm := range m.in.comms {
		for kind, vars := range map[string][][]int32{"F[s%d.c%d,l%d,k%d]": m.fvar[ci], "B[s%d.c%d,n%d,k%d]": m.bvar[ci]} {
			for at, col := range vars {
				for k, v := range col {
					if v != noVar {
						out[v] = fmt.Sprintf(kind, cm.src, cm.chunk, at, k)
					}
				}
			}
		}
	}
	return out
}

// TestColumnNamesGolden pins Name, byte for byte, against the strings the
// builders handed AddVar before columns carried keys: the whole DGX1
// ALLTOALL LP and a DGX1 ALLGATHER MILP with removal variables, by
// digest (recorded at the last commit that formatted names), and a few
// of them in the clear.
func TestColumnNamesGolden(t *testing.T) {
	tt := topo.DGX1()
	g := testGPUs(tt)
	names := func(p *lp.Problem) []string {
		out := make([]string, p.NumVars())
		for v := range out {
			out[v] = p.Name(lp.VarID(v))
		}
		return out
	}
	in := newInstance(tt, collective.AllGather(tt.NumNodes(), g, 2, 25e3), Options{BufferLimitChunks: 20})
	mm, err := buildMILP(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		names  []string
		count  int
		digest string
		clear  map[int]string
	}{
		{"DGX1 ALLTOALL LP", names(prepLP(tt, collective.AllToAll(tt.NumNodes(), g, 1, 25e3), Options{}).m.p), 2072,
			"e0cb61ab698de7142bc4d495727ff92895532c3d1216fbd40265ddfa27b6e354",
			map[int]string{0: "f[s0,l0,k0]", 1: "f[s0,l0,k1]", 2072 / 3: "f[s5,l2,k5]", 2072 / 2: "f[s7,l21,k0]", 2070: "r[s7,d6,k10]", 2071: "r[s7,d6,k11]"}},
		{"DGX1 ALLGATHER x2 MILP, 20-chunk buffers", names(mm.p), 11328,
			"61ab27afe4dbc5594c660b003dcf447acf2ec80bd65bf29f26a8b2e3ab30fa02",
			map[int]string{0: "F[s0.c0,l0,k0]", 1: "F[s0.c0,l0,k1]", 11328 / 3: "F[s4.c0,l15,k19]", 11328 / 2: "F[s6.c0,l24,k7]", 11327: ""}},
	} {
		if len(c.names) != c.count {
			t.Fatalf("%s: %d columns, want %d", c.what, len(c.names), c.count)
		}
		for v, want := range c.clear {
			if c.names[v] != want {
				t.Errorf("%s: column %d is named %q, want %q", c.what, v, c.names[v], want)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(c.names, "\n")))); got != c.digest {
			t.Errorf("%s: name list digest %s, want %s", c.what, got, c.digest)
		}
	}
}

// lpClass is one ALLTOALL class of the benchmark: per chunks per pair on
// t under opt.
type lpClass struct {
	t   *topo.Topology
	per int
	opt Options
}

// corpusLP is the LP-form half of the benchmark corpus: cold_lp's and
// serve_replay's classes (bench/workloads.go).
func corpusLP() []lpClass {
	slow := Options{EpochMode: SlowestLink}
	return []lpClass{
		{topo.DGX1(), 1, Options{}}, {topo.DGX1(), 2, Options{}},
		{topo.NDv2Mini(2), 1, slow}, {topo.NDv2Mini(2), 2, slow},
		{topo.DGX2Mini(3), 1, slow}, {topo.Internal2(4), 1, slow}, {topo.Internal1(2), 1, slow},
	}
}

// TestCorpusColumnsKeyed: every column of every model the benchmark
// corpus builds — monolithic LPs and the reserve count they were sized
// by, rolling-horizon windows, monolithic MILPs, every round of the A*
// plans — is keyed uniquely and named as before; and no two distinct
// models of the corpus, nor a model and a churn edit of it, share a
// fingerprint.
func TestCorpusColumnsKeyed(t *testing.T) {
	type stated struct {
		what string
		p    *lp.Problem
	}
	var all []stated
	state := func(what string, p *lp.Problem) { all = append(all, stated{what, p}) }

	for _, c := range corpusLP() {
		what := fmt.Sprintf("%s x%d", c.t.Name, c.per)
		d := collective.AllToAll(c.t.NumNodes(), testGPUs(c.t), c.per, 25e3)
		pr := prepLP(c.t, d, c.opt)
		if want := newLPModel(pr.in, pr.ix).countCols(0, 0, pr.in.K, pr.ix.initialBoundary()); pr.m.p.NumVars() != want {
			t.Fatalf("%s: emit created %d columns after reserving %d", what, pr.m.p.NumVars(), want)
		}
		checkColumns(t, what, pr.m.p, lpColumns(pr.m))
		state(what, pr.m.p)
		// Churn edits as Replan makes them: a downed link's columns fixed
		// at zero, a capacity row rescaled.
		for l := 0; l < 2; l++ {
			q := pr.m.p.Clone()
			for si := range pr.m.sources {
				for _, v := range pr.m.fvar[si][l] {
					if v != noVar {
						q.SetBounds(lp.VarID(v), 0, 0)
					}
				}
			}
			state(fmt.Sprintf("%s, link %d down", what, l), q)
			q = pr.m.p.Clone()
			for _, r := range pr.m.capRow[l] {
				if r != noVar {
					q.SetRHS(int(r), 0.8*q.RHS(int(r)))
				}
			}
			state(fmt.Sprintf("%s, link %d at 0.8", what, l), q)
		}

		// Windows, as the rolling horizon cuts them: from the initial
		// boundary (nothing committed), a third of the horizon wide, half
		// overlapping.
		wi := NewWindowInstance(c.t, d, c.opt)
		K := wi.Epochs()
		width := max(K/3, wi.MaxLinkSpan()+1)
		for lo := 0; lo < K; lo += max(width/2, 1) {
			hi := min(lo+width, K)
			w, err := wi.BuildWindow(lo, hi, hi == K, wi.InitialBoundary())
			if err != nil {
				t.Fatalf("%s window [%d,%d): %v", what, lo, hi, err)
			}
			wwhat := fmt.Sprintf("%s window [%d,%d)", what, lo, hi)
			if want := newLPModel(wi.in, wi.ix).countCols(0, lo, hi, wi.InitialBoundary()); w.P.NumVars() != want {
				t.Fatalf("%s: emit created %d columns after reserving %d", wwhat, w.P.NumVars(), want)
			}
			checkColumns(t, wwhat, w.P, lpColumns(w.m))
			if lo > 0 || hi < K { // [0, K) restates the monolithic model
				state(wwhat, w.P)
			}
		}
	}

	// cold_milp's monolithic classes.
	slow := Options{EpochMode: SlowestLink}
	for _, c := range []struct {
		t         *topo.Topology
		broadcast bool
		opt       Options
	}{
		{topo.DGX1(), false, Options{}}, {topo.DGX1(), true, Options{}},
		{topo.NDv2Mini(2), false, slow}, {topo.DGX2Mini(2), false, slow}, {topo.Internal1(2), false, slow},
	} {
		g := testGPUs(c.t)
		d := collective.AllGather(c.t.NumNodes(), g, 1, 25e3)
		if c.broadcast {
			d = collective.Broadcast(c.t.NumNodes(), g, g[0], 1, 25e3)
		}
		m, err := buildMILP(newInstance(c.t, d, c.opt))
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%s MILP (%d commodities)", c.t.Name, len(m.in.comms))
		checkColumns(t, what, m.p, milpColumns(m))
		if len(m.ints) != cap(m.ints) {
			t.Fatalf("%s: %d integer columns in storage reserved for %d", what, len(m.ints), cap(m.ints))
		}
		state(what, m.p)
	}

	// cold_milp's A* classes, every round.
	for _, tt := range []*topo.Topology{topo.Internal1(4), topo.Internal2(6), topo.NDv2Mini(3)} {
		eachAStarRound(t, tt, slow, func(round int, m *milpModel, _ *lp.Basis) {
			what := fmt.Sprintf("%s A* round %d", tt.Name, round)
			checkColumns(t, what, m.p, milpColumns(m))
			state(what, m.p)
		})
	}

	byFP := map[uint64]stated{}
	for _, s := range all {
		if prev, dup := byFP[s.p.Fingerprint()]; dup && !prev.p.EqualTo(s.p) {
			t.Fatalf("%s and %s state different programs under one fingerprint", prev.what, s.what)
		}
		byFP[s.p.Fingerprint()] = s
	}
	t.Logf("%d stated models, %d distinct fingerprints", len(all), len(byFP))
	if len(byFP) < len(all)*9/10 {
		t.Fatalf("%d fingerprints over %d stated models: the corpus repeats itself too much to test collisions", len(byFP), len(all))
	}
}

// eachAStarRound drives an ALLGATHER A* plan on tt the way astarLoop
// does, handing every round's model and solved root basis to visit.
func eachAStarRound(t *testing.T, tt *topo.Topology, opt Options, visit func(round int, m *milpModel, root *lp.Basis)) {
	t.Helper()
	in := newInstance(tt, collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3), opt)
	st, hop, Kr := newAStarState(in), in.hopDistances(), astarRoundLength(in)
	var ms milp.Solver
	for round := 0; st.remaining > 0; round++ {
		if round == 64 {
			t.Fatalf("%s: A* still running after %d rounds", tt.Name, round)
		}
		m := &milpModel{in: in, hop: hop}
		if err := m.emit(round*Kr, (round+1)*Kr, false, st); err != nil {
			t.Fatal(err)
		}
		msol := ms.Solve(&milp.Problem{LP: m.p, Integer: m.ints}, milp.Options{Context: context.Background()})
		if msol.Status != milp.StatusOptimal && msol.Status != milp.StatusFeasible {
			t.Fatalf("%s round %d: %v", tt.Name, round, msol.Status)
		}
		visit(round, m, msol.RootBasis)
		advanceState(in, st, m.sends(msol.X, round*Kr), round*Kr, Kr)
	}
}

// TestKeyTransferMatchesNameTransfer: on every kind of model pair a basis
// is carried across, matching columns by key projects exactly the basis
// matching them by name did.
func TestKeyTransferMatchesNameTransfer(t *testing.T) {
	ndv := topo.NDv2Mini(2)
	a2a := collective.AllToAll(ndv.NumNodes(), testGPUs(ndv), 1, 25e3)

	t.Run("window to window", func(t *testing.T) {
		wi := NewWindowInstance(ndv, a2a, Options{EpochMode: SlowestLink})
		K := wi.Epochs()
		width := max(K/2, wi.MaxLinkSpan()+1)
		var prev *WindowLP
		var basis *lp.Basis
		for lo := 0; lo+width <= K; lo += max(width/3, 1) {
			w, err := wi.BuildWindow(lo, lo+width, lo+width == K, wi.InitialBoundary())
			if err != nil {
				t.Fatal(err)
			}
			if prev != nil {
				checkTransfer(t, fmt.Sprintf("window [%d,%d) to [%d,%d)", prev.Lo, prev.Hi, w.Lo, w.Hi), prev.P, basis, w.P)
			}
			// Mid-stream windows need not be feasible from the initial
			// boundary; any final basis is a basis to carry.
			sol, err := lp.Solve(w.P, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			prev, basis = w, sol.Basis
		}
		if prev == nil || prev.Lo == 0 {
			t.Fatal("fewer than two windows")
		}
	})

	t.Run("A* round to round", func(t *testing.T) {
		var prev *milpModel
		var basis *lp.Basis
		eachAStarRound(t, ndv, Options{}, func(round int, m *milpModel, root *lp.Basis) {
			if prev != nil {
				checkTransfer(t, fmt.Sprintf("round %d to %d", round-1, round), prev.p, basis, m.p)
			}
			prev, basis = m, root
		})
	})

	t.Run("MinimizeMakespan K to K-1", func(t *testing.T) {
		pr := prepLP(ndv, a2a, Options{EpochMode: SlowestLink})
		tighter := prepLP(ndv, a2a, Options{EpochMode: SlowestLink, Epochs: pr.in.K - 1, Tau: pr.in.tau})
		checkTransfer(t, "LP", pr.m.p, solveRelaxation(t, pr.m.p), tighter.m.p)

		dgx := topo.DGX1()
		ag := collective.AllGather(dgx.NumNodes(), testGPUs(dgx), 1, 25e3)
		in := newInstance(dgx, ag, Options{})
		m, err := buildMILP(in)
		if err != nil {
			t.Fatal(err)
		}
		m2, err := buildMILP(newInstance(dgx, ag, Options{Epochs: in.K - 1, Tau: in.tau}))
		if err != nil {
			t.Fatal(err)
		}
		checkTransfer(t, "MILP root", m.p, solveRelaxation(t, m.p), m2.p)
	})

	t.Run("session chain", func(t *testing.T) {
		// One request's model onto the next's, as planLP chains them: a
		// second chunk per pair, then another chunk size.
		pr := prepLP(ndv, a2a, Options{EpochMode: SlowestLink})
		basis := solveRelaxation(t, pr.m.p)
		for _, next := range []*collective.Demand{
			collective.AllToAll(ndv.NumNodes(), testGPUs(ndv), 2, 25e3),
			collective.AllToAll(ndv.NumNodes(), testGPUs(ndv), 1, 200e3),
		} {
			checkTransfer(t, "next request", pr.m.p, basis, prepLP(ndv, next, Options{EpochMode: SlowestLink}).m.p)
		}
	})

	t.Run("demand append", func(t *testing.T) {
		g := testGPUs(ndv)
		K := NewWindowInstance(ndv, a2a, Options{}).Epochs()
		d := collective.New(ndv.NumNodes(), 3, 25e3)
		d.Set(g[0], 0, g[1])
		d.Set(g[1], 0, g[2])
		pl := NewPlanner(ndv, PlannerOptions{Defaults: Options{Epochs: K}})
		if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
			t.Fatal(err)
		}
		add := collective.New(ndv.NumNodes(), 3, 25e3)
		add.Set(g[0], 1, g[2]) // new pair on an existing source
		add.Set(g[3], 0, g[1]) // new source
		rp, err := pl.Replan(context.Background(), Delta{AddDemand: add})
		if err != nil || rp.ReplanFallback {
			t.Fatalf("replan: %v (fallback %v), want an incremental append", err, rp != nil && rp.ReplanFallback)
		}
		appended := pl.incumbent.model
		checkColumns(t, "appended model", appended.p, lpColumns(appended))
		cold := prepLP(ndv, rp.Schedule.Demand, Options{Epochs: rp.Epochs, Tau: rp.Tau}).m.p
		checkTransfer(t, "appended model onto the cold union", appended.p, pl.incumbent.basis, cold)
		checkTransfer(t, "cold union onto the appended model", cold, solveRelaxation(t, cold), appended.p)
	})
}
