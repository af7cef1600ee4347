package core

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// skipUnderRace skips the test under the race detector, whose
// instrumentation allocates (+7 % on an A* plan).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if underRace() {
		t.Skip("the race detector's instrumentation allocates")
	}
}

// underRace reports whether the test binary runs under the race detector.
func underRace() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// allocsOf reports what one call of f allocates, bytes and objects, once
// a first call has warmed whatever f caches (skipped under -race).
func allocsOf(t *testing.T, f func()) (bytes uint64, objects float64) {
	t.Helper()
	skipUnderRace(t)
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, testing.AllocsPerRun(3, f)
}

// spareThreads has the runtime start n OS threads and leave them idle.
// The scheduler hands out an idle thread before it starts a new one, and
// a new one is ~5 KB of heap (runtime.allocm), so a retention test that
// reads its baseline after this does not count a thread the scheduler
// happens to start inside the measured window as retained state.
func spareThreads(n int) {
	var ready, done sync.WaitGroup
	ready.Add(n)
	done.Add(n)
	release := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			defer done.Done()
			runtime.LockOSThread() // blocked below, it keeps its thread
			ready.Done()
			<-release
			runtime.UnlockOSThread() // and exits leaving the thread idle
		}()
	}
	ready.Wait()
	close(release)
	done.Wait()
}

// liveHeap reports the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestAStarPlanAllocBudget pins what one A* plan allocates — NDv2Mini(2)
// ALLGATHER on the fastest link, the six-round plan TestKernelCountsPinned
// pins the pivots of, Workers = 0 — now that the rounds borrow their
// workspace (milp.Solver, and through its worker the lp.Solver) from
// milp's pool: six presolved roots and six node re-solves run in the
// storage an earlier round sized. The reading is 2 216 KB in 17 821 allocations; with a
// context per LP (PR 17) the same plan allocated 4 514 KB in 40 050. The
// bounds are the reading + 5 %.
func TestAStarPlanAllocBudget(t *testing.T) {
	tt := topo.NDv2Mini(2)
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	bytes, allocs := allocsOf(t, func() {
		res, err := SolveAStar(context.Background(), tt, d, Options{})
		if err != nil || res.Rounds != 6 {
			t.Fatalf("plan: %v (%+v)", err, res)
		}
	})
	const maxBytes, maxAllocs = 2_327_000, 18_712
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("one plan allocates %d bytes in %.0f allocations, budget %d in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}

// TestModelBuildAllocBudget pins what stating a model allocates, now that
// a column is a packed key in storage reserved at its exact size, rows
// are assembled in one buffer and stored a block at a time, and the index
// grids are one allocation each: the DGX1 ALLTOALL LP, the DGX1
// ALLGATHER MILP, one mid-stream rolling-horizon window of NDv2Mini(2)
// ALLTOALL, and one session replay of the DGX1 LP (a request-index
// lookup + the cached schedule's validation). The readings are 290 KB in
// 185 allocations, 882 KB in 187, 321 KB in 165 and 45 KB in 309; with a
// formatted name per column and an allocation per row (PR 20) the same
// four calls allocated 734 KB in 7 046, 1 762 KB in 13 511, 785 KB in
// 7 343 and 815 KB in 7 619 (a replay then rebuilt and fingerprinted its
// model: 370 KB in 757 at PR 23). The bounds are the readings + 5 %.
func TestModelBuildAllocBudget(t *testing.T) {
	dgx, ndv := topo.DGX1(), topo.NDv2Mini(2)
	a2a := collective.AllToAll(dgx.NumNodes(), testGPUs(dgx), 1, 25e3)
	pr := must(prepIndex(dgx, a2a, Options{}))
	min := must(newInstance(dgx, collective.AllGather(dgx.NumNodes(), testGPUs(dgx), 1, 25e3), Options{}))
	wi := NewWindowInstance(ndv, collective.AllToAll(ndv.NumNodes(), testGPUs(ndv), 2, 25e3), Options{EpochMode: SlowestLink})
	bd := wi.InitialBoundary()
	pl := NewPlanner(dgx, PlannerOptions{})
	defer pl.Close()
	solved := false
	replay := func() {
		p, err := pl.Plan(context.Background(), Request{Demand: a2a, Solver: SolverLP})
		if err != nil || solved && !p.CacheHit {
			t.Fatalf("plan: %v (%+v), want a replay", err, p)
		}
		solved = true
	}
	replay() // the solve the replays replay
	for _, c := range []struct {
		what                string
		f                   func()
		maxBytes, maxAllocs float64
	}{
		{"buildLP, DGX1 ALLTOALL", func() { buildLP(pr.in, pr.ix) }, 311_800, 194},
		{"buildMILP, DGX1 ALLGATHER", func() {
			if _, err := buildMILP(min); err != nil {
				t.Fatal(err)
			}
		}, 948_000, 196},
		{"BuildWindow, NDv2Mini(2) ALLTOALL x2 [4, 12)", func() {
			if _, err := wi.BuildWindow(4, 12, false, bd); err != nil {
				t.Fatal(err)
			}
		}, 345_000, 173},
		{"session replay, DGX1 ALLTOALL", replay, 47_700, 325},
	} {
		bytes, allocs := allocsOf(t, c.f)
		if float64(bytes) > c.maxBytes || allocs > c.maxAllocs {
			t.Errorf("%s allocates %d bytes in %.0f allocations, budget %.0f in %.0f", c.what, bytes, allocs, c.maxBytes, c.maxAllocs)
		}
	}
}

// TestSessionRetention pins what a serving session keeps. Two sessions
// plan the eight serve_replay shapes (DGX1 ALLTOALL at 200, 100, 50 and
// 25 kB chunks on the fastest link, NDv2Mini(2) ALLTOALL at the same
// sizes on the slowest), each planned and then replayed: no lp.Problem is
// reachable from either session, because replay-cache entries keep the
// request that built their model, an LP session keeps no warm-start
// chain, and the incumbent each session is left with is a replay's — the
// replayed entry's basis and a recipe, no model. The two sessions hold
// 37.8 KB of heap (37 800 B); 97.5 KB while the LP chain kept the last
// solve's keys and basis, 331–337 KB while a replay of the incumbent's
// own solve handed DGX1's model back, and 897 KB, three models, while
// entries and chains held models. The bound is the reading + 10 %.
func TestSessionRetention(t *testing.T) {
	shapes := []struct {
		t   *topo.Topology
		opt Options
	}{{topo.DGX1(), Options{}}, {topo.NDv2Mini(2), Options{EpochMode: SlowestLink}}}
	spareThreads(8)
	before := liveHeap()
	var sessions []*Planner
	for _, s := range shapes {
		pl := NewPlanner(s.t, PlannerOptions{})
		for _, bytes := range []float64{200e3, 100e3, 50e3, 25e3} {
			d := collective.AllToAll(s.t.NumNodes(), testGPUs(s.t), 1, bytes)
			for repeat := 0; repeat < 2; repeat++ {
				opt := s.opt
				p, err := pl.Plan(context.Background(), Request{Demand: d, Options: &opt, Solver: SolverLP})
				if err != nil || repeat == 1 && !p.CacheHit {
					t.Fatalf("%s, %g B chunks, request %d: %v (cache hit %v)", s.t.Name, bytes, repeat, err, p != nil && p.CacheHit)
				}
			}
		}
		sessions = append(sessions, pl)
	}
	retained := liveHeap() - before
	for _, pl := range sessions {
		if got := problemsReachable(pl); len(got) != 0 {
			t.Errorf("%s: %d lp.Problems reachable from the session, want none", pl.Topology().Name, len(got))
		}
	}
	runtime.KeepAlive(sessions)
	skipUnderRace(t)
	const maxBytes = 41_580
	if retained > maxBytes {
		t.Errorf("the two sessions retain %d bytes, budget %d", retained, maxBytes)
	}
}

// TestSessionRetentionAcrossChurn pins what a session keeps through the
// churn_replan benchmark's seven-delta script on DGX1 at the fastest-link
// τ. Every Replan starts the churned state's caches empty, so after each
// delta the replay cache holds only what was solved since the swap: the
// entry of a cold structural fallback (degrade, straggler), nothing after
// an incremental replan or a resume (restore and recover resume the
// incumbent the fallback before them displaced). After every delta the
// only lp.Problem reachable from the session is the incumbent's, and
// recover leaves an incumbent with no model at all: its recipe and basis,
// beside the displaced straggler incumbent's. The session holds 23.8 KB
// of heap (23 808–23 824 B; 42.5 KB while the LP chain and the basis
// store kept LP bases, 66.3 KB while the replay cache's model index
// crossed churn); the bound is the reading + 10 %.
//
// Then a fresh session replans maxRecipeSteps incremental deltas (a pair
// dropped and re-added in turn) and one structural fallback: it still
// pins exactly one lp.Problem, the cold plan's, and the displaced
// incumbent is kept as a recipe of maxRecipeSteps steps, which holds
// 18.5 KB of heap (18 480 B: eight dropped pairs, eight re-added
// demands, the basis, the world it was displaced from, and the root
// world, which no replay entry shares); its bound is the reading + 10 %.
// One incremental delta more and the lineage is past the cap: the
// fallback keeps nothing.
func TestSessionRetentionAcrossChurn(t *testing.T) {
	spareThreads(8)
	before := liveHeap()
	s := newScriptSession(t, topo.DGX1(), Options{})
	pl := s.pl
	for _, kind := range churnScript {
		_, rung := s.replan(t, s.delta(t, kind))
		assertOneProblem(t, pl, "after "+kind)
		if kind == "recover" && (rung != "resume" || pl.incumbent.model != nil) {
			t.Errorf("recover: %s (incumbent model %v), want a resume leaving no model", rung, pl.incumbent.model != nil)
		}
		want := 0
		if rung == "structural-cold" {
			want = 1 // the fallback's own solve
		}
		if c := pl.state.lpCache; c.size != want || len(c.requests) != want {
			t.Errorf("after %s (%s): the replay cache holds %d entries and %d requests, want %d each", kind, rung, c.size, len(c.requests), want)
		}
	}
	retained := liveHeap() - before
	runtime.KeepAlive(s)
	const maxBytes = 26_210
	if !underRace() && retained > maxBytes {
		t.Errorf("the session retains %d bytes, budget %d", retained, maxBytes)
	}

	for _, steps := range []int{maxRecipeSteps, maxRecipeSteps + 1} {
		s := newScriptSession(t, topo.DGX1(), Options{})
		for i := 0; i < steps; i++ {
			// Past the cap the incumbent keeps no recipe, which
			// assertRecipesRestate (in s.replan) would refuse.
			kind := []string{"drop", "readd"}[i%2]
			if p, err := s.pl.Replan(context.Background(), s.delta(t, kind)); err != nil || p.ReplanFallback {
				t.Fatalf("%s %d of %d: %v (fallback %v), want incremental", kind, i+1, steps, err, p != nil && p.ReplanFallback)
			}
		}
		if p, err := s.pl.Replan(context.Background(), s.delta(t, "straggler")); err != nil || !p.ReplanFallback || p.CacheHit {
			t.Fatalf("straggler after %d incremental deltas: %v, want a cold fallback", steps, err)
		}
		assertOneProblem(t, s.pl, fmt.Sprintf("a fallback after %d incremental deltas", steps))
		kept := s.pl.displaced != nil
		if want := steps <= maxRecipeSteps; kept != want {
			t.Fatalf("a fallback after %d incremental deltas keeps the displaced incumbent: %v, want %v", steps, kept, want)
		}
		if !kept {
			s.pl.Close()
			continue
		}
		if n := len(s.pl.displaced.recipe.steps); n != steps {
			t.Fatalf("the displaced recipe holds %d steps, want %d", n, steps)
		}
		held := liveHeap()
		s.pl.displaced = nil
		recipe := held - liveHeap()
		s.pl.Close()
		const maxRecipeBytes = 20_330
		if !underRace() && recipe > maxRecipeBytes {
			t.Errorf("a displaced recipe of %d steps holds %d bytes, budget %d", steps, recipe, maxRecipeBytes)
		}
	}
}

// TestSessionStateHoldsEveryWorldCache: everything a session derives from
// its world lives in its sessionState, so the swap of Planner.state that
// Replan and Close make retires all of it at once. No other Planner field
// is or reaches a replay cache, a basis store, an estimate cache or a
// key-matched chain — checked on an LP, a MILP and an A* session after a
// plan, a replayed plan, and replans that take every rung the form
// reaches here (incremental, cold with a displaced incumbent, resume).
func TestSessionStateHoldsEveryWorldCache(t *testing.T) {
	worldCaches := []reflect.Type{
		reflect.TypeOf((*batchCache)(nil)), reflect.TypeOf((*basisStore)(nil)),
		reflect.TypeOf((*estimateCache)(nil)), reflect.TypeOf(sessionBasis{}),
	}
	check := func(pl *Planner, when string) {
		t.Helper()
		v := reflect.ValueOf(pl).Elem()
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; name != "state" {
				for _, c := range reachable(v.Field(i), worldCaches...) {
					t.Errorf("%s: Planner.%s holds a %v", when, name, c.Type())
				}
			}
		}
	}

	s := newScriptSession(t, topo.DGX1(), Options{})
	defer s.pl.Close()
	check(s.pl, "LP plan")
	if p, err := s.pl.Plan(context.Background(), Request{Demand: s.demand.Clone(), Solver: SolverLP}); err != nil || !p.CacheHit {
		t.Fatalf("the repeated LP request: %v, want a replay", err)
	}
	check(s.pl, "LP replay")
	for _, kind := range []string{"linkdown", "degrade", "restore"} {
		_, rung := s.replan(t, s.delta(t, kind))
		check(s.pl, "LP "+kind+" ("+rung+")")
	}

	tt := topo.Ring(4, 25e9, 0.7e-6)
	for _, solver := range []Solver{SolverMILP, SolverAStar} {
		pl := NewPlanner(tt, PlannerOptions{})
		if _, err := pl.Plan(context.Background(), Request{Demand: rungAllGather(tt), Solver: solver}); err != nil {
			t.Fatal(err)
		}
		check(pl, solver.String()+" plan")
		if _, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}}); err != nil {
			t.Fatal(err)
		}
		check(pl, solver.String()+" replan")
		pl.Close()
	}
}

// assertOneProblem checks that the only lp.Problem reachable from pl is
// its incumbent's, when it keeps one.
func assertOneProblem(t *testing.T, pl *Planner, when string) {
	t.Helper()
	var want []uintptr
	if m := pl.incumbent.model; m != nil {
		want = append(want, reflect.ValueOf(m.p).Pointer())
	}
	if got := problemsReachable(pl); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: %d lp.Problems reachable from the session, want %d (the incumbent's)", when, len(got), len(want))
	}
}

// problemsReachable returns the address of every distinct lp.Problem
// reachable from root (see reachable).
func problemsReachable(root any) []uintptr {
	var out []uintptr
	for _, v := range reachable(reflect.ValueOf(root), reflect.TypeOf((*lp.Problem)(nil))) {
		out = append(out, v.Pointer())
	}
	return out
}

// reachable returns every value of one of types (a non-nil one, for
// pointers) that root is or reaches through pointers, interfaces, struct
// fields (unexported included), slices, arrays and maps, each distinct
// pointer once; it does not look inside the values it returns. Functions
// are opaque.
func reachable(root reflect.Value, types ...reflect.Type) []reflect.Value {
	type visit struct {
		at  uintptr
		typ reflect.Type
		n   int
	}
	seen := map[visit]bool{}
	holds := map[reflect.Type]bool{} // may a value of the type lead to a pointer
	var mayHold func(reflect.Type) bool
	mayHold = func(typ reflect.Type) bool {
		if h, ok := holds[typ]; ok {
			return h
		}
		holds[typ] = true // a recursive type holds pointers
		h := false
		switch typ.Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
			h = true
		case reflect.Array:
			h = mayHold(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				h = h || mayHold(typ.Field(i).Type)
			}
		}
		holds[typ] = h
		return h
	}
	for _, typ := range types {
		holds[typ] = true
	}
	var out []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if !mayHold(v.Type()) {
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map:
			if v.IsNil() {
				return
			}
			k := visit{v.Pointer(), v.Type(), 0}
			if v.Kind() == reflect.Slice {
				k.n = v.Len()
			}
			if seen[k] {
				return
			}
			seen[k] = true
		}
		if slices.Contains(types, v.Type()) {
			out = append(out, v)
			return
		}
		switch v.Kind() {
		case reflect.Pointer:
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(root)
	return out
}
