package core

import (
	"context"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// skipUnderRace skips the test under the race detector, whose
// instrumentation allocates (+7 % on an A* plan).
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
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
// pins the pivots of, Workers = 0 — now that the rounds share one solve
// workspace (milp.Solver, and through its worker the lp.Solver): six
// presolved roots and six node re-solves run in the storage the first
// round sized. The reading is 2 216 KB in 17 821 allocations; with a
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
	pr := prepIndex(dgx, a2a, Options{})
	min := newInstance(dgx, collective.AllGather(dgx.NumNodes(), testGPUs(dgx), 1, 25e3), Options{})
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
// sizes on the slowest), each planned and then replayed: the only
// lp.Problem reachable from either session is its incumbent's, because
// replay-cache entries keep the request that built their model and the
// warm-start chains keep column keys. DGX1's last size is a model of its
// own, so its incumbent keeps one; every NDv2Mini(2) size after the first
// replays the first one's schedule, so its incumbent keeps none. The two
// sessions hold 331–337 KB of heap, DGX1's incumbent model included;
// while entries and chains held models they held 897 KB, three models.
// The bound is the reading + 10 %.
func TestSessionRetention(t *testing.T) {
	shapes := []struct {
		t   *topo.Topology
		opt Options
	}{{topo.DGX1(), Options{}}, {topo.NDv2Mini(2), Options{EpochMode: SlowestLink}}}
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
		var want []uintptr
		if m := pl.incumbent.model; m != nil {
			want = append(want, reflect.ValueOf(m.p).Pointer())
		}
		if got := problemsReachable(pl); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d lp.Problems reachable from the session, want %d (the incumbent's)", pl.Topology().Name, len(got), len(want))
		}
	}
	runtime.KeepAlive(sessions)
	skipUnderRace(t)
	const maxBytes = 370_000
	if retained > maxBytes {
		t.Errorf("the two sessions retain %d bytes, budget %d", retained, maxBytes)
	}
}

// TestSessionRetentionAcrossChurn pins what a session keeps through the
// churn_replan benchmark's seven-delta script on DGX1 at the fastest-link
// τ. The replay cache's model index crosses every Replan, so by recover
// the session holds the entries of its base plan and of its three
// structural fallbacks — recipes, schedules and bases, no model. After
// every delta the only lp.Problem reachable from the session is the
// incumbent's, and recover, served by replaying restore's entry, leaves
// an incumbent with no model at all. The session holds 50 KB of heap
// (49 632–49 728 B); the bound is the reading + 10 %.
func TestSessionRetentionAcrossChurn(t *testing.T) {
	before := liveHeap()
	s := newScriptSession(t, topo.DGX1(), Options{})
	pl := s.pl
	for _, kind := range churnScript {
		p, rung := s.replan(t, s.delta(t, kind))
		var want []uintptr
		if m := pl.incumbent.model; m != nil {
			want = append(want, reflect.ValueOf(m.p).Pointer())
		}
		if got := problemsReachable(pl); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: %d lp.Problems reachable from the session, want %d (the incumbent's)", kind, len(got), len(want))
		}
		if kind == "recover" && (!p.CacheHit || rung != "structural-replay" || len(want) != 0) {
			t.Errorf("recover: %s (cache hit %v, incumbent model %v), want a replay leaving no model", rung, p.CacheHit, len(want) != 0)
		}
	}
	carried := 0
	for _, bucket := range pl.state.lpCache.entries {
		for _, e := range bucket {
			if e.base != nil {
				t.Error("a carried replay entry holds its model")
			}
			carried++
		}
	}
	if carried != 4 || pl.state.lpCache.size != carried {
		t.Errorf("the session carries %d replay entries (size %d), want the base plan's and three fallbacks'", carried, pl.state.lpCache.size)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(s)
	skipUnderRace(t)
	const maxBytes = 54_700
	if retained > maxBytes {
		t.Errorf("the session retains %d bytes, budget %d", retained, maxBytes)
	}
}

// problemsReachable returns the address of every distinct lp.Problem
// reachable from root through pointers, interfaces, struct fields
// (unexported included), slices, arrays and maps. Functions are opaque.
func problemsReachable(root any) []uintptr {
	problem := reflect.TypeOf((*lp.Problem)(nil))
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
	var out []uintptr
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
			switch {
			case v.Type() == problem:
				out = append(out, v.Pointer())
			case v.Kind() == reflect.Pointer:
				walk(v.Elem())
			case v.Kind() == reflect.Slice:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			default:
				for it := v.MapRange(); it.Next(); {
					walk(it.Key())
					walk(it.Value())
				}
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(reflect.ValueOf(root))
	return out
}
