package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// allocsOf reports what one call of f allocates, bytes and objects, once
// a first call has warmed whatever f caches. It skips the test under the
// race detector, whose instrumentation allocates (+7 % on an A* plan).
func allocsOf(t *testing.T, f func()) (bytes uint64, objects float64) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, testing.AllocsPerRun(3, f)
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
// ALLTOALL, and one session replay of the DGX1 LP (prepLP + Fingerprint +
// the cached schedule's validation). The readings are 290 KB in 185
// allocations, 882 KB in 187, 321 KB in 165 and 370 KB in 757; with a
// formatted name per column and an allocation per row (PR 20) the same
// four calls allocated 734 KB in 7 046, 1 762 KB in 13 511, 785 KB in
// 7 343 and 815 KB in 7 619. The bounds are the readings + 5 %.
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
		{"session replay, DGX1 ALLTOALL", replay, 397_500, 795},
	} {
		bytes, allocs := allocsOf(t, c.f)
		if float64(bytes) > c.maxBytes || allocs > c.maxAllocs {
			t.Errorf("%s allocates %d bytes in %.0f allocations, budget %.0f in %.0f", c.what, bytes, allocs, c.maxBytes, c.maxAllocs)
		}
	}
}
