package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// TestAStarPlanAllocBudget pins what one A* plan allocates — NDv2Mini(2)
// ALLGATHER on the fastest link, the six-round plan TestKernelCountsPinned
// pins the pivots of, Workers = 0 — now that the rounds share one solve
// workspace (milp.Solver, and through its worker the lp.Solver): six
// presolved roots and six node re-solves run in the storage the first
// round sized. The reading is 2 216 KB in 17 821 allocations; with a
// context per LP (PR 17) the same plan allocated 4 514 KB in 40 050. The
// bounds are the reading + 5 %.
func TestAStarPlanAllocBudget(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates (+7 % here)")
			}
		}
	}
	tt := topo.NDv2Mini(2)
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	plan := func() {
		res, err := SolveAStar(context.Background(), tt, d, Options{})
		if err != nil || res.Rounds != 6 {
			t.Fatalf("plan: %v (%+v)", err, res)
		}
	}
	plan()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plan()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	allocs := testing.AllocsPerRun(3, plan)
	const maxBytes, maxAllocs = 2_327_000, 18_712
	if bytes > maxBytes || allocs > maxAllocs {
		t.Fatalf("one plan allocates %d bytes in %.0f allocations, budget %d in %d", bytes, allocs, maxBytes, maxAllocs)
	}
}
