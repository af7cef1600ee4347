package core

import (
	"context"
	"math"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// TestFinishEpochSameOnOptimalVertices: two optimal vertices of one LP
// with the same delivered-by-epoch profile finish at the same epoch.
// internal2x4's slowest-link ALLTOALL, crash-started with and without
// presolve, lands on two such vertices; the last fraction of every
// chunk lands by the same epoch in both, while the first fraction of
// the last chunk does not.
func TestFinishEpochSameOnOptimalVertices(t *testing.T) {
	tp := topo.Internal2(4)
	var gpus []int
	for _, g := range tp.GPUs() {
		gpus = append(gpus, int(g))
	}
	d := collective.AllToAll(tp.NumNodes(), gpus, 1, 25e3)
	pr, err := prepLP(tp, d, Options{EpochMode: SlowestLink})
	if err != nil {
		t.Fatal(err)
	}
	crash := crashBasisLP(pr.m, pr.greedy)
	solve := func(noPresolve bool) *Result {
		res, _, err := pr.m.run(context.Background(), lp.Options{Crash: crash, NoPresolve: noPresolve}, time.Now())
		if err != nil {
			t.Fatalf("NoPresolve=%v: %v", noPresolve, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("NoPresolve=%v: %v", noPresolve, err)
		}
		return res
	}
	pre, raw := solve(false), solve(true)
	if math.Abs(pre.Objective-raw.Objective) > 1e-6*(1+math.Abs(raw.Objective)) {
		t.Fatalf("objectives differ: %v with presolve, %v without", pre.Objective, raw.Objective)
	}
	if a, b := pre.Schedule.FinishEpoch(), raw.Schedule.FinishEpoch(); a != b {
		t.Fatalf("finish epoch %d with presolve, %d without", a, b)
	}
}
