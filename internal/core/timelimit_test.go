package core

// Regression test for the satellite fix: Options.TimeLimit used to be
// honored only by the MILP (and only per A* round); the LP simplex ran
// to completion regardless. With TimeLimit reimplemented as a derived
// context deadline, all three solvers return promptly on an NDv2-scale
// instance whose unbounded solve takes minutes.

import (
	"context"
	"errors"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

func TestTimeLimitHonoredByAllSolvers(t *testing.T) {
	tt, d := hardLPInstance()
	const limit = 150 * time.Millisecond
	opt := Options{TimeLimit: limit}

	for name, solve := range map[string]func() (*Result, error){
		"lp":    func() (*Result, error) { return SolveLP(context.Background(), tt, d, opt) },
		"milp":  func() (*Result, error) { return SolveMILP(context.Background(), tt, d, opt) },
		"astar": func() (*Result, error) { return SolveAStar(context.Background(), tt, d, opt) },
	} {
		start := time.Now()
		res, err := solve()
		elapsed := time.Since(start)
		// Generous bound for shared CI runners; the point is "not
		// minutes". The budget expiring is not a caller cancellation, so
		// the error (if any) must NOT read as context.Canceled.
		if elapsed > 10*time.Second {
			t.Errorf("%s: TimeLimit=%v ignored, solve ran %v", name, limit, elapsed)
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: budget expiry surfaced as context error: %v", name, err)
		}
		if err == nil && res == nil {
			t.Errorf("%s: nil result and nil error", name)
		}
		t.Logf("%s: returned in %v (err=%v)", name, elapsed, err)
	}
}

func TestTimeLimitReturnsPartialMILPIncumbent(t *testing.T) {
	// With the greedy incumbent on, a budget-stopped MILP returns the
	// incumbent as a feasible (non-optimal) result with no error — the
	// historical TimeLimit contract. ALLGATHER, so the greedy heuristic
	// applies (it assumes copy-friendly demands).
	tt := topo.NDv2Mini(2)
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	res, err := SolveMILP(context.Background(), tt, d, Options{TimeLimit: 150 * time.Millisecond})
	if err != nil {
		t.Fatalf("budget-stopped MILP with greedy incumbent errored: %v", err)
	}
	if res.Optimal {
		t.Skip("machine solved the instance inside the budget")
	}
	if res.Optimal {
		t.Fatalf("budget-stopped solve claims optimality")
	}
	if verr := res.Schedule.Validate(); verr != nil {
		t.Fatalf("partial incumbent schedule invalid: %v", verr)
	}
}
