package core

// Cancellation property tests: a cancelled context interrupts all three
// solvers promptly — mid-root-LP, deep in the branch-and-bound tree, and
// between A* rounds — the error wraps context.Canceled, and no solver
// goroutines outlive the call. The suite runs under -race in CI (make
// race), which is what makes the worker-pool cancellation trustworthy.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// solveFunc is the shape of the three exported single-solve entries, for
// tests that run one check over several forms.
type solveFunc = func(context.Context, *topo.Topology, *collective.Demand, Options) (*Result, error)

// testGPUs lists a topology's GPUs as ints.
func testGPUs(t *topo.Topology) []int {
	var out []int
	for _, g := range t.GPUs() {
		out = append(out, int(g))
	}
	return out
}

// must unwraps a preprocessing result (newInstance, prepLP, ...) and
// panics on its error: every world a test builds a model on has a live
// link, so an error here is a bug.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// hardLPInstance is an NDv2-scale ALLTOALL whose fastest-link LP grinds
// for minutes if left alone — the canonical instance a deadline or
// cancellation must be able to interrupt.
func hardLPInstance() (*topo.Topology, *collective.Demand) {
	t := topo.NDv2Mini(2)
	return t, collective.AllToAll(t.NumNodes(), testGPUs(t), 1, 25e3)
}

// promptly asserts the solve returned well before it could have finished
// on its own. The bound is generous (shared CI runners): promptness here
// means "cut a minutes-long solve to seconds", not a scheduling SLA.
func promptly(t *testing.T, start time.Time) {
	t.Helper()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("solve returned only after %v; cancellation not prompt", elapsed)
	}
}

// noGoroutineLeak asserts the goroutine count settles back to the
// baseline (plus slack for runtime helpers).
func noGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCancelRootLP(t *testing.T) {
	tt, d := hardLPInstance()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := SolveLP(ctx, tt, d, Options{})
	promptly(t, start)
	if res != nil {
		t.Fatalf("cancelled LP returned a result (the simplex cannot have finished)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	noGoroutineLeak(t, before)
}

func TestCancelDeepBranchAndBound(t *testing.T) {
	// DGX1 ALLGATHER with 2 chunks per GPU branches long past the root.
	// Cancel from the progress hook once the tree is a few nodes deep, so
	// the test is deterministic about WHERE the cancellation lands. The
	// greedy incumbent is left on: a cancelled search with an incumbent
	// must return it as a partial result alongside the error.
	tt := topo.DGX1()
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 2, 25e3)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		Workers: 4,
		Progress: func(p Progress) {
			if p.Solver == "milp" && p.Nodes >= 3 {
				cancel()
			}
		},
	}
	start := time.Now()
	res, err := SolveMILP(ctx, tt, d, opt)
	promptly(t, start)
	if err == nil {
		// The search may prove optimality before the third node on a fast
		// machine; that is a complete solve, not a failed cancellation.
		if res == nil || !res.Optimal {
			t.Fatalf("nil error without an optimal result (res=%v)", res)
		}
	} else {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want wrap of context.Canceled", err)
		}
		if res != nil {
			// Partial incumbent: must be a valid schedule with a gap.
			if res.Optimal {
				t.Fatalf("cancelled partial result claims optimality")
			}
			if verr := res.Schedule.Validate(); verr != nil {
				t.Fatalf("partial incumbent schedule invalid: %v", verr)
			}
		}
	}
	noGoroutineLeak(t, before)
}

func TestCancelAStarRoundTwo(t *testing.T) {
	// Internal2(4) ALLGATHER takes multiple A* rounds; cancel exactly when
	// round 2 is announced, before its MILP solves.
	tt := topo.Internal2(4)
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 1<<20)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := Options{
		EpochMode: SlowestLink,
		Progress: func(p Progress) {
			if p.Solver == "astar" && p.Phase == "round" && p.Round == 2 {
				cancel()
			}
		},
	}
	start := time.Now()
	res, err := SolveAStar(ctx, tt, d, opt)
	promptly(t, start)
	if err == nil {
		if res != nil && res.Rounds < 2 {
			t.Skipf("instance solved in %d round(s); round-2 cancellation never armed", res.Rounds)
		}
		t.Fatalf("A* completed (%d rounds) despite the round-2 cancellation", res.Rounds)
	}
	if res != nil {
		t.Fatalf("cancelled A* returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
	noGoroutineLeak(t, before)
}

func TestCancelDuringMakespanRefinement(t *testing.T) {
	// Cancel right after the base solve, so the cancellation lands in the
	// MinimizeMakespan re-solve chain both forms share: the last complete
	// schedule — the base solve's — must come back alongside an error
	// wrapping context.Canceled. The LP is cancelled when its base simplex
	// reports; the MILP when the second model sample announces the first
	// re-solve.
	for _, c := range []struct {
		name     string
		solve    solveFunc
		topo     *topo.Topology
		demand   func(numNodes int, gpus []int, chunks int, chunkBytes float64) *collective.Demand
		opt      Options
		cancelAt func(seen map[string]int) bool
	}{
		{"lp", SolveLP, topo.DGX1(), collective.AllToAll, Options{},
			func(seen map[string]int) bool { return seen["lp/simplex"] == 1 }},
		{"milp", SolveMILP, topo.Internal2(2), collective.AllGather, Options{EpochMode: SlowestLink},
			func(seen map[string]int) bool { return seen["milp/model"] == 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := c.demand(c.topo.NumNodes(), testGPUs(c.topo), 1, 25e3)
			base, err := c.solve(context.Background(), c.topo, d, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := map[string]int{}
			opt := c.opt
			opt.MinimizeMakespan = true
			opt.Progress = func(p Progress) {
				seen[p.Solver+"/"+p.Phase]++
				if c.cancelAt(seen) {
					cancel()
				}
			}
			start := time.Now()
			res, err := c.solve(ctx, c.topo, d, opt)
			promptly(t, start)
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "makespan refinement cancelled") {
				t.Fatalf("err = %v, want the refinement's wrap of context.Canceled", err)
			}
			if res == nil {
				t.Fatal("cancelled refinement dropped the completed schedule")
			}
			if verr := res.Schedule.Validate(); verr != nil {
				t.Fatalf("returned schedule invalid: %v", verr)
			}
			if res.Epochs != base.Epochs || res.Objective != base.Objective {
				t.Fatalf("returned K=%d objective %g, want the base solve's K=%d objective %g",
					res.Epochs, res.Objective, base.Epochs, base.Objective)
			}
		})
	}
}

func TestCancelBatchSolve(t *testing.T) {
	// A cancelled batch stops picking up points; unsolved points carry
	// the cancellation cause.
	tt, d := hardLPInstance()
	demands := []*collective.Demand{d, d.Clone(), d.Clone()}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, errs := BatchSolveLP(ctx, tt, demands, Options{}, BatchOptions{})
	promptly(t, start)
	sawCancel := false
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			sawCancel = true
		}
	}
	if !sawCancel {
		t.Fatalf("no point reported context.Canceled: %v", errs)
	}
}

func TestCancelledContextFailsFast(t *testing.T) {
	// An already-cancelled context never starts the simplex.
	tt, d := hardLPInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, solve := range map[string]func() error{
		"lp": func() error {
			_, err := SolveLP(ctx, tt, d, Options{})
			return err
		},
		"milp": func() error {
			_, err := SolveMILP(ctx, tt, d, Options{})
			return err
		},
		"astar": func() error {
			_, err := SolveAStar(ctx, tt, d, Options{})
			return err
		},
	} {
		start := time.Now()
		err := solve()
		// Generous ceiling: it distinguishes "aborted before the solve"
		// from "ran the solve anyway" (minutes), while tolerating the
		// pre-solve estimate work under race-detector + full-suite load.
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Fatalf("%s: pre-cancelled solve ran %v", name, elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want wrap of context.Canceled", name, err)
		}
	}
}
