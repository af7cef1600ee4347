package core

// crash_test.go covers the greedy crash bases: a crash-started solve must
// reach exactly the same optimal objective as the historical all-slack
// cold start on every corpus instance (the crash is a phase-1 seed, not a
// different optimization), and the crash must actually engage on the
// instances that have a greedy plan.

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// TestQuickCrashMatchesSlackStartLP: crash-start vs all-slack-start
// optimal-objective equality across the random LP-form corpus.
func TestQuickCrashMatchesSlackStartLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		d := randDemand(rng, tp.NumNodes())
		crash, err1 := SolveLP(context.Background(), tp, d, Options{})
		slack, err2 := SolveLP(context.Background(), tp, d, Options{Crash: CrashOff})
		if (err1 == nil) != (err2 == nil) {
			t.Logf("seed %d: error mismatch crash=%v slack=%v", seed, err1, err2)
			return false
		}
		if err1 != nil {
			return true // both infeasible/failed identically
		}
		if math.Abs(crash.Objective-slack.Objective) > 1e-6*(1+math.Abs(slack.Objective)) {
			t.Logf("seed %d: crash obj %g != slack obj %g", seed, crash.Objective, slack.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCrashEngagesOnAllToAll: the canonical LP workload (ALLTOALL at an
// auto horizon) must actually report a crash-started solve, and produce
// the same objective as the slack start on a switch topology too.
func TestCrashEngagesOnAllToAll(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
		opt  Options
	}{
		{"dgx1", topo.DGX1(), Options{}},
		{"ndv2mini", topo.NDv2Mini(2), Options{EpochMode: SlowestLink}},
	} {
		var gpus []int
		for _, g := range tc.tp.GPUs() {
			gpus = append(gpus, int(g))
		}
		d := collective.AllToAll(tc.tp.NumNodes(), gpus, 1, 8e6/float64(len(gpus)))
		crash, err := SolveLP(context.Background(), tc.tp, d, tc.opt)
		if err != nil {
			t.Fatalf("%s: crash solve: %v", tc.name, err)
		}
		if !crash.CrashStarted {
			t.Fatalf("%s: expected a crash-started solve", tc.name)
		}
		slackOpt := tc.opt
		slackOpt.Crash = CrashOff
		slack, err := SolveLP(context.Background(), tc.tp, d, slackOpt)
		if err != nil {
			t.Fatalf("%s: slack solve: %v", tc.name, err)
		}
		if slack.CrashStarted {
			t.Fatalf("%s: CrashOff still reported a crash start", tc.name)
		}
		if math.Abs(crash.Objective-slack.Objective) > 1e-6*(1+math.Abs(slack.Objective)) {
			t.Fatalf("%s: crash obj %g != slack obj %g", tc.name, crash.Objective, slack.Objective)
		}
	}
}

// TestCrashAllMatchesSlackStartMILP: under CrashAll the MILP root
// relaxation crash-starts from the greedy incumbent's support; the
// proven optimal objective must match the slack start exactly (the
// returned schedule may be a different equally-optimal one).
func TestCrashAllMatchesSlackStartMILP(t *testing.T) {
	tp := topo.ZeroAlpha(topo.Internal2(2))
	var gpus []int
	for _, g := range tp.GPUs() {
		gpus = append(gpus, int(g))
	}
	d := collective.AllGather(tp.NumNodes(), gpus, 1, 1e6)
	crash, err := SolveMILP(context.Background(), tp, d, Options{EpochMode: SlowestLink, Crash: CrashAll})
	if err != nil {
		t.Fatalf("crash solve: %v", err)
	}
	if !crash.CrashStarted || !crash.Optimal {
		t.Fatalf("want crash-started optimal solve, got crash=%v optimal=%v",
			crash.CrashStarted, crash.Optimal)
	}
	slack, err := SolveMILP(context.Background(), tp, d, Options{EpochMode: SlowestLink, Crash: CrashOff})
	if err != nil {
		t.Fatalf("slack solve: %v", err)
	}
	if math.Abs(crash.Objective-slack.Objective) > 1e-6*(1+math.Abs(slack.Objective)) {
		t.Fatalf("crash obj %g != slack obj %g", crash.Objective, slack.Objective)
	}
}
