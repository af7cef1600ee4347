package core

// crash_test.go covers the greedy crash bases: a crash-started solve must
// reach exactly the same optimal objective as the historical all-slack
// cold start on every corpus instance (the crash is a phase-1 seed, not a
// different optimization), and the crash must actually engage on the
// instances that have a greedy plan.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// TestQuickCrashMatchesSlackStartLP: a crash-started and an all-slack
// (CrashOff) solve of one LP may reach different optimal vertices — the
// crash decides which — but the answers must agree: the objective to
// 1e-9 and FinishEpoch exactly, and on α-free fabrics each schedule's
// epoch-quantized finish (FinishEpoch+1)·τ is no earlier than the
// continuous-time replay's. Checked across the random LP-form corpus and
// 3–5-node rings, lines, stars and full meshes under ALLTOALL and
// ALLGATHER in both epoch modes.
func TestQuickCrashMatchesSlackStartLP(t *testing.T) {
	agree := func(name string, tp *topo.Topology, d *collective.Demand, opt Options) bool {
		t.Helper()
		slackOpt := opt
		slackOpt.Crash = CrashOff
		crash, err1 := SolveLP(context.Background(), tp, d, opt)
		slack, err2 := SolveLP(context.Background(), tp, d, slackOpt)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("%s: error mismatch crash=%v slack=%v", name, err1, err2)
			return false
		}
		if err1 != nil {
			return true // both infeasible/failed identically
		}
		if math.Abs(crash.Objective-slack.Objective) > 1e-9*(1+math.Abs(slack.Objective)) {
			t.Logf("%s: crash obj %.17g != slack obj %.17g", name, crash.Objective, slack.Objective)
			return false
		}
		if a, b := crash.Schedule.FinishEpoch(), slack.Schedule.FinishEpoch(); a != b {
			t.Logf("%s: crash finishes at epoch %d, slack at %d", name, a, b)
			return false
		}
		if !alphaFree(tp) {
			return true
		}
		for _, r := range []*Result{crash, slack} {
			sr, err := sim.Run(r.Schedule)
			if err != nil {
				t.Logf("%s: sim: %v", name, err)
				return false
			}
			if epochs := float64(r.Schedule.FinishEpoch()+1) * r.Schedule.Tau; epochs < sr.FinishTime*(1-1e-9) {
				t.Logf("%s: (FinishEpoch+1)·τ = %g < sim finish %g", name, epochs, sr.FinishTime)
				return false
			}
		}
		return true
	}

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		d := randDemand(rng, tp.NumNodes())
		return agree(fmt.Sprintf("seed %d", seed), tp, d, Options{})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}

	builders := []func(n int, capacity, alpha float64) *topo.Topology{topo.Ring, topo.Line, topo.Star, topo.FullMesh}
	colls := []func(numNodes int, gpus []int, chunksPerNode int, chunkBytes float64) *collective.Demand{collective.AllToAll, collective.AllGather}
	for _, build := range builders {
		for n := 3; n <= 5; n++ {
			for _, alpha := range []float64{0, 1e-3} {
				tp := build(n, 1e9, alpha)
				for ci, coll := range colls {
					d := coll(tp.NumNodes(), testGPUs(tp), 1, 1e6)
					for _, mode := range []EpochMode{FastestLink, SlowestLink} {
						name := fmt.Sprintf("%s α=%g coll %d mode %d", tp.Name, alpha, ci, mode)
						if !agree(name, tp, d, Options{EpochMode: mode}) {
							t.Errorf("%s: crash and slack starts disagree", name)
						}
					}
				}
			}
		}
	}
}

// alphaFree reports whether every link of t has zero latency.
func alphaFree(t *topo.Topology) bool {
	for l := 0; l < t.NumLinks(); l++ {
		if t.Link(topo.LinkID(l)).Alpha != 0 {
			return false
		}
	}
	return true
}

// TestGreedyPathsFeedTheCrash holds lpGreedyBound to the send order its
// doc comment states and crashBasisLP reads — each demanded triple's
// hops appended consecutively, in (source, chunk, destination) order,
// chained from the source to the destination with every departure after
// the previous hop's landing — and checks that the crash marks every
// hop's flow column, the relay's buffer columns between a landing and
// the next departure, and the destination's read at the landing epoch.
func TestGreedyPathsFeedTheCrash(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
		opt  Options
	}{
		{"dgx1", topo.DGX1(), Options{}},
		{"ndv2mini2", topo.NDv2Mini(2), Options{EpochMode: SlowestLink}},
		{"internal1x2", topo.Internal1(2), Options{EpochMode: SlowestLink}},
	} {
		d := collective.AllToAll(tc.tp.NumNodes(), testGPUs(tc.tp), 1, 25e3)
		pr := must(prepLP(tc.tp, d, tc.opt))
		m, in, sends := pr.m, pr.in, pr.greedy
		crash := crashBasisLP(m, sends)
		if crash == nil {
			t.Fatalf("%s: no crash basis", tc.name)
		}
		basic := func(what string, col []int32, k int) {
			t.Helper()
			if k < 0 || k >= len(col) || col[k] == noVar {
				t.Fatalf("%s: %s at epoch %d has no column", tc.name, what, k)
			}
			if crash.Vars[col[k]] != lp.BasisBasic {
				t.Errorf("%s: %s at epoch %d is not marked basic", tc.name, what, k)
			}
		}
		si := map[int]int{}
		for i, s := range m.sources {
			si[s] = i
		}
		i := 0
		for s := 0; s < d.NumNodes(); s++ {
			for c := 0; c < d.NumChunks(); c++ {
				for dst := 0; dst < d.NumNodes(); dst++ {
					if !d.Wants(s, c, dst) {
						continue
					}
					node, land := s, -1
					for node != dst {
						if i == len(sends) {
							t.Fatalf("%s: sends end inside the path of (%d, %d, %d)", tc.name, s, c, dst)
						}
						snd := sends[i]
						lk := tc.tp.Link(snd.Link)
						if snd.Src != s || snd.Chunk != c || int(lk.Src) != node || snd.Epoch <= land {
							t.Fatalf("%s: send %d %+v does not continue (%d, %d, %d) from node %d after epoch %d",
								tc.name, i, snd, s, c, dst, node, land)
						}
						if land >= 0 && !tc.tp.IsSwitch(topo.NodeID(node)) {
							for k := land + 1; k < snd.Epoch; k++ {
								basic(fmt.Sprintf("relay holding of source %d at node %d", s, node), m.bvar[si[s]][node], k)
							}
						}
						basic(fmt.Sprintf("flow of source %d on link %d", s, snd.Link), m.fvar[si[s]][snd.Link], snd.Epoch)
						node, land = int(lk.Dst), in.landEpoch(int(snd.Link), snd.Epoch)
						i++
					}
					basic(fmt.Sprintf("read of (%d, %d)", s, dst), m.rvar[si[s]][dst], land)
				}
			}
		}
		if i != len(sends) {
			t.Fatalf("%s: %d sends left after the last demanded path", tc.name, len(sends)-i)
		}
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

// TestHorizonFirstWindowCrash: a cold rolling-horizon solve crash-starts
// its first window from the greedy plan, as a cold monolithic solve
// does. The crash only picks phase 1's start, so against a CrashOff run
// window 1's optimum must agree to 1e-9, the stitched schedule must
// finish in the same epoch, and both schedules must validate and replay
// in the simulator. On the benchmark's two horizon instances (DGX1 and
// NDv2Mini(2) ALLTOALL, two chunks per pair) the crash must also save
// pivots, in window 1 and over the whole solve. The 3–5-node rings,
// lines and stars move three chunks per pair at a one-epoch commit
// stride, so even Ring(3) solves at least two windows; on Line(5) with
// α the driver then falls back to one monolithic LP on both sides (its
// final window stays infeasible through every extension), which still
// compares window 1 and the finish.
func TestHorizonFirstWindowCrash(t *testing.T) {
	type run struct {
		res     *Result
		windows int // window solves, counted before any fallback
		w1Obj   float64
		w1Iters int
	}
	solve := func(name string, tp *topo.Topology, d *collective.Demand, opt Options) run {
		t.Helper()
		var r run
		opt.Progress = func(p Progress) {
			if p.Solver == "horizon" && p.Phase == "window" {
				r.windows++
				if p.Round == 1 {
					r.w1Obj, r.w1Iters = p.Incumbent, p.Iterations
				}
			}
		}
		res, err := SolveHorizon(context.Background(), tp, d, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Fatalf("%s: stitched schedule invalid: %v", name, err)
		}
		if _, err := sim.Run(res.Schedule); err != nil {
			t.Fatalf("%s: sim: %v", name, err)
		}
		r.res = res
		return r
	}
	check := func(name string, tp *topo.Topology, d *collective.Demand, opt Options, fewerPivots bool) {
		t.Helper()
		offOpt := opt
		offOpt.Crash = CrashOff
		crash := solve(name+" crash", tp, d, opt)
		off := solve(name+" off", tp, d, offOpt)
		if crash.windows < 2 || off.windows < 2 {
			t.Errorf("%s: %d and %d windows solved, want at least 2", name, crash.windows, off.windows)
		}
		if !crash.res.CrashStarted {
			t.Errorf("%s: the first window was not crash-started", name)
		}
		if off.res.CrashStarted {
			t.Errorf("%s: CrashOff reported a crash start", name)
		}
		if math.Abs(crash.w1Obj-off.w1Obj) > 1e-9*(1+math.Abs(off.w1Obj)) {
			t.Errorf("%s: window 1 objective %.17g with the crash, %.17g without", name, crash.w1Obj, off.w1Obj)
		}
		if a, b := crash.res.Schedule.FinishEpoch(), off.res.Schedule.FinishEpoch(); a != b {
			t.Errorf("%s: finish epoch %d with the crash, %d without", name, a, b)
		}
		if fewerPivots && (crash.w1Iters >= off.w1Iters || crash.res.RootIterations >= off.res.RootIterations) {
			t.Errorf("%s: %d pivots (window 1: %d) with the crash, %d (%d) without", name,
				crash.res.RootIterations, crash.w1Iters, off.res.RootIterations, off.w1Iters)
		}
	}

	allToAll2 := func(tp *topo.Topology) *collective.Demand {
		return collective.AllToAll(tp.NumNodes(), testGPUs(tp), 2, 25e3)
	}
	check("dgx1-x2", topo.DGX1(), allToAll2(topo.DGX1()), Options{}, true)
	check("ndv2mini2-x2", topo.NDv2Mini(2), allToAll2(topo.NDv2Mini(2)), Options{EpochMode: SlowestLink}, true)

	for _, build := range []func(n int, capacity, alpha float64) *topo.Topology{topo.Ring, topo.Line, topo.Star} {
		for n := 3; n <= 5; n++ {
			for _, alpha := range []float64{0, 1e-3} {
				tp := build(n, 1e9, alpha)
				d := collective.AllToAll(tp.NumNodes(), testGPUs(tp), 3, 1e6)
				check(fmt.Sprintf("%s α=%g", tp.Name, alpha), tp, d, Options{HorizonWindow: 2, HorizonOverlap: 1}, false)
			}
		}
	}
}
