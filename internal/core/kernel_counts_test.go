package core

// kernel_counts_test.go pins the simplex kernel's pivot path: identical
// input must give the identical pivot sequence, so the effort counters
// of a few representative solves are exact constants. A kernel edit that
// makes pivots cheaper leaves them alone; one that bends the path (a
// different term order in a solve, a different tie-break, a different
// refactorization point) moves at least one of them and fails here, in
// tier-1, instead of only in `make bench-verify`. When a change moves
// them on purpose, re-record the constants and say so in CHANGES.md.

import (
	"context"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// kernelCounts is the exact effort of one solve (Rounds is 0 off the A*
// path, Windows 0 off the rolling horizon).
type kernelCounts struct {
	Root, Refactorizations, FTUpdates, UpdateNnz, Nodes, NodeIters, Rounds, Windows int
}

func countsOf(r *Result) kernelCounts {
	return kernelCounts{r.RootIterations, r.Refactorizations, r.FTUpdates, r.UpdateNnz, r.Nodes, r.NodeIterations, r.Rounds, r.Windows}
}

// link0 and lateLink pick the link a pinned Replan takes down: link 0, or
// the link whose first use in the plan is latest (lowest ID on ties) — for
// an A* plan one that only a later round uses, so the earlier rounds
// replay and the round loop resumes mid-stream.
func link0(*testing.T, *Plan) topo.LinkID { return 0 }

func lateLink(t *testing.T, p *Plan) topo.LinkID {
	first := map[topo.LinkID]int{}
	for _, snd := range p.Schedule.Sends {
		if e, ok := first[snd.Link]; !ok || snd.Epoch < e {
			first[snd.Link] = snd.Epoch
		}
	}
	best := p.Schedule.Sends[0].Link
	for l, e := range first {
		if e > first[best] || (e == first[best] && l < best) {
			best = l
		}
	}
	if Kr := p.Epochs / p.Rounds; first[best] < Kr {
		t.Fatalf("every link is used in round 0 (latest first use: epoch %d, Kr = %d); nothing would replay", first[best], Kr)
	}
	return best
}

func TestKernelCountsPinned(t *testing.T) {
	const chunkBytes = 25e3
	allToAll := func(tt *topo.Topology) *collective.Demand {
		return collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	}
	allGather := func(tt *topo.Topology) *collective.Demand {
		return collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	}
	cases := []struct {
		name   string
		topo   *topo.Topology
		demand func(*topo.Topology) *collective.Demand
		opt    Options
		solver Solver
		down   func(*testing.T, *Plan) topo.LinkID // follow the plan with a Replan taking this link down
		want   kernelCounts
		replan kernelCounts
	}{
		// The three cold LPs and the linkdown plan below were re-recorded
		// when the crash basis came to mark the greedy's whole path support
		// (relay holdings and landing reads as well as flows).
		{name: "dgx1-alltoall-lp", topo: topo.DGX1(), demand: allToAll, solver: SolverLP,
			want: kernelCounts{Root: 1221, Refactorizations: 24, FTUpdates: 1210, UpdateNnz: 18317}},
		{name: "internal1x2-alltoall-lp", topo: topo.Internal1(2), demand: allToAll,
			opt: Options{EpochMode: SlowestLink}, solver: SolverLP,
			want: kernelCounts{Root: 503, Refactorizations: 12, FTUpdates: 496, UpdateNnz: 7497}},
		{name: "ndv2mini2-alltoall-lp-slowest", topo: topo.NDv2Mini(2), demand: allToAll,
			opt: Options{EpochMode: SlowestLink}, solver: SolverLP,
			want: kernelCounts{Root: 1567, Refactorizations: 23, FTUpdates: 1559, UpdateNnz: 22112}},
		// DGX1 ALLGATHER closes at the root; Internal1(2) branches, so its
		// node re-solves (warm dual simplex on retained Solvers) are pinned.
		// Internal1(2)'s plan and re-root were re-recorded when the greedy
		// incumbent stopped re-sending chunks into switches: its finish
		// went 12 → 6, so the horizon it sets went 14 → 7 epochs.
		{name: "dgx1-allgather-milp", topo: topo.DGX1(), demand: allGather, solver: SolverMILP,
			want: kernelCounts{Root: 504, Refactorizations: 6, FTUpdates: 442, UpdateNnz: 1941}},
		{name: "internal1x2-allgather-milp", topo: topo.Internal1(2), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverMILP,
			want: kernelCounts{Root: 852, Refactorizations: 15, FTUpdates: 837, UpdateNnz: 8500, Nodes: 3, NodeIters: 38}},
		{name: "dgx1-alltoall-linkdown-replan", topo: topo.DGX1(), demand: allToAll, solver: SolverLP, down: link0,
			want:   kernelCounts{Root: 1221, Refactorizations: 24, FTUpdates: 1210, UpdateNnz: 18317},
			replan: kernelCounts{Root: 33, Refactorizations: 1, FTUpdates: 30, UpdateNnz: 517}},
		// The MILP re-root, recorded at the commit before plan and replan
		// came to share one solve tail per form: with the LP replan above
		// and the A* resume below, all three replan tails are pinned. At
		// the 7-epoch horizon the re-rooted search branches (1 node at
		// the 14-epoch one).
		{name: "internal1x2-allgather-milp-linkdown-reroot", topo: topo.Internal1(2), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverMILP, down: link0,
			want:   kernelCounts{Root: 852, Refactorizations: 15, FTUpdates: 837, UpdateNnz: 8500, Nodes: 3, NodeIters: 38},
			replan: kernelCounts{Root: 20, Refactorizations: 74, FTUpdates: 520, UpdateNnz: 7836, Nodes: 73, NodeIters: 722}},
		// The A* path, recorded at the commit before the round model and
		// the monolithic MILP became one emitter. NDv2Mini(2) on the fastest
		// link has κ up to 4, δ up to 3 and Kr = 9, so pending GPU and
		// switch arrivals and the capacity window straddling a round
		// boundary are all on the path; the last case takes down a link a
		// later round uses, so the round loop is re-entered mid-stream.
		// The three were re-recorded when an integral root relaxation
		// became the incumbent before the search: a round whose root is
		// integral no longer re-solves it as its first node.
		{name: "ndv2mini2-allgather-astar", topo: topo.NDv2Mini(2), demand: allGather, solver: SolverAStar,
			want: kernelCounts{Root: 515, Refactorizations: 9, FTUpdates: 434, UpdateNnz: 1709, Rounds: 6}},
		{name: "internal1x4-allgather-astar-slowest", topo: topo.Internal1(4), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverAStar,
			want: kernelCounts{Root: 1637, Refactorizations: 252, FTUpdates: 2497, UpdateNnz: 19807, Nodes: 239, NodeIters: 1868, Rounds: 3}},
		{name: "ndv2mini2-allgather-astar-linkdown-resume", topo: topo.NDv2Mini(2), demand: allGather,
			solver: SolverAStar, down: lateLink,
			want:   kernelCounts{Root: 515, Refactorizations: 9, FTUpdates: 434, UpdateNnz: 1709, Rounds: 6},
			replan: kernelCounts{Root: 128, Refactorizations: 5, FTUpdates: 96, UpdateNnz: 291, Rounds: 5}},
		// The rolling horizon, recorded with its first window crash-started
		// from the greedy plan: the TestPlannerHorizonWarmStarts request,
		// whose windows after the first warm-start from a key-matched
		// projection of the window before.
		{name: "dgx1-alltoall-horizon-w8", topo: topo.DGX1(), demand: allToAll,
			opt: Options{HorizonWindow: 8, HorizonOverlap: 7}, solver: SolverHorizon,
			want: kernelCounts{Root: 3646, Refactorizations: 85, FTUpdates: 3596, UpdateNnz: 66992, Windows: 4}},
		// A rolling horizon that falls back: on Line(5) with α at a
		// one-epoch commit stride the final window stays infeasible
		// through every extension, and the driver abandons its windows for
		// one monolithic LP. The counts are the abandoned windows' plus
		// the monolithic solve's; a fallback reporting only the latter
		// reads far cheaper than the work it did.
		{name: "line5-alltoall-horizon-fallback", topo: topo.Line(5, 1e9, 1e-3),
			demand: func(tt *topo.Topology) *collective.Demand {
				return collective.AllToAll(tt.NumNodes(), testGPUs(tt), 3, 1e6)
			},
			opt: Options{HorizonWindow: 2, HorizonOverlap: 1}, solver: SolverHorizon,
			want: kernelCounts{Root: 3407, Refactorizations: 104, FTUpdates: 3327, UpdateNnz: 36379, Windows: 22}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(c.topo, PlannerOptions{Defaults: c.opt})
			defer pl.Close()
			plan, err := pl.Plan(context.Background(), Request{Demand: c.demand(c.topo), Solver: c.solver})
			if err != nil {
				t.Fatal(err)
			}
			if got := countsOf(plan.Result); got != c.want {
				t.Errorf("plan: %+v, pinned %+v", got, c.want)
			}
			if c.down == nil {
				return
			}
			rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{c.down(t, plan)}})
			if err != nil {
				t.Fatal(err)
			}
			if rp.ReplanFallback {
				t.Fatal("link-down replan fell back to a cold solve; the dual simplex did not run")
			}
			if got := countsOf(rp.Result); got != c.replan {
				t.Errorf("replan: %+v, pinned %+v", got, c.replan)
			}
		})
	}
}
