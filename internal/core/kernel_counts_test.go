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
// path).
type kernelCounts struct {
	Root, Refactorizations, FTUpdates, UpdateNnz, Nodes, NodeIters, Rounds int
}

func countsOf(r *Result) kernelCounts {
	return kernelCounts{r.RootIterations, r.Refactorizations, r.FTUpdates, r.UpdateNnz, r.Nodes, r.NodeIterations, r.Rounds}
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
		// Recorded at the commit before PR 16 (the parent of the first
		// kernel-only change).
		{name: "dgx1-alltoall-lp", topo: topo.DGX1(), demand: allToAll, solver: SolverLP,
			want: kernelCounts{Root: 2100, Refactorizations: 44, FTUpdates: 2069, UpdateNnz: 39620}},
		{name: "internal1x2-alltoall-lp", topo: topo.Internal1(2), demand: allToAll,
			opt: Options{EpochMode: SlowestLink}, solver: SolverLP,
			want: kernelCounts{Root: 956, Refactorizations: 24, FTUpdates: 922, UpdateNnz: 16411}},
		{name: "ndv2mini2-alltoall-lp-slowest", topo: topo.NDv2Mini(2), demand: allToAll,
			opt: Options{EpochMode: SlowestLink}, solver: SolverLP,
			want: kernelCounts{Root: 2299, Refactorizations: 36, FTUpdates: 2256, UpdateNnz: 40467}},
		// DGX1 ALLGATHER closes at the root; Internal1(2) branches, so its
		// node re-solves (warm dual simplex on retained Solvers) are pinned.
		{name: "dgx1-allgather-milp", topo: topo.DGX1(), demand: allGather, solver: SolverMILP,
			want: kernelCounts{Root: 504, Refactorizations: 6, FTUpdates: 442, UpdateNnz: 1941}},
		{name: "internal1x2-allgather-milp", topo: topo.Internal1(2), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverMILP,
			want: kernelCounts{Root: 1948, Refactorizations: 38, FTUpdates: 1989, UpdateNnz: 17354, Nodes: 24, NodeIters: 186}},
		{name: "dgx1-alltoall-linkdown-replan", topo: topo.DGX1(), demand: allToAll, solver: SolverLP, down: link0,
			want:   kernelCounts{Root: 2100, Refactorizations: 44, FTUpdates: 2069, UpdateNnz: 39620},
			replan: kernelCounts{Root: 38, Refactorizations: 1, FTUpdates: 35, UpdateNnz: 506}},
		// The MILP re-root, recorded at the commit before plan and replan
		// came to share one solve tail per form: with the LP replan above
		// and the A* resume below, all three replan tails are pinned.
		{name: "internal1x2-allgather-milp-linkdown-reroot", topo: topo.Internal1(2), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverMILP, down: link0,
			want:   kernelCounts{Root: 1948, Refactorizations: 38, FTUpdates: 1989, UpdateNnz: 17354, Nodes: 24, NodeIters: 186},
			replan: kernelCounts{Root: 21, Refactorizations: 2, FTUpdates: 18, UpdateNnz: 179, Nodes: 1, NodeIters: 3}},
		// The A* path, recorded at the commit before the round model and
		// the monolithic MILP became one emitter. NDv2Mini(2) on the fastest
		// link has κ up to 4, δ up to 3 and Kr = 9, so pending GPU and
		// switch arrivals and the capacity window straddling a round
		// boundary are all on the path; the last case takes down a link a
		// later round uses, so the round loop is re-entered mid-stream.
		{name: "ndv2mini2-allgather-astar", topo: topo.NDv2Mini(2), demand: allGather, solver: SolverAStar,
			want: kernelCounts{Root: 515, Refactorizations: 15, FTUpdates: 493, UpdateNnz: 2080, Nodes: 6, NodeIters: 77, Rounds: 6}},
		{name: "internal1x4-allgather-astar-slowest", topo: topo.Internal1(4), demand: allGather,
			opt: Options{EpochMode: SlowestLink}, solver: SolverAStar,
			want: kernelCounts{Root: 1637, Refactorizations: 254, FTUpdates: 2497, UpdateNnz: 19807, Nodes: 241, NodeIters: 1874, Rounds: 3}},
		{name: "ndv2mini2-allgather-astar-linkdown-resume", topo: topo.NDv2Mini(2), demand: allGather,
			solver: SolverAStar, down: lateLink,
			want:   kernelCounts{Root: 515, Refactorizations: 15, FTUpdates: 493, UpdateNnz: 2080, Nodes: 6, NodeIters: 77, Rounds: 6},
			replan: kernelCounts{Root: 128, Refactorizations: 9, FTUpdates: 117, UpdateNnz: 412, Nodes: 4, NodeIters: 33, Rounds: 5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Unbudgeted replans: a wall-clock budget abort (race detector,
			// loaded host) would turn the A* resume into a cold fallback.
			pl := NewPlanner(c.topo, PlannerOptions{Defaults: c.opt, Replan: ReplanOptions{RegretFraction: -1}})
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
