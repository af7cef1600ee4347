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

// kernelCounts is the exact effort of one solve.
type kernelCounts struct {
	Root, Refactorizations, FTUpdates, UpdateNnz, Nodes, NodeIters int
}

func countsOf(r *Result) kernelCounts {
	return kernelCounts{r.RootIterations, r.Refactorizations, r.FTUpdates, r.UpdateNnz, r.Nodes, r.NodeIterations}
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
		down   bool // follow the plan with a link-down Replan (dual simplex)
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
		{name: "dgx1-alltoall-linkdown-replan", topo: topo.DGX1(), demand: allToAll, solver: SolverLP, down: true,
			want:   kernelCounts{Root: 2100, Refactorizations: 44, FTUpdates: 2069, UpdateNnz: 39620},
			replan: kernelCounts{Root: 38, Refactorizations: 1, FTUpdates: 35, UpdateNnz: 506}},
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
			if !c.down {
				return
			}
			rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
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
