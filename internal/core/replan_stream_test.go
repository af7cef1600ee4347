package core

// Churn-stream replan tests: structural growth, incremental demand
// appends (new pairs and new sources), MILP/A* incumbent replanning,
// the LP pivot-budget abort, cancellation semantics, and a mixed-kind
// randomized replan-vs-cold property corpus. Complements replan_test.go,
// which covers the single-delta LP paths.

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// kappaPreservingScale finds a (link, factor) pair whose capacity scale
// keeps the link's κ intact at tau, searching the given candidate
// factors in order. Returns nil when none exists.
func kappaPreservingScale(tt *topo.Topology, tau, chunkBytes float64, factors []float64) []topo.LinkScale {
	for l := 0; l < tt.NumLinks(); l++ {
		if tt.LinkDown(topo.LinkID(l)) {
			continue
		}
		c := tt.Link(topo.LinkID(l)).Capacity
		for _, f := range factors {
			if kappaAt(f*c, tau, chunkBytes) == kappaAt(c, tau, chunkBytes) {
				return []topo.LinkScale{{Link: topo.LinkID(l), Capacity: f}}
			}
		}
	}
	return nil
}

// TestReplanCapacityIncreaseIncremental: a κ-preserving capacity
// increase (restoration after degradation, or a provisioned upgrade) is
// a pure RHS relaxation of the incumbent model — it must replan
// incrementally and agree with a cold solve of the upgraded world.
func TestReplanCapacityIncreaseIncremental(t *testing.T) {
	tt := topo.DGX1()
	const chunkBytes = 25e3
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	tau := 1.1 * chunkBytes / tt.MaxCapacity()
	pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Tau: tau}})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	scale := kappaPreservingScale(tt, tau, chunkBytes, []float64{1.25, 1.5, 2})
	if scale == nil {
		t.Fatal("no κ-preserving capacity increase exists at padded tau")
	}
	rp, err := pl.Replan(context.Background(), Delta{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ReplanFallback {
		t.Fatalf("κ-preserving capacity increase %+v should replan incrementally", scale)
	}
	if !rp.WarmStart {
		t.Fatal("incremental replan must warm-start from the incumbent basis")
	}
	assertAvoidsDown(t, rp)

	upgraded, err := tt.ApplyDelta(topo.Delta{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveLP(context.Background(), upgraded, d, Options{Epochs: rp.Epochs, Tau: rp.Tau})
	if err != nil {
		t.Fatalf("cold reference solve: %v", err)
	}
	if !objClose(rp.Objective, cold.Objective) {
		t.Fatalf("capacity-increase replan objective %g != cold %g", rp.Objective, cold.Objective)
	}
}

// TestReplanAddDemandNewPairAndNewSource: Delta.AddDemand pairs that
// never existed in the incumbent model — a new destination for an
// existing source, then an entirely new source — are priced in as
// appended columns/rows of the incumbent LP, not cold rebuilds, and
// each append agrees with a cold solve of the union demand.
func TestReplanAddDemandNewPairAndNewSource(t *testing.T) {
	tt := topo.DGX1()
	gpus := testGPUs(tt)
	// Two chunks per source so each appended pair reads its own chunk:
	// a second destination for the *same* chunk would be multicast,
	// which the LP form (correctly) refuses to absorb incrementally.
	d := collective.New(tt.NumNodes(), 2, 25e3)
	d.Set(gpus[0], 0, gpus[1])
	d.Set(gpus[1], 0, gpus[2])
	// Pin a horizon with headroom: the incumbent K must admit the
	// appended pairs' earliest-arrival windows or the append is
	// (correctly) refused as structural.
	pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Epochs: 12}})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		name            string
		src, chunk, dst int
	}{
		{"new pair on existing source", gpus[0], 1, gpus[2]},
		{"new source", gpus[4], 0, gpus[1]},
	}
	for i, stp := range steps {
		add := collective.New(tt.NumNodes(), 2, 25e3)
		add.Set(stp.src, stp.chunk, stp.dst)
		rp, err := pl.Replan(context.Background(), Delta{AddDemand: add})
		if err != nil {
			t.Fatalf("%s: %v", stp.name, err)
		}
		if rp.ReplanFallback {
			t.Fatalf("%s should append incrementally, got cold fallback", stp.name)
		}
		if !rp.WarmStart {
			t.Fatalf("%s must warm-start from the padded incumbent basis", stp.name)
		}
		if !rp.Schedule.Demand.Wants(stp.src, stp.chunk, stp.dst) {
			t.Fatalf("%s: added pair missing from replanned demand", stp.name)
		}
		assertAvoidsDown(t, rp)
		cold, err := SolveLP(context.Background(), tt, rp.Schedule.Demand, Options{Epochs: rp.Epochs, Tau: rp.Tau})
		if err != nil {
			t.Fatalf("%s: cold union solve: %v", stp.name, err)
		}
		if !objClose(rp.Objective, cold.Objective) {
			t.Fatalf("%s: append objective %.9g != cold union %.9g", stp.name, rp.Objective, cold.Objective)
		}
		if st := pl.Stats(); st.Replans != i+1 || st.ReplanFallbacks != 0 {
			t.Fatalf("%s: stats = %+v, want %d incremental replans", stp.name, st, i+1)
		}
	}
}

// TestReplanGrowthFallsBackThenResumesIncremental: structural growth
// (a scale-up joining the job) replans by cold solve with the incumbent
// demand carried onto the grown node space — and the very next
// non-structural delta replans incrementally against the grown
// incumbent.
func TestReplanGrowthFallsBackThenResumesIncremental(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	ref := tt.Link(0)
	n := topo.NodeID(tt.NumNodes())
	grow := Delta{
		AddNodes: []topo.Node{{Name: "joiner"}},
		AddLinks: []topo.Link{
			{Src: n, Dst: 0, Capacity: ref.Capacity, Alpha: ref.Alpha},
			{Src: 0, Dst: n, Capacity: ref.Capacity, Alpha: ref.Alpha},
		},
	}
	rp, err := pl.Replan(context.Background(), grow)
	if err != nil {
		t.Fatalf("growth replan: %v", err)
	}
	if !rp.Replanned || !rp.ReplanFallback {
		t.Fatalf("growth must degrade to a cold solve, got Replanned=%v fallback=%v", rp.Replanned, rp.ReplanFallback)
	}
	if got := rp.Schedule.Demand.NumNodes(); got != tt.NumNodes()+1 {
		t.Fatalf("incumbent demand not carried onto grown node space: %d nodes, want %d", got, tt.NumNodes()+1)
	}
	assertAvoidsDown(t, rp)
	if pl.Topology().NumNodes() != tt.NumNodes()+1 || pl.Topology().NumLinks() != tt.NumLinks()+2 {
		t.Fatal("session topology did not grow")
	}
	st := pl.Stats()
	if st.ReplanFallbackStructural != 1 {
		t.Fatalf("growth fallback not classified structural: %+v", st)
	}

	// The grown world's cold solve becomes the incumbent; churn on the
	// grown topology replans incrementally again.
	rp2, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if rp2.ReplanFallback {
		t.Fatal("post-growth link churn should replan incrementally against the grown incumbent")
	}
	if !rp2.WarmStart {
		t.Fatal("post-growth incremental replan must warm-start")
	}
	assertAvoidsDown(t, rp2)
}

// TestReplanMILPIncumbentIncremental: topology churn on a MILP
// incumbent re-roots branch-and-bound from the repaired root basis and
// must agree with a cold MILP solve of the churned world whenever both
// are proven optimal.
func TestReplanMILPIncumbentIncremental(t *testing.T) {
	tt := topo.DGX1()
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: ag, Solver: SolverMILP}); err != nil {
		t.Fatal(err)
	}

	rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatalf("MILP replan: %v", err)
	}
	if rp.ReplanFallback {
		t.Fatal("link churn on a MILP incumbent should re-root incrementally")
	}
	if !rp.WarmStart || rp.Solver != SolverMILP {
		t.Fatalf("want warm-started MILP re-root, got warm=%v solver=%v", rp.WarmStart, rp.Solver)
	}
	assertAvoidsDown(t, rp)
	edited, err := tt.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveMILP(context.Background(), edited, ag, Options{Epochs: rp.Epochs, Tau: rp.Tau})
	if err != nil {
		t.Fatalf("cold MILP reference: %v", err)
	}
	if rp.Optimal && cold.Optimal && !objClose(rp.Objective, cold.Objective) {
		t.Fatalf("MILP re-root objective %g != cold %g", rp.Objective, cold.Objective)
	}

	// A capacity increase is also incremental for the MILP incumbent
	// (κ stays 1 when chunks already fit an epoch).
	rp2, err := pl.Replan(context.Background(), Delta{
		Scale: []topo.LinkScale{{Link: 1, Capacity: 1.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rp2.ReplanFallback {
		t.Fatal("κ-preserving capacity increase on a MILP incumbent should be incremental")
	}
	assertAvoidsDown(t, rp2)
	if st := pl.Stats(); st.Replans != 2 || st.ReplanFallbacks != 0 || st.ReplanPivots == 0 {
		t.Fatalf("stats = %+v, want 2 incremental MILP replans with pivots accounted", st)
	}
}

// TestReplanAStarIncumbentReplayAndResume: a pure capacity increase on
// an A* incumbent replays the whole incumbent schedule without any
// solver work; a link failure resumes the round loop from the first
// affected round.
func TestReplanAStarIncumbentReplayAndResume(t *testing.T) {
	tt := topo.DGX1()
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: ag, Solver: SolverAStar}); err != nil {
		t.Fatal(err)
	}

	rp, err := pl.Replan(context.Background(), Delta{
		Scale: []topo.LinkScale{{Link: 0, Capacity: 1.25}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ReplanFallback {
		t.Fatal("capacity increase on an A* incumbent should replay incrementally")
	}
	if rp.RootIterations+rp.NodeIterations != 0 {
		t.Fatalf("pure capacity increase must replay without solving, spent %d iterations",
			rp.RootIterations+rp.NodeIterations)
	}
	assertAvoidsDown(t, rp)

	rp2, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if rp2.ReplanFallback {
		t.Fatal("link failure on an A* incumbent should resume the round loop")
	}
	if rp2.Solver != SolverAStar {
		t.Fatalf("resume solver = %v, want A*", rp2.Solver)
	}
	assertAvoidsDown(t, rp2)
	if st := pl.Stats(); st.Replans != 2 || st.ReplanFallbacks != 0 {
		t.Fatalf("stats = %+v, want 2 incremental A* replans", st)
	}
}

// TestReplanBudgetAbortFallsBack pins the bounded-regret budget and its
// expiry semantics: with the pivot budget crushed to one iteration, the
// incremental attempt hits its iteration limit and must degrade to the
// cold fallback — counted as a budget fallback, never surfaced as an
// iteration-limit error.
func TestReplanBudgetAbortFallsBack(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{
		Replan: ReplanOptions{RegretFraction: 1e-9, PivotFloor: -1},
	})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatalf("budget expiry must degrade to the fallback, not error: %v", err)
	}
	if !rp.ReplanFallback {
		t.Fatal("one-pivot budget should abort the incremental attempt")
	}
	assertAvoidsDown(t, rp)
	st := pl.Stats()
	if st.ReplanFallbackBudget != 1 {
		t.Fatalf("budget abort not classified: %+v", st)
	}
	if st.ReplanFallbacks != 1 || st.ReplanFallbackStructural != 0 || st.ReplanFallbackSour != 0 {
		t.Fatalf("stats = %+v, want exactly one budget fallback", st)
	}
	if st.ColdEstimatePivots == 0 {
		t.Fatal("cold-pivot estimate not primed by the initial cold solve")
	}
}

// TestReplanCancellationSurfacesCleanly: caller cancellation mid-replan
// surfaces as the context error — not an iteration-limit failure, not a
// counted fallback — and leaves the session serviceable, whichever form
// the incumbent has. The downed link is one the incumbent uses (the
// lowest-numbered: LP send order is not deterministic), so no form can
// answer without solving (a surviving MILP incumbent, or an A* schedule
// that replays whole, would).
func TestReplanCancellationSurfacesCleanly(t *testing.T) {
	tt := topo.DGX1()
	atoa := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	for _, c := range []struct {
		solver Solver
		demand *collective.Demand
	}{{SolverLP, atoa}, {SolverMILP, ag}, {SolverAStar, ag}} {
		t.Run(c.solver.String(), func(t *testing.T) {
			pl := NewPlanner(tt, PlannerOptions{})
			plan, err := pl.Plan(context.Background(), Request{Demand: c.demand, Solver: c.solver})
			if err != nil {
				t.Fatal(err)
			}
			down := plan.Schedule.Sends[0].Link
			for _, snd := range plan.Schedule.Sends {
				down = min(down, snd.Link)
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err = pl.Replan(ctx, Delta{LinksDown: []topo.LinkID{down}})
			if err == nil {
				t.Fatal("cancelled replan should error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if s := err.Error(); strings.Contains(s, "iteration") || strings.Contains(s, "iter limit") {
				t.Fatalf("cancellation must not masquerade as an iteration limit: %v", err)
			}
			if st := pl.Stats(); st.Replans != 1 || st.ReplanFallbacks != 0 {
				t.Fatalf("stats = %+v, want one replan and no fallback counted", st)
			}
			// The session stays serviceable after the interrupted replan.
			after, err := pl.Plan(context.Background(), Request{Demand: c.demand.Clone(), Solver: c.solver})
			if err != nil {
				t.Fatalf("session unusable after cancelled replan (link %d down): %v", down, err)
			}
			assertAvoidsDown(t, after)
		})
	}
}

// TestReplanProgressMatchesColdPhases: an incremental replan stands in
// for a cold solve of the same form through the same solve tail, so the
// hook of the request it re-solves hears the phases that solve announces
// — the model on both forms, and the simplex on the LP.
func TestReplanProgressMatchesColdPhases(t *testing.T) {
	tt := topo.DGX1()
	for _, c := range []struct {
		solver Solver
		demand *collective.Demand
		phases []string
	}{
		{SolverLP, collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3), []string{"lp/model", "lp/simplex"}},
		{SolverMILP, collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3), []string{"milp/model"}},
	} {
		t.Run(c.solver.String(), func(t *testing.T) {
			seen := map[string]int{}
			hook := func(p Progress) { seen[p.Solver+"/"+p.Phase]++ }
			pl := NewPlanner(tt, PlannerOptions{})
			defer pl.Close()
			if _, err := pl.Plan(context.Background(), Request{Demand: c.demand, Solver: c.solver, Progress: hook}); err != nil {
				t.Fatal(err)
			}
			for _, ph := range c.phases {
				if seen[ph] == 0 {
					t.Fatalf("cold %v solve emitted %v, missing %q", c.solver, seen, ph)
				}
			}
			clear(seen)
			rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
			if err != nil {
				t.Fatal(err)
			}
			if rp.ReplanFallback {
				t.Fatal("link-down replan fell back to a cold solve; the incremental tail did not run")
			}
			for _, ph := range c.phases {
				if seen[ph] == 0 {
					t.Errorf("incremental %v replan emitted %v, missing %q", c.solver, seen, ph)
				}
			}
		})
	}
}

// TestReplanStreamMixedProperty: a randomized churn stream over every
// delta kind — link loss, κ-preserving degradation and restoration,
// pair drops, demand re-adds, and structural growth — must keep every
// LP replan (incremental or fallback) equal in objective to a cold
// solve of the churned world at the replan's own discretization, with
// MILP and A* incumbents holding their respective guarantees.
func TestReplanStreamMixedProperty(t *testing.T) {
	const chunkBytes = 25e3
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 2; trial++ {
		tt := topo.DGX1()
		gpus := testGPUs(tt)
		tau := 1.1 * chunkBytes / tt.MaxCapacity()
		d := collective.AllToAll(tt.NumNodes(), gpus, 1, chunkBytes)
		pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Tau: tau}})
		if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
			t.Fatal(err)
		}
		world := tt.Clone()
		demand := d.Clone()
		var dropped []DemandPair
		grown := false
		growStep := 1 + rng.Intn(3)

		for step := 0; step < 5; step++ {
			var delta Delta
			kind := rng.Intn(4)
			if step == growStep && !grown {
				kind = 4
			}
			switch kind {
			case 0:
				live := liveRemovableLinks(world)
				if len(live) == 0 {
					continue
				}
				delta.LinksDown = []topo.LinkID{live[rng.Intn(len(live))]}
			case 1:
				f := 0.9
				if rng.Intn(2) == 0 {
					f = 1.25
				}
				l := topo.LinkID(rng.Intn(world.NumLinks()))
				if world.LinkDown(l) {
					continue
				}
				delta.Scale = []topo.LinkScale{{Link: l, Capacity: f}}
			case 2:
				src, dst := gpus[rng.Intn(len(gpus))], gpus[rng.Intn(len(gpus))]
				if src == dst || len(demand.DestWantsFromSource(src, dst)) == 0 {
					continue
				}
				delta.DropPairs = []DemandPair{{Src: src, Dst: dst}}
				dropped = append(dropped, delta.DropPairs[0])
			case 3:
				if len(dropped) == 0 {
					continue
				}
				pr := dropped[len(dropped)-1]
				dropped = dropped[:len(dropped)-1]
				add := collective.New(demand.NumNodes(), demand.NumChunks(), demand.ChunkBytes)
				add.Set(pr.Src, 0, pr.Dst)
				delta.AddDemand = add
			case 4:
				ref := world.Link(0)
				n := topo.NodeID(world.NumNodes())
				delta.AddNodes = []topo.Node{{Name: "joiner"}}
				delta.AddLinks = []topo.Link{
					{Src: n, Dst: 0, Capacity: ref.Capacity, Alpha: ref.Alpha},
					{Src: 0, Dst: n, Capacity: ref.Capacity, Alpha: ref.Alpha},
				}
				grown = true
			}

			rp, err := pl.Replan(context.Background(), delta)
			if err != nil {
				t.Fatalf("trial %d step %d: replan %v (delta %+v)", trial, step, err, delta)
			}
			assertAvoidsDown(t, rp)

			world, err = world.ApplyDelta(topo.Delta{
				LinksDown: delta.LinksDown, Scale: delta.Scale,
				AddNodes: delta.AddNodes, AddLinks: delta.AddLinks,
			})
			if err != nil {
				t.Fatal(err)
			}
			if world.NumNodes() > demand.NumNodes() {
				demand = demand.WithNodes(world.NumNodes())
			}
			for _, pr := range delta.DropPairs {
				demand.DropPair(pr.Src, pr.Dst)
			}
			if delta.AddDemand != nil {
				demand.Or(delta.AddDemand)
			}

			// A fallback that re-derived its own horizon can be compared
			// at its reported discretization only when the incumbent τ
			// survived; growth fallbacks keep τ (it is pinned), so every
			// LP plan in this stream admits a cold reference.
			cold, err := SolveLP(context.Background(), world, demand, Options{Epochs: rp.Epochs, Tau: rp.Tau})
			if err != nil {
				t.Fatalf("trial %d step %d: cold reference %v", trial, step, err)
			}
			if !objClose(rp.Objective, cold.Objective) {
				t.Fatalf("trial %d step %d: replan obj %g != cold %g (fallback=%v delta=%+v)",
					trial, step, rp.Objective, cold.Objective, rp.ReplanFallback, delta)
			}
		}
	}

	// MILP incumbent leg: incremental re-roots must match cold optima.
	tt := topo.DGX1()
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	pm := NewPlanner(tt, PlannerOptions{})
	if _, err := pm.Plan(context.Background(), Request{Demand: ag, Solver: SolverMILP}); err != nil {
		t.Fatal(err)
	}
	world := tt.Clone()
	for step := 0; step < 2; step++ {
		var delta Delta
		if step == 0 {
			live := liveRemovableLinks(world)
			delta.LinksDown = []topo.LinkID{live[rng.Intn(len(live))]}
		} else {
			delta.Scale = []topo.LinkScale{{Link: 1, Capacity: 1.25}}
		}
		rp, err := pm.Replan(context.Background(), delta)
		if err != nil {
			t.Fatalf("milp step %d: %v", step, err)
		}
		assertAvoidsDown(t, rp)
		world, err = world.ApplyDelta(topo.Delta{LinksDown: delta.LinksDown, Scale: delta.Scale})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveMILP(context.Background(), world, ag, Options{Epochs: rp.Epochs, Tau: rp.Tau})
		if err != nil {
			t.Fatalf("milp step %d: cold reference %v", step, err)
		}
		if rp.Optimal && cold.Optimal && !objClose(rp.Objective, cold.Objective) {
			t.Fatalf("milp step %d: replan obj %g != cold %g", step, rp.Objective, cold.Objective)
		}
	}

	// A* incumbent leg: replayed/resumed schedules must deliver the full
	// demand on the churned world (objective equality is not an A*
	// guarantee — it is a bounded-gap heuristic).
	pa := NewPlanner(tt, PlannerOptions{})
	if _, err := pa.Plan(context.Background(), Request{Demand: ag.Clone(), Solver: SolverAStar}); err != nil {
		t.Fatal(err)
	}
	aworld := tt.Clone()
	for step := 0; step < 2; step++ {
		var delta Delta
		if step == 0 {
			delta.Scale = []topo.LinkScale{{Link: 2, Capacity: 1.25}}
		} else {
			live := liveRemovableLinks(aworld)
			delta.LinksDown = []topo.LinkID{live[rng.Intn(len(live))]}
		}
		rp, err := pa.Replan(context.Background(), delta)
		if err != nil {
			t.Fatalf("astar step %d: %v", step, err)
		}
		assertAvoidsDown(t, rp)
		var aerr error
		aworld, aerr = aworld.ApplyDelta(topo.Delta{LinksDown: delta.LinksDown, Scale: delta.Scale})
		if aerr != nil {
			t.Fatal(aerr)
		}
	}
}

// TestReplanConcurrentFallbackRebaseStats: Plan, Replan, and Stats
// racing while the replan stream mixes incremental solves and structural
// fallbacks. Run with -race; the assertions check the counters stay
// coherent under contention.
func TestReplanConcurrentFallbackRebaseStats(t *testing.T) {
	tt := topo.DGX1()
	const chunkBytes = 25e3
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	tau := 1.1 * chunkBytes / tt.MaxCapacity()
	pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Tau: tau}})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}
	scale := kappaPreservingScale(tt, tau, chunkBytes, []float64{0.95, 0.9})
	if scale == nil {
		t.Fatal("no κ-preserving degradation exists at padded tau")
	}

	const replans = 6
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				dd := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, float64(20e3+1000*w+100*i))
				plan, err := pl.Plan(context.Background(), Request{Demand: dd, Solver: SolverLP})
				if err != nil {
					t.Errorf("plan worker %d: %v", w, err)
					return
				}
				if err := plan.Schedule.Validate(); err != nil {
					t.Errorf("plan worker %d: invalid schedule: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			st := pl.Stats()
			if st.ReplanFallbacks > st.Replans {
				t.Errorf("incoherent stats snapshot: %+v", st)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < replans; i++ {
			delta := Delta{Scale: scale}
			if i%3 == 2 {
				// A straggler whose α inflates past the epoch changes δ:
				// structural fallback.
				delta = Delta{Scale: []topo.LinkScale{{Link: 2, Alpha: 10000}}}
			}
			if _, err := pl.Replan(context.Background(), delta); err != nil {
				t.Errorf("replan %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()

	st := pl.Stats()
	if st.Replans != replans {
		t.Fatalf("Replans = %d, want %d", st.Replans, replans)
	}
	if st.ReplanFallbackStructural == 0 {
		t.Fatalf("straggler deltas should have forced structural fallbacks: %+v", st)
	}
	if st.ReplanFallbacks > st.Replans {
		t.Fatalf("incoherent final stats: %+v", st)
	}
}
