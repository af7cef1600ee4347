package core

// Planner session tests: cross-request reuse (schedule replay, warm
// bases, epoch-estimate caching), policy routing, per-request overrides,
// and context handling through the session entry point.

import (
	"context"
	"errors"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

func TestPlannerReplaysIdenticalLPRequest(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})

	first, err := pl.Plan(context.Background(), Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	if first.Solver != SolverLP {
		t.Fatalf("solver = %v, want lp", first.Solver)
	}
	if first.CacheHit {
		t.Fatal("first request claims a cache hit")
	}
	second, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical second request was not replayed")
	}
	if second.Objective != first.Objective {
		t.Fatalf("replayed objective %g != solved %g", second.Objective, first.Objective)
	}
	if err := second.Schedule.Validate(); err != nil {
		t.Fatalf("replayed schedule invalid: %v", err)
	}
	st := pl.Stats()
	if st.Requests != 2 || st.ScheduleReplays != 1 {
		t.Fatalf("stats = %+v, want 2 requests / 1 replay", st)
	}
	// The repeat is answered by the request index: no model is built, so
	// the epoch estimator the first request consulted is not consulted
	// again.
	if st.EpochCacheHits != 0 {
		t.Fatalf("stats = %+v, want no epoch-estimate lookups on the keyed repeat", st)
	}
}

func TestPlannerWarmStartsRelatedLPRequests(t *testing.T) {
	// Different chunk counts produce different models (no replay), but
	// the variable names overlap, so the second request must resume from
	// the first's basis.
	tt := topo.DGX1()
	pl := NewPlanner(tt, PlannerOptions{})
	for i, chunks := range []int{1, 2} {
		d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), chunks, 25e3)
		plan, err := pl.Plan(context.Background(), Request{Demand: d})
		if err != nil {
			t.Fatal(err)
		}
		if plan.CacheHit {
			t.Fatalf("request %d replayed despite a different model", i)
		}
		if i == 0 && plan.WarmStart {
			t.Fatal("first request claims a warm start")
		}
		if i == 1 && !plan.WarmStart {
			t.Fatal("second request did not warm-start from the first")
		}
	}
	if st := pl.Stats(); st.WarmStartHits != 1 {
		t.Fatalf("stats = %+v, want 1 warm-start hit", st)
	}
}

func TestPlannerWarmStartsRepeatedMILPRequest(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})

	first, err := pl.Plan(context.Background(), Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	if first.Solver != SolverMILP {
		t.Fatalf("solver = %v, want milp", first.Solver)
	}
	second, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmStart {
		t.Fatal("repeated MILP request did not warm-start its root")
	}
	if second.Objective != first.Objective {
		t.Fatalf("objectives diverge: %g vs %g", second.Objective, first.Objective)
	}
	if st := pl.Stats(); st.ExactBasisHits == 0 {
		t.Fatalf("stats = %+v, want an exact-fingerprint basis hit", st)
	}
}

func TestPlannerMatchesFreeFunctions(t *testing.T) {
	// The session must change the economics, never the answers: a free
	// function and a fresh single-use session are one solve path, so they
	// agree on the effort spent, not just on the objective reached.
	tt := topo.DGX1()
	atoa := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	for _, c := range []struct {
		solver Solver
		demand *collective.Demand
		free   solveFunc
	}{
		{SolverLP, atoa, SolveLP},
		{SolverMILP, ag, SolveMILP},
		{SolverAStar, ag, SolveAStar},
	} {
		t.Run(c.solver.String(), func(t *testing.T) {
			free, err := c.free(context.Background(), tt, c.demand, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pl := NewPlanner(tt, PlannerOptions{})
			defer pl.Close()
			plan, err := pl.Plan(context.Background(), Request{Demand: c.demand, Solver: c.solver})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := countsOf(plan.Result), countsOf(free); got != want {
				t.Errorf("effort: planner %+v, free %+v", got, want)
			}
			if plan.Objective != free.Objective {
				t.Errorf("objective: planner %g, free %g", plan.Objective, free.Objective)
			}
			if got, want := plan.Schedule.FinishEpoch(), free.Schedule.FinishEpoch(); got != want {
				t.Errorf("finish epoch: planner %d, free %d", got, want)
			}
		})
	}
}

func TestPlannerSolverOverrideAndPolicy(t *testing.T) {
	tt := topo.DGX1()
	ag := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)

	// Session policy pins A*; the request override forces the MILP.
	pl := NewPlanner(tt, PlannerOptions{Policy: ForceAStar})
	plan, err := pl.Plan(context.Background(), Request{Demand: ag})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solver != SolverAStar {
		t.Fatalf("policy routing: got %v, want astar", plan.Solver)
	}
	plan, err = pl.Plan(context.Background(), Request{Demand: ag, Solver: SolverMILP})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Solver != SolverMILP {
		t.Fatalf("request override: got %v, want milp", plan.Solver)
	}
}

func TestPlannerRequestOptionsOverride(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllGather(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{Defaults: Options{GapLimit: 0.3}})
	opt := Options{} // exact solve for this one request
	plan, err := pl.Plan(context.Background(), Request{Demand: d, Options: &opt})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Optimal {
		t.Fatalf("per-request exact solve returned gap %g", plan.Gap)
	}
}

func TestPlannerCancelledContext(t *testing.T) {
	tt, d := hardLPInstance()
	pl := NewPlanner(tt, PlannerOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := pl.Plan(ctx, Request{Demand: d})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrap of context.Canceled", err)
	}
}

func TestPlannerReplayRespectsMinimizeMakespan(t *testing.T) {
	// The replay cache keys on the built model, which MinimizeMakespan
	// does not alter — the flag drives post-solve refinement. A request
	// asking for the refinement must not be served an earlier unrefined
	// schedule (and vice versa).
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})

	plain, err := pl.Plan(context.Background(), Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	mk := Options{MinimizeMakespan: true}
	refined, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &mk})
	if err != nil {
		t.Fatal(err)
	}
	if refined.CacheHit {
		t.Fatal("MinimizeMakespan request replayed a non-makespan schedule")
	}
	if refined.Schedule.FinishEpoch() > plain.Schedule.FinishEpoch() {
		t.Fatalf("refined finish %d worse than plain %d",
			refined.Schedule.FinishEpoch(), plain.Schedule.FinishEpoch())
	}
	// A repeat of the refined request may replay — from the refined entry.
	again, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &mk})
	if err != nil {
		t.Fatal(err)
	}
	if again.Schedule.FinishEpoch() != refined.Schedule.FinishEpoch() {
		t.Fatalf("repeat refined finish %d != %d", again.Schedule.FinishEpoch(), refined.Schedule.FinishEpoch())
	}
}

func TestPlannerRequiresDemand(t *testing.T) {
	pl := NewPlanner(topo.DGX1(), PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{}); err == nil {
		t.Fatal("nil demand accepted")
	}
}

func TestPlannerClose(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})

	plan, err := pl.Plan(context.Background(), Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	before := pl.Stats()
	if err := pl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := pl.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if _, err := pl.Plan(context.Background(), Request{Demand: d}); !errors.Is(err, ErrPlannerClosed) {
		t.Fatalf("Plan after Close: err = %v, want ErrPlannerClosed", err)
	}
	if _, err := pl.Replan(context.Background(), Delta{}); !errors.Is(err, ErrPlannerClosed) {
		t.Fatalf("Replan after Close: err = %v, want ErrPlannerClosed", err)
	}
	// Stats and Topology survive Close: the eviction path of a serving
	// tier logs both after releasing the caches.
	after := pl.Stats()
	if after.Requests != before.Requests {
		t.Fatalf("stats lost across Close: %+v vs %+v", after, before)
	}
	if pl.Topology() == nil {
		t.Fatal("Topology nil after Close")
	}
	_ = plan
}

func TestPlannerCloseKeepsCacheHitCounters(t *testing.T) {
	// Cache-hit counters live in the per-topology state bundle that
	// Close (and Replan) swap out; folding must preserve them. A repeat
	// of the first request is a keyed replay and estimates nothing; the
	// third request states "no scaling" differently (EpochMultiplier 1,
	// not 0), so it misses the request key, builds its model — consulting
	// the epoch estimate the first request cached — and replays by
	// fingerprint.
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	for i, opt := range []*Options{nil, nil, {EpochMultiplier: 1}} {
		plan, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: opt})
		if err != nil {
			t.Fatal(err)
		}
		if plan.CacheHit != (i > 0) {
			t.Fatalf("request %d: CacheHit = %v", i, plan.CacheHit)
		}
	}
	before := pl.Stats()
	if before.EpochCacheHits == 0 || before.TauCacheHits == 0 {
		t.Fatalf("stats = %+v, want epoch-estimate and tau cache hits before Close", before)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	after := pl.Stats()
	if after.EpochCacheHits != before.EpochCacheHits || after.TauCacheHits != before.TauCacheHits {
		t.Fatalf("cache-hit counters dropped across Close: %+v vs %+v", after, before)
	}
}

func TestPlannerCloseConcurrentWithPlan(t *testing.T) {
	// Close racing in-flight Plans must neither panic nor corrupt the
	// closed session; late Plans fail cleanly with ErrPlannerClosed.
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			_, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
			if err != nil && !errors.Is(err, ErrPlannerClosed) {
				t.Errorf("racing Plan: %v", err)
				return
			}
		}
	}()
	if _, err := pl.Plan(context.Background(), Request{Demand: d}); err != nil {
		t.Fatal(err)
	}
	if err := pl.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// tinyLP is a one-row problem whose fingerprint is set by rhs.
func tinyLP(rhs float64) *lp.Problem {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, lp.Inf, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 1}}, lp.LE, rhs)
	return p
}

// TestSessionCachesEvictOldestFirst: the bounded basis store and both
// indexes of the schedule-replay cache drop their oldest entry when full,
// so two sessions fed the same request stream retain the same entries
// (map iteration order used to pick the victim).
func TestSessionCachesEvictOldestFirst(t *testing.T) {
	const limit, n = 4, 11
	probs := make([]*lp.Problem, n)
	demands := make([]*collective.Demand, n)
	for i := range probs {
		probs[i] = tinyLP(float64(i + 1))
		demands[i] = collective.New(2, 1, float64(i+1))
	}
	basis := &lp.Basis{Vars: []lp.BasisStatus{lp.BasisBasic}, Rows: []lp.BasisStatus{lp.BasisAtLower}}

	for fill := 0; fill < 2; fill++ {
		store := newBasisStore()
		store.limit = limit
		cache := &batchCache{limit: limit}
		for i, p := range probs {
			store.record(p, basis)
			store.record(p, basis) // re-recording must not age or duplicate
			e := &batchEntry{base: p}
			cache.store(p.Fingerprint(), e)
			k, _ := keyOf(demands[i], &Options{})
			cache.remember(k, keyedRequest{demand: demands[i], entry: e})
			cache.remember(k, keyedRequest{demand: demands[i], entry: e}) // nor re-remembering
		}
		for i, p := range probs {
			want := i >= n-limit
			if got := store.lookup(p) != nil; got != want {
				t.Errorf("fill %d: basis store holds entry %d = %v, want %v", fill, i, got, want)
			}
			if got := cache.lookup(p.Fingerprint(), p, false) != nil; got != want {
				t.Errorf("fill %d: model index holds entry %d = %v, want %v", fill, i, got, want)
			}
			k, _ := keyOf(demands[i], &Options{})
			if e, _ := cache.lookupRequest(k, demands[i]); (e != nil) != want {
				t.Errorf("fill %d: request index holds entry %d = %v, want %v", fill, i, e != nil, want)
			}
		}
		if len(store.order) != limit || len(cache.order) != limit || cache.size != limit ||
			len(cache.keys) != limit || len(cache.requests) != limit {
			t.Errorf("fill %d: bookkeeping store.order=%d cache.order=%d cache.size=%d cache.keys=%d cache.requests=%d, want %d each",
				fill, len(store.order), len(cache.order), cache.size, len(cache.keys), len(cache.requests), limit)
		}
		// Every entry here holds its model, so a Replan carries none of them.
		if next := cache.carry(); next.size != 0 || len(next.order) != 0 || len(next.entries) != 0 || next.limit != limit {
			t.Errorf("fill %d: carried %d entries in %d buckets (limit %d), want none under limit %d", fill, next.size, len(next.order), next.limit, limit)
		}
	}
}
