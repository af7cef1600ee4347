package core

// Replan tests: incremental dual-simplex reoptimization under churn,
// equivalence with cold solves at the incumbent discretization, graceful
// degradation, atomic cache invalidation (the stale-replay bugfix), and
// race-cleanliness under concurrent sessions.

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// objClose reports relative objective agreement.
func objClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(b))
}

// assertAvoidsDown fails if any send of the plan uses a downed link.
func assertAvoidsDown(t *testing.T, p *Plan) {
	t.Helper()
	for _, snd := range p.Schedule.Sends {
		if p.Schedule.Topo.LinkDown(snd.Link) {
			t.Fatalf("schedule uses downed link %d", snd.Link)
		}
	}
	if err := p.Schedule.Validate(); err != nil {
		t.Fatalf("replanned schedule invalid: %v", err)
	}
}

func TestReplanLinkDownIncremental(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	base, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}

	down := topo.LinkID(0)
	rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{down}})
	if err != nil {
		t.Fatalf("Replan: %v", err)
	}
	if !rp.Replanned || rp.ReplanFallback {
		t.Fatalf("want incremental replan, got Replanned=%v fallback=%v", rp.Replanned, rp.ReplanFallback)
	}
	if !rp.WarmStart {
		t.Fatal("incremental replan must warm-start from the incumbent basis")
	}
	assertAvoidsDown(t, rp)

	// The incremental reoptimization must agree with a from-scratch cold
	// solve of the churned world at the incumbent discretization.
	edited, err := tt.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{down}})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := SolveLP(context.Background(), edited, d, Options{Epochs: rp.Epochs, Tau: rp.Tau})
	if err != nil {
		t.Fatalf("cold reference solve: %v", err)
	}
	if !objClose(rp.Objective, cold.Objective) {
		t.Fatalf("replan objective %g != cold %g", rp.Objective, cold.Objective)
	}
	// And it should be cheap relative to the cold solve.
	if cold.RootIterations > 20 && rp.RootIterations >= cold.RootIterations {
		t.Fatalf("incremental replan took %d iterations, cold %d", rp.RootIterations, cold.RootIterations)
	}

	st := pl.Stats()
	if st.Replans != 1 || st.ReplanFallbacks != 0 {
		t.Fatalf("stats = %+v, want 1 replan / 0 fallbacks", st)
	}
	if st.ReplanPivots != rp.RootIterations {
		t.Fatalf("ReplanPivots = %d, want %d", st.ReplanPivots, rp.RootIterations)
	}

	// Future plans run against the churned topology.
	after, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	assertAvoidsDown(t, after)
	_ = base
}

// kappaAt replicates the per-link epochs-per-chunk derivation so tests
// can predict whether a capacity scale is structural.
func kappaAt(capacity, tau, chunkBytes float64) int {
	per := capacity * tau / chunkBytes
	if per >= 1-1e-9 {
		return 1
	}
	return int(math.Ceil(1/per - 1e-9))
}

func TestReplanDegradationAndStraggler(t *testing.T) {
	tt := topo.DGX1()
	const chunkBytes = 25e3
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, chunkBytes)
	// The derived tau puts every link's chunks-per-epoch at an exact
	// ceiling boundary (capacities are integer ratios), where any
	// downscale is structural; pad tau so κ-preserving degradation
	// exists, as it does on real fractional-rate hardware.
	tau := 1.1 * chunkBytes / tt.MaxCapacity()
	pl := NewPlanner(tt, PlannerOptions{Defaults: Options{Tau: tau}})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	// Find a (link, factor) whose degradation keeps κ intact.
	var scale []topo.LinkScale
	for l := 0; l < tt.NumLinks() && scale == nil; l++ {
		for _, f := range []float64{0.95, 0.9, 0.85} {
			c := tt.Link(topo.LinkID(l)).Capacity
			if kappaAt(f*c, tau, chunkBytes) == kappaAt(c, tau, chunkBytes) {
				scale = []topo.LinkScale{{Link: topo.LinkID(l), Capacity: f}}
				break
			}
		}
	}
	if scale == nil {
		t.Fatal("no κ-preserving degradation exists at padded tau")
	}

	// Mild capacity degradation keeps κ intact → incremental.
	rp, err := pl.Replan(context.Background(), Delta{Scale: scale})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ReplanFallback {
		t.Fatalf("κ-preserving degradation %+v should replan incrementally", scale)
	}
	assertAvoidsDown(t, rp)

	// A straggler whose α inflates past the epoch duration changes δ —
	// structural churn → graceful cold fallback, not an error.
	rp2, err := pl.Replan(context.Background(), Delta{
		Scale: []topo.LinkScale{{Link: 2, Alpha: 10000}},
	})
	if err != nil {
		t.Fatalf("structural replan errored: %v", err)
	}
	if !rp2.Replanned || !rp2.ReplanFallback {
		t.Fatalf("want cold fallback, got Replanned=%v fallback=%v", rp2.Replanned, rp2.ReplanFallback)
	}
	if err := rp2.Schedule.Validate(); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
	st := pl.Stats()
	if st.Replans != 2 || st.ReplanFallbacks != 1 {
		t.Fatalf("stats = %+v, want 2 replans / 1 fallback", st)
	}
}

func TestReplanNodeLossDropsDemand(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}
	lost := topo.NodeID(3)
	rp, err := pl.Replan(context.Background(), Delta{NodesDown: []topo.NodeID{lost}})
	if err != nil {
		t.Fatalf("node-loss replan: %v", err)
	}
	assertAvoidsDown(t, rp)
	// No send may target or originate traffic for the lost node.
	dem := rp.Schedule.Demand
	for s := 0; s < dem.NumNodes(); s++ {
		for c := 0; c < dem.NumChunks(); c++ {
			if dem.Wants(s, c, int(lost)) || (s == int(lost) && dem.SourceHasChunk(s, c) && len(dem.DestWantsFromSource(s, int(lost))) > 0) {
				t.Fatal("lost node still present in replanned demand")
			}
		}
	}
	for c := 0; c < dem.NumChunks(); c++ {
		for dst := 0; dst < dem.NumNodes(); dst++ {
			if dem.Wants(int(lost), c, dst) {
				t.Fatal("demand still wants chunks of the lost node")
			}
		}
	}
}

func TestReplanDropPairAndAddDemand(t *testing.T) {
	tt := topo.DGX1()
	gpus := testGPUs(tt)
	d := collective.AllToAll(tt.NumNodes(), gpus, 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	// Dropping a pair is a bound/RHS edit → incremental.
	rp, err := pl.Replan(context.Background(), Delta{DropPairs: []DemandPair{{Src: gpus[0], Dst: gpus[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ReplanFallback {
		t.Fatal("pair drop should replan incrementally")
	}
	assertAvoidsDown(t, rp)
	if rp.Schedule.Demand.Wants(gpus[0], 0, gpus[1]) {
		t.Fatal("dropped pair still demanded")
	}

	// Re-adding the dropped pair resurrects its columns incrementally:
	// the append path widens the existing read columns and re-raises the
	// destination-total row instead of forcing a cold rebuild.
	add := collective.New(tt.NumNodes(), d.NumChunks(), d.ChunkBytes)
	add.Set(gpus[0], 0, gpus[1])
	rp2, err := pl.Replan(context.Background(), Delta{AddDemand: add})
	if err != nil {
		t.Fatal(err)
	}
	if rp2.ReplanFallback {
		t.Fatal("re-added demand pair should replan incrementally")
	}
	if !rp2.WarmStart {
		t.Fatal("demand append must warm-start from the padded incumbent basis")
	}
	if !rp2.Schedule.Demand.Wants(gpus[0], 0, gpus[1]) {
		t.Fatal("added demand missing from replanned schedule")
	}
	if err := rp2.Schedule.Validate(); err != nil {
		t.Fatalf("appended schedule invalid: %v", err)
	}

	// The incremental append must agree with a cold solve of the union
	// demand at the incumbent discretization.
	cold, err := SolveLP(context.Background(), pl.Topology(), rp2.Schedule.Demand, Options{Tau: rp2.Tau, Epochs: rp2.Epochs})
	if err != nil {
		t.Fatalf("cold union solve: %v", err)
	}
	if !objClose(rp2.Objective, cold.Objective) {
		t.Fatalf("append objective %.9g != cold %.9g", rp2.Objective, cold.Objective)
	}
}

func TestReplanErrors(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})

	if _, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}}); err == nil {
		t.Fatal("Replan before any Plan should error")
	}
	if _, err := pl.Plan(context.Background(), Request{Demand: d}); err != nil {
		t.Fatal(err)
	}
	before := pl.Topology()
	if _, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{topo.LinkID(tt.NumLinks())}}); err == nil {
		t.Fatal("invalid delta should error")
	}
	if _, err := pl.Replan(context.Background(), Delta{DropPairs: []DemandPair{{Src: -1, Dst: 0}}}); err == nil {
		t.Fatal("invalid drop pair should error")
	}
	if _, err := pl.Replan(context.Background(), Delta{AddDemand: collective.New(2, 1, 1)}); err == nil {
		t.Fatal("mismatched AddDemand should error")
	}
	if pl.Topology() != before {
		t.Fatal("failed replans must not change session state")
	}
	if st := pl.Stats(); st.Replans != 0 {
		t.Fatalf("failed replans counted: %+v", st)
	}
}

func TestReplanNonLPIncumbentChurn(t *testing.T) {
	tt := topo.DGX1()
	// A broadcast benefits from copy → MILP/A* route; force A* to get a
	// non-LP incumbent.
	d := collective.Broadcast(tt.NumNodes(), testGPUs(tt), testGPUs(tt)[0], 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverAStar}); err != nil {
		t.Fatal(err)
	}
	// Topology churn on an A* incumbent replans by replay-and-resume.
	rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatalf("A* replan: %v", err)
	}
	if !rp.Replanned {
		t.Fatal("A* replan must be marked Replanned")
	}
	if rp.Solver != SolverAStar {
		t.Fatalf("replan solver = %v, want the incumbent's forced A*", rp.Solver)
	}
	assertAvoidsDown(t, rp)
	// Every demand of the churned world must still be satisfied.
	if err := rp.Schedule.Validate(); err != nil {
		t.Fatalf("A* replanned schedule invalid: %v", err)
	}

	// Demand churn stays structural for non-LP incumbents → cold
	// fallback classified as such.
	gpus := testGPUs(tt)
	rp2, err := pl.Replan(context.Background(), Delta{DropPairs: []DemandPair{{Src: gpus[0], Dst: gpus[1]}}})
	if err != nil {
		t.Fatalf("fallback replan: %v", err)
	}
	if !rp2.ReplanFallback {
		t.Fatal("demand churn on a non-LP incumbent must fall back to a cold solve")
	}
	if st := pl.Stats(); st.ReplanFallbackStructural == 0 {
		t.Fatalf("structural fallback not counted: %+v", st)
	}
}

// TestReplanEvictsReplayCache pins the cache-invalidation bugfix: a
// schedule replayed by fingerprint for the pre-churn topology would be
// silently infeasible post-churn, so Replan must evict the replay cache
// (and every other per-topology cache) atomically.
func TestReplanEvictsReplayCache(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d}); err != nil {
		t.Fatal(err)
	}
	second, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical pre-churn request should replay (sanity)")
	}
	rp, err := pl.Replan(context.Background(), Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	third, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	// A replay of a *post-churn* entry is fine; what must never happen
	// is serving the pre-churn schedule, whose topology still has link 0
	// up.
	if !third.Schedule.Topo.LinkDown(0) {
		t.Fatal("post-churn request replayed a pre-churn schedule")
	}
	assertAvoidsDown(t, third)
	_ = rp
}

// TestPlannerSnapshotsTopology pins the aliasing bugfix: mutating the
// caller's Topology after NewPlanner must not corrupt the session.
func TestPlannerSnapshotsTopology(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	ref, err := pl.Plan(context.Background(), Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the caller's value: new node, new absurd link.
	n := tt.AddNode("rogue", false)
	tt.AddLink(n, 0, 1, 12345)
	tt.AddLink(0, n, 1, 12345)

	again, err := pl.Plan(context.Background(), Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if !objClose(again.Objective, ref.Objective) {
		t.Fatalf("session affected by caller mutation: %g vs %g", again.Objective, ref.Objective)
	}
	if pl.Topology().NumNodes() != ref.Schedule.Topo.NumNodes() {
		t.Fatal("session topology aliases the caller's value")
	}
}

// TestReplanVsColdProperty: randomized churn sequences must keep every
// Replan equal in objective to a from-scratch solve of the edited world
// at the incumbent discretization, with schedules re-validating
// throughout. Exercises link loss, degradation, and pair drops in
// sequence on one session.
func TestReplanVsColdProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// NDv2Mini runs at slowest-link τ: its fastest-link horizon (tens of
	// epochs, set by the slow IB hop) makes pinned-K reference solves
	// needlessly expensive for a property test.
	worlds := []struct {
		build func() *topo.Topology
		opts  Options
	}{
		{build: topo.DGX1},
		{build: func() *topo.Topology { return topo.NDv2Mini(2) }, opts: Options{EpochMode: SlowestLink}},
	}
	for trial := 0; trial < 4; trial++ {
		w := worlds[trial%len(worlds)]
		tt := w.build()
		gpus := testGPUs(tt)
		d := collective.AllToAll(tt.NumNodes(), gpus, 1, 25e3)
		pl := NewPlanner(tt, PlannerOptions{Defaults: w.opts})
		if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
			t.Fatal(err)
		}
		world := tt.Clone()
		demand := d.Clone()
		for step := 0; step < 3; step++ {
			var delta Delta
			switch rng.Intn(3) {
			case 0:
				// Take down a random still-live link whose loss keeps all
				// GPUs connected (otherwise infeasibility is expected and
				// uninteresting for the equality property).
				live := liveRemovableLinks(world)
				if len(live) == 0 {
					continue
				}
				delta.LinksDown = []topo.LinkID{live[rng.Intn(len(live))]}
			case 1:
				l := topo.LinkID(rng.Intn(world.NumLinks()))
				delta.Scale = []topo.LinkScale{{Link: l, Capacity: 0.75 + 0.2*rng.Float64()}}
			case 2:
				src, dst := gpus[rng.Intn(len(gpus))], gpus[rng.Intn(len(gpus))]
				if src == dst {
					continue
				}
				delta.DropPairs = []DemandPair{{Src: src, Dst: dst}}
			}
			rp, err := pl.Replan(context.Background(), delta)
			if err != nil {
				t.Fatalf("trial %d step %d: replan %v (delta %+v)", trial, step, err, delta)
			}
			assertAvoidsDown(t, rp)

			world, err = world.ApplyDelta(topo.Delta{LinksDown: delta.LinksDown, Scale: delta.Scale})
			if err != nil {
				t.Fatal(err)
			}
			for _, pr := range delta.DropPairs {
				demand.DropPair(pr.Src, pr.Dst)
			}
			// A fallback already is a cold solve of the churned world —
			// re-validated above, nothing further to compare (and its
			// re-derived horizon can be arbitrarily larger than the
			// incumbent's, making a reference solve unboundedly slow).
			// End the trial there; the equality property under test is
			// the incremental path's.
			if rp.ReplanFallback {
				break
			}
			cold, err := SolveLP(context.Background(), world, demand, Options{Epochs: rp.Epochs, Tau: rp.Tau})
			if err != nil {
				t.Fatalf("trial %d step %d: cold reference %v", trial, step, err)
			}
			if !objClose(rp.Objective, cold.Objective) {
				t.Fatalf("trial %d step %d: replan obj %g != cold %g",
					trial, step, rp.Objective, cold.Objective)
			}
		}
	}
}

// liveRemovableLinks lists live links whose individual loss keeps every
// GPU pair mutually reachable.
func liveRemovableLinks(t *topo.Topology) []topo.LinkID {
	var out []topo.LinkID
	for l := 0; l < t.NumLinks(); l++ {
		if t.LinkDown(topo.LinkID(l)) {
			continue
		}
		probe, err := t.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{topo.LinkID(l)}})
		if err != nil {
			continue
		}
		if probe.Validate() == nil {
			out = append(out, topo.LinkID(l))
		}
	}
	return out
}

// TestReplanConcurrentWithPlans: Replan racing a stream of Plan calls
// must stay consistent — every returned schedule validates against the
// topology it was solved for, and no call panics. Run with -race.
func TestReplanConcurrentWithPlans(t *testing.T) {
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				dd := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, float64(20e3+1000*w+100*i))
				plan, err := pl.Plan(context.Background(), Request{Demand: dd, Solver: SolverLP})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if err := plan.Schedule.Validate(); err != nil {
					t.Errorf("worker %d: invalid schedule: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := pl.Replan(context.Background(), Delta{
				Scale: []topo.LinkScale{{Link: topo.LinkID(i), Capacity: 0.9}},
			}); err != nil {
				t.Errorf("replan %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	if st := pl.Stats(); st.Replans != 3 {
		t.Fatalf("stats = %+v, want 3 replans", st)
	}
}

// TestReplanAfterReplayedRequestStaysIncremental: a request replayed
// from the schedule cache carries no model of its own, so its incumbent
// is the replayed entry's basis and a recipe of no steps, whether it
// replays the incumbent's own solve or another one. The next Replan
// restates the model from the request and reoptimizes from that basis
// instead of solving cold.
func TestReplanAfterReplayedRequestStaysIncremental(t *testing.T) {
	tt := topo.DGX1()
	a := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	ctx := context.Background()
	if _, err := pl.Plan(ctx, Request{Demand: a, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}
	again, err := pl.Plan(ctx, Request{Demand: a.Clone(), Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Fatal("identical request should replay (sanity)")
	}
	if inc := pl.incumbent; inc.model != nil || inc.recipe == nil || len(inc.recipe.steps) != 0 || inc.basis == nil {
		t.Fatal("a replay of the incumbent's own solve must leave a basis and a recipe of no steps, and no model")
	}
	rp, err := pl.Replan(ctx, Delta{LinksDown: []topo.LinkID{0}})
	if err != nil {
		t.Fatal(err)
	}
	if rp.ReplanFallback || !rp.WarmStart {
		t.Fatalf("replan after a replayed request: fallback=%v warm=%v, want incremental", rp.ReplanFallback, rp.WarmStart)
	}
	assertAvoidsDown(t, rp)
	if st := pl.Stats(); st.ReplanFallbackNoModel != 0 || st.ReplanFallbacks != 0 {
		t.Fatalf("stats = %+v, want no fallbacks", st)
	}

	// Plan(A), Plan(B), Plan(A) [replay]: the incumbent is A's replayed
	// entry's basis and A's recipe, and Replan reoptimizes A's restated
	// model.
	pl = NewPlanner(tt, PlannerOptions{})
	b := a.Clone()
	b.DropPair(testGPUs(tt)[0], testGPUs(tt)[1])
	for i, d := range []*collective.Demand{a, b, a.Clone()} {
		p, err := pl.Plan(ctx, Request{Demand: d, Solver: SolverLP})
		if err != nil || p.CacheHit != (i == 2) {
			t.Fatalf("request %d: %v (cache hit %v)", i, err, p != nil && p.CacheHit)
		}
	}
	if inc := pl.incumbent; inc.model != nil || inc.recipe == nil || len(inc.recipe.steps) != 0 || inc.basis == nil {
		t.Fatal("a replayed incumbent must hold a basis and a recipe of no steps, and no model")
	}
	if rp, err = pl.Replan(ctx, Delta{LinksDown: []topo.LinkID{0}}); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); rp.ReplanFallback || !rp.WarmStart || st.ReplanFallbackNoModel != 0 || st.ReplanFallbacks != 0 {
		t.Fatalf("replay of a non-incumbent solve: fallback=%v warm=%v stats=%+v, want an incremental replan", rp.ReplanFallback, rp.WarmStart, st)
	}
	assertAvoidsDown(t, rp)
	cold, err := NewPlanner(pl.Topology(), PlannerOptions{}).Plan(ctx, Request{Demand: a.Clone(), Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rp.Objective-cold.Objective) > 1e-9*math.Abs(cold.Objective) {
		t.Fatalf("restated replan objective %.12g, a fresh cold plan's %.12g", rp.Objective, cold.Objective)
	}
}
