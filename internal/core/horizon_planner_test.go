package core

// Planner-path tests: the rolling-horizon solver reached through a
// session (Planner) rather than the one-shot SolveHorizon. The
// session's fingerprint-keyed basis store is what turns a repeated
// request into a chain of exact warm starts, and the policy routing is
// what sends large LP-eligible requests here without the caller asking.

import (
	"context"
	"sync"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// TestPlannerHorizonWarmStarts pins the session warm-basis contract: a
// second identical ForceHorizon request must warm-start its first
// window from the basis the first request recorded (exact fingerprint
// hits, not name-matched projections).
func TestPlannerHorizonWarmStarts(t *testing.T) {
	tp := topo.DGX1()
	pl := NewPlanner(tp, PlannerOptions{Policy: ForceHorizon})
	defer pl.Close()
	d := collective.AllToAll(tp.NumNodes(), testGPUs(tp), 1, 25e3)
	opt := Options{HorizonWindow: 8, HorizonOverlap: 7}

	first, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &opt})
	if err != nil {
		t.Fatalf("first plan: %v", err)
	}
	if first.Solver != SolverHorizon {
		t.Fatalf("first plan solved by %v, want horizon", first.Solver)
	}
	if first.WarmStart {
		t.Error("first plan claims a warm start on an empty session")
	}
	if first.Windows < 2 {
		t.Fatalf("expected a multi-window solve, got %d windows", first.Windows)
	}

	second, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &opt})
	if err != nil {
		t.Fatalf("second plan: %v", err)
	}
	if !second.WarmStart {
		t.Error("second identical plan did not warm-start")
	}
	if second.Schedule.FinishEpoch() != first.Schedule.FinishEpoch() {
		t.Errorf("finish epoch changed across identical requests: %d then %d",
			first.Schedule.FinishEpoch(), second.Schedule.FinishEpoch())
	}

	st := pl.Stats()
	if st.WarmStartHits == 0 {
		t.Error("session counted no warm-start hits")
	}
	// Every window of the second solve should have hit the fingerprint
	// store exactly (same demand, same windows, same committed state).
	if st.ExactBasisHits < first.Windows {
		t.Errorf("exact basis hits %d < %d windows of the repeat solve",
			st.ExactBasisHits, first.Windows)
	}
}

// TestPlannerHorizonCountsCrash: a session reports a crash-started first
// window as it reports a crash-started monolithic solve (Plan.CrashStart,
// PlannerStats.CrashStarts); a repeat served from the basis store is a
// warm start instead, and CrashOff starts from slack.
func TestPlannerHorizonCountsCrash(t *testing.T) {
	tp := topo.DGX1()
	d := collective.AllToAll(tp.NumNodes(), testGPUs(tp), 1, 25e3)
	for _, mode := range []CrashMode{CrashAuto, CrashOff} {
		pl := NewPlanner(tp, PlannerOptions{Policy: ForceHorizon})
		opt := Options{HorizonWindow: 8, HorizonOverlap: 7, Crash: mode}
		first, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &opt})
		if err != nil {
			t.Fatalf("crash mode %d: first plan: %v", mode, err)
		}
		second, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &opt})
		if err != nil {
			t.Fatalf("crash mode %d: second plan: %v", mode, err)
		}
		st := pl.Stats()
		pl.Close()
		wantCrash := mode != CrashOff
		if first.CrashStart != wantCrash {
			t.Errorf("crash mode %d: first plan CrashStart = %v, want %v", mode, first.CrashStart, wantCrash)
		}
		if !second.WarmStart || second.CrashStart {
			t.Errorf("crash mode %d: repeat plan WarmStart = %v, CrashStart = %v; want a warm start only",
				mode, second.WarmStart, second.CrashStart)
		}
		want := 0
		if wantCrash {
			want = 1
		}
		if st.CrashStarts != want {
			t.Errorf("crash mode %d: session counted %d crash starts, want %d", mode, st.CrashStarts, want)
		}
	}
}

// TestPlannerHorizonConcurrent hammers one session with concurrent
// identical horizon requests; under -race this pins the driver's use of
// the session's shared basis store as data-race-free, and every
// result must still validate and agree on the finish epoch.
func TestPlannerHorizonConcurrent(t *testing.T) {
	tp := topo.DGX1()
	pl := NewPlanner(tp, PlannerOptions{Policy: ForceHorizon})
	defer pl.Close()
	d := collective.AllToAll(tp.NumNodes(), testGPUs(tp), 1, 25e3)
	opt := Options{HorizonWindow: 8, HorizonOverlap: 7}

	const workers = 4
	finish := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := pl.Plan(context.Background(), Request{Demand: d.Clone(), Options: &opt})
			if err != nil {
				errs[w] = err
				return
			}
			if err := p.Schedule.Validate(); err != nil {
				errs[w] = err
				return
			}
			finish[w] = p.Schedule.FinishEpoch()
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 1; w < workers; w++ {
		if finish[w] != finish[0] {
			t.Errorf("worker %d finished at epoch %d, worker 0 at %d", w, finish[w], finish[0])
		}
	}
}

// TestCostModelPolicyHorizonRouting exercises the HorizonCells knob:
// above the cell threshold an LP-eligible request routes to the horizon
// decomposition, a negative threshold disables the routing, and
// multicast requests are never routed here.
func TestCostModelPolicyHorizonRouting(t *testing.T) {
	tp := topo.DGX1()
	atoa := collective.AllToAll(tp.NumNodes(), testGPUs(tp), 1, 25e3)
	ag := collective.AllGather(tp.NumNodes(), testGPUs(tp), 1, 25e3)
	in := policyInput(tp, atoa)

	if got := (CostModelPolicy{HorizonCells: 1}).Choose(in); got != SolverHorizon {
		t.Errorf("one-cell threshold: got %v, want horizon", got)
	}
	if got := (CostModelPolicy{HorizonCells: 1 << 30}).Choose(in); got != SolverLP {
		t.Errorf("huge threshold: got %v, want lp", got)
	}
	if got := (CostModelPolicy{HorizonCells: -1}).Choose(in); got != SolverLP {
		t.Errorf("negative threshold must disable horizon routing: got %v, want lp", got)
	}
	if got := (CostModelPolicy{HorizonCells: 1}).Choose(policyInput(tp, ag)); got == SolverHorizon {
		t.Error("multicast request routed to the horizon LP decomposition")
	}

	// End to end: a session whose policy prices this request over the
	// threshold must answer it with the horizon solver.
	pl := NewPlanner(tp, PlannerOptions{Policy: CostModelPolicy{HorizonCells: 1}})
	defer pl.Close()
	p, err := pl.Plan(context.Background(), Request{Demand: atoa.Clone()})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if p.Solver != SolverHorizon {
		t.Errorf("session solved with %v, want horizon", p.Solver)
	}
	if err := p.Schedule.Validate(); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

// policyInput builds a PolicyInput the way a Planner session does.
func policyInput(tp *topo.Topology, d *collective.Demand) PolicyInput {
	tau := DeriveTau(tp, d.ChunkBytes, FastestLink, 0)
	return PolicyInput{
		Topology:  tp,
		Demand:    d,
		NumGPUs:   len(tp.GPUs()),
		Multicast: d.HasMulticast(),
		Tau:       tau,
		EstimateEpochs: func() int {
			return EstimateEpochs(tp, d, tau)
		},
	}
}
