package core

import (
	"context"
	"math"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

type propCase struct {
	name string
	topo *topo.Topology
	dem  func(*topo.Topology) *collective.Demand
	opt  Options
}

func propCorpus() []propCase {
	allToAll := func(chunk float64) func(*topo.Topology) *collective.Demand {
		return func(tp *topo.Topology) *collective.Demand {
			return collective.AllToAll(tp.NumNodes(), testGPUs(tp), 1, chunk)
		}
	}
	return []propCase{
		{name: "dgx1-alltoall-fastest", topo: topo.DGX1(), dem: allToAll(25e3)},
		{name: "dgx1-alltoall-slowest", topo: topo.DGX1(), dem: allToAll(50e3),
			opt: Options{EpochMode: SlowestLink}},
		{name: "ndv2mini-alltoall-fastest-em2", topo: topo.NDv2Mini(2), dem: allToAll(25e3),
			opt: Options{EpochMultiplier: 2}},
		{name: "ndv2mini-alltoall-slowest", topo: topo.NDv2Mini(2), dem: allToAll(25e3),
			opt: Options{EpochMode: SlowestLink}},
		{name: "dgx1-allgather-expanded", topo: topo.DGX1(),
			dem: func(tp *topo.Topology) *collective.Demand {
				return collective.AllGather(tp.NumNodes(), testGPUs(tp), 1, 25e3)
			}},
	}
}

// TestWindowedMatchesMonolithic is the windowed-vs-monolithic property
// suite: on small corpus instances, forced-small windows must stitch a
// schedule that validates, finishes in the same epoch as the monolithic
// LP optimum, and certifies within 5% of its objective.
func TestWindowedMatchesMonolithic(t *testing.T) {
	ctx := context.Background()
	for _, tc := range propCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.dem(tc.topo)
			mono, err := SolveLP(ctx, tc.topo, d, tc.opt)
			if err != nil {
				t.Fatalf("monolithic solve: %v", err)
			}

			hopt := tc.opt
			// Force windows small enough that the horizon splits into
			// several, to exercise commit/carry-forward. A one-epoch
			// commit stride (overlap W-1) keeps enough lookahead past
			// each commitment that the stitched schedule matches the
			// monolithic finish epoch on these small instances.
			hopt.HorizonWindow = 8
			hopt.HorizonOverlap = 7
			hopt.HorizonCertify = 30 * time.Second
			hres, err := SolveHorizon(ctx, tc.topo, d, hopt)
			if err != nil {
				t.Fatalf("horizon solve: %v", err)
			}
			if hres.Schedule == nil {
				t.Fatal("horizon solve returned no schedule")
			}
			if err := hres.Schedule.Validate(); err != nil {
				t.Fatalf("stitched schedule invalid: %v", err)
			}
			if mono.Epochs > hopt.HorizonWindow && hres.Windows < 2 {
				t.Errorf("expected >= 2 windows (K=%d, W=%d), got %d", mono.Epochs, hopt.HorizonWindow, hres.Windows)
			}
			if got, want := hres.Schedule.FinishEpoch(), mono.Schedule.FinishEpoch(); got != want {
				t.Errorf("finish epoch: windowed %d, monolithic %d", got, want)
			}
			if hres.Gap > 0.05 {
				t.Errorf("certified objective gap %.4f > 5%%", hres.Gap)
			}
			if math.IsNaN(hres.Gap) {
				t.Error("gap is NaN")
			}
		})
	}
}

// TestNoLiveLinkErrorsPromptly: Ring(4) with GPUs 1 and 3 down leaves
// GPUs 0 and 2 an ALLGATHER and no live link to carry it, so the derived
// epoch duration τ is 0. Every solver, and a session's replan onto that
// world, must refuse it at once rather than size capacity windows from
// 1/τ; so must an explicit non-finite Options.Tau on a live ring.
func TestNoLiveLinkErrorsPromptly(t *testing.T) {
	ring := topo.Ring(4, 25e9, 0.7e-6)
	down := []topo.NodeID{1, 3}
	dead, err := ring.ApplyDelta(topo.Delta{NodesDown: down})
	if err != nil {
		t.Fatal(err)
	}
	d := collective.AllGather(dead.NumNodes(), []int{0, 2}, 1, 25e3)
	full := collective.AllGather(ring.NumNodes(), testGPUs(ring), 1, 25e3)
	pl := NewPlanner(ring, PlannerOptions{})
	if _, err := pl.Plan(context.Background(), Request{Demand: full}); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name  string
		solve func(ctx context.Context) error
	}{
		{"SolveLP", func(ctx context.Context) error {
			_, err := SolveLP(ctx, dead, d, Options{})
			return err
		}},
		{"SolveMILP", func(ctx context.Context) error {
			_, err := SolveMILP(ctx, dead, d, Options{})
			return err
		}},
		{"SolveAStar", func(ctx context.Context) error {
			_, err := SolveAStar(ctx, dead, d, Options{})
			return err
		}},
		{"SolveHorizon", func(ctx context.Context) error {
			_, err := SolveHorizon(ctx, dead, d, Options{TimeLimit: 3 * time.Second})
			return err
		}},
		{"Planner.Replan", func(ctx context.Context) error {
			_, err := pl.Replan(ctx, Delta{NodesDown: down})
			return err
		}},
		{"SolveMILP Tau=+Inf", func(ctx context.Context) error {
			_, err := SolveMILP(ctx, ring, full, Options{Tau: math.Inf(1)})
			return err
		}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		done := make(chan error, 1)
		start := time.Now()
		go func() { done <- c.solve(ctx) }()
		select {
		case err := <-done:
			if el := time.Since(start); err == nil || el > time.Second {
				t.Errorf("%s: returned %v after %v, want an error within 1s", c.name, err, el)
			}
		case <-time.After(5 * time.Second):
			t.Errorf("%s: no return 2s past its 3s deadline", c.name)
		}
		cancel()
	}
}
