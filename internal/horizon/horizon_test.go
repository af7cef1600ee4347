package horizon

import (
	"context"
	"math"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

func gpuIDs(t *topo.Topology) []int {
	var out []int
	for _, g := range t.GPUs() {
		out = append(out, int(g))
	}
	return out
}

type propCase struct {
	name string
	topo *topo.Topology
	dem  func(*topo.Topology) *collective.Demand
	opt  core.Options
}

func propCorpus() []propCase {
	allToAll := func(chunk float64) func(*topo.Topology) *collective.Demand {
		return func(tp *topo.Topology) *collective.Demand {
			return collective.AllToAll(tp.NumNodes(), gpuIDs(tp), 1, chunk)
		}
	}
	return []propCase{
		{name: "dgx1-alltoall-fastest", topo: topo.DGX1(), dem: allToAll(25e3)},
		{name: "dgx1-alltoall-slowest", topo: topo.DGX1(), dem: allToAll(50e3),
			opt: core.Options{EpochMode: core.SlowestLink}},
		{name: "ndv2mini-alltoall-fastest-em2", topo: topo.NDv2Mini(2), dem: allToAll(25e3),
			opt: core.Options{EpochMultiplier: 2}},
		{name: "ndv2mini-alltoall-slowest", topo: topo.NDv2Mini(2), dem: allToAll(25e3),
			opt: core.Options{EpochMode: core.SlowestLink}},
		{name: "dgx1-allgather-expanded", topo: topo.DGX1(),
			dem: func(tp *topo.Topology) *collective.Demand {
				return collective.AllGather(tp.NumNodes(), gpuIDs(tp), 1, 25e3)
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
			mono, err := core.SolveLP(ctx, tc.topo, d, tc.opt)
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
			hres, err := Solve(ctx, tc.topo, d, hopt)
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
