package horizon

import (
	"context"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

// TestSelectEMTable4 pins the epoch-multiplier auto-selection to the
// paper's Table 4 EM column: the same internal topologies, collectives,
// and 16 MB buffers that figures.go solves must come out of the prober
// with the multipliers the paper hand-picked.
func TestSelectEMTable4(t *testing.T) {
	type inst struct {
		name string
		t    *topo.Topology
		coll string
		want float64
	}
	insts := []inst{
		{"internal1x2-allgather", topo.Internal1(2), "AG", 1},
		{"internal2x4-allgather", topo.Internal2(4), "AG", 1},
		{"internal2x6-allgather", topo.Internal2(6), "AG", 2},
		{"internal1x2-alltoall", topo.Internal1(2), "AtoA", 1},
		{"internal1x3-alltoall", topo.Internal1(3), "AtoA", 2},
		{"internal2x4-alltoall", topo.Internal2(4), "AtoA", 1},
		{"internal2x6-alltoall", topo.Internal2(6), "AtoA", 2},
	}
	const size = 16e6
	for _, in := range insts {
		t.Run(in.name, func(t *testing.T) {
			gpus := gpuIDs(in.t)
			chunk := size / float64(len(gpus))
			var d *collective.Demand
			if in.coll == "AtoA" {
				d = collective.AllToAll(in.t.NumNodes(), gpus, 1, chunk)
			} else {
				d = collective.AllGather(in.t.NumNodes(), gpus, 1, chunk)
			}
			opt := core.Options{EpochMode: core.SlowestLink}
			em, probes := ProbeEM(in.t, d, opt, 0)
			if em != in.want {
				for _, p := range probes {
					t.Logf("probe em=%g cells=%d fits=%v", p.EM, p.Cells, p.Fits)
				}
				t.Fatalf("EM = %g, Table 4 says %g", em, in.want)
			}
			// The refinement must land on the feasibility boundary: the
			// chosen EM fits, and (unless it is 1) EM-1 must not.
			fits := func(want float64) bool {
				for _, p := range probes {
					if p.EM == want {
						return p.Fits
					}
				}
				t.Fatalf("no probe at em=%g", want)
				return false
			}
			if !fits(em) {
				t.Errorf("chosen EM %g does not fit its own budget", em)
			}
			if em > 1 && fits(em-1) {
				t.Errorf("EM %g chosen but %g already fits", em, em-1)
			}
		})
	}
}

// TestAutoEMNeverInfeasible is the regression pin behind the coarse
// grid: whatever multiplier the prober picks, the solve at that
// multiplier must stay feasible — the Algorithm 1 horizon estimate at
// the scaled tau still leaves enough epochs to route all demand. Tiny
// budgets force the prober well up the grid.
func TestAutoEMNeverInfeasible(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name   string
		topo   *topo.Topology
		dem    func(*topo.Topology) *collective.Demand
		budget int
	}{
		{"dgx1-default-budget", topo.DGX1(), func(tp *topo.Topology) *collective.Demand {
			return collective.AllToAll(tp.NumNodes(), gpuIDs(tp), 1, 5e4)
		}, 0},
		{"dgx1-tight-budget", topo.DGX1(), func(tp *topo.Topology) *collective.Demand {
			return collective.AllToAll(tp.NumNodes(), gpuIDs(tp), 1, 5e4)
		}, 4_000},
		{"ndv2mini-tight-budget", topo.NDv2Mini(2), func(tp *topo.Topology) *collective.Demand {
			return collective.AllToAll(tp.NumNodes(), gpuIDs(tp), 1, 2.5e4)
		}, 6_000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.dem(tc.topo)
			opt := core.Options{EpochMode: core.SlowestLink}
			em := SelectEM(tc.topo, d, opt, tc.budget)
			if em < 1 {
				t.Fatalf("SelectEM returned %g < 1", em)
			}
			opt.EpochMultiplier = em
			res, err := core.SolveLP(ctx, tc.topo, d, opt)
			if err != nil {
				t.Fatalf("solve at auto EM %g: %v", em, err)
			}
			if res.Schedule == nil {
				t.Fatalf("solve at auto EM %g produced no schedule", em)
			}
			if err := res.Schedule.Validate(); err != nil {
				t.Fatalf("schedule at auto EM %g invalid: %v", em, err)
			}
			t.Logf("em=%g epochs=%d finish=%d", em, res.Epochs, res.Schedule.FinishEpoch())
		})
	}
}
