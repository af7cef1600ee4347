package core

import (
	"context"
	"math"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// sweepDemands builds a proportional ALLTOALL size sweep.
func sweepDemands(t *topo.Topology, sizes []float64) []*collective.Demand {
	gpus := 0
	for range t.GPUs() {
		gpus++
	}
	var out []*collective.Demand
	for _, size := range sizes {
		var g []int
		for _, id := range t.GPUs() {
			g = append(g, int(id))
		}
		out = append(out, collective.AllToAll(t.NumNodes(), g, 1, size/float64(gpus)))
	}
	return out
}

// TestBatchSolveLPMatchesPointSolves: every batched point must agree with
// a fresh standalone solve — same finish epoch, same simulated finish
// time, same objective — whether it was replayed or solved in-chain.
func TestBatchSolveLPMatchesPointSolves(t *testing.T) {
	topol := topo.ZeroAlpha(topo.DGX1())
	sizes := []float64{200e3, 400e3, 800e3}
	demands := sweepDemands(topol, sizes)
	opt := Options{EpochMode: FastestLink}

	batch, errs := BatchSolveLP(context.Background(), topol, demands, opt, BatchOptions{})
	for i := range demands {
		if errs[i] != nil {
			t.Fatalf("point %d: %v", i, errs[i])
		}
		fresh, err := SolveLP(context.Background(), topol, demands[i], opt)
		if err != nil {
			t.Fatalf("fresh point %d: %v", i, err)
		}
		if batch[i].Epochs != fresh.Epochs {
			t.Fatalf("point %d: epochs %d (batch) vs %d (fresh)", i, batch[i].Epochs, fresh.Epochs)
		}
		if math.Abs(batch[i].Objective-fresh.Objective) > 1e-6*(1+math.Abs(fresh.Objective)) {
			t.Fatalf("point %d: objective %v vs %v", i, batch[i].Objective, fresh.Objective)
		}
		bs, err1 := sim.Run(batch[i].Schedule)
		fs, err2 := sim.Run(fresh.Schedule)
		if err1 != nil || err2 != nil {
			t.Fatalf("point %d: sim errors %v / %v", i, err1, err2)
		}
		if math.Abs(bs.FinishTime-fs.FinishTime) > 1e-12+1e-9*fs.FinishTime {
			t.Fatalf("point %d: finish %v (batch) vs %v (fresh)", i, bs.FinishTime, fs.FinishTime)
		}
	}
}

// TestBatchSolveLPReusesIdenticalModels: on an alpha-free topology a
// proportional size sweep reduces to one chunk-unit LP, so every point
// after the first must be a replay, not a re-solve.
func TestBatchSolveLPReusesIdenticalModels(t *testing.T) {
	topol := topo.ZeroAlpha(topo.DGX1())
	demands := sweepDemands(topol, []float64{100e3, 200e3, 400e3, 800e3})
	batch, errs := BatchSolveLP(context.Background(), topol, demands, Options{EpochMode: FastestLink}, BatchOptions{})
	reused := 0
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("point %d: %v", i, errs[i])
		}
		if batch[i].Reused {
			reused++
			if batch[i].RootIterations != 0 {
				t.Fatalf("point %d: replayed point reports simplex work", i)
			}
		}
	}
	if reused != len(batch)-1 {
		t.Fatalf("reused %d of %d points, want %d", reused, len(batch), len(batch)-1)
	}
}

// TestBatchSolveLPWorkersAgree: the parallel fan-out must return the
// same per-point answers as the serial chain.
func TestBatchSolveLPWorkersAgree(t *testing.T) {
	topol := topo.DGX1() // alpha > 0: models differ per size, full solves chain bases
	demands := sweepDemands(topol, []float64{100e3, 200e3, 400e3})
	opt := Options{EpochMode: FastestLink}
	serial, errsA := BatchSolveLP(context.Background(), topol, demands, opt, BatchOptions{Workers: 1})
	par, errsB := BatchSolveLP(context.Background(), topol, demands, opt, BatchOptions{Workers: 3})
	for i := range demands {
		if errsA[i] != nil || errsB[i] != nil {
			t.Fatalf("point %d: %v / %v", i, errsA[i], errsB[i])
		}
		if serial[i].Epochs != par[i].Epochs {
			t.Fatalf("point %d: epochs %d vs %d", i, serial[i].Epochs, par[i].Epochs)
		}
		if math.Abs(serial[i].Objective-par[i].Objective) > 1e-6*(1+math.Abs(serial[i].Objective)) {
			t.Fatalf("point %d: objective %v vs %v", i, serial[i].Objective, par[i].Objective)
		}
	}
}
