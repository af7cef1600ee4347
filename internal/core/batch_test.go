package core

import (
	"context"
	"math"
	"reflect"
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

// TestPowerOfTwoSweepReplaysInChunkUnits tests the relation the replay of
// size sweeps relies on, where it is relied on: on an α-free topology,
// under a proportional τ (the fastest link's), chunk sizes a power of two
// apart build bit-identical models, so one solve's chunk-unit schedule
// answers them all with τ scaled by the chunk — through BatchSolveLP and
// through one session, whose later points each confirm the match by
// rebuilding the solved point's model from its recipe and then enter
// their own request key. With α > 0 the relation fails wherever the
// sizes' δ = ⌈α/τ⌉ differ (DGX1 at 25 vs 50 kB), and nothing replays.
func TestPowerOfTwoSweepReplaysInChunkUnits(t *testing.T) {
	ctx := context.Background()
	tt := topo.ZeroAlpha(topo.DGX1())
	sizes := []float64{100e3, 200e3, 400e3, 800e3}
	demands := sweepDemands(tt, sizes)
	opt := Options{EpochMode: FastestLink}
	first := prepLP(tt, demands[0], opt).m.p
	for i, d := range demands[1:] {
		if !prepLP(tt, d, opt).m.p.EqualTo(first) {
			t.Fatalf("%g B: the model differs from the %g B one", sizes[i+1], sizes[0])
		}
	}
	inChunkUnits := func(what string, i int, r, ref *Result) {
		t.Helper()
		if !reflect.DeepEqual(r.Schedule.Sends, ref.Schedule.Sends) || r.Schedule.NumEpochs != ref.Schedule.NumEpochs {
			t.Errorf("%s, %g B: the chunk-unit schedule differs from the %g B one", what, sizes[i], sizes[0])
		}
		if r.Tau != ref.Tau*sizes[i]/sizes[0] {
			t.Errorf("%s, %g B: τ %g, want %g", what, sizes[i], r.Tau, ref.Tau*sizes[i]/sizes[0])
		}
	}

	batch, errs := BatchSolveLP(ctx, tt, demands, opt, BatchOptions{})
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("batch point %d: %v", i, errs[i])
		}
		if batch[i].Reused != (i > 0) {
			t.Fatalf("batch point %d: Reused = %v", i, batch[i].Reused)
		}
		inChunkUnits("batch", i, batch[i], batch[0])
	}

	// The session's own first solve is the reference: a solve's sends come
	// out of a map, so two solves agree on the set, not the order.
	pl := NewPlanner(tt, PlannerOptions{Defaults: opt})
	defer pl.Close()
	var ref *Result
	estimates := 0
	for pass := 0; pass < 2; pass++ {
		for i, d := range demands {
			p, err := pl.Plan(ctx, Request{Demand: d, Solver: SolverLP})
			if err != nil {
				t.Fatal(err)
			}
			if p.CacheHit != (pass > 0 || i > 0) {
				t.Fatalf("session pass %d, %g B: CacheHit = %v", pass, sizes[i], p.CacheHit)
			}
			if ref == nil {
				ref = p.Result
			}
			inChunkUnits("session", i, p.Result, ref)
		}
		// One model, every point under its own key: the rebuild that
		// confirmed a point is paid once, so the second pass is all
		// lookups, which consult no epoch estimate (the rebuilds did).
		cache := pl.snapshot().lpCache
		if cache.size != 1 || len(cache.requests) != len(demands) {
			t.Fatalf("session pass %d: %d entries, %d request keys; want 1 and %d", pass, cache.size, len(cache.requests), len(demands))
		}
		hits := pl.Stats().EpochCacheHits
		if pass == 0 && hits == 0 || pass == 1 && hits != estimates {
			t.Fatalf("session pass %d: %d epoch-estimate hits after %d", pass, hits, estimates)
		}
		estimates = hits
	}

	dgx := topo.DGX1()
	gpus := testGPUs(dgx)
	d25, d50 := collective.AllToAll(dgx.NumNodes(), gpus, 1, 25e3), collective.AllToAll(dgx.NumNodes(), gpus, 1, 50e3)
	if reflect.DeepEqual(newInstance(dgx, d25, Options{}).delta, newInstance(dgx, d50, Options{}).delta) {
		t.Fatal("DGX1's δ no longer differs between 25 and 50 kB chunks; pick sizes whose δ do")
	}
	if prepLP(dgx, d25, Options{}).m.p.EqualTo(prepLP(dgx, d50, Options{}).m.p) {
		t.Fatal("sizes whose δ differ build equal models")
	}
	if rs, errs := BatchSolveLP(ctx, dgx, []*collective.Demand{d25, d50}, Options{}, BatchOptions{}); errs[1] != nil || rs[1].Reused {
		t.Fatalf("batch: 50 kB point %v (err %v), want solved", rs[1] != nil && rs[1].Reused, errs[1])
	}
	alpha := NewPlanner(dgx, PlannerOptions{})
	defer alpha.Close()
	for _, d := range []*collective.Demand{d25, d50} {
		if p, err := alpha.Plan(ctx, Request{Demand: d, Solver: SolverLP}); err != nil || p.CacheHit {
			t.Fatalf("session, %g B chunks: %v (cache hit %v), want solved", d.ChunkBytes, err, p != nil && p.CacheHit)
		}
	}
}
