package teccl

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§6). Each benchmark regenerates its artifact through
// internal/experiments and reports the paper's metric of interest as a
// custom benchmark metric. Run a single one with e.g.
//
//	go test -bench=BenchmarkFig4 -benchtime=1x
//
// The same tables print from cmd/benchtables. Where an experiment runs
// below the paper's scale, its Table.Notes says so (see the package
// comment of internal/experiments). All benches run their experiment in
// -short form once per b.N iteration; they are wall-clock heavy (seconds
// to minutes), so -benchtime=1x is the intended invocation.

import (
	"testing"

	"teccl/internal/experiments"
)

// benchTable runs one experiment per iteration and logs the rows once.
func benchTable(b *testing.B, id string) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		last = experiments.ByID(id, true)
	}
	if last == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	b.StopTimer()
	b.Log("\n" + last.String())
}

// BenchmarkFig2AlphaError regenerates Figure 2: the relative error of the
// α-blind algorithmic-bandwidth estimate versus transfer size.
func BenchmarkFig2AlphaError(b *testing.B) { benchTable(b, "fig2") }

// BenchmarkTable3SCCL regenerates Table 3: SCCL least-steps versus TE-CCL
// transfer time on DGX1 (TE-CCL pipelines α; SCCL pays a barrier).
func BenchmarkTable3SCCL(b *testing.B) { benchTable(b, "table3") }

// BenchmarkFig4AlgoBandwidth regenerates Figures 4 and 5: algorithmic
// bandwidth and solver time against the TACCL-like baseline across
// topologies, demands, and buffer sizes.
func BenchmarkFig4AlgoBandwidth(b *testing.B) { benchTable(b, "fig4and5") }

// BenchmarkFig5SolverTime is an alias kept so every paper figure has a
// named bench target; Figures 4 and 5 share one sweep.
func BenchmarkFig5SolverTime(b *testing.B) { benchTable(b, "fig4and5") }

// BenchmarkFig6Internal2AtoA regenerates Figure 6: the Internal-2
// ALLTOALL chassis sweep against TACCL.
func BenchmarkFig6Internal2AtoA(b *testing.B) { benchTable(b, "fig6") }

// BenchmarkTable4Scale regenerates Table 4: solver times on the largest
// topologies the substrate reaches (A* for ALLGATHER, LP for ALLTOALL).
func BenchmarkTable4Scale(b *testing.B) { benchTable(b, "table4") }

// BenchmarkFig7Copy regenerates Figure 7: the benefit of in-network copy
// (general MILP) over no-copy (LP) ALLGATHER across transfer sizes.
func BenchmarkFig7Copy(b *testing.B) { benchTable(b, "fig7") }

// BenchmarkFig8Epochs regenerates Figure 8: small (fastest-link) versus
// large (slowest-link) epoch durations.
func BenchmarkFig8Epochs(b *testing.B) { benchTable(b, "fig8") }

// BenchmarkFig9Buffers regenerates Figure 9: store-and-forward buffers
// affect solver time, not solution quality.
func BenchmarkFig9Buffers(b *testing.B) { benchTable(b, "fig9") }

// BenchmarkAStarVsOpt regenerates the §6.3 A*-versus-optimal
// microbenchmark.
func BenchmarkAStarVsOpt(b *testing.B) { benchTable(b, "astar") }

// BenchmarkTable7SCCLInstance regenerates Table 7: SCCL instance-mode
// solver times versus TE-CCL with α = 0.
func BenchmarkTable7SCCLInstance(b *testing.B) { benchTable(b, "table7") }

// BenchmarkTable8NDv2 regenerates Table 8: the full NDv2-2-chassis metric
// table (epoch duration, finish time, solver time, algorithmic bandwidth)
// against TACCL.
func BenchmarkTable8NDv2(b *testing.B) { benchTable(b, "table8") }

// ---- micro-benchmarks of the substrates ----

// BenchmarkSimplexTransport measures the LP solver on a mid-size
// transportation problem (the inner loop of everything above), reporting
// simplex iterations and basis refactorizations alongside wall clock.
func BenchmarkSimplexTransport(b *testing.B) {
	var iters, refactors, ftUpdates int
	for i := 0; i < b.N; i++ {
		sol := benchSimplexOnce(b)
		iters += sol.Iterations
		refactors += sol.Refactorizations
		ftUpdates += sol.FTUpdates
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
	b.ReportMetric(float64(ftUpdates)/float64(b.N), "ft-updates/op")
}

// BenchmarkMILPDGX1AllGather measures one end-to-end optimal MILP solve
// on the DGX1 ALLGATHER (Table 3's headline instance). The extra metrics
// expose the branch-and-bound warm-start behavior: node iterations per op
// should sit far below root iterations per op.
func BenchmarkMILPDGX1AllGather(b *testing.B) {
	t := DGX1()
	d := AllGather(t, 1, 25e3)
	var rootIters, nodeIters, nodes int
	for i := 0; i < b.N; i++ {
		res, err := SolveMILP(t, d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rootIters += res.RootIterations
		nodeIters += res.NodeIterations
		nodes += res.Nodes
	}
	b.ReportMetric(float64(rootIters)/float64(b.N), "root-iters/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
	if nodes > 0 {
		b.ReportMetric(float64(nodeIters)/float64(nodes), "iters/node")
	}
}

// BenchmarkLPDGX1AllToAll measures one end-to-end LP solve on the DGX1
// ALLTOALL — 56 per-pair chunks, the ≥32-chunk LP microbenchmark used as
// the scoreboard for the sparse-basis work.
func BenchmarkLPDGX1AllToAll(b *testing.B) {
	t := DGX1()
	d := AllToAll(t, 1, 25e3)
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := SolveLP(t, d, Options{})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.RootIterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkNDv2AllToAll measures the NDv2 2-chassis ALLTOALL LP — the
// multi-minute time-expanded instance (≈79k vars, ≈19k rows at K=70)
// whose switch-serialized, massively degenerate structure motivated the
// dual-simplex/presolve/anti-stall work. The PR 1 primal-only solver
// never finished it: the auto horizon undershot (no relay serialization
// term) and even at a pinned feasible horizon phase 2 walked a
// degenerate plateau past a 20-minute budget. Skipped under -short; run
// with -benchtime=1x.
func BenchmarkNDv2AllToAll(b *testing.B) {
	if testing.Short() {
		b.Skip("minutes-scale LP; skipped in -short")
	}
	t := NDv2(2)
	gpus := len(t.GPUs())
	d := AllToAll(t, 1, 1e6/float64(gpus))
	var iters, refactors, ftUpdates int
	for i := 0; i < b.N; i++ {
		res, err := SolveLP(t, d, Options{EpochMode: SlowestLink})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.RootIterations
		refactors += res.Refactorizations
		ftUpdates += res.FTUpdates
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(float64(refactors)/float64(b.N), "refactors/op")
	b.ReportMetric(float64(ftUpdates)/float64(b.N), "ft-updates/op")
}

// BenchmarkLPInternal2AllToAll scales the LP microbenchmark to the
// Internal-2 4-chassis topology (Table 4's short-mode instance).
func BenchmarkLPInternal2AllToAll(b *testing.B) {
	t := Internal2(4)
	gpus := len(t.GPUs())
	d := AllToAll(t, 1, 16e6/float64(gpus))
	var iters int
	for i := 0; i < b.N; i++ {
		res, err := SolveLP(t, d, Options{EpochMode: SlowestLink})
		if err != nil {
			b.Fatal(err)
		}
		iters += res.RootIterations
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

// BenchmarkPlanAllocs reports B/op and allocs/op of one whole plan for the
// four shapes in which a single planning call solves many LPs: two A*
// plans (one small MILP per round), a branch-and-bound MILP (a presolved
// root, then node re-solves on a clone) and a rolling-horizon LP (one
// presolved LP per window) — cold_milp's and cold_lp's classes of the
// same names in bench/. Everything a plan allocates besides what it
// returns is per-LP overhead multiplied by rounds × (root + nodes) or by
// windows, so
//
//	go test -run xxx -bench PlanAllocs -benchtime 1x -memprofile m.out .
//	go tool pprof -sample_index=alloc_space -top m.out
//
// is the by-site table allocation work on the solve path is sized from.
func BenchmarkPlanAllocs(b *testing.B) {
	allGather := func(t *Topology) *Demand { return AllGather(t, 1, 25e3) }
	allToAll2 := func(t *Topology) *Demand { return AllToAll(t, 2, 25e3) }
	for _, c := range []struct {
		name   string
		topo   *Topology
		demand func(*Topology) *Demand
		solve  func(*Topology, *Demand, Options) (*Result, error)
	}{
		{"astar-internal2x6-allgather", Internal2(6), allGather, SolveAStar},
		{"astar-ndv2m3-allgather", NDv2Mini(3), allGather, SolveAStar},
		{"milp-internal1x2-allgather", Internal1(2), allGather, SolveMILP},
		{"horizon-ndv2m2-x2", NDv2Mini(2), allToAll2, SolveHorizon},
	} {
		d := c.demand(c.topo)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.solve(c.topo, d, Options{EpochMode: SlowestLink}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sweepSizes is the batched-vs-rebuilt sweep workload: an alpha-free
// DGX1 ALLTOALL size sweep in power-of-two steps, so the chunk-unit LPs
// coincide bit-for-bit and BatchSolveLP replays every point after the
// first (see internal/core/batch.go).
var sweepSizes = []float64{64e3, 256e3, 1024e3, 4096e3, 16384e3}

func sweepBenchDemands() (*Topology, []*Demand) {
	t := ZeroAlpha(DGX1())
	ds := make([]*Demand, len(sweepSizes))
	for i, size := range sweepSizes {
		ds[i] = AllToAll(t, 1, size/float64(len(t.GPUs())))
	}
	return t, ds
}

// BenchmarkSweepRebuilt solves the sweep the pre-batching way: every
// point rebuilds and re-solves the full time-expanded model.
func BenchmarkSweepRebuilt(b *testing.B) {
	t, ds := sweepBenchDemands()
	for i := 0; i < b.N; i++ {
		for _, d := range ds {
			if _, err := SolveLP(t, d, Options{EpochMode: FastestLink}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepBatched solves the same sweep through BatchSolveLP,
// reporting how many points were replayed from structure reuse.
func BenchmarkSweepBatched(b *testing.B) {
	t, ds := sweepBenchDemands()
	var reused int
	for i := 0; i < b.N; i++ {
		rs, errs := BatchSolveLP(t, ds, Options{EpochMode: FastestLink}, BatchOptions{})
		for j := range rs {
			if errs[j] != nil {
				b.Fatal(errs[j])
			}
			if rs[j].Reused {
				reused++
			}
		}
	}
	b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
}

// BenchmarkTACCLBaseline measures the TACCL-like heuristic on the same
// instance for solver-time comparisons.
func BenchmarkTACCLBaseline(b *testing.B) {
	t := DGX1()
	d := AllGather(t, 1, 25e3)
	for i := 0; i < b.N; i++ {
		if r := BaselineTACCL(t, d, TACCLOptions{Seed: 1, Restarts: 20}); !r.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkSimulator measures continuous-time execution of a DGX1
// ALLGATHER schedule.
func BenchmarkSimulator(b *testing.B) {
	t := DGX1()
	d := AllGather(t, 1, 25e3)
	res, err := SolveMILP(t, d, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(res.Schedule); err != nil {
			b.Fatal(err)
		}
	}
}
