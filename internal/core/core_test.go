package core

import (
	"context"
	"math"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/schedule"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// Chunk sized to one epoch on a 1 GB/s link.
const chunk1ms = 1e6

func TestDeriveTau(t *testing.T) {
	tp := topo.NDv2(1) // links 25 and 50 GB/s
	slow := DeriveTau(tp, 1e6, SlowestLink, 0)
	fast := DeriveTau(tp, 1e6, FastestLink, 0)
	if math.Abs(slow-1e6/25e9) > 1e-15 {
		t.Fatalf("slow tau = %g", slow)
	}
	if math.Abs(fast-1e6/50e9) > 1e-15 {
		t.Fatalf("fast tau = %g", fast)
	}
	if m := DeriveTau(tp, 1e6, FastestLink, 4); math.Abs(m-4*fast) > 1e-15 {
		t.Fatalf("multiplier tau = %g", m)
	}
	// Alpha-dominated: 100 B chunks make alpha (0.7 us) > 200 tau -> x5.
	tiny := DeriveTau(tp, 100, FastestLink, 0)
	if math.Abs(tiny-5*100/50e9) > 1e-18 {
		t.Fatalf("alpha-inflated tau = %g", tiny)
	}
}

func TestEstimateEpochsSane(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	tau := DeriveTau(tp, chunk1ms, FastestLink, 0)
	k := EstimateEpochs(tp, d, tau)
	// Optimum is 2 epochs; the bound must cover it without being absurd.
	if k < 2 || k > 30 {
		t.Fatalf("estimate = %d", k)
	}
	if EstimateEpochs(tp, d, 0) != 1 {
		t.Fatal("zero tau should return 1")
	}
}

func TestMILPSingleHop(t *testing.T) {
	tp := topo.Line(2, 1e9, 0)
	d := collective.New(2, 1, chunk1ms)
	d.Set(0, 0, 1)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 3})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if !r.Optimal {
		t.Fatal("tiny instance should be optimal")
	}
	if fe := r.Schedule.FinishEpoch(); fe != 0 {
		t.Fatalf("finish epoch = %d, want 0", fe)
	}
	if len(r.Schedule.Sends) != 1 {
		t.Fatalf("sends = %d, want 1", len(r.Schedule.Sends))
	}
}

func TestMILPRelayLine(t *testing.T) {
	tp := topo.Line(3, 1e9, 0)
	d := collective.New(3, 1, chunk1ms)
	d.Set(0, 0, 2)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 4})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Two hops pipeline: finish end of epoch 1.
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
}

func TestMILPCopyBroadcast(t *testing.T) {
	// Figure 1c: with copy, a source multicasts to 3 destinations through
	// a relay in 2 epochs instead of pushing 3 serial copies.
	tp := topo.New("fig1c")
	s := tp.AddNode("s", false)
	h := tp.AddNode("h", false)
	d1 := tp.AddNode("d1", false)
	d2 := tp.AddNode("d2", false)
	d3 := tp.AddNode("d3", false)
	tp.AddLink(s, h, 1e9, 0)
	tp.AddLink(h, d1, 1e9, 0)
	tp.AddLink(h, d2, 1e9, 0)
	tp.AddLink(h, d3, 1e9, 0)
	d := collective.New(5, 1, chunk1ms)
	d.Set(int(s), 0, int(d1))
	d.Set(int(s), 0, int(d2))
	d.Set(int(s), 0, int(d3))
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 5})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Copy at h: send s->h at 0, h->d* all at 1. Finish epoch 1.
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1 (copy)", fe)
	}
	if got := r.Schedule.TotalBytesSent(); got != 4*chunk1ms {
		t.Fatalf("bytes = %g, want 4 chunks", got)
	}
}

func TestMILPThroughSwitch(t *testing.T) {
	tp := topo.Star(3, 1e9, 0)
	g := tp.GPUs()
	d := collective.New(tp.NumNodes(), 1, chunk1ms)
	d.Set(int(g[0]), 0, int(g[1]))
	d.Set(int(g[0]), 0, int(g[2]))
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 5})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Through the copy switch: in at 0, out to both at 1 -> finish 1.
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
}

func TestMILPLegacySwitchNoCopy(t *testing.T) {
	tp := topo.Star(3, 1e9, 0)
	g := tp.GPUs()
	d := collective.New(tp.NumNodes(), 1, chunk1ms)
	d.Set(int(g[0]), 0, int(g[1]))
	d.Set(int(g[0]), 0, int(g[2]))
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 6, SwitchMode: SwitchNoCopy})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Without switch copy the source must push the chunk twice: finish 2
	// (second copy enters at 1, leaves at 2).
	if fe := r.Schedule.FinishEpoch(); fe != 2 {
		t.Fatalf("finish epoch = %d, want 2 (no copy at switch)", fe)
	}
}

func TestMILPRingAllGather(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 4})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Bidirectional ring of 4: all chunks everywhere in 2 epochs.
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
	// Cross-check with the continuous simulator.
	res, err := sim.Run(r.Schedule)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if math.Abs(res.FinishTime-2e-3) > 1e-9 {
		t.Fatalf("sim finish = %g, want 2e-3", res.FinishTime)
	}
}

func TestMILPAlphaPipelining(t *testing.T) {
	// Table 3's mechanism: with alpha = 2 epochs, chunks pipeline; the
	// second chunk departs one epoch after the first, not after a barrier.
	tp := topo.Line(2, 1e9, 2e-3)
	d := collective.New(2, 2, chunk1ms)
	d.Set(0, 0, 1)
	d.Set(0, 1, 1)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 8})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Sends at 0 and 1; arrivals end of 2 and 3. Finish epoch 3 (4 ms),
	// not the barrier cost 2*(1+2) = 6 epochs.
	if fe := r.Schedule.FinishEpoch(); fe != 3 {
		t.Fatalf("finish epoch = %d, want 3", fe)
	}
}

func TestMILPInfeasibleHorizon(t *testing.T) {
	tp := topo.Line(3, 1e9, 0)
	d := collective.New(3, 1, chunk1ms)
	d.Set(0, 0, 2)
	// Two hops cannot fit in 1 epoch.
	if _, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 1}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestMILPEmptyDemand(t *testing.T) {
	tp := topo.Line(2, 1e9, 0)
	d := collective.New(2, 1, chunk1ms)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 2})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if len(r.Schedule.Sends) != 0 || !r.Optimal {
		t.Fatal("empty demand should yield an empty optimal schedule")
	}
}

func TestMILPNoBuffers(t *testing.T) {
	// Relay node 1 does not demand the chunk; without buffers it must
	// forward immediately. Still feasible on a line.
	tp := topo.Line(3, 1e9, 0)
	d := collective.New(3, 1, chunk1ms)
	d.Set(0, 0, 2)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 4, NoBuffers: true, NoIncumbentHeuristic: true})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
}

func TestMILPBufferLimit(t *testing.T) {
	tp := topo.Ring(3, 1e9, 0)
	d := collective.AllGather(3, []int{0, 1, 2}, 1, chunk1ms)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 4, BufferLimitChunks: 3})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if fe := r.Schedule.FinishEpoch(); fe < 0 {
		t.Fatal("demand unmet")
	}
}

func TestMILPFastEpochHeterogeneous(t *testing.T) {
	// Two parallel paths 0->1: direct slow link and fast 2-hop via node 2.
	tp := topo.New("hetero")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	c := tp.AddNode("c", false)
	tp.AddLink(a, b, 0.5e9, 0) // kappa=2 under fastest-link epochs
	tp.AddLink(a, c, 1e9, 0)
	tp.AddLink(c, b, 1e9, 0)
	d := collective.New(3, 2, chunk1ms)
	d.Set(0, 0, 1)
	d.Set(0, 1, 1)
	r, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 6, EpochMode: FastestLink})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	// Optimal: chunk A via c (epochs 0,1: arrives end 1); chunk B on the
	// slow direct link spanning epochs 0-1 (arrives end 1). Finish 1.
	if fe := r.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
}

func TestLPAllToAllMesh(t *testing.T) {
	tp := topo.FullMesh(3, 1e9, 0)
	d := collective.AllToAll(3, []int{0, 1, 2}, 1, chunk1ms)
	r, err := SolveLP(context.Background(), tp, d, Options{Epochs: 4})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	// Direct links everywhere: 2 chunks per source over 2 distinct links,
	// all in epoch 0. Finish epoch 0.
	if fe := r.Schedule.FinishEpoch(); fe != 0 {
		t.Fatalf("finish epoch = %d, want 0", fe)
	}
	if !r.Optimal {
		t.Fatal("LP must report optimal")
	}
}

func TestLPRelayAllToAll(t *testing.T) {
	tp := topo.Line(3, 1e9, 0)
	d := collective.AllToAll(3, []int{0, 1, 2}, 1, chunk1ms)
	r, err := SolveLP(context.Background(), tp, d, Options{Epochs: 6})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	// End chunks (0<->2) need 2 hops through node 1; each direction's
	// first link carries 2 chunks. Lower bound: finish epoch 2.
	fe := r.Schedule.FinishEpoch()
	if fe != 2 {
		t.Fatalf("finish epoch = %d, want 2", fe)
	}
	// Simulate for consistency.
	if _, err := sim.Run(r.Schedule); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestLPThroughSwitch(t *testing.T) {
	tp := topo.Star(4, 1e9, 0)
	g := tp.GPUs()
	ids := []int{int(g[0]), int(g[1]), int(g[2]), int(g[3])}
	d := collective.AllToAll(tp.NumNodes(), ids, 1, chunk1ms)
	r, err := SolveLP(context.Background(), tp, d, Options{Epochs: 8})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	// Each GPU pushes 3 chunks up one link (3 epochs serialization), each
	// relayed by the switch one epoch later: finish epoch 3.
	if fe := r.Schedule.FinishEpoch(); fe != 3 {
		t.Fatalf("finish epoch = %d, want 3", fe)
	}
}

func TestLPMatchesMILPOnAllToAll(t *testing.T) {
	// Copy never helps ALLTOALL, so the LP and MILP should agree on the
	// finish epoch (§4.1's optimality claim).
	tp := topo.Ring(3, 1e9, 0)
	d := collective.AllToAll(3, []int{0, 1, 2}, 1, chunk1ms)
	rLP, err := SolveLP(context.Background(), tp, d, Options{Epochs: 5})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	rMILP, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 5})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	if rLP.Schedule.FinishEpoch() != rMILP.Schedule.FinishEpoch() {
		t.Fatalf("LP finish %d != MILP finish %d",
			rLP.Schedule.FinishEpoch(), rMILP.Schedule.FinishEpoch())
	}
}

func TestLPWithAlpha(t *testing.T) {
	tp := topo.Line(2, 1e9, 3e-3) // delta = 3
	d := collective.New(2, 1, chunk1ms)
	d.Set(0, 0, 1)
	r, err := SolveLP(context.Background(), tp, d, Options{Epochs: 8})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	// Send at 0, land end of epoch 3.
	if fe := r.Schedule.FinishEpoch(); fe != 3 {
		t.Fatalf("finish epoch = %d, want 3", fe)
	}
}

func TestAStarRingAllGather(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	r, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 3})
	if err != nil {
		t.Fatalf("SolveAStar: %v", err)
	}
	if r.Rounds < 1 {
		t.Fatal("expected at least one round")
	}
	fe := r.Schedule.FinishEpoch()
	if fe < 1 {
		t.Fatalf("finish epoch = %d", fe)
	}
	// A* is suboptimal but must stay within a small factor of OPT (1).
	if fe > 4 {
		t.Fatalf("finish epoch = %d, far from optimal 1", fe)
	}
}

func TestAStarThroughSwitch(t *testing.T) {
	tp := topo.Star(4, 1e9, 0)
	g := tp.GPUs()
	ids := []int{int(g[0]), int(g[1]), int(g[2]), int(g[3])}
	d := collective.AllGather(tp.NumNodes(), ids, 1, chunk1ms)
	r, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 3})
	if err != nil {
		t.Fatalf("SolveAStar: %v", err)
	}
	if _, err := sim.Run(r.Schedule); err != nil {
		t.Fatalf("sim: %v", err)
	}
}

func TestAStarWithAlphaCarryover(t *testing.T) {
	// Alpha of 2 epochs with 3-epoch rounds forces in-flight carryover.
	tp := topo.Ring(4, 1e9, 2e-3)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	r, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 4})
	if err != nil {
		t.Fatalf("SolveAStar: %v", err)
	}
	if _, err := sim.Run(r.Schedule); err != nil {
		t.Fatalf("sim: %v", err)
	}
	if r.Rounds < 1 {
		t.Fatal("no rounds")
	}
}

func TestAStarMatchesOptOnEasyInstance(t *testing.T) {
	// §6.3 A* vs OPT: on an easy instance both should satisfy the demand;
	// A* within a modest factor.
	tp := topo.Ring(3, 1e9, 0)
	d := collective.AllGather(3, []int{0, 1, 2}, 1, chunk1ms)
	opt, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 3})
	if err != nil {
		t.Fatalf("SolveMILP: %v", err)
	}
	ast, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 3})
	if err != nil {
		t.Fatalf("SolveAStar: %v", err)
	}
	fo, fa := opt.Schedule.FinishEpoch(), ast.Schedule.FinishEpoch()
	if fa < fo {
		t.Fatalf("A* (%d) beats OPT (%d): impossible", fa, fo)
	}
	if fa > 2*fo+2 {
		t.Fatalf("A* (%d) too far from OPT (%d)", fa, fo)
	}
}

func TestGreedyIncumbentValid(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	in := newInstance(tp, d, Options{Epochs: 4})
	sends := greedyIncumbent(in)
	if sends == nil {
		t.Fatal("greedy failed on an easy instance")
	}
	sch := &schedule.Schedule{
		Topo: tp, Demand: d, Tau: in.tau, NumEpochs: in.K,
		Sends: sends, AllowCopy: true, EpochsPerChunk: in.epochsPerChunk(),
	}
	if err := sch.Validate(); err != nil {
		t.Fatalf("greedy schedule invalid: %v", err)
	}
}

func TestGreedyIncumbentAcceptedByModel(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	d := collective.AllGather(4, []int{0, 1, 2, 3}, 1, chunk1ms)
	in := newInstance(tp, d, Options{Epochs: 4})
	m, err := buildMILP(in)
	if err != nil {
		t.Fatalf("buildMILP: %v", err)
	}
	sends := greedyIncumbent(in)
	if sends == nil {
		t.Fatal("greedy failed")
	}
	if x := m.pointFromSends(sends); x == nil {
		t.Fatal("greedy incumbent rejected by the model converter")
	}
}
