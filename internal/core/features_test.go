package core

import (
	"context"
	"strings"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// TestPriorityFavorsTenant: two tenants contend for one link; the
// prioritized tenant's chunk must ship first (§5 multi-tenant priority).
func TestPriorityFavorsTenant(t *testing.T) {
	priorityFavorsTenant(t, SolveMILP, Options{Epochs: 4, NoIncumbentHeuristic: true})
}

// TestAStarPriorityFavorsTenant: the A* rounds weigh deliveries by the
// same priorities.
func TestAStarPriorityFavorsTenant(t *testing.T) {
	priorityFavorsTenant(t, SolveAStar, Options{RoundEpochs: 4})
}

func priorityFavorsTenant(t *testing.T, solve solveFunc, opt Options) {
	tp, d := twoChunkLine() // tenant A: chunk 0, tenant B: chunk 1

	solveWithPriority := func(favored int) int {
		opt.Priority = func(src, chunk, dst int) float64 {
			if chunk == favored {
				return 10
			}
			return 1
		}
		res, err := solve(context.Background(), tp, d, opt)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		// Which chunk ships in epoch 0?
		for _, snd := range res.Schedule.Sends {
			if snd.Epoch == 0 {
				return snd.Chunk
			}
		}
		t.Fatal("no epoch-0 send")
		return -1
	}
	if got := solveWithPriority(1); got != 1 {
		t.Fatalf("favoring chunk 1: epoch-0 send is chunk %d", got)
	}
	if got := solveWithPriority(0); got != 0 {
		t.Fatalf("favoring chunk 0: epoch-0 send is chunk %d", got)
	}
}

// TestPriorityInLP: the LP form honors per-pair priority too.
func TestPriorityInLP(t *testing.T) {
	// Two sources push through a shared bottleneck to one destination.
	tp := topo.New("y")
	a := tp.AddNode("a", false)
	b := tp.AddNode("b", false)
	h := tp.AddNode("h", false)
	dn := tp.AddNode("d", false)
	tp.AddLink(a, h, 1e9, 0)
	tp.AddLink(b, h, 1e9, 0)
	tp.AddLink(h, dn, 1e9, 0) // bottleneck
	d := collective.New(4, 1, 1e6)
	d.Set(int(a), 0, int(dn))
	d.Set(int(b), 0, int(dn))

	finishOf := func(favored int) (fa, fb int) {
		res, err := SolveLP(context.Background(), tp, d, Options{
			Epochs: 6,
			Priority: func(src, chunk, dst int) float64 {
				if src == favored {
					return 10
				}
				return 1
			},
		})
		if err != nil {
			t.Fatalf("SolveLP: %v", err)
		}
		fa, fb = -1, -1
		for _, snd := range res.Schedule.Sends {
			if tp.Link(snd.Link).Dst != dn {
				continue
			}
			ae := res.Schedule.ArrivalEpoch(snd)
			if snd.Src == int(a) && (fa < 0 || ae > fa) {
				fa = ae
			}
			if snd.Src == int(b) && (fb < 0 || ae > fb) {
				fb = ae
			}
		}
		return fa, fb
	}
	fa, fb := finishOf(int(a))
	if fa > fb {
		t.Fatalf("favored source a finished at %d after b at %d", fa, fb)
	}
	fa, fb = finishOf(int(b))
	if fb > fa {
		t.Fatalf("favored source b finished at %d after a at %d", fb, fa)
	}
}

// deadEpochs is a capacity schedule with every link dead in the listed
// epochs (variable bandwidth, §5), and sendsAvoid the matching check.
func deadEpochs(dead ...int) func(topo.LinkID, int) float64 {
	return func(_ topo.LinkID, epoch int) float64 {
		for _, e := range dead {
			if e == epoch {
				return 0
			}
		}
		return 1
	}
}

func sendsAvoid(t *testing.T, res *Result, dead ...int) {
	t.Helper()
	for _, snd := range res.Schedule.Sends {
		if snd.Fraction > 1e-9 && deadEpochs(dead...)(snd.Link, snd.Epoch) == 0 {
			t.Fatalf("send scheduled in a zero-capacity epoch: %+v", snd)
		}
	}
}

// twoChunkLine is two chunks 0→1 over one 1-chunk-per-epoch link: the
// finish epoch is 1 plus however many epochs the link is dead.
func twoChunkLine() (*topo.Topology, *collective.Demand) {
	d := collective.New(2, 2, 1e6)
	d.Set(0, 0, 1)
	d.Set(0, 1, 1)
	return topo.Line(2, 1e9, 0), d
}

// TestVariableBandwidthDelays: a link dead in early epochs (variable
// bandwidth, §5) must delay the transfer accordingly. The greedy
// incumbent budgets a constant capacity, so it must stay out of the way:
// it used to be returned as the answer, sends in the dead epochs and all.
func TestVariableBandwidthDelays(t *testing.T) {
	tp, d := twoChunkLine()
	base, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 8})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	// Link dead for the first two epochs.
	throttled, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 8, LinkCapacity: deadEpochs(0, 1)})
	if err != nil {
		t.Fatalf("throttled: %v", err)
	}
	bf, tf := base.Schedule.FinishEpoch(), throttled.Schedule.FinishEpoch()
	if tf != bf+2 {
		t.Fatalf("throttling 2 epochs moved finish %d -> %d, want +2", bf, tf)
	}
	sendsAvoid(t, throttled, 0, 1)
}

// TestVariableBandwidthAutoEpochs: with the horizon auto-estimated, the
// greedy schedulers' finish must not tighten it under a capacity schedule
// they do not model — it used to shrink K to 2 and make both forms
// infeasible.
func TestVariableBandwidthAutoEpochs(t *testing.T) {
	tp, d := twoChunkLine()
	opt := Options{LinkCapacity: deadEpochs(0, 1)}
	for name, solve := range map[string]solveFunc{
		"milp": SolveMILP, "lp": SolveLP,
	} {
		t.Run(name, func(t *testing.T) {
			res, err := solve(context.Background(), tp, d, opt)
			if err != nil {
				t.Fatal(err)
			}
			if fe := res.Schedule.FinishEpoch(); fe != 3 {
				t.Fatalf("finish epoch = %d, want 3", fe)
			}
			sendsAvoid(t, res, 0, 1)
		})
	}
}

// TestAStarVariableBandwidth: A* rounds are the same model, so they honor
// the capacity schedule too — by global epoch, across the round boundary
// (rounds of 3 epochs: 0 and 1 are dead in the first, 3 in the second).
func TestAStarVariableBandwidth(t *testing.T) {
	tp, d := twoChunkLine()
	base, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 3})
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	throttled, err := SolveAStar(context.Background(), tp, d, Options{RoundEpochs: 3, LinkCapacity: deadEpochs(0, 1, 3)})
	if err != nil {
		t.Fatalf("throttled: %v", err)
	}
	bf, tf := base.Schedule.FinishEpoch(), throttled.Schedule.FinishEpoch()
	if tf != bf+3 {
		t.Fatalf("3 dead epochs moved finish %d -> %d, want +3", bf, tf)
	}
	sendsAvoid(t, throttled, 0, 1, 3)
}

// TestAStarRejectsBufferOptions: the A* round state has no bufferless-GPU
// or eviction case, so the options that need one are refused by name
// instead of being dropped.
func TestAStarRejectsBufferOptions(t *testing.T) {
	tp, d := twoChunkLine()
	for name, opt := range map[string]Options{
		"NoBuffers":         {NoBuffers: true},
		"BufferLimitChunks": {BufferLimitChunks: 1},
	} {
		if _, err := SolveAStar(context.Background(), tp, d, opt); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("SolveAStar with %s: err = %v, want an error naming the option", name, err)
		}
	}
}

// TestVariableBandwidthLP: the LP form honors the capacity schedule.
func TestVariableBandwidthLP(t *testing.T) {
	tp := topo.Line(2, 1e9, 0)
	d := collective.New(2, 1, 1e6)
	d.Set(0, 0, 1)
	res, err := SolveLP(context.Background(), tp, d, Options{
		Epochs: 6,
		LinkCapacity: func(l topo.LinkID, epoch int) float64 {
			if epoch == 0 {
				return 0
			}
			return 1
		},
	})
	if err != nil {
		t.Fatalf("SolveLP: %v", err)
	}
	for _, snd := range res.Schedule.Sends {
		if snd.Epoch == 0 && snd.Fraction > 1e-9 {
			t.Fatalf("LP used a zero-capacity epoch: %+v", snd)
		}
	}
	if fe := res.Schedule.FinishEpoch(); fe != 1 {
		t.Fatalf("finish epoch = %d, want 1", fe)
	}
}

// TestNeutralHooksMatchDefault: nil and identity hooks give identical
// schedules.
func TestNeutralHooksMatchDefault(t *testing.T) {
	tp := topo.Ring(4, 1e9, 0)
	gpus := []int{0, 1, 2, 3}
	d := collective.AllGather(4, gpus, 1, 1e6)
	a, err := SolveMILP(context.Background(), tp, d, Options{Epochs: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveMILP(context.Background(), tp, d, Options{
		Epochs:       3,
		Priority:     func(int, int, int) float64 { return 1 },
		LinkCapacity: func(topo.LinkID, int) float64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if a.Schedule.FinishEpoch() != b.Schedule.FinishEpoch() {
		t.Fatal("neutral hooks changed the schedule quality")
	}
}

// TestMinimizeMakespan: the reward-sum objective may trade the last
// arrival for earlier intermediate ones; MinimizeMakespan pins the true
// minimum finish epoch (the paper's binary search on epochs).
func TestMinimizeMakespanNotWorse(t *testing.T) {
	tp := topo.Internal2(2)
	gpus := []int{1, 2, 3, 4}
	d := collective.AllGather(tp.NumNodes(), gpus, 1, 250e3)
	plain, err := SolveMILP(context.Background(), tp, d, Options{EpochMode: FastestLink})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	tight, err := SolveMILP(context.Background(), tp, d, Options{EpochMode: FastestLink, MinimizeMakespan: true})
	if err != nil {
		t.Fatalf("tight: %v", err)
	}
	if tight.Schedule.FinishEpoch() > plain.Schedule.FinishEpoch() {
		t.Fatalf("makespan mode worsened finish: %d > %d",
			tight.Schedule.FinishEpoch(), plain.Schedule.FinishEpoch())
	}
	if tight.Tau != plain.Tau {
		t.Fatal("makespan refinement changed tau")
	}
}

// TestMinimizeMakespanLP mirrors the check for the LP form.
func TestMinimizeMakespanLP(t *testing.T) {
	tp := topo.Internal2(2)
	gpus := []int{1, 2, 3, 4}
	d := collective.AllToAll(tp.NumNodes(), gpus, 1, 250e3)
	plain, err := SolveLP(context.Background(), tp, d, Options{EpochMode: FastestLink})
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	tight, err := SolveLP(context.Background(), tp, d, Options{EpochMode: FastestLink, MinimizeMakespan: true})
	if err != nil {
		t.Fatalf("tight: %v", err)
	}
	if tight.Schedule.FinishEpoch() > plain.Schedule.FinishEpoch() {
		t.Fatalf("makespan mode worsened finish: %d > %d",
			tight.Schedule.FinishEpoch(), plain.Schedule.FinishEpoch())
	}
}

// TestMakespanResolvesReportProgress: one refinement loop serves both
// monolithic forms, so on either an accepted tighter horizon announces
// itself with a makespan sample, and the result keeps reporting how the
// request's own root solve started, not how the re-solves did (they are
// always warm).
func TestMakespanResolvesReportProgress(t *testing.T) {
	line, ring := topo.Line(4, 1e9, 0), topo.Ring(4, 1e9, 0)
	for _, c := range []struct {
		name   string
		solve  solveFunc
		topo   *topo.Topology
		demand *collective.Demand
		opt    Options // chosen so the plain solve does not finish as early as it could
	}{
		{"lp", SolveLP, line, collective.AllToAll(line.NumNodes(), testGPUs(line), 2, 25e3), Options{}},
		{"milp", SolveMILP, ring, collective.AllGather(ring.NumNodes(), testGPUs(ring), 2, 25e3), Options{GapLimit: 0.9}},
	} {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.solve(context.Background(), c.topo, c.demand, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			announced := 0
			opt := c.opt
			opt.MinimizeMakespan = true
			opt.Progress = func(p Progress) {
				if p.Solver == c.name && p.Phase == "makespan" {
					announced++
				}
			}
			tight, err := c.solve(context.Background(), c.topo, c.demand, opt)
			if err != nil {
				t.Fatal(err)
			}
			if tight.Schedule.FinishEpoch() >= plain.Schedule.FinishEpoch() {
				t.Fatalf("finish %d, plain %d: the instance no longer exercises a tighter horizon",
					tight.Schedule.FinishEpoch(), plain.Schedule.FinishEpoch())
			}
			if announced == 0 {
				t.Errorf("no %s/makespan sample for a refinement that tightened the finish %d -> %d",
					c.name, plain.Schedule.FinishEpoch(), tight.Schedule.FinishEpoch())
			}
			if tight.WarmStarted != plain.WarmStarted || tight.CrashStarted != plain.CrashStarted {
				t.Errorf("warm/crash = %v/%v, the root solve's are %v/%v",
					tight.WarmStarted, tight.CrashStarted, plain.WarmStarted, plain.CrashStarted)
			}
		})
	}
}
