package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"teccl/internal/collective"
	"teccl/internal/schedule"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// randTopo builds a small random strongly-connected topology.
func randTopo(rng *rand.Rand) *topo.Topology {
	n := 3 + rng.Intn(3)
	t := topo.New("rand")
	nodes := make([]topo.NodeID, n)
	for i := range nodes {
		nodes[i] = t.AddNode("", false)
	}
	// Ring backbone guarantees connectivity.
	for i := range nodes {
		t.AddDuplex(nodes[i], nodes[(i+1)%n], 1e9, float64(rng.Intn(3))*1e-3)
	}
	// Random extra links.
	for e := rng.Intn(4); e > 0; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			t.AddLink(nodes[a], nodes[b], 1e9, float64(rng.Intn(2))*1e-3)
		}
	}
	return t
}

// randDemand picks a random sparse demand.
func randDemand(rng *rand.Rand, n int) *collective.Demand {
	d := collective.New(n, 1+rng.Intn(2), 1e6)
	triples := 1 + rng.Intn(2*n)
	for i := 0; i < triples; i++ {
		s, dst := rng.Intn(n), rng.Intn(n)
		c := rng.Intn(d.NumChunks())
		if s != dst {
			d.Set(s, c, dst)
		}
	}
	return d
}

// TestQuickMILPSchedulesValid: across random instances, SolveMILP either
// reports infeasibility honestly or produces a schedule that passes the
// independent validator AND the continuous-time simulator.
func TestQuickMILPSchedulesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		d := randDemand(rng, tp.NumNodes())
		if d.Count() == 0 {
			return true
		}
		res, err := SolveMILP(context.Background(), tp, d, Options{})
		if err != nil {
			return true // infeasible within estimated horizon: acceptable
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Logf("seed %d: invalid schedule: %v", seed, err)
			return false
		}
		if _, err := sim.Run(res.Schedule); err != nil {
			t.Logf("seed %d: sim failed: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMILPNotWorseThanGreedy: the MILP objective maximizes early
// delivery, so its finish epoch can never exceed the greedy incumbent's.
func TestQuickMILPNotWorseThanGreedy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		d := randDemand(rng, tp.NumNodes())
		if d.Count() == 0 {
			return true
		}
		in := must(newInstance(tp, d, Options{}))
		inc := greedyIncumbent(in)
		if inc == nil {
			return true
		}
		greedyFinish := sendsFinishEpoch(in, inc)
		res, err := SolveMILP(context.Background(), tp, d, Options{})
		if err != nil {
			t.Logf("seed %d: MILP failed where greedy succeeded: %v", seed, err)
			return false
		}
		if fe := res.Schedule.FinishEpoch(); fe > greedyFinish {
			t.Logf("seed %d: MILP finish %d worse than greedy %d", seed, fe, greedyFinish)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLPSchedulesValid: the LP decomposition must always produce
// validator- and simulator-clean fractional schedules.
func TestQuickLPSchedulesValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		n := tp.NumNodes()
		gpus := make([]int, n)
		for i := range gpus {
			gpus[i] = i
		}
		d := collective.AllToAll(n, gpus, 1, 1e6)
		res, err := SolveLP(context.Background(), tp, d, Options{})
		if err != nil {
			t.Logf("seed %d: LP failed: %v", seed, err)
			return false
		}
		if err := res.Schedule.Validate(); err != nil {
			t.Logf("seed %d: invalid LP schedule: %v", seed, err)
			return false
		}
		if _, err := sim.Run(res.Schedule); err != nil {
			t.Logf("seed %d: sim failed: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDeterministicSolves: identical inputs give identical schedules
// (the reliability claim of §1 versus TACCL's run-to-run variance).
func TestQuickDeterministicSolves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		d := randDemand(rng, tp.NumNodes())
		if d.Count() == 0 {
			return true
		}
		a, errA := SolveMILP(context.Background(), tp, d, Options{})
		b, errB := SolveMILP(context.Background(), tp, d, Options{})
		if (errA == nil) != (errB == nil) {
			return false
		}
		if errA != nil {
			return true
		}
		if len(a.Schedule.Sends) != len(b.Schedule.Sends) {
			return false
		}
		sortSends(a.Schedule.Sends)
		sortSends(b.Schedule.Sends)
		for i := range a.Schedule.Sends {
			if a.Schedule.Sends[i] != b.Schedule.Sends[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func sortSends(s []schedule.Send) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && lessSend(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func lessSend(a, b schedule.Send) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch < b.Epoch
	}
	if a.Link != b.Link {
		return a.Link < b.Link
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Chunk < b.Chunk
}

// TestLPGreedyBoundIsFeasibleHorizon: solving with the greedy bound's
// horizon must succeed (the bound is an upper bound on the optimum).
func TestLPGreedyBoundIsFeasibleHorizon(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := randTopo(rng)
		n := tp.NumNodes()
		gpus := make([]int, n)
		for i := range gpus {
			gpus[i] = i
		}
		d := collective.AllToAll(n, gpus, 1, 1e6)
		in := must(newInstance(tp, d, Options{}))
		bound, _ := lpGreedyBound(in)
		if bound < 0 {
			return true
		}
		_, err := SolveLP(context.Background(), tp, d, Options{Epochs: bound + 1})
		if err != nil {
			t.Logf("seed %d: bound %d not feasible: %v", seed, bound, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
