package milp

import (
	"math/rand"
	"testing"

	"teccl/internal/lp"
)

// knapsackMILP builds a 0/1 knapsack-style MILP with correlated weights
// so branch and bound has to explore a real tree.
func knapsackMILP(rng *rand.Rand, n int) *Problem {
	p := lp.NewProblem(lp.Maximize)
	var terms []lp.Term
	var ints []lp.VarID
	for j := 0; j < n; j++ {
		w := float64(3 + rng.Intn(17))
		v := w + float64(rng.Intn(9))
		x := p.AddVar("", 0, 1, v)
		terms = append(terms, lp.Term{Var: x, Coeff: w})
		ints = append(ints, x)
	}
	var cap float64
	for _, tm := range terms {
		cap += tm.Coeff
	}
	p.AddRow(terms, lp.LE, cap*0.37)
	return &Problem{LP: p, Integer: ints}
}

// TestWarmStartedNodesAreCheap asserts the acceptance criterion of the
// basis-reuse work: the average warm-started per-node simplex effort sits
// well below the cold root solve's.
func TestWarmStartedNodesAreCheap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := knapsackMILP(rng, 40)
	sol := Solve(p, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Nodes < 3 {
		t.Skipf("tree too small to measure (nodes=%d)", sol.Nodes)
	}
	if sol.RootIterations == 0 {
		t.Fatal("RootIterations not reported")
	}
	avg := float64(sol.NodeIterations) / float64(sol.Nodes)
	t.Logf("root=%d iters, nodes=%d, node total=%d (avg %.1f/node)",
		sol.RootIterations, sol.Nodes, sol.NodeIterations, avg)
	if avg >= float64(sol.RootIterations) {
		t.Fatalf("warm-started nodes average %.1f iterations, root took %d; warm start ineffective",
			avg, sol.RootIterations)
	}
}

// TestWarmVsColdSameIncumbent: the warm-start machinery must not change
// what branch and bound finds, only how fast it finds it.
func TestWarmVsColdSameIncumbent(t *testing.T) {
	var cold, rewarmed effort
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := knapsackMILP(rng, 25)
		sol := Solve(p, Options{})
		cold.add(sol)
		if sol.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v", seed, sol.Status)
		}
		// Exhaustive-tree optimality is the equality oracle: re-solving
		// with the root basis as an external hint must agree.
		again := Solve(p, Options{RootWarmStart: sol.RootBasis})
		rewarmed.add(again)
		if again.Status != StatusOptimal {
			t.Fatalf("seed %d: rewarmed status %v", seed, again.Status)
		}
		if diff := sol.Objective - again.Objective; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("seed %d: objective %g vs rewarmed %g", seed, sol.Objective, again.Objective)
		}
	}
	cold.check(t, "cold root", effort{1988, 8089, 2020})
	rewarmed.check(t, "rewarmed root", effort{1988, 8089, 2020})
}
