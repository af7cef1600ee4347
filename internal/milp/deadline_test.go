package milp

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"teccl/internal/lp"
)

// hardKnapsack builds an instance whose exact solve takes a while.
func hardKnapsack(rng *rand.Rand, n int) (*Problem, []lp.VarID) {
	p := lp.NewProblem(lp.Maximize)
	var ints []lp.VarID
	var terms []lp.Term
	for i := 0; i < n; i++ {
		v := p.AddVar("", 0, 1, 10+rng.Float64())
		ints = append(ints, v)
		terms = append(terms, lp.Term{Var: v, Coeff: 5 + rng.Float64()})
	}
	p.AddRow(terms, lp.LE, float64(n)*5.5/2)
	return &Problem{LP: p, Integer: ints}, ints
}

// TestTimeLimitPropagatesToLP: a context deadline, the search's only
// time limit, reaches the root and node LP solves.
func TestTimeLimitPropagatesToLP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, _ := hardKnapsack(rng, 60)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	sol := Solve(p, Options{Context: ctx})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("time limit ignored: %v", elapsed)
	}
	// Any coherent outcome is acceptable under a tight limit.
	switch sol.Status {
	case StatusOptimal, StatusFeasible, StatusNoSolution:
	default:
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestRootIterLimitWithIncumbentReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, ints := hardKnapsack(rng, 80)
	// All-zeros is integer feasible for a knapsack.
	x := make([]float64, p.LP.NumVars())
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	sol := Solve(p, Options{Context: expired, IncumbentX: x})
	if sol.Status != StatusFeasible && sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want feasible fallback", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("no incumbent returned")
	}
	for _, v := range ints {
		if sol.X[v] != 0 && sol.Status == StatusFeasible {
			// The provided incumbent was all zeros; a Feasible fallback
			// must return it unchanged (unless search improved it).
			break
		}
	}
}

func TestIncumbentOnlyPruning(t *testing.T) {
	// Provide the known optimum as incumbent: search should confirm it
	// quickly and return optimal.
	p := lp.NewProblem(lp.Maximize)
	a := p.AddVar("a", 0, 1, 3)
	b := p.AddVar("b", 0, 1, 2)
	p.AddRow([]lp.Term{{Var: a, Coeff: 1}, {Var: b, Coeff: 1}}, lp.LE, 1)
	x := make([]float64, 2)
	x[a] = 1
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{a, b}}, Options{IncumbentX: x})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %g, want 3", sol.Objective)
	}
}

func TestMaxNodesLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, _ := hardKnapsack(rng, 40)
	sol := Solve(p, Options{MaxNodes: 3})
	if sol.Nodes > 3 {
		t.Fatalf("explored %d nodes despite limit 3", sol.Nodes)
	}
}
