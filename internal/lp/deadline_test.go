package lp

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// bigLP builds a dense-ish LP large enough that a solve takes visible time.
func bigLP(rng *rand.Rand, n, m int) *Problem {
	p := NewProblem(Maximize)
	vars := make([]VarID, n)
	for j := range vars {
		vars[j] = p.AddVar("", 0, float64(1+rng.Intn(10)), rng.Float64())
	}
	for r := 0; r < m; r++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				terms = append(terms, Term{Var: vars[j], Coeff: rng.Float64() + 0.1})
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.AddRow(terms, LE, float64(5+rng.Intn(50)))
	}
	return p
}

// TestDeadlineStopsSolve: a context deadline, the solve's only wall-clock
// budget, stops a long solve.
func TestDeadlineStopsSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := bigLP(rng, 400, 400)
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	sol, err := Solve(p, Options{Context: ctx})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline ignored: took %v", elapsed)
	}
	if sol.Status != StatusIterLimit && sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestExpiredDeadlineStillReturns(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1, 1)
	_ = x
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Hour))
	defer cancel()
	sol, err := Solve(p, Options{Context: ctx})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	// Tiny problems may finish before the first deadline check; either
	// outcome must be coherent.
	if sol.Status != StatusOptimal && sol.Status != StatusIterLimit {
		t.Fatalf("status = %v", sol.Status)
	}
}

// TestZeroDeadlineMeansNoLimit: a solve with no context has no
// wall-clock budget.
func TestZeroDeadlineMeansNoLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := bigLP(rng, 60, 60)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("unlimited solve failed: %v %v", err, sol.Status)
	}
}

func TestDegenerateManyEqualities(t *testing.T) {
	// A chain of equalities x_i = x_{i+1} with one anchored value: heavy
	// phase-1 usage and lots of degenerate pivots.
	p := NewProblem(Maximize)
	const n = 40
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = p.AddVar("", 0, 10, 0)
	}
	p.SetObj(vars[n-1], 1)
	for i := 0; i+1 < n; i++ {
		p.AddRow([]Term{{Var: vars[i], Coeff: 1}, {Var: vars[i+1], Coeff: -1}}, EQ, 0)
	}
	p.AddRow([]Term{{Var: vars[0], Coeff: 1}}, LE, 7)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v %v", err, sol.Status)
	}
	if sol.Objective != 7 {
		t.Fatalf("objective = %g, want 7", sol.Objective)
	}
}

func TestUpperBoundedEnteringFlip(t *testing.T) {
	// Entering variable hits its own upper bound before any basic leaves
	// (a pure bound flip).
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 2, 1)
	y := p.AddVar("y", 0, 100, 0)
	p.AddRow([]Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, LE, 50)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v", err)
	}
	if sol.Value(x) != 2 {
		t.Fatalf("x = %g, want 2 (bound flip)", sol.Value(x))
	}
}

func TestNegativeRHSGE(t *testing.T) {
	// min x subject to -x >= -5, x >= 0 -> 0; max -> 5.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	p.AddRow([]Term{{Var: x, Coeff: -1}}, GE, -5)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v", err)
	}
	if sol.Objective != 5 {
		t.Fatalf("objective = %g, want 5", sol.Objective)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem(Minimize)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("empty problem: %v %v", err, sol.Status)
	}
	if sol.Objective != 0 {
		t.Fatalf("objective = %g", sol.Objective)
	}
}

func TestRowWithOnlyZeroCoeffs(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 3, 1)
	p.AddRow([]Term{{Var: x, Coeff: 0}}, LE, 10)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("solve: %v", err)
	}
	if sol.Objective != 3 {
		t.Fatalf("objective = %g", sol.Objective)
	}
}

func TestInfeasibleEqualityPair(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, Inf, 1)
	p.AddRow([]Term{{Var: x, Coeff: 1}}, EQ, 3)
	p.AddRow([]Term{{Var: x, Coeff: 1}}, EQ, 4)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v", sol.Status)
	}
}
