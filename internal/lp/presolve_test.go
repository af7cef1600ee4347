package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// checkX verifies a solution point against the problem's bounds and rows.
func checkX(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for j := 0; j < p.NumVars(); j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			t.Fatalf("var %d = %g outside [%g, %g]", j, x[j], p.lo[j], p.hi[j])
		}
	}
	for r, row := range p.rows {
		var lhs float64
		for _, tm := range row {
			lhs += tm.Coeff * x[tm.Var]
		}
		switch p.senses[r] {
		case LE:
			if lhs > p.rhs[r]+tol {
				t.Fatalf("row %d: %g > %g", r, lhs, p.rhs[r])
			}
		case GE:
			if lhs < p.rhs[r]-tol {
				t.Fatalf("row %d: %g < %g", r, lhs, p.rhs[r])
			}
		case EQ:
			if math.Abs(lhs-p.rhs[r]) > tol {
				t.Fatalf("row %d: %g != %g", r, lhs, p.rhs[r])
			}
		}
	}
}

// randEQLP augments the random feasible generator with EQ rows (anchored
// at the interior point), the row class presolve's singleton/doubleton
// reductions act on most.
func randEQLP(rng *rand.Rand) (*Problem, []float64) {
	p, x0 := randFeasibleLP(rng)
	nEQ := rng.Intn(4)
	for r := 0; r < nEQ; r++ {
		var terms []Term
		var lhs float64
		for j := 0; j < p.NumVars() && len(terms) < 3; j++ {
			if rng.Intn(2) == 0 {
				continue
			}
			c := float64(rng.Intn(7)) - 3
			if c == 0 {
				continue
			}
			terms = append(terms, Term{VarID(j), c})
			lhs += c * x0[j]
		}
		if len(terms) == 0 {
			continue
		}
		// Anchor the EQ row at x0 via a fresh free variable, keeping the
		// instance feasible by construction.
		v := p.AddVar("", -100, 100, 0)
		terms = append(terms, Term{v, 1})
		x0 = append(x0, 0)
		p.AddRow(terms, EQ, lhs)
	}
	return p, x0
}

// TestQuickPresolveMatches is the presolve-equality property: across
// random LPs (including EQ rows), solving with and without presolve must
// agree on status and objective, and the presolved X must satisfy the
// ORIGINAL problem.
func TestQuickPresolveMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var p *Problem
		if seed%2 == 0 {
			p, _ = randFeasibleLP(rng)
		} else {
			p, _ = randEQLP(rng)
		}
		plain, err1 := Solve(p, Options{NoPresolve: true})
		pre, err2 := Solve(p, Options{})
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: errors %v %v", seed, err1, err2)
			return false
		}
		if plain.Status != pre.Status {
			t.Logf("seed %d: plain %v presolve %v", seed, plain.Status, pre.Status)
			return false
		}
		if plain.Status == StatusOptimal {
			if math.Abs(plain.Objective-pre.Objective) > 1e-6 {
				t.Logf("seed %d: plain obj %g presolve obj %g", seed, plain.Objective, pre.Objective)
				return false
			}
			checkX(t, p, pre.X, 1e-6)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestPresolveBasisRoundTrip: a basis postsolved from a reduced solve
// must warm-start a NoPresolve re-solve of the original problem in a
// handful of iterations — the contract internal/core's warm-start
// chaining depends on.
func TestPresolveBasisRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randEQLP(rng)
		pre, err := Solve(p, Options{})
		if err != nil || pre.Status != StatusOptimal {
			return true // not a round-trip scenario
		}
		if pre.Basis == nil {
			t.Logf("seed %d: presolved solve returned no basis", seed)
			return false
		}
		if len(pre.Basis.Vars) != p.NumVars() || len(pre.Basis.Rows) != p.NumRows() {
			t.Logf("seed %d: basis dims %dx%d, problem %dx%d", seed,
				len(pre.Basis.Vars), len(pre.Basis.Rows), p.NumVars(), p.NumRows())
			return false
		}
		warm, err := Solve(p, Options{NoPresolve: true, WarmStart: pre.Basis})
		if err != nil || warm.Status != StatusOptimal {
			t.Logf("seed %d: warm re-solve %v %v", seed, err, warm.Status)
			return false
		}
		if math.Abs(warm.Objective-pre.Objective) > 1e-6 {
			t.Logf("seed %d: warm obj %g != %g", seed, warm.Objective, pre.Objective)
			return false
		}
		// The postsolved basis describes (a vertex of) the optimal face:
		// resuming from it must be nearly free.
		if warm.Iterations > 10 {
			t.Logf("seed %d: warm restart took %d iterations", seed, warm.Iterations)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPresolveSingletonRows: singleton rows fold into bounds and the
// solve still reports the exact optimum and a usable basis.
func TestPresolveSingletonRows(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow([]Term{{x, 1}}, LE, 4)  // singleton: x <= 4
	p.AddRow([]Term{{y, 2}}, LE, 12) // singleton: y <= 6
	p.AddRow([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("Solve: %v %v", err, sol.Status)
	}
	if math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("objective = %g, want 36", sol.Objective)
	}
	if math.Abs(sol.Value(x)-2) > 1e-6 || math.Abs(sol.Value(y)-6) > 1e-6 {
		t.Fatalf("point = (%g, %g), want (2, 6)", sol.Value(x), sol.Value(y))
	}
	nBasic := 0
	for _, st := range sol.Basis.Vars {
		if st == BasisBasic {
			nBasic++
		}
	}
	for _, st := range sol.Basis.Rows {
		if st == BasisBasic {
			nBasic++
		}
	}
	if nBasic != p.NumRows() {
		t.Fatalf("postsolved basis has %d basic entries, want %d", nBasic, p.NumRows())
	}
}

// TestPresolveFixedAndForcing: fixed variables substitute out, and a
// forcing row pins its variables.
func TestPresolveFixedAndForcing(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2, 2, 10) // fixed
	y := p.AddVar("y", 0, 4, 1)
	z := p.AddVar("z", 0, 3, -2)
	// Forcing: y + z >= 7 touches its max activity exactly -> y=4, z=3.
	p.AddRow([]Term{{y, 1}, {z, 1}}, GE, 7)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 100) // redundant
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("Solve: %v %v", err, sol.Status)
	}
	want := 10*2.0 + 1*4 + (-2)*3
	if math.Abs(sol.Objective-want) > 1e-6 {
		t.Fatalf("objective = %g, want %g", sol.Objective, want)
	}
	checkX(t, p, sol.X, 1e-6)
}

// TestPresolveDoubleton: an implied-free column singleton in an EQ
// doubleton row substitutes out and reconstructs exactly.
func TestPresolveDoubleton(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", -100, 100, 3)        // implied free: bounds never bind
	p.AddRow([]Term{{x, 1}, {y, 1}}, EQ, 8) // y = 8 - x, appears nowhere else
	p.AddRow([]Term{{x, 1}}, GE, 2)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("Solve: %v %v", err, sol.Status)
	}
	// min x + 3(8-x) = 24 - 2x -> x = 10, y = -2.
	if math.Abs(sol.Value(x)-10) > 1e-6 || math.Abs(sol.Value(y)+2) > 1e-6 {
		t.Fatalf("point = (%g, %g), want (10, -2)", sol.Value(x), sol.Value(y))
	}
	checkX(t, p, sol.X, 1e-6)
}

// TestPresolveForcingRowDual: a binding forcing row must come back with
// a valid (generally nonzero) dual, matching the NoPresolve solve.
func TestPresolveForcingRowDual(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(Maximize)
		x := p.AddVar("x", 1, 2, 1)
		y := p.AddVar("y", 1, 2, 1)
		z := p.AddVar("z", 0, Inf, 1)
		w := p.AddVar("w", 0, Inf, 1)
		p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 2) // forcing: x=y=1
		p.AddRow([]Term{{z, 1}, {w, 1}}, LE, 5)
		p.AddRow([]Term{{z, 2}, {w, 1}}, LE, 8)
		return p
	}
	ref, err := Solve(build(), Options{NoPresolve: true})
	if err != nil || ref.Status != StatusOptimal {
		t.Fatalf("reference: %v %v", err, ref.Status)
	}
	got, err := Solve(build(), Options{})
	if err != nil || got.Status != StatusOptimal {
		t.Fatalf("presolved: %v %v", err, got.Status)
	}
	if got.Duals == nil {
		t.Fatal("presolved optimal solve returned no duals")
	}
	// Strong duality over rows plus bound terms: check via the reduced
	// costs instead — every variable at a bound must have a sign-correct
	// reduced cost under the returned duals (max: d<=0 at lower, d>=0 at
	// upper), which fails if the forcing row reports 0.
	p := build()
	for j := 0; j < p.NumVars(); j++ {
		d := p.Obj(VarID(j))
		for i, row := range p.rows {
			for _, tm := range row {
				if int(tm.Var) == j {
					d -= tm.Coeff * got.Duals[i]
				}
			}
		}
		lo, hi := p.Bounds(VarID(j))
		xv := got.X[j]
		switch {
		case math.Abs(xv-lo) < 1e-9 && xv < hi-1e-9:
			if d > 1e-7 {
				t.Fatalf("var %d at lower with reduced cost %g > 0", j, d)
			}
		case math.Abs(xv-hi) < 1e-9 && xv > lo+1e-9:
			if d < -1e-7 {
				t.Fatalf("var %d at upper with reduced cost %g < 0", j, d)
			}
		}
	}
}

// TestPresolveInfeasible: contradictions found during reduction surface
// as StatusInfeasible without a simplex run, with a well-formed basis.
func TestPresolveInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}}, LE, 3)
	p.AddRow([]Term{{x, 1}}, GE, 5)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
	if sol.Basis == nil || len(sol.Basis.Vars) != 1 || len(sol.Basis.Rows) != 2 {
		t.Fatalf("infeasible solve must still return a full-size basis, got %+v", sol.Basis)
	}
}

// TestPresolveEmptyAndBadlyScaled: an empty row drops, an empty column
// lands inside its bounds, and a badly scaled row (coefficients 1e6 and
// 1e-4) still solves to its optimum through presolve, which does not
// rescale.
func TestPresolveEmptyAndBadlyScaled(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, Inf, 1e-6)
	y := p.AddVar("y", 0, Inf, 1e6)
	free := p.AddVar("free", -5, 5, 0) // empty column
	p.AddRow(nil, LE, 1)               // empty row
	p.AddRow([]Term{{x, 1e6}, {y, 1e-4}}, GE, 2e6)
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("Solve: %v %v", err, sol.Status)
	}
	// Cheapest: x = 2 (cost 2e-6), y = 0.
	if math.Abs(sol.Value(x)-2) > 1e-6 || math.Abs(sol.Value(y)) > 1e-9 {
		t.Fatalf("point = (%g, %g), want (2, 0)", sol.Value(x), sol.Value(y))
	}
	if v := sol.Value(free); v < -5-1e-9 || v > 5+1e-9 {
		t.Fatalf("empty column landed at %g, outside its bounds", v)
	}
	checkX(t, p, sol.X, 1e-5)
}
