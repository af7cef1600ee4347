package lp

import (
	"math"
	"testing"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	return solveOptimal(t, p, Options{})
}

func solveOptimal(t *testing.T, p *Problem, opt Options) *Solution {
	t.Helper()
	sol, err := Solve(p, opt)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	return sol
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestTrivialBounds(t *testing.T) {
	// max 3x with 0 <= x <= 5 and no rows.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 5, 3)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 15) || !almostEq(sol.Value(x), 5) {
		t.Fatalf("got obj %g x %g, want 15, 5", sol.Objective, sol.Value(x))
	}
}

func TestTwoVarLP(t *testing.T) {
	// Classic: max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Optimum (2, 6) with value 36.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow([]Term{{x, 1}}, LE, 4)
	p.AddRow([]Term{{y, 2}}, LE, 12)
	p.AddRow([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 36) {
		t.Fatalf("objective = %g, want 36", sol.Objective)
	}
	if !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 6) {
		t.Fatalf("solution = (%g, %g), want (2, 6)", sol.Value(x), sol.Value(y))
	}
}

func TestMinimize(t *testing.T) {
	// min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> x=1.6, y=1.2, obj 2.8.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}, {y, 2}}, GE, 4)
	p.AddRow([]Term{{x, 3}, {y, 1}}, GE, 6)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 2.8) {
		t.Fatalf("objective = %g, want 2.8", sol.Objective)
	}
}

func TestEquality(t *testing.T) {
	// max x + 2y s.t. x + y = 10, x - y = 2 -> (6, 4), obj 14.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 2)
	p.AddRow([]Term{{x, 1}, {y, 1}}, EQ, 10)
	p.AddRow([]Term{{x, 1}, {y, -1}}, EQ, 2)
	sol := solveOK(t, p)
	if !almostEq(sol.Value(x), 6) || !almostEq(sol.Value(y), 4) {
		t.Fatalf("solution = (%g, %g), want (6, 4)", sol.Value(x), sol.Value(y))
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}}, GE, 5)
	p.AddRow([]Term{{x, 1}}, LE, 3)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 0)
	p.AddRow([]Term{{x, 1}, {y, -1}}, LE, 1)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusUnbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// max x + y with -3 <= x <= -1, -2 <= y <= 4, x + y <= 1.
	// Optimum: x = -1, y = 2 (row binds), obj 1.
	p := NewProblem(Maximize)
	x := p.AddVar("x", -3, -1, 1)
	y := p.AddVar("y", -2, 4, 1)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 1)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 1) {
		t.Fatalf("objective = %g, want 1", sol.Objective)
	}
	if !almostEq(sol.Value(x), -1) {
		t.Fatalf("x = %g, want -1", sol.Value(x))
	}
}

func TestFreeVariable(t *testing.T) {
	// min x with x free and x >= -7 as a row: optimum -7.
	p := NewProblem(Minimize)
	x := p.AddVar("x", math.Inf(-1), Inf, 1)
	p.AddRow([]Term{{x, 1}}, GE, -7)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, -7) {
		t.Fatalf("objective = %g, want -7", sol.Objective)
	}
}

func TestFixedVariable(t *testing.T) {
	// y fixed at 3; max x s.t. x + y <= 5 -> x = 2.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 3, 3, 0)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 5)
	sol := solveOK(t, p)
	if !almostEq(sol.Value(x), 2) || !almostEq(sol.Value(y), 3) {
		t.Fatalf("solution = (%g, %g), want (2, 3)", sol.Value(x), sol.Value(y))
	}
}

func TestGEWithSlackStart(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x <= 8, y <= 8 -> (8, 2), obj 22.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 8, 2)
	y := p.AddVar("y", 0, 8, 3)
	p.AddRow([]Term{{x, 1}, {y, 1}}, GE, 10)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 22) {
		t.Fatalf("objective = %g, want 22", sol.Objective)
	}
}

func TestDuplicateTermsCombined(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	// x + x <= 6 should behave as 2x <= 6.
	p.AddRow([]Term{{x, 1}, {x, 1}}, LE, 6)
	sol := solveOK(t, p)
	if !almostEq(sol.Value(x), 3) {
		t.Fatalf("x = %g, want 3", sol.Value(x))
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate instance (multiple bases at the optimum).
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 2)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddRow([]Term{{x, 1}}, LE, 4)
	p.AddRow([]Term{{y, 1}}, LE, 4)
	p.AddRow([]Term{{x, 1}, {y, 2}}, LE, 8)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 8) {
		t.Fatalf("objective = %g, want 8", sol.Objective)
	}
}

func TestBeale(t *testing.T) {
	// Beale's cycling example; must terminate via anti-cycling.
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", 0, Inf, -0.75)
	x2 := p.AddVar("x2", 0, Inf, 150)
	x3 := p.AddVar("x3", 0, Inf, -0.02)
	x4 := p.AddVar("x4", 0, Inf, 6)
	p.AddRow([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddRow([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddRow([]Term{{x3, 1}}, LE, 1)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, -0.05) {
		t.Fatalf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestTransportation(t *testing.T) {
	// 2 supplies x 3 demands balanced transportation problem.
	supply := []float64{20, 30}
	demand := []float64{10, 25, 15}
	cost := [][]float64{{2, 4, 5}, {3, 1, 7}}
	p := NewProblem(Minimize)
	vars := make([][]VarID, 2)
	for i := range vars {
		vars[i] = make([]VarID, 3)
		for j := range vars[i] {
			vars[i][j] = p.AddVar("", 0, Inf, cost[i][j])
		}
	}
	for i := 0; i < 2; i++ {
		terms := make([]Term, 3)
		for j := 0; j < 3; j++ {
			terms[j] = Term{vars[i][j], 1}
		}
		p.AddRow(terms, EQ, supply[i])
	}
	for j := 0; j < 3; j++ {
		terms := make([]Term, 2)
		for i := 0; i < 2; i++ {
			terms[i] = Term{vars[i][j], 1}
		}
		p.AddRow(terms, EQ, demand[j])
	}
	sol := solveOK(t, p)
	// Optimum (verified by exhaustive enumeration): x00=5, x02=15,
	// x10=5, x11=25 with cost 10 + 75 + 15 + 25 = 125.
	if !almostEq(sol.Objective, 125) {
		t.Fatalf("objective = %g, want 125", sol.Objective)
	}
}

func TestMaxFlowAsLP(t *testing.T) {
	// Max flow s->a->t, s->b->t with caps 3, 2 and cross edge a->b cap 10.
	// Max flow = 5.
	p := NewProblem(Maximize)
	sa := p.AddVar("sa", 0, 3, 0)
	sb := p.AddVar("sb", 0, 2, 0)
	at := p.AddVar("at", 0, 3, 0)
	bt := p.AddVar("bt", 0, 2, 0)
	ab := p.AddVar("ab", 0, 10, 0)
	// Objective: flow out of s.
	p.SetObj(sa, 1)
	p.SetObj(sb, 1)
	// Conservation at a and b.
	p.AddRow([]Term{{sa, 1}, {at, -1}, {ab, -1}}, EQ, 0)
	p.AddRow([]Term{{sb, 1}, {ab, 1}, {bt, -1}}, EQ, 0)
	sol := solveOK(t, p)
	if !almostEq(sol.Objective, 5) {
		t.Fatalf("max flow = %g, want 5", sol.Objective)
	}
}

// TestSolutionRespectsConstraints re-checks the returned point against every
// row and bound for a moderately sized random-ish LP.
func TestSolutionRespectsConstraints(t *testing.T) {
	p := NewProblem(Maximize)
	const n = 30
	vars := make([]VarID, n)
	for i := range vars {
		vars[i] = p.AddVar("", 0, float64(1+i%5), float64((i*7)%11)-3)
	}
	for r := 0; r < 40; r++ {
		var terms []Term
		for i := 0; i < n; i++ {
			c := float64(((r+1)*(i+3))%7) - 3
			if c != 0 {
				terms = append(terms, Term{vars[i], c})
			}
		}
		sense := []Sense{LE, GE, EQ}[r%3]
		rhs := float64((r*13)%17 + 5)
		if sense == GE {
			rhs = -rhs
		}
		if sense == EQ {
			rhs = 0
		}
		p.AddRow(terms, sense, rhs)
	}
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal {
		t.Skipf("instance not optimal: %v", sol.Status)
	}
	checkFeasible(t, p, sol.X, 1e-5)
}

// checkFeasible verifies x against all bounds and rows of p.
func checkFeasible(t *testing.T, p *Problem, x []float64, tol float64) {
	t.Helper()
	for j := 0; j < p.NumVars(); j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			t.Errorf("var %d = %g outside [%g, %g]", j, x[j], p.lo[j], p.hi[j])
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
				t.Errorf("row %d: %g > %g", r, lhs, p.rhs[r])
			}
		case GE:
			if lhs < p.rhs[r]-tol {
				t.Errorf("row %d: %g < %g", r, lhs, p.rhs[r])
			}
		case EQ:
			if math.Abs(lhs-p.rhs[r]) > tol {
				t.Errorf("row %d: %g != %g", r, lhs, p.rhs[r])
			}
		}
	}
}

func TestIterationLimit(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 12)
	sol, err := Solve(p, Options{MaxIter: 1})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal && sol.Status != StatusIterLimit {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || GE.String() != ">=" || EQ.String() != "=" {
		t.Fatal("sense strings wrong")
	}
	if Sense(9).String() != "?" {
		t.Fatal("unknown sense string wrong")
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:        "optimal",
		StatusInfeasible:     "infeasible",
		StatusUnbounded:      "unbounded",
		StatusIterLimit:      "iteration limit",
		StatusNumericalError: "numerical error",
	}
	for st, w := range want {
		if st.String() != w {
			t.Errorf("%d.String() = %q, want %q", st, st.String(), w)
		}
	}
	if Status(99).String() != "unknown" {
		t.Error("unknown status string wrong")
	}
}
