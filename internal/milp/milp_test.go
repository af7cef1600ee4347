package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"teccl/internal/lp"
)

func TestKnapsack(t *testing.T) {
	// max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=1, c=1: 17? or
	// b=1, c=1: 20 with weight 6. Optimal 20.
	p := lp.NewProblem(lp.Maximize)
	a := p.AddVar("a", 0, 1, 10)
	b := p.AddVar("b", 0, 1, 13)
	c := p.AddVar("c", 0, 1, 7)
	p.AddRow([]lp.Term{{Var: a, Coeff: 3}, {Var: b, Coeff: 4}, {Var: c, Coeff: 2}}, lp.LE, 6)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{a, b, c}}, Options{})
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-20) > 1e-6 {
		t.Fatalf("objective = %g, want 20", sol.Objective)
	}
	if math.Abs(sol.X[b]-1) > 1e-6 || math.Abs(sol.X[c]-1) > 1e-6 {
		t.Fatalf("want b=c=1, got %v", sol.X)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5).
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, lp.Inf, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 7)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-3) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestMinimizeMILP(t *testing.T) {
	// min 3x + 2y s.t. x + y >= 3.5, integers -> (0,4)=8 or (1,3)=9 or
	// (2,2)=10... best is x=0,y=4 -> 8.
	p := lp.NewProblem(lp.Minimize)
	x := p.AddVar("x", 0, 10, 3)
	y := p.AddVar("y", 0, 10, 2)
	p.AddRow([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.GE, 3.5)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{x, y}}, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-8) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// 0.4 <= x <= 0.6 with x integer: no integer point.
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0.4, 0.6, 1)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestLPInfeasible(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 1}}, lp.GE, 2)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, Options{})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer, y continuous; x + y <= 2.5; x <= 1.7.
	// x=1, y=1.5 -> 3.5.
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, 1.7, 2)
	y := p.AddVar("y", 0, lp.Inf, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.LE, 2.5)
	sol := Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, Options{})
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-3.5) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 3.5", sol.Status, sol.Objective)
	}
}

func TestBoundsRestoredAfterSolve(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, 5, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 7)
	Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, Options{})
	lo, hi := p.Bounds(x)
	if lo != 0 || hi != 5 {
		t.Fatalf("bounds mutated: [%g, %g]", lo, hi)
	}
}

func TestGapLimitStopsEarly(t *testing.T) {
	// A knapsack big enough that early stop at a loose gap terminates with
	// a feasible (not necessarily optimal) incumbent.
	rng := rand.New(rand.NewSource(7))
	p := lp.NewProblem(lp.Maximize)
	var ints []lp.VarID
	var terms []lp.Term
	for i := 0; i < 30; i++ {
		v := p.AddVar("", 0, 1, 1+rng.Float64()*9)
		ints = append(ints, v)
		terms = append(terms, lp.Term{Var: v, Coeff: 1 + rng.Float64()*4})
	}
	p.AddRow(terms, lp.LE, 20)
	sol := Solve(&Problem{LP: p, Integer: ints}, Options{GapLimit: 0.5})
	if sol.Status != StatusOptimal && sol.Status != StatusFeasible {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X == nil {
		t.Fatal("no incumbent returned")
	}
	if sol.Status == StatusFeasible && sol.Gap > 0.5+1e-9 {
		t.Fatalf("gap %g exceeds limit", sol.Gap)
	}
}

func TestTimeLimit(t *testing.T) {
	p := lp.NewProblem(lp.Maximize)
	var ints []lp.VarID
	var terms []lp.Term
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		v := p.AddVar("", 0, 1, 1+rng.Float64())
		ints = append(ints, v)
		terms = append(terms, lp.Term{Var: v, Coeff: 1 + rng.Float64()})
	}
	p.AddRow(terms, lp.LE, 17.5)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	sol := Solve(&Problem{LP: p, Integer: ints}, Options{Context: ctx})
	// Either it finished very fast or it respected the limit; both fine,
	// but the call must return promptly and coherently.
	if sol.Elapsed > 5*time.Second {
		t.Fatalf("took %v despite 1ms limit", sol.Elapsed)
	}
}

// knapsackBrute solves a small 0/1 knapsack exactly by enumeration.
func knapsackBrute(values, weights []float64, cap float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		var v, w float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

// TestQuickKnapsackMatchesBruteForce cross-checks branch and bound against
// exhaustive enumeration on random small knapsacks.
func TestQuickKnapsackMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		p := lp.NewProblem(lp.Maximize)
		var ints []lp.VarID
		var terms []lp.Term
		for i := 0; i < n; i++ {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			v := p.AddVar("", 0, 1, values[i])
			ints = append(ints, v)
			terms = append(terms, lp.Term{Var: v, Coeff: weights[i]})
		}
		cap := float64(5 + rng.Intn(25))
		p.AddRow(terms, lp.LE, cap)
		want := knapsackBrute(values, weights, cap)
		sol := Solve(&Problem{LP: p, Integer: ints}, Options{})
		if sol.Status != StatusOptimal {
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Logf("seed %d: got %g want %g", seed, sol.Objective, want)
			return false
		}
		// Incumbent must be integral and within capacity.
		var w float64
		for i, v := range ints {
			xv := sol.X[v]
			if math.Abs(xv-math.Round(xv)) > 1e-6 {
				t.Logf("seed %d: fractional incumbent", seed)
				return false
			}
			w += weights[i] * xv
		}
		return w <= cap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntegerEqualitySystems checks random assignment-style problems
// with equality rows, which exercise phase-1 artificials under branching.
func TestQuickIntegerEqualitySystems(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3) // n x n assignment
		p := lp.NewProblem(lp.Minimize)
		cost := make([][]float64, n)
		vars := make([][]lp.VarID, n)
		for i := 0; i < n; i++ {
			cost[i] = make([]float64, n)
			vars[i] = make([]lp.VarID, n)
			for j := 0; j < n; j++ {
				cost[i][j] = float64(rng.Intn(50))
				vars[i][j] = p.AddVar("", 0, 1, cost[i][j])
			}
		}
		var ints []lp.VarID
		for i := 0; i < n; i++ {
			var rowT, colT []lp.Term
			for j := 0; j < n; j++ {
				rowT = append(rowT, lp.Term{Var: vars[i][j], Coeff: 1})
				colT = append(colT, lp.Term{Var: vars[j][i], Coeff: 1})
				ints = append(ints, vars[i][j])
			}
			p.AddRow(rowT, lp.EQ, 1)
			p.AddRow(colT, lp.EQ, 1)
		}
		sol := Solve(&Problem{LP: p, Integer: ints}, Options{})
		if sol.Status != StatusOptimal {
			t.Logf("seed %d: status %v", seed, sol.Status)
			return false
		}
		// Brute-force optimal assignment.
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		best := math.Inf(1)
		var rec func(k int)
		rec = func(k int) {
			if k == n {
				var c float64
				for i, j := range perm {
					c += cost[i][j]
				}
				if c < best {
					best = c
				}
				return
			}
			for i := k; i < n; i++ {
				perm[k], perm[i] = perm[i], perm[k]
				rec(k + 1)
				perm[k], perm[i] = perm[i], perm[k]
			}
		}
		rec(0)
		if math.Abs(sol.Objective-best) > 1e-6 {
			t.Logf("seed %d: got %g want %g", seed, sol.Objective, best)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusOptimal:    "optimal",
		StatusFeasible:   "feasible",
		StatusInfeasible: "infeasible",
		StatusNoSolution: "no solution",
		StatusError:      "error",
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
