package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// reSolveWarm solves p cold, then again warm-started from the returned
// basis, and checks both reach the same objective.
func reSolveWarm(t *testing.T, p *Problem) (cold, warm *Solution) {
	t.Helper()
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("cold solve: %v", err)
	}
	if cold.Status != StatusOptimal {
		t.Fatalf("cold status = %v, want optimal", cold.Status)
	}
	if cold.Basis == nil {
		t.Fatal("optimal solve returned no basis snapshot")
	}
	warm, err = Solve(p, Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatalf("warm solve: %v", err)
	}
	if warm.Status != StatusOptimal {
		t.Fatalf("warm status = %v, want optimal", warm.Status)
	}
	if math.Abs(cold.Objective-warm.Objective) > optTol*10 {
		t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
	}
	return cold, warm
}

// The hand-written instances of this file, shared with reopt_test.go's
// warm-start corpus.

func classicLP() *Problem {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow([]Term{{x, 1}}, LE, 4)
	p.AddRow([]Term{{y, 2}}, LE, 12)
	p.AddRow([]Term{{x, 3}, {y, 2}}, LE, 18)
	return p
}

func degenerateLP() *Problem {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 2)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 4)
	p.AddRow([]Term{{x, 1}}, LE, 4)
	p.AddRow([]Term{{y, 1}}, LE, 4)
	p.AddRow([]Term{{x, 1}, {y, 2}}, LE, 8)
	return p
}

func upperBoundedLP() *Problem {
	p := NewProblem(Minimize)
	x := p.AddVar("x", -2, 3, 1)
	y := p.AddVar("y", -1, 4, -2)
	z := p.AddVar("z", 0, 1, 0.5)
	p.AddRow([]Term{{x, 1}, {y, 1}, {z, 1}}, LE, 5)
	p.AddRow([]Term{{x, 1}, {y, -1}}, GE, -4)
	return p
}

// bealeLP is Beale's cycling example (optimum -0.05).
func bealeLP() *Problem {
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", 0, Inf, -0.75)
	x2 := p.AddVar("x2", 0, Inf, 150)
	x3 := p.AddVar("x3", 0, Inf, -0.02)
	x4 := p.AddVar("x4", 0, Inf, 6)
	p.AddRow([]Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, LE, 0)
	p.AddRow([]Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, LE, 0)
	p.AddRow([]Term{{x3, 1}}, LE, 1)
	return p
}

// TestWarmRestartIsCheap: resuming from the optimal basis must terminate
// almost immediately (one feasibility pass, one pricing pass).
func TestWarmRestartIsCheap(t *testing.T) {
	cold, warm := reSolveWarm(t, classicLP())
	if warm.Iterations > 4 {
		t.Fatalf("warm restart took %d iterations (cold %d); basis not reused",
			warm.Iterations, cold.Iterations)
	}
}

// TestWarmAfterBoundChange mimics one branch-and-bound step: tighten a
// bound through the fractional optimum and compare warm vs cold.
func TestWarmAfterBoundChange(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 7)
	y := p.AddVar("y", 0, 10, 2)
	p.AddRow([]Term{{x, 2}, {y, 1}}, LE, 7)
	p.AddRow([]Term{{x, 1}, {y, 3}}, LE, 9)
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("base solve: %v %v", err, cold.Status)
	}
	// Branch down on x: x <= floor(x*).
	p.SetBounds(x, 0, math.Floor(cold.Value(x)))
	coldChild, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("cold child: %v", err)
	}
	warmChild, err := Solve(p, Options{WarmStart: cold.Basis})
	if err != nil {
		t.Fatalf("warm child: %v", err)
	}
	if coldChild.Status != warmChild.Status {
		t.Fatalf("status: cold %v warm %v", coldChild.Status, warmChild.Status)
	}
	if math.Abs(coldChild.Objective-warmChild.Objective) > 1e-6 {
		t.Fatalf("objective: cold %g warm %g", coldChild.Objective, warmChild.Objective)
	}
	if warmChild.Iterations > coldChild.Iterations {
		t.Fatalf("warm child took %d iterations, cold %d; warm start hurt",
			warmChild.Iterations, coldChild.Iterations)
	}
}

// TestWarmDegenerate: a heavily degenerate optimum (many ties) restarts
// cleanly from its own basis.
func TestWarmDegenerate(t *testing.T) {
	_, warm := reSolveWarm(t, degenerateLP())
	if math.Abs(warm.Objective-8) > 1e-6 {
		t.Fatalf("objective = %g, want 8", warm.Objective)
	}
}

// TestWarmUpperBounded: bound-flip-heavy instances (finite ranges on both
// sides) must round-trip through a warm restart.
func TestWarmUpperBounded(t *testing.T) {
	p := upperBoundedLP()
	_, warm := reSolveWarm(t, p)
	checkFeasible(t, p, warm.X, 1e-6)
}

// TestWarmInfeasible: a stale basis pointed at an infeasible child must
// still prove infeasibility, exactly like a cold solve.
func TestWarmInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 10)
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("base solve: %v %v", err, cold.Status)
	}
	// Make the child infeasible: force x beyond what the row allows.
	p.AddRow([]Term{{x, 1}}, GE, 20)
	for _, opt := range []Options{{}, {WarmStart: cold.Basis}} {
		sol, err := Solve(p, opt)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		if sol.Status != StatusInfeasible {
			t.Fatalf("warm=%v: status = %v, want infeasible", opt.WarmStart != nil, sol.Status)
		}
	}
}

// TestWarmBealeCycling: Beale's cycling LP solved from a warm basis still
// terminates (the Bland fallback must survive the warm-start path).
func TestWarmBealeCycling(t *testing.T) {
	p := bealeLP()
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		t.Fatalf("cold Beale: %v %v", err, cold.Status)
	}
	// Restart from a deliberately unhelpful basis: everything nonbasic
	// except the slacks — then from the optimal one.
	for _, b := range []*Basis{cold.Basis, {Vars: make([]BasisStatus, 4), Rows: []BasisStatus{BasisBasic, BasisBasic, BasisBasic}}} {
		sol, err := Solve(p, Options{WarmStart: b})
		if err != nil {
			t.Fatalf("warm Beale: %v", err)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective+0.05) > 1e-6 {
			t.Fatalf("warm Beale: %v obj %g, want optimal -0.05", sol.Status, sol.Objective)
		}
	}
}

// TestQuickWarmMatchesCold is the property-style equality check: over
// random feasible LPs, branch-style bound tightenings solved warm and
// cold must agree on status and objective.
func TestQuickWarmMatchesCold(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := randFeasibleLP(rng)
		base, err := Solve(p, Options{})
		if err != nil || base.Status != StatusOptimal {
			return true // skip: not a warm-start scenario
		}
		// Tighten a random variable's bounds around its solved value, as
		// a branch-and-bound child would.
		j := VarID(rng.Intn(p.NumVars()))
		lo, hi := p.Bounds(j)
		xv := base.Value(j)
		if rng.Intn(2) == 0 {
			nhi := math.Floor(xv)
			if nhi < lo {
				nhi = lo
			}
			p.SetBounds(j, lo, nhi)
		} else {
			nlo := math.Ceil(xv)
			if nlo > hi {
				nlo = hi
			}
			p.SetBounds(j, nlo, hi)
		}
		cold, err1 := Solve(p, Options{})
		warm, err2 := Solve(p, Options{WarmStart: base.Basis})
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: errors %v %v", seed, err1, err2)
			return false
		}
		if cold.Status != warm.Status {
			t.Logf("seed %d: cold %v warm %v", seed, cold.Status, warm.Status)
			return false
		}
		if cold.Status == StatusOptimal && math.Abs(cold.Objective-warm.Objective) > 1e-6 {
			t.Logf("seed %d: cold obj %g warm obj %g", seed, cold.Objective, warm.Objective)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWarmDimensionMismatchIgnored: a basis from an unrelated problem must
// not corrupt the solve.
func TestWarmDimensionMismatchIgnored(t *testing.T) {
	small := NewProblem(Maximize)
	small.AddVar("x", 0, 1, 1)
	ssol, err := Solve(small, Options{})
	if err != nil || ssol.Status != StatusOptimal {
		t.Fatalf("small solve: %v %v", err, ssol.Status)
	}
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow([]Term{{x, 1}}, LE, 4)
	p.AddRow([]Term{{y, 2}}, LE, 12)
	p.AddRow([]Term{{x, 3}, {y, 2}}, LE, 18)
	sol, err := Solve(p, Options{WarmStart: ssol.Basis})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Status != StatusOptimal || math.Abs(sol.Objective-36) > 1e-6 {
		t.Fatalf("got %v obj %g, want optimal 36", sol.Status, sol.Objective)
	}
}

// TestRefactorizationCountReported: long solves must report at least the
// initial factorization.
func TestRefactorizationCountReported(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := bigLP(rng, 200, 150)
	sol, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if sol.Refactorizations < 1 {
		t.Fatalf("Refactorizations = %d, want >= 1", sol.Refactorizations)
	}
}

// TestWarmCorruptedBasisRepaired: a warm basis with adversarially garbled
// statuses (wrong basic counts, statuses inconsistent with bounds,
// structurally singular variable sets) must never error the solve — the
// install/repair pass and, since the Forrest–Tomlin work, the
// refactorize-then-repair fallback on a rejected mid-solve update absorb
// it, and the solve still reaches the cold optimum.
func TestWarmCorruptedBasisRepaired(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 40; trial++ {
		p, _ := randFeasibleLP(rng)
		cold, err := Solve(p, Options{})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("trial %d: cold %v %v", trial, err, cold.Status)
		}
		// Corrupt: random statuses, heavily biased toward basic so the
		// basis is over-full and often singular (duplicate structure).
		bad := &Basis{
			Vars: make([]BasisStatus, p.NumVars()),
			Rows: make([]BasisStatus, p.NumRows()),
		}
		for j := range bad.Vars {
			bad.Vars[j] = BasisStatus(rng.Intn(4))
		}
		for i := range bad.Rows {
			if rng.Intn(3) == 0 {
				bad.Rows[i] = BasisBasic
			} else {
				bad.Rows[i] = BasisStatus(rng.Intn(4))
			}
		}
		for _, m := range []Method{MethodAuto, MethodPrimal, MethodDual} {
			sol, err := Solve(p, Options{WarmStart: bad, Method: m})
			if err != nil {
				t.Fatalf("trial %d method %v: %v", trial, m, err)
			}
			if sol.Status != StatusOptimal || math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d method %v: got %v obj %g, want optimal %g",
					trial, m, sol.Status, sol.Objective, cold.Objective)
			}
		}
	}
}

// TestCrashBasisMatchesSlackStart: a crash basis — even a garbage one —
// only changes the starting basis, never the optimum: the crash-started
// solve must agree with the all-slack cold start on every corpus
// instance.
func TestCrashBasisMatchesSlackStart(t *testing.T) {
	rng := rand.New(rand.NewSource(654))
	for trial := 0; trial < 60; trial++ {
		p, _ := randFeasibleLP(rng)
		cold, err := Solve(p, Options{})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("trial %d: cold %v %v", trial, err, cold.Status)
		}
		crash := &Basis{
			Vars: make([]BasisStatus, p.NumVars()),
			Rows: make([]BasisStatus, p.NumRows()),
		}
		for j := range crash.Vars {
			if rng.Intn(2) == 0 {
				crash.Vars[j] = BasisBasic
			}
		}
		sol, err := Solve(p, Options{Crash: crash})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: crash-start got %v obj %g, want optimal %g",
				trial, sol.Status, sol.Objective, cold.Objective)
		}
	}
}

// TestWarmDroppedColumnsRepaired: the replanning layer drops columns by
// fixing their bounds to a point (a downed link's flow variables go to
// [0,0]) and edits row right-hand sides, then resumes from the incumbent
// optimal basis — which may have any of the dropped columns basic. All
// three methods must absorb the stale basis (repair, not crash) and
// agree with a cold solve of the edited problem, whatever its status.
func TestWarmDroppedColumnsRepaired(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 60; trial++ {
		p, _ := randFeasibleLP(rng)
		base, err := Solve(p, Options{})
		if err != nil || base.Status != StatusOptimal {
			t.Fatalf("trial %d: base %v %v", trial, err, base.Status)
		}

		// Edit a clone: fix a random subset of columns at their lower
		// bound (column drop) and perturb some right-hand sides. The
		// original must remain untouched for the incumbent basis to be
		// "stale but honestly obtained".
		fp := p.Fingerprint()
		q := p.Clone()
		dropped := 0
		for j := 0; j < q.NumVars(); j++ {
			if rng.Intn(3) == 0 {
				lo, _ := q.Bounds(VarID(j))
				q.SetBounds(VarID(j), lo, lo)
				dropped++
			}
		}
		if dropped == 0 {
			lo, _ := q.Bounds(0)
			q.SetBounds(0, lo, lo)
		}
		for r := 0; r < q.NumRows(); r++ {
			if rng.Intn(4) == 0 {
				q.SetRHS(r, q.RHS(r)+rng.Float64()-0.5)
			}
		}
		if p.Fingerprint() != fp {
			t.Fatalf("trial %d: editing the clone mutated the original", trial)
		}

		cold, err := Solve(q, Options{})
		if err != nil {
			t.Fatalf("trial %d: cold edited solve: %v", trial, err)
		}
		for _, m := range []Method{MethodAuto, MethodPrimal, MethodDual} {
			sol, err := Solve(q, Options{WarmStart: base.Basis, Method: m})
			if err != nil {
				t.Fatalf("trial %d method %v: %v", trial, m, err)
			}
			if sol.Status != cold.Status {
				t.Fatalf("trial %d method %v: status %v, cold %v",
					trial, m, sol.Status, cold.Status)
			}
			if cold.Status == StatusOptimal &&
				math.Abs(sol.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("trial %d method %v: obj %g, cold %g",
					trial, m, sol.Objective, cold.Objective)
			}
		}
	}
}

// TestSetRHSAccessors pins the new RHS edit surface: SetRHS/RHS round
// trip, feed Fingerprint/EqualTo, and a pure RHS relaxation reoptimizes
// from the incumbent basis to the new optimum under the dual simplex.
func TestSetRHSAccessors(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	r := p.AddRow([]Term{{x, 1}}, LE, 4)
	if p.RHS(r) != 4 {
		t.Fatalf("RHS = %g, want 4", p.RHS(r))
	}
	base, err := Solve(p, Options{})
	if err != nil || base.Objective != 4 {
		t.Fatalf("base solve: %v obj %g", err, base.Objective)
	}
	fpBefore := p.Fingerprint()
	p.SetRHS(r, 6)
	if p.RHS(r) != 6 {
		t.Fatalf("RHS after set = %g, want 6", p.RHS(r))
	}
	if p.Fingerprint() == fpBefore {
		t.Fatal("Fingerprint ignored the RHS edit")
	}
	sol, err := Solve(p, Options{WarmStart: base.Basis, Method: MethodDual})
	if err != nil || sol.Status != StatusOptimal || sol.Objective != 6 {
		t.Fatalf("warm resolve: %v %v obj %g, want optimal 6", err, sol.Status, sol.Objective)
	}
}
