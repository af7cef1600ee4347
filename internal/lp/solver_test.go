package lp

// solver_test.go pins the Solver contract: a retained context returns,
// solve for solve and bit for bit, what a fresh Solve returns — whatever
// the previous solve on it did — and a steady-state re-solve allocates
// only what it returns.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameSolution requires got to be want down to the effort counters, the
// basis and the bits of every float.
func sameSolution(t *testing.T, tag string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status || got.Iterations != want.Iterations ||
		got.Refactorizations != want.Refactorizations ||
		got.FTUpdates != want.FTUpdates || got.UpdateNnz != want.UpdateNnz {
		t.Fatalf("%s: retained %v iters=%d refactors=%d ft=%d nnz=%d, fresh %v iters=%d refactors=%d ft=%d nnz=%d",
			tag, got.Status, got.Iterations, got.Refactorizations, got.FTUpdates, got.UpdateNnz,
			want.Status, want.Iterations, want.Refactorizations, want.FTUpdates, want.UpdateNnz)
	}
	if !slices.Equal(got.Basis.Vars, want.Basis.Vars) || !slices.Equal(got.Basis.Rows, want.Basis.Rows) {
		t.Fatalf("%s: final bases differ", tag)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("%s: objective %v vs fresh %v", tag, got.Objective, want.Objective)
	}
	sameBits := func(what string, a, b []float64) {
		t.Helper()
		if (a == nil) != (b == nil) || len(a) != len(b) {
			t.Fatalf("%s: %s has %d entries (nil=%v), fresh %d (nil=%v)", tag, what, len(a), a == nil, len(b), b == nil)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: %s[%d] = %v vs fresh %v", tag, what, i, a[i], b[i])
			}
		}
	}
	sameBits("X", got.X, want.X)
	sameBits("Duals", got.Duals, want.Duals)
}

// solveBoth solves sv's problem as it stands on the retained context and
// with a fresh Solve, and requires the two to agree.
func solveBoth(t *testing.T, tag string, sv *Solver, opt Options) *Solution {
	t.Helper()
	got, err := sv.Solve(opt)
	if err != nil {
		t.Fatalf("%s: retained: %v", tag, err)
	}
	want, err := Solve(sv.p, opt)
	if err != nil {
		t.Fatalf("%s: fresh: %v", tag, err)
	}
	sameSolution(t, tag, got, want)
	return got
}

// TestSolverMatchesFreshSolve drives one Solver through a seeded stream
// of bound, right-hand-side and objective edits — warm from the last
// basis, from an older one, or cold; primal, dual or auto; through
// presolve or as stated — and compares every solve with a fresh Solve of
// the same problem. Scripted steps make sure the solve BEFORE a compared
// one ended every way a solve can end (infeasible, out of iterations,
// cancelled, perturbed, dual start refused), and structural edits force
// the context to rebuild.
func TestSolverMatchesFreshSolve(t *testing.T) {
	p, capRows, flows := dgx1AllToAllLP(5)
	sv := NewSolver(p)
	rng := rand.New(rand.NewSource(20240914))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var last, older *Basis // complete bases of p as it stands
	seen := map[string]int{}
	both := func(tag string, opt Options) *Solution {
		t.Helper()
		got := solveBoth(t, tag, sv, opt)
		seen[got.Status.String()]++
		older, last = last, got.Basis
		return got
	}
	// dualStartRefused reports whether the dual simplex has no start from
	// opt's basis, so a MethodDual solve runs the primal phases instead.
	dualStartRefused := func(opt Options) bool {
		s := newSimplex(p)
		s.reset(opt)
		s.install()
		return !s.prepareDual(true)
	}

	// A read row: one destination's reads of one source sum to 1.
	readRow := -1
	for r := 0; r < capRows[0]; r++ {
		if p.senses[r] == EQ && p.RHS(r) > 0.5 && p.RHS(r) < 1.5 {
			readRow = r
		}
	}
	if readRow < 0 {
		t.Fatal("no read row")
	}

	both("cold", Options{})
	// At most three bound and three capacity edits stand at a time (the
	// oldest is undone first), so most of the stream stays feasible.
	var boxed []VarID
	type rhsEdit struct {
		row int
		old float64
	}
	var squeezed []rhsEdit
	const steps = 210
	for step := 0; step < steps; step++ {
		tag := fmt.Sprintf("step %d", step)

		// One or two edits of the kinds a Solver must re-read.
		for e := 0; e <= rng.Intn(2); e++ {
			switch rng.Intn(3) {
			case 0:
				if len(boxed) == 3 {
					p.SetBounds(boxed[0], 0, Inf)
					boxed = boxed[1:]
				}
				v := flows[rng.Intn(len(flows))]
				p.SetBounds(v, 0, float64(rng.Intn(2)))
				boxed = append(boxed, v)
			case 1:
				if len(squeezed) == 3 {
					p.SetRHS(squeezed[0].row, squeezed[0].old)
					squeezed = squeezed[1:]
				}
				r := capRows[rng.Intn(len(capRows))]
				squeezed = append(squeezed, rhsEdit{r, p.RHS(r)})
				p.SetRHS(r, p.RHS(r)*[]float64{0, 0.5, 2}[rng.Intn(3)])
			default:
				v := VarID(rng.Intn(p.NumVars()))
				p.SetObj(v, p.Obj(v)+0.01*float64(rng.Intn(5)-2))
			}
		}

		opt := Options{Method: []Method{MethodAuto, MethodPrimal, MethodDual}[rng.Intn(3)]}
		switch rng.Intn(24) {
		case 0: // cold (rarely: each costs fifty warm solves): through presolve, or as stated in the retained context
			opt.NoPresolve = rng.Intn(2) == 0
		case 1, 2, 3, 4:
			opt.WarmStart = older
		default:
			opt.WarmStart = last
		}

		switch step {
		case 20, 100: // out of iterations, early and late in a cold solve
			opt = Options{MaxIter: 2 + step/2, NoPresolve: true}
			if sol := both(tag+" (MaxIter)", opt); sol.Status != StatusIterLimit {
				t.Fatalf("%s: status %v, want iteration limit", tag, sol.Status)
			}
		case 40, 120: // cancelled before the first pivot
			opt.Context = cancelled
			opt.NoPresolve = true
			if sol := both(tag+" (cancelled)", opt); sol.Status != StatusIterLimit || sol.Iterations != 0 {
				t.Fatalf("%s: status %v after %d iterations, want an immediate stop", tag, sol.Status, sol.Iterations)
			}
		case 60, 61, 140, 141: // runs on perturbed bounds and exits through the restore, twice over
			opt.testPerturb = 1 + step/100
			opt.NoPresolve = true
			both(tag+" (perturbed)", opt)
		case 80, 160: // infeasible: a destination must read more than exists
			p.SetRHS(readRow, 50)
			opt.WarmStart, opt.Method = last, MethodDual
			if sol := both(tag+" (infeasible)", opt); sol.Status != StatusInfeasible {
				t.Fatalf("%s: status %v, want infeasible", tag, sol.Status)
			}
			p.SetRHS(readRow, 1)
		case 90, 170: // dual requested from a basis with no dual-feasible start
			off := rng.Intn(len(flows))
			at := slices.IndexFunc(flows[off:], func(v VarID) bool { return last.Vars[v] == BasisAtLower })
			if at < 0 {
				t.Fatalf("%s: no nonbasic flow column", tag)
			}
			v := flows[off+at]
			p.SetBounds(v, 0, Inf)
			p.SetObj(v, 3)
			opt = Options{WarmStart: last, Method: MethodDual}
			if !dualStartRefused(opt) {
				t.Fatalf("%s: the dual simplex accepted the start; the step no longer covers the primal fallback", tag)
			}
			both(tag+" (dual refused)", opt)
			p.SetObj(v, 0)
		case 110, 180, 195: // structural edits: the context must rebuild
			src := flows[rng.Intn(len(flows))]
			nv := p.AddVar(fmt.Sprintf("extra%d", step), 0, 1, 0.05)
			p.AppendToRow(capRows[rng.Intn(len(capRows))], []Term{{nv, 1}})
			if step != 180 {
				p.AddRow([]Term{{src, 1}, {nv, 1}}, LE, 1.5)
			}
			older = nil
			last = last.Extended(p.NumVars(), p.NumRows())
			opt.WarmStart = last
			if !last.completeFor(p) {
				t.Fatalf("%s: extended basis is not complete", tag)
			}
			both(tag+" (grown)", opt)
		default:
			both(tag, opt)
		}
	}
	if seen["optimal"] < steps/2 || seen["infeasible"] < 2 || seen["iteration limit"] < 4 {
		t.Fatalf("stream too one-sided to mean anything: %v", seen)
	}
}

// TestSolverSmallProblems runs shorter streams on the small random
// corpus, where edits routinely make the model infeasible and cold
// starts dominate.
func TestSolverSmallProblems(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for inst := 0; inst < 40; inst++ {
		p, _ := randFeasibleLP(rng)
		if p.NumRows() == 0 {
			continue
		}
		sv := NewSolver(p)
		var last *Basis
		for step := 0; step < 12; step++ {
			v := VarID(rng.Intn(p.NumVars()))
			switch rng.Intn(3) {
			case 0:
				lo, hi := p.Bounds(v)
				p.SetBounds(v, lo+float64(rng.Intn(3)-1), math.Max(hi, lo+1)+float64(rng.Intn(2)))
			case 1:
				r := rng.Intn(p.NumRows())
				p.SetRHS(r, p.RHS(r)+float64(rng.Intn(9)-4))
			default:
				p.SetObj(v, float64(rng.Intn(11)-5))
			}
			opt := Options{
				Method:     []Method{MethodAuto, MethodPrimal, MethodDual}[rng.Intn(3)],
				NoPresolve: true,
			}
			if rng.Intn(3) > 0 {
				opt.WarmStart = last
			}
			last = solveBoth(t, fmt.Sprintf("instance %d step %d", inst, step), sv, opt).Basis
		}
	}
}

// TestSolverResetsDevexWeights: past devexMinRows rows the primal pricer
// rewrites its weights in place as it pivots; the next solve on the same
// context must start from the static column norms again.
func TestSolverResetsDevexWeights(t *testing.T) {
	p := bigLP(rand.New(rand.NewSource(5)), 40, devexMinRows+50)
	sv := NewSolver(p)
	opt := Options{NoPresolve: true, Method: MethodPrimal}
	for round := 0; round < 3; round++ {
		got := solveBoth(t, fmt.Sprintf("round %d", round), sv, opt)
		if round == 0 && (!sv.s.gammaMoved || got.Iterations == 0) {
			t.Fatalf("the first solve never ran the devex update (%d pivots); the fixture measures nothing", got.Iterations)
		}
		p.SetObj(VarID(round), -p.Obj(VarID(round)))
	}
}

// nodeResolve is the branch-and-bound node re-solve in miniature: the
// time-expanded DGX1 model, its optimal basis, and a flow column the
// optimum uses. Each call of the returned edit closes or reopens that
// column, so every re-solve from the base basis is a one-bound edit worth
// a few dual pivots.
func nodeResolve(tb testing.TB) (p *Problem, opt Options, edit func()) {
	p, _, flows := dgx1AllToAllLP(5)
	cold, err := Solve(p, Options{})
	if err != nil || cold.Status != StatusOptimal {
		tb.Fatalf("cold solve: %v %v", cold.Status, err)
	}
	used := slices.IndexFunc(flows, func(v VarID) bool { return cold.X[v] > 0.5 })
	if used < 0 {
		tb.Fatal("no used flow column")
	}
	v, closed := flows[used], false
	edit = func() {
		closed = !closed
		if closed {
			p.SetBounds(v, 0, 0)
		} else {
			p.SetBounds(v, 0, Inf)
		}
	}
	return p, Options{WarmStart: cold.Basis, Method: MethodDual, NoPresolve: true}, edit
}

// TestNodeResolveAllocs: a steady-state warm re-solve on a retained
// Solver allocates what it returns — the Solution, X, Duals and the
// Basis with its two status slices — and nothing proportional to the
// model: no matrix copy, no work vector, no LU storage.
func TestNodeResolveAllocs(t *testing.T) {
	p, opt, edit := nodeResolve(t)
	sv := NewSolver(p)
	pivots := 0
	solve := func() {
		edit()
		sol, err := sv.Solve(opt)
		if err != nil || sol.Status != StatusOptimal {
			t.Fatalf("re-solve: %v %v", sol.Status, err)
		}
		pivots += sol.Iterations
	}
	for i := 0; i < 4; i++ {
		solve() // grow every retained buffer to its steady-state size
	}
	pivots = 0
	allocs := testing.AllocsPerRun(20, solve)
	if pivots == 0 {
		t.Fatal("the re-solves pivot nowhere; the fixture measures nothing")
	}
	const returned = 6
	if allocs > returned+2 {
		t.Fatalf("a steady-state re-solve allocates %.0f times, want the %d returned objects (+2)", allocs, returned)
	}
}

// TestFreshSolveAllocs bounds what NewSolver(p).Solve allocates on the
// same fixture by the count it had before the L factor moved into one
// arena (3884 at PR 15; one slice pair per non-empty L column since).
func TestFreshSolveAllocs(t *testing.T) {
	p, opt, edit := nodeResolve(t)
	allocs := testing.AllocsPerRun(5, func() {
		edit()
		if sol, err := Solve(p, opt); err != nil || sol.Status != StatusOptimal {
			t.Fatalf("re-solve: %v %v", sol.Status, err)
		}
	})
	if allocs > 3884 {
		t.Fatalf("a fresh context and solve allocate %.0f times, 3884 before", allocs)
	}
}

// BenchmarkNodeResolve prices a node re-solve both ways: a fresh Solve
// builds and drops a context per node, a retained Solver reuses one.
// B/op and allocs/op are the point; the pivots are identical.
func BenchmarkNodeResolve(b *testing.B) {
	b.Run("fresh", func(b *testing.B) {
		p, opt, edit := nodeResolve(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edit()
			benchSink, _ = Solve(p, opt)
		}
	})
	b.Run("retained", func(b *testing.B) {
		p, opt, edit := nodeResolve(b)
		sv := NewSolver(p)
		for i := 0; i < 4; i++ { // steady state: a worker's first node pays for the context
			edit()
			benchSink, _ = sv.Solve(opt)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edit()
			benchSink, _ = sv.Solve(opt)
		}
	})
}

var benchSink *Solution
