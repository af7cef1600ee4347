package lp

// solver_test.go pins the Solver contract: a workspace returns, solve for
// solve and bit for bit, what a fresh Solve returns — whatever problem
// the previous solve on it bound and however that solve ended — nothing
// it returned changes afterwards, and a steady-state re-solve allocates
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

// solveBoth solves p as it stands on the workspace and with a fresh
// Solve, and requires the two to agree.
func solveBoth(t *testing.T, tag string, sv *Solver, p *Problem, opt Options) *Solution {
	t.Helper()
	got, err := sv.Solve(p, opt)
	if err != nil {
		t.Fatalf("%s: retained: %v", tag, err)
	}
	want, err := Solve(p, opt)
	if err != nil {
		t.Fatalf("%s: fresh: %v", tag, err)
	}
	sameSolution(t, tag, got, want)
	return got
}

// dualStartRefused reports whether the dual simplex has no start from
// opt's basis, so a MethodDual solve of p as stated builds the dual arrays
// and the CSR copy and then runs the primal phases instead.
func dualStartRefused(p *Problem, opt Options) bool {
	var s simplex
	s.bind(p, 0, 0, 0)
	s.reset(opt)
	s.install()
	return !s.prepareDual(true)
}

// TestSolverMatchesFreshSolve drives one Solver through a seeded stream
// of bound, right-hand-side and objective edits — warm from the last
// basis, from an older one, or cold; primal, dual or auto; through
// presolve or as stated — and compares every solve with a fresh Solve of
// the same problem. Scripted steps make sure the solve BEFORE a compared
// one ended every way a solve can end (infeasible, out of iterations,
// cancelled, perturbed, dual start refused), and structural edits force
// the context to rebuild. The same workspace then goes through
// differentProblems, a seeded sequence of other models.
func TestSolverMatchesFreshSolve(t *testing.T) {
	p, capRows, flows := dgx1AllToAllLP(5)
	var sv Solver
	rng := rand.New(rand.NewSource(20240914))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var last, older *Basis // complete bases of p as it stands
	seen := map[string]int{}
	both := func(tag string, opt Options) *Solution {
		t.Helper()
		got := solveBoth(t, tag, &sv, p, opt)
		seen[got.Status.String()]++
		older, last = last, got.Basis
		return got
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
			if !dualStartRefused(p, opt) {
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
	differentProblems(t, &sv, rng)
}

// differentProblems hands one workspace a seeded sequence of DIFFERENT
// problems, alternating between the large and the small half of a corpus
// (two rows to two thousand, more columns than rows and the reverse), so
// every binding re-slices storage sized by another model, larger or
// smaller. Steps come in pairs: an ender — a solve of any corpus problem
// that stops infeasible, out of iterations, cancelled, on perturbed
// bounds (restored, or abandoned mid-phase-1), or with its dual start
// refused — then a solve of another problem through presolve or as
// stated, cold, from its own last basis or from an over-full hint,
// primal, dual or auto. Every solve of both kinds must be a fresh
// Solve's, bit for bit.
func differentProblems(t *testing.T, sv *Solver, rng *rand.Rand) {
	type inst struct {
		name       string
		p, infeas  *Problem
		last       *Basis
		dualRefuse bool // a cold MethodDual solve as stated has no dual start
	}
	var corpus []*inst
	add := func(name string, p *Problem) {
		// The twin is p plus two singleton rows no point satisfies, behind
		// a third that fixes a variable: presolve finds the contradiction
		// with that variable still queued for substitution.
		twin := p.Clone()
		twin.AddRow([]Term{{1, 1}}, EQ, p.lo[1])
		twin.AddRow([]Term{{0, 1}}, GE, 1)
		twin.AddRow([]Term{{0, 1}}, LE, 0)
		corpus = append(corpus, &inst{name: name, p: p, infeas: twin, dualRefuse: dualStartRefused(p, Options{})})
	}
	add("classic", classicLP())
	add("upperBounded", upperBoundedLP())
	add("beale", bealeLP())
	for i := 0; i < 3; i++ {
		p, _ := randFeasibleLP(rng)
		add(fmt.Sprintf("randFeasible%d", i), p)
	}
	add("big30x40", bigLP(rng, 30, 40))
	add("big30x40b", bigLP(rng, 30, 40)) // the same dimensions, another matrix
	pinned := bigLP(rng, 30, 40)
	pinned.AddRow([]Term{{1, 1}}, EQ, 0.5) // presolve substitutes the variable every twin leaves queued
	add("pinned30x40", pinned)
	small := len(corpus)
	sameDims := corpus[small-3 : small-1]
	if a, b := sameDims[0].p, sameDims[1].p; a.NumVars() != b.NumVars() || a.NumRows() != b.NumRows() {
		t.Fatal("the same-dimensions pair differs in dimensions")
	}
	for _, K := range []int{4, 6, 5} {
		p, _, _ := dgx1AllToAllLP(K)
		add(fmt.Sprintf("dgx1K%d", K), p)
	}
	add("big200x150", bigLP(rng, 200, 150))
	add("devex40x2100", bigLP(rng, 40, devexMinRows+50)) // primal pivots rewrite gamma
	add("big120x60", bigLP(rng, 120, 60))

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	methods := []Method{MethodAuto, MethodPrimal, MethodDual}
	seen := map[string]int{}
	both := func(tag string, in *inst, p *Problem, opt Options) *Solution {
		t.Helper()
		sol := solveBoth(t, tag, sv, p, opt)
		seen[sol.Status.String()]++
		if p == in.p && sol.Status == StatusOptimal {
			in.last = sol.Basis
		}
		return sol
	}

	const pairs = 96
	refused, abandoned, midQueue := 0, 0, 0
	for step := 0; step < pairs; step++ {
		// The ender, on any problem.
		e, next := corpus[rng.Intn(len(corpus))], (*inst)(nil)
		tag := fmt.Sprintf("pair %d ender %s", step, e.name)
		opt := Options{Method: methods[rng.Intn(3)], NoPresolve: rng.Intn(2) == 0}
		switch step % 6 {
		case 0: // infeasible: found by presolve, by the primal phase 1, or by the dual from a warm basis
			if e.last != nil && rng.Intn(2) == 0 {
				opt.WarmStart, opt.Method = e.last.Extended(e.infeas.NumVars(), e.infeas.NumRows()), MethodDual
			}
			if sol := both(tag+" (infeasible)", e, e.infeas, opt); sol.Status != StatusInfeasible {
				t.Fatalf("%s: status %v, want infeasible", tag, sol.Status)
			}
			if sv.ps.infeasible && len(sv.ps.fixQ) > 0 {
				midQueue++ // presolve gave up mid-queue: the pinned model goes through it next
				next = corpus[small-1]
			}
		case 1: // out of iterations
			opt.MaxIter = 1 + rng.Intn(6)
			both(tag+" (MaxIter)", e, e.p, opt)
		case 2: // cancelled before the first pivot
			opt.Context = cancelled
			if sol := both(tag+" (cancelled)", e, e.p, opt); sol.Iterations != 0 {
				t.Fatalf("%s: %d iterations under a cancelled context", tag, sol.Iterations)
			}
		case 3: // perturbed bounds, restored on the way out
			opt.testPerturb = 1 + rng.Intn(2)
			both(tag+" (perturbed)", e, e.p, opt)
		case 4: // perturbed bounds, abandoned: the budget runs out in phase 1, which returns without the restore
			opt = Options{testPerturb: 1, MaxIter: 1, NoPresolve: true, Method: MethodPrimal}
			if sol := both(tag+" (perturbed, MaxIter)", e, e.p, opt); sol.Status == StatusIterLimit && sv.s.perturbed {
				abandoned++
			}
		default: // dual requested with no dual-feasible start
			for !e.dualRefuse {
				e = corpus[rng.Intn(len(corpus))]
			}
			both(fmt.Sprintf("pair %d ender %s (dual refused)", step, e.name), e, e.p, Options{Method: MethodDual, NoPresolve: true})
			refused++
		}

		// The compared solve: another problem, from the other half of the
		// corpus than the last compared one.
		c := next
		for c == nil || c == e {
			switch {
			case e == sameDims[0]: // only the pointer tells the two apart
				c = sameDims[1]
			case step%2 == 0:
				c = corpus[small+rng.Intn(len(corpus)-small)]
			default:
				c = corpus[rng.Intn(small)]
			}
		}
		tag = fmt.Sprintf("pair %d %s after %s", step, c.name, e.name)
		opt = Options{Method: methods[rng.Intn(3)]}
		switch mode := rng.Intn(4); {
		case c == next: // cold, through presolve
		case mode == 0: // cold, as stated
			opt.NoPresolve = true
		case mode == 1 && c.last != nil: // warm from a complete basis: as stated
			opt.WarmStart = c.last
		case mode == 2 && c.last != nil: // an over-full hint: through presolve, statuses carried over
			hint := c.last.Clone()
			for i := range hint.Rows {
				hint.Rows[i] = BasisBasic
			}
			opt.WarmStart = hint
		} // else cold, through presolve
		if sol := both(tag, c, c.p, opt); sol.Status != StatusOptimal {
			t.Fatalf("%s: status %v", tag, sol.Status)
		}
	}
	if seen["infeasible"] < pairs/6 || seen["iteration limit"] < pairs/4 || refused < pairs/6 || abandoned < 4 || midQueue < 3 {
		t.Fatalf("sequence too one-sided to mean anything: %v, %d dual starts refused, %d perturbed solves abandoned, %d presolves abandoned mid-queue",
			seen, refused, abandoned, midQueue)
	}
}

// TestResultsOutliveWorkspace: nothing a Solution holds aliases the
// workspace it came from. A's X, Duals and Basis, and the duals postsolve
// reconstructed for a forcing row (from the op log, the row arena and the
// column view, all workspace storage), must read the same, bit for bit,
// after the workspace has solved B, C and the forcing model again.
func TestResultsOutliveWorkspace(t *testing.T) {
	forcing := NewProblem(Maximize)
	x := forcing.AddVar("x", 1, 2, 1)
	y := forcing.AddVar("y", 1, 2, 1)
	z := forcing.AddVar("z", 0, Inf, 1)
	w := forcing.AddVar("w", 0, Inf, 1)
	forcing.AddRow([]Term{{x, 1}, {y, 1}}, LE, 2) // forcing: x = y = 1
	forcing.AddRow([]Term{{z, 1}, {w, 1}}, LE, 5)
	forcing.AddRow([]Term{{z, 2}, {w, 1}}, LE, 8)
	a, capRows, _ := dgx1AllToAllLP(5)
	b := bigLP(rand.New(rand.NewSource(3)), 120, 60)
	c, _, _ := dgx1AllToAllLP(4)

	for _, asStated := range []bool{false, true} {
		var sv Solver
		solve := func(p *Problem, opt Options) *Solution {
			t.Helper()
			sol, err := sv.Solve(p, opt)
			if err != nil || sol.Status != StatusOptimal {
				t.Fatalf("NoPresolve=%v: %v %v", asStated, sol.Status, err)
			}
			return sol
		}
		type kept struct{ sol, copy *Solution }
		keep := func(sol *Solution) kept {
			cp := *sol
			cp.X, cp.Duals, cp.Basis = slices.Clone(sol.X), slices.Clone(sol.Duals), sol.Basis.Clone()
			return kept{sol, &cp}
		}
		kf := keep(solve(forcing, Options{}))
		if kf.sol.Duals[0] == 0 {
			t.Fatal("the forcing row's dual was not reconstructed; the fixture measures nothing")
		}
		opt := Options{NoPresolve: asStated}
		ka := keep(solve(a, opt))
		solve(b, opt)
		solve(c, opt)
		solve(forcing, Options{})
		opt.WarmStart, opt.Method = ka.sol.Basis, MethodDual
		a.SetRHS(capRows[0], a.RHS(capRows[0])/2)
		solve(a, opt) // reads A's basis as a warm start, and must not write through it
		a.SetRHS(capRows[0], a.RHS(capRows[0])*2)
		sameSolution(t, fmt.Sprintf("NoPresolve=%v: A after B, C", asStated), ka.sol, ka.copy)
		sameSolution(t, fmt.Sprintf("NoPresolve=%v: forcing-row solve after A, B, C", asStated), kf.sol, kf.copy)
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
		var sv Solver
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
			last = solveBoth(t, fmt.Sprintf("instance %d step %d", inst, step), &sv, p, opt).Basis
		}
	}
}

// TestSolverResetsDevexWeights: past devexMinRows rows the primal pricer
// rewrites its weights in place as it pivots; the next solve on the same
// context must start from the static column norms again.
func TestSolverResetsDevexWeights(t *testing.T) {
	p := bigLP(rand.New(rand.NewSource(5)), 40, devexMinRows+50)
	var sv Solver
	opt := Options{NoPresolve: true, Method: MethodPrimal}
	for round := 0; round < 3; round++ {
		got := solveBoth(t, fmt.Sprintf("round %d", round), &sv, p, opt)
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
	var sv Solver
	pivots := 0
	solve := func() {
		edit()
		sol, err := sv.Solve(p, opt)
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

// TestFreshSolveAllocs bounds what a single-use Solve allocates on the
// same fixture — one allocation per array of the context and the first
// growth of the LU row and column lists, 3582 in all — and what a
// presolved re-solve allocates on a warm workspace: what it returns.
func TestFreshSolveAllocs(t *testing.T) {
	p, opt, edit := nodeResolve(t)
	solve := func(sv *Solver, opt Options) func() {
		return func() {
			edit()
			if sol, err := sv.solve(p, opt, false); err != nil || sol.Status != StatusOptimal {
				t.Fatalf("re-solve: %v %v", sol.Status, err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, func() { solve(new(Solver), opt)() }); allocs > 3590 {
		t.Fatalf("a fresh context and solve allocate %.0f times, 3585 with a context of its own per solve (PR 17)", allocs)
	}
	var sv Solver
	presolved := solve(&sv, Options{})
	for i := 0; i < 4; i++ {
		presolved() // grow every retained buffer to its steady-state size
	}
	// The reduction's Solution and postsolve's: two of each of Solution,
	// X, Duals, Basis and its status slices; the op log is reused.
	const returned = 12
	if allocs := testing.AllocsPerRun(10, presolved); allocs > returned+2 {
		t.Fatalf("a presolved re-solve on a warm workspace allocates %.0f times, want the %d returned objects (+2); 13552 on a fresh one before", allocs, returned)
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
		var sv Solver
		for i := 0; i < 4; i++ { // steady state: a worker's first node pays for the context
			edit()
			benchSink, _ = sv.Solve(p, opt)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			edit()
			benchSink, _ = sv.Solve(p, opt)
		}
	})
}

var benchSink *Solution
