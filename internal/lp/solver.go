package lp

// Solver is a call-scoped solve workspace: the storage of every LP one
// planning call solves — the rounds of an A* plan, a branch-and-bound root
// and the node re-solves after it, the windows of a rolling horizon. The
// zero value is ready; it belongs to one goroutine and to one call, and
// dies with it: no session, cache entry, Result or Plan may hold one (an
// open session would pin a model's worth of matrix copies, work vectors
// and LU storage).
//
// A solve as stated binds the workspace to its problem, and the binding
// is kept while (pointer, Problem.gen) stay what they were — sound because
// the workspace keeps its bound problem reachable, so the address cannot
// be reused, and gen counts every structural edit (AddVar, AddRow,
// AppendToRow). A re-solve after SetBounds/SetRHS/SetObj edits therefore
// re-reads bounds, right-hand sides, objective and direction and nothing
// else; any other problem rebinds: the matrix copies, pricing norms and
// index arrays are rebuilt in the storage already held, which grows only
// where the new problem outgrows it. A solve through presolve (see the
// package comment) reduces the problem into workspace storage and binds
// the reduction; its scratch — row arena, column view, index maps,
// scales, the reduced problem itself — is kept the same way.
//
// Storage carries over, numeric state never: every solve factorizes its
// starting basis afresh and rebuilds whatever a previous solve could have
// left behind, so a Solver returns, bit for bit and pivot for pivot, what
// a new one would (solver_test.go pins it), and nothing a Solution holds
// aliases the workspace. The problem must not be edited while a Solve
// runs; concurrent solves each take their own Solver or call the
// package-level Solve, the single-use form.
type Solver struct {
	s   simplex   // bound to s.p, the problem (or reduction) solved last
	gen uint64    // s.p.gen at binding
	ps  presolver // presolve scratch and the reduced problem
}

// Solve optimizes p as it stands now: a complete WarmStart or NoPresolve
// solves it as stated, everything else goes through presolve. The problem
// is not modified.
func (sv *Solver) Solve(p *Problem, opt Options) (*Solution, error) {
	return sv.solve(p, opt, true)
}

// solve is Solve; roomy says the workspace will be used again, so storage
// allocated for a reduction is sized by the original problem, which
// bounds it — the next reduction of a similar model, or the model itself
// (a branch-and-bound clone after its presolved root), then fits.
func (sv *Solver) solve(p *Problem, opt Options, roomy bool) (*Solution, error) {
	if !opt.NoPresolve && !opt.WarmStart.completeFor(p) {
		return sv.solvePresolved(p, opt, roomy)
	}
	if sv.s.p != p || sv.gen != p.gen {
		sv.s.bind(p, 0, 0, 0)
		sv.gen = p.gen
	}
	return sv.s.solve(opt)
}

// fit returns s with length n: resliced when its storage holds n entries
// (they keep whatever they held), else allocated zeroed with capacity
// max(n, room).
func fit[T any](s []T, n, room int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, max(n, room))
}

// fitKeep is fit for a slice of slices whose entries own storage worth
// keeping: a fresh allocation inherits every entry of the old one.
func fitKeep[T any](s [][]T, n, room int) [][]T {
	if n <= cap(s) {
		return s[:n]
	}
	return append(make([][]T, 0, max(n, room)), s[:cap(s)]...)[:n]
}
