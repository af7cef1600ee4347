package lp

import "teccl/internal/wspool"

// Solver is a solve workspace: the storage of the LPs one planning call
// solves — an A* plan's rounds, a branch-and-bound root and the node
// re-solves after it, a rolling horizon's windows. The zero value is
// ready; it serves one goroutine at a time. Planning code does not keep
// one: the package-level Solve borrows a workspace from a process-wide
// pool for one solve and hands it back, so a planning call's solves, and
// the calls after it, usually run in the storage an earlier solve sized,
// and the garbage collector empties the pool. No session, cache entry,
// Result or Plan holds a workspace, and a workspace holds no caller
// memory between solves: the problem, the Options (Context, WarmStart,
// Crash) and presolve's reference to the original are dropped whenever a
// solve returns.
//
// A solve as stated binds the workspace's matrix copies to the problem's
// structure, named by Problem.gen: every structural edit (AddVar, AddRow,
// AppendToRow) draws a fresh gen from a process-wide counter and a Clone
// inherits its original's, so two problems carrying one gen have equal
// matrices, and a binding outlives the pointer it was made from. A
// re-solve after SetBounds/SetRHS/SetObj edits therefore re-reads bounds,
// right-hand sides, objective and direction and nothing else; any other
// structure rebinds: the matrix copies, pricing norms and index arrays
// are rebuilt in the storage already held, which grows only where the new
// problem outgrows it. A solve through presolve (see the package comment)
// reduces the problem into workspace storage, sized by the original
// problem so the next reduction of a similar model, or the model itself
// (a branch-and-bound clone after its presolved root), fits, and binds
// the reduction; its scratch — row arena, column view, index maps,
// scales, the reduced problem itself — is kept the same way.
//
// Storage carries over, numeric state never: every solve factorizes its
// starting basis afresh and rebuilds whatever a previous solve could have
// left behind, so a Solver returns, bit for bit and pivot for pivot, what
// a new one would (solver_test.go pins it), and nothing a Solution holds
// aliases the workspace. The problem must not be edited while a Solve
// runs; concurrent solves each take their own Solver or call Solve.
type Solver struct {
	s   simplex   // bound to the structure gen names
	gen uint64    // Problem.gen at an as-stated binding; 0 when unbound
	ps  presolver // presolve scratch and the reduced problem
}

// solvers is the process-wide pool behind the package-level Solve.
var solvers wspool.Pool[Solver]

// Solve optimizes p as it stands now: a complete WarmStart or NoPresolve
// solves it as stated, everything else goes through presolve. The problem
// is not modified.
func (sv *Solver) Solve(p *Problem, opt Options) (*Solution, error) {
	var sol *Solution
	var err error
	if !opt.NoPresolve && !opt.WarmStart.completeFor(p) {
		sol, err = sv.solvePresolved(p, opt)
	} else {
		if sv.gen == 0 || sv.gen != p.gen {
			sv.s.bind(p, 0, 0, 0)
			sv.gen = p.gen
		}
		sv.s.p = p
		sol, err = sv.s.solve(opt)
	}
	// Drop the caller's memory: a workspace between solves (and in the
	// pool) must not keep a problem, a context or a basis alive.
	sv.s.p, sv.s.opt, sv.ps.p = nil, Options{}, nil
	return sol, err
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
