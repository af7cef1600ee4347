package lp

// Solver is a solve context bound to one Problem, for callers that solve
// the same model again and again between SetBounds/SetRHS/SetObj edits —
// branch-and-bound workers re-solving one clone under a different bound
// chain per node.
//
// What it retains across Solve calls is everything that depends only on
// the matrix: the column-wise and row-wise copies of A, the static
// pricing norms, every primal and dual work vector, the LU factor's row
// storage and elimination workspace, and the perturbation backups. What
// it re-reads on every Solve is the rest of the problem — bounds,
// right-hand sides, objective, direction — and the Options. No numeric
// state carries over: each Solve starts from the basis its Options name
// and factorizes it afresh, so a retained Solver returns, bit for bit
// and pivot for pivot, what a new one would. Solves that go through
// presolve (see the package comment) reduce the problem anew each time
// and retain nothing.
//
// Structural edits to the bound problem (AddVar, AddRow, AppendToRow)
// are noticed on the next Solve, which rebuilds the context. A Solver is
// not safe for concurrent use, and the bound problem must not be edited
// while a Solve runs; concurrent solves each take their own Solver (or
// call the package-level Solve, the single-use form).
type Solver struct {
	p   *Problem
	gen uint64   // p.gen the context was built at
	s   *simplex // nil until the first solve as stated
}

// NewSolver returns a solve context bound to p. It is cheap: the
// matrix-dependent state is built by the first Solve that needs it.
func NewSolver(p *Problem) *Solver {
	return &Solver{p: p}
}

// Solve optimizes the bound problem as it stands now, with the routing of
// the package-level Solve: a complete WarmStart or NoPresolve solves the
// problem as stated in the retained context, everything else goes
// through presolve. The problem is not modified.
func (sv *Solver) Solve(opt Options) (*Solution, error) {
	p := sv.p
	if !opt.NoPresolve && !opt.WarmStart.completeFor(p) {
		return solvePresolved(p, opt)
	}
	if sv.s == nil || sv.gen != p.gen {
		sv.s, sv.gen = newSimplex(p), p.gen
	}
	return sv.s.solve(opt)
}
