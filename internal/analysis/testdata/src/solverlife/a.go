// Testdata: stands in for a planning package that solves LPs and MILPs.
// Workspaces come from the pooled entry points; a package outside lp
// and milp never makes one of its own.
package core

import (
	"teccl/internal/lp"
	mip "teccl/internal/milp"
)

// The pooled forms: the contract.
func solveWindows(p *lp.Problem, mp *mip.Problem) {
	lp.Solve(p, lp.Options{})
	mip.Solve(mp, mip.Options{})
}

// A call-scoped holder threaded through a loop.
func solveRounds(ps []*mip.Problem) {
	var ms mip.Solver // want `mip.Solver variable outlives the solve it serves: call mip.Solve`
	for _, p := range ps {
		ms.Solve(p, mip.Options{})
	}
}

// A pointer parameter makes nothing: what it points at was made (and
// flagged) where it was declared.
func solveOn(ws *lp.Solver, p *lp.Problem) {
	ws.Solve(p, lp.Options{})
}

// A session that keeps a workspace pins it for as long as it lives.
type session struct {
	ws  lp.Solver // want `lp.Solver field holds a workspace`
	buf *mip.Solver
}

func newSession() *session {
	return &session{buf: new(mip.Solver)} // want `new\(mip.Solver\) makes a workspace outside the pool`
}

var shared = lp.Solver{} // want `lp.Solver literal makes a workspace outside the pool`

// Other types of the solver packages, and Solver types of other
// packages, are not workspaces.
type solverish struct{ Solver int }

var (
	opts lp.Options
	sol  *mip.Solution
	s    solverish
)
