package core

// registry.go lets extension packages plug additional solvers into the
// Planner dispatch without core importing them (which would cycle: the
// extensions are built on core's windowed-formulation API). The only
// registrant today is internal/horizon's rolling-horizon LP
// decomposition; it registers itself from an init, so any package that
// blank-imports it (the root facade, the daemon, the experiments) makes
// SolverHorizon available to Plan and Policy.

import (
	"context"
	"sync"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// SessionHooks exposes a Planner session's fingerprint-keyed basis store
// to a registered solver, so per-window bases recorded by one request
// warm-start identical windows of the next. Either func may be nil.
type SessionHooks struct {
	// LookupBasis returns a clone of the stored basis for a problem with
	// this fingerprint, or nil.
	LookupBasis func(p *lp.Problem) *lp.Basis
	// RecordBasis stores the solved basis under the problem's
	// fingerprint.
	RecordBasis func(p *lp.Problem, b *lp.Basis)
}

// SolverFunc is a registered solver implementation. hooks is nil for
// one-shot (non-Planner) solves.
type SolverFunc func(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, hooks *SessionHooks) (*Result, error)

var (
	solverRegMu sync.RWMutex
	solverReg   = map[Solver]SolverFunc{}
)

// RegisterSolver installs fn as the implementation of s in the Planner
// dispatch. Intended to be called from an init; later registrations for
// the same Solver replace earlier ones.
func RegisterSolver(s Solver, fn SolverFunc) {
	solverRegMu.Lock()
	defer solverRegMu.Unlock()
	solverReg[s] = fn
}

func registeredSolver(s Solver) SolverFunc {
	solverRegMu.RLock()
	defer solverRegMu.RUnlock()
	return solverReg[s]
}

// TransferBasis projects a solved problem's basis onto a related problem
// by column key — the same transfer the MinimizeMakespan and batch
// chains use internally, exported for the horizon driver's
// window-to-window basis chaining (overlapping epochs share column
// keys). Returns nil when nothing projects.
func TransferBasis(src *lp.Problem, basis *lp.Basis, dst *lp.Problem) *lp.Basis {
	return hintFromSolve(src, basis).basisFor(dst)
}
