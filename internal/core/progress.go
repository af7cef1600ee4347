package core

// progress.go is the serving-side observability hook: long-running
// solves report where they are (model build, simplex, branch-and-bound,
// A* rounds, makespan refinement) so a service wrapping the Planner can
// export live metrics, enforce its own pacing, or cancel a request whose
// bound has stalled.

import (
	"math"

	"teccl/internal/milp"
)

// Progress is one observability sample from a running solve.
type Progress struct {
	// Solver identifies the formulation: "lp", "milp", "astar", or
	// "horizon".
	Solver string
	// Phase is where the solve currently is: "model" (lp, milp: model
	// built or, by Replan, edited; the solve is about to start),
	// "simplex" (lp: optimum found), "branch" (milp, astar: a
	// branch-and-bound node evaluated), "round" (astar: a round is about
	// to solve), or "makespan" (lp, milp: a MinimizeMakespan re-solve
	// finished earlier than the schedule before it). Cold plans, makespan
	// re-solves and incremental replans of one form share its solve
	// tail, so each announces the same phases. The rolling-horizon
	// solver adds "em" (epoch multiplier chosen), "window" (one window
	// solved), "stitch" (stitched schedule validated), "certify"
	// (monolithic certification re-solve finished), and "fallback"
	// (decomposition abandoned for one monolithic solve; Round and
	// Iterations count the windows abandoned and their pivots).
	Phase string
	// Round is the 1-based A* round or rolling-horizon window index, 0
	// elsewhere.
	Round int
	// Nodes is the number of branch-and-bound nodes evaluated so far.
	Nodes int
	// Iterations counts simplex iterations so far in this phase's solve.
	Iterations int
	// Incumbent is the best integer-feasible objective found so far
	// (NaN while none exists).
	Incumbent float64
	// Bound is the best proven bound on the optimum (NaN while unknown).
	Bound float64
	// Gap is the relative primal-dual gap (+Inf while no incumbent).
	Gap float64
}

// ProgressFunc receives Progress samples during a solve. Implementations
// must be fast and must not call back into the solver; with concurrent
// branch-and-bound workers the callback is serialized by the search lock
// but may run on any worker goroutine.
type ProgressFunc func(Progress)

// emit sends a sample if a hook is installed.
func (f ProgressFunc) emit(p Progress) {
	if f != nil {
		f(p)
	}
}

// milpHook adapts the hook to the branch-and-bound solver's callback,
// tagging samples with the owning solver and A* round.
func (f ProgressFunc) milpHook(solver string, round int) func(milp.ProgressInfo) {
	if f == nil {
		return nil
	}
	return func(pi milp.ProgressInfo) {
		f(Progress{
			Solver:     solver,
			Phase:      "branch",
			Round:      round,
			Nodes:      pi.Nodes,
			Iterations: pi.Iterations,
			Incumbent:  pi.Incumbent,
			Bound:      pi.Bound,
			Gap:        pi.Gap,
		})
	}
}

// lpSample builds a Progress sample for a pure-LP phase of solver ("lp",
// or "horizon" with its window index as round).
func lpSample(solver, phase string, round, iterations int, objective float64, haveObj bool) Progress {
	p := Progress{
		Solver:     solver,
		Phase:      phase,
		Round:      round,
		Iterations: iterations,
		Incumbent:  math.NaN(),
		Bound:      math.NaN(),
		Gap:        math.Inf(1),
	}
	if haveObj {
		p.Incumbent, p.Bound, p.Gap = objective, objective, 0
	}
	return p
}
