package core

// policy.go makes solver selection an explicit, pluggable decision. The
// historical teccl.Solve auto-pick — LP when copy cannot help, the MILP
// for small copy-friendly instances, A* otherwise — lives on as
// DefaultPolicy; services with better knowledge of their request mix
// substitute their own Policy (or one of the Force* singletons) when
// building a Planner session.

import (
	"teccl/internal/collective"
	"teccl/internal/topo"
)

// Solver identifies one of the four formulations.
type Solver int8

const (
	// SolverAuto defers the choice to the session's Policy.
	SolverAuto Solver = iota
	// SolverLP is the linear-program form (§4.1).
	SolverLP
	// SolverMILP is the general mixed-integer form (§3.1).
	SolverMILP
	// SolverAStar is the round-partitioned approximation (§4.2).
	SolverAStar
	// SolverHorizon is the rolling-horizon LP decomposition: the §4.1
	// formulation sliced into overlapping epoch windows solved in
	// sequence with warm-chained bases (horizon.go).
	SolverHorizon
)

func (s Solver) String() string {
	switch s {
	case SolverAuto:
		return "auto"
	case SolverLP:
		return "lp"
	case SolverMILP:
		return "milp"
	case SolverAStar:
		return "astar"
	case SolverHorizon:
		return "horizon"
	}
	return "unknown"
}

// PolicyInput is everything a Policy sees when choosing a formulation
// for one request.
type PolicyInput struct {
	// Topology is the session topology.
	Topology *topo.Topology
	// Demand is the request's demand matrix.
	Demand *collective.Demand
	// Options are the request's resolved solve options.
	Options Options

	// NumGPUs is the session topology's GPU count (cached by the
	// Planner, so policies need not rescan the node list per request).
	NumGPUs int
	// Multicast reports whether any chunk has more than one destination
	// — the condition under which the LP form loses optimality (§4.1).
	Multicast bool
	// Tau is the epoch duration the request would solve at.
	Tau float64
	// EstimateEpochs returns the horizon estimate for the request at
	// Tau, served from the session's epoch-estimate cache; the first
	// call pays the estimation, repeats are free.
	EstimateEpochs func() int
}

// Policy chooses the formulation for a request. Implementations must be
// safe for concurrent use: a Planner session may serve requests from
// many goroutines.
type Policy interface {
	Choose(in PolicyInput) Solver
}

// DefaultPolicy is the historical teccl.Solve heuristic: the LP whenever
// copy cannot help, the general MILP for instances small enough to solve
// exactly, and A* beyond that. The zero value uses the thresholds Solve
// has always used (10 GPUs, 128 demanded triples).
type DefaultPolicy struct {
	// MaxMILPGPUs is the largest GPU count routed to the MILP;
	// 0 means 10.
	MaxMILPGPUs int
	// MaxMILPDemands is the largest demand Count() routed to the MILP;
	// 0 means 128.
	MaxMILPDemands int
}

// Choose implements Policy.
func (p DefaultPolicy) Choose(in PolicyInput) Solver {
	if !in.Multicast {
		return SolverLP
	}
	gpus := p.MaxMILPGPUs
	if gpus == 0 {
		gpus = 10
	}
	demands := p.MaxMILPDemands
	if demands == 0 {
		demands = 128
	}
	if in.NumGPUs <= gpus && in.Demand.Count() <= demands {
		return SolverMILP
	}
	return SolverAStar
}

// forcePolicy pins one formulation regardless of the request.
type forcePolicy Solver

func (f forcePolicy) Choose(PolicyInput) Solver { return Solver(f) }

// Force policies pin a formulation for every request of a session — the
// Planner equivalent of calling SolveLP/SolveMILP/SolveAStar directly.
var (
	ForceLP      Policy = forcePolicy(SolverLP)
	ForceMILP    Policy = forcePolicy(SolverMILP)
	ForceAStar   Policy = forcePolicy(SolverAStar)
	ForceHorizon Policy = forcePolicy(SolverHorizon)
)

// CostModelPolicy sizes the time-expanded MILP before committing to it:
// instead of DefaultPolicy's fixed GPU/demand thresholds it estimates
// the model's variable count — demanded triples × links × horizon, the
// quantity that actually governs MILP solve time — using the session's
// cached epoch estimates, so repeated shapes price out instantly.
type CostModelPolicy struct {
	// MaxMILPCells is the largest demands×links×epochs product routed
	// to the MILP; 0 means 1<<17 (a laptop-scale exact-solve budget).
	MaxMILPCells int
	// HorizonCells is the demands×links×epochs product above which
	// LP-eligible requests are routed to the rolling-horizon
	// decomposition instead of one monolithic simplex; 0 means 1<<17
	// (roughly where the monolithic LP's solve time leaves interactive
	// range). Negative disables horizon routing.
	HorizonCells int
}

// Choose implements Policy.
func (p CostModelPolicy) Choose(in PolicyInput) Solver {
	cells := func() int {
		return in.Demand.Count() * in.Topology.NumLinks() * in.EstimateEpochs()
	}
	if !in.Multicast {
		hlimit := p.HorizonCells
		if hlimit == 0 {
			hlimit = 1 << 17
		}
		if hlimit > 0 && cells() > hlimit {
			return SolverHorizon
		}
		return SolverLP
	}
	limit := p.MaxMILPCells
	if limit == 0 {
		limit = 1 << 17
	}
	if cells() <= limit {
		return SolverMILP
	}
	return SolverAStar
}
