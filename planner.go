package teccl

// planner.go is the session-oriented entry point: a long-lived Planner
// per topology answering a stream of solve requests with cached
// per-topology state (tau derivations, epoch estimates, schedule replay
// for structurally identical models, MILP warm-start bases keyed by
// fingerprint and chained by column key), context-aware cancellation
// through all four solvers, pluggable solver-selection policy, and a
// progress hook for serving-side observability. The stateless free
// functions in teccl.go are thin wrappers over single-use sessions.

import (
	"context"

	"teccl/internal/core"
	"teccl/internal/topo"
)

// Planner is a long-lived solving session pinned to one topology: it
// caches per-topology derived state across requests (epoch estimates,
// tau derivations, solved-schedule replay, MILP warm-start bases), so a
// request stream over one topology gets progressively cheaper. Methods
// are safe for concurrent use; the topology must not be mutated while
// the session is alive.
type Planner = core.Planner

// PlannerOptions configures a session: default solve options, the
// solver-selection policy, and the replanning budget (Replan field).
type PlannerOptions = core.PlannerOptions

// ReplanOptions tunes the pivot budget of Replan's incremental LP
// attempts, derived from observed cold-solve pivots. The zero value means
// sensible defaults; negative fields disable a part. RebaseThreshold is
// deprecated and ignored.
type ReplanOptions = core.ReplanOptions

// Request is one unit of work for a Planner: a demand plus optional
// per-request options, a forced solver, and a progress hook.
type Request = core.Request

// Plan is a solved request: the Result plus provenance — which solver
// ran, whether the schedule was replayed from a structurally identical
// earlier request (CacheHit), and whether the simplex resumed from an
// earlier request's basis (WarmStart).
type Plan = core.Plan

// PlannerStats are a session's cumulative reuse counters.
type PlannerStats = core.PlannerStats

// Policy chooses the formulation for each request; see DefaultPolicy,
// CostModelPolicy, and the Force* singletons.
type Policy = core.Policy

// PolicyInput is what a Policy sees when choosing a solver.
type PolicyInput = core.PolicyInput

// DefaultPolicy is the historical Solve auto-pick: LP when copy cannot
// help, the MILP below its GPU/demand thresholds, A* beyond.
type DefaultPolicy = core.DefaultPolicy

// CostModelPolicy routes by estimated MILP model size (demands × links ×
// cached epoch estimate) instead of fixed thresholds.
type CostModelPolicy = core.CostModelPolicy

// Solver identifies a formulation in Request.Solver and Plan.Solver.
type Solver = core.Solver

// Solver identifiers.
const (
	SolverAuto    = core.SolverAuto
	SolverLP      = core.SolverLP
	SolverMILP    = core.SolverMILP
	SolverAStar   = core.SolverAStar
	SolverHorizon = core.SolverHorizon
)

// Force policies pin one formulation for every request of a session.
var (
	ForceLP      = core.ForceLP
	ForceMILP    = core.ForceMILP
	ForceAStar   = core.ForceAStar
	ForceHorizon = core.ForceHorizon
)

// Delta describes one step of churn for Planner.Replan: links or nodes
// lost, per-link bandwidth/latency scaling (degradation, stragglers,
// restoration), structural growth (AddNodes/AddLinks — a scale-up
// joining the job), and demand pairs added or dropped. Topology edits
// are applied immutably to the session's snapshot; the caller's
// Topology is never touched.
type Delta = core.Delta

// Node is one node of a Topology, for Delta.AddNodes.
type Node = topo.Node

// Link is one directed link of a Topology, for Delta.AddLinks.
type Link = topo.Link

// DemandPair names one (source, destination) demand pair in
// Delta.DropPairs.
type DemandPair = core.DemandPair

// LinkScale is one multiplicative link edit of a Delta: scale a link's
// capacity (degradation) and/or its α (straggler slowdown). Zero-valued
// fields mean "leave unchanged".
type LinkScale = topo.LinkScale

// Progress is one observability sample from a running solve; see
// Options.Progress and Request.Progress.
type Progress = core.Progress

// ProgressFunc receives Progress samples during a solve.
type ProgressFunc = core.ProgressFunc

// NewPlanner opens a solving session on a topology.
//
//	planner := teccl.NewPlanner(t, teccl.PlannerOptions{})
//	plan, err := planner.Plan(ctx, teccl.Request{Demand: demand})
//
// Plan honors ctx end to end — the simplex iteration loops, the
// branch-and-bound worker pool, and the A* round loop all watch it —
// and Options.TimeLimit is enforced through the same mechanism, so all
// four solvers respect the budget uniformly.
//
// The session snapshots the topology (Topology.Clone), so the caller
// may keep mutating its own value afterwards without corrupting cached
// derived state.
//
// # Replanning under churn
//
// A live session absorbs topology and demand churn with Replan:
//
//	plan, err := planner.Replan(ctx, teccl.Delta{
//		LinksDown: []teccl.LinkID{7},                                  // link failure
//		Scale:     []teccl.LinkScale{{Link: 3, Capacity: 0.5}},        // degradation
//	})
//
// Replan re-solves the session's last successful request against the
// churned topology, incrementally when the incumbent's form allows:
//
//   - LP incumbents absorb link failures, capacity scaling in either
//     direction, straggler restoration, and dropped demand pairs as
//     bound and right-hand-side edits to the incumbent model; the dual
//     simplex reoptimizes from the incumbent basis in a handful of
//     pivots instead of solving cold. Delta.AddDemand — including new
//     (source, destination) pairs and entirely new sources — is
//     absorbed by appending priced-out columns and rows to the
//     incumbent model and padding the basis, provided the addition
//     keeps the time discretization intact.
//   - MILP incumbents re-root branch-and-bound from the repaired root
//     relaxation basis, and the pre-churn integer incumbent is
//     re-validated against the churned topology: when it survives, it
//     seeds the search as a feasible incumbent, so even a re-solve
//     cut short by the request's TimeLimit returns a valid schedule.
//   - A* incumbents replay the rounds untouched by the churn and
//     re-solve only from the first round that routed over a failed or
//     degraded link; a pure capacity increase replays the whole
//     schedule with no solver work at all.
//
// Churn that changes the model's shape — a scale that changes a link's
// per-chunk epochs, topology growth (Delta.AddNodes/AddLinks), or
// demand churn the incumbent form cannot absorb — degrades gracefully
// to a cold crash-started solve (Plan.ReplanFallback), and so does an
// incremental attempt that comes back without a validated optimum (say,
// infeasible at the incumbent's horizon, or out of the request's
// TimeLimit), or an incremental LP attempt that exhausts its pivot
// budget (a fraction of the session's observed cold-solve pivots; see
// ReplanOptions) — a deep edit reoptimizes slower than a cold solve.
// The rung a delta lands on depends on the inputs alone, never on the
// host's speed. Every replanned schedule is re-validated
// against the churned topology before being returned, and all session
// caches are invalidated atomically, so no pre-churn schedule or basis
// can leak into post-churn requests.
func NewPlanner(t *Topology, opt PlannerOptions) *Planner {
	return core.NewPlanner(t, opt)
}

// solveVia routes one stateless solve through a single-use session —
// the free functions' implementation since the Planner redesign.
func solveVia(t *Topology, d *Demand, opt Options, s Solver) (*Result, error) {
	plan, err := NewPlanner(t, PlannerOptions{Defaults: opt}).
		Plan(context.Background(), Request{Demand: d, Solver: s})
	if plan == nil {
		return nil, err
	}
	return plan.Result, err
}
