// Package teccl is a Go implementation of TE-CCL ("Rethinking Machine
// Learning Collective Communication as a Multi-Commodity Flow Problem",
// SIGCOMM 2024): a collective-communication optimizer that models
// scheduling as a time-expanded multi-commodity flow problem with
// in-network copy, store-and-forward buffers, and α-aware pipelining.
//
// # Quick start
//
// The entry point is a Planner: a long-lived session pinned to one
// topology that answers a stream of solve requests.
//
//	t := teccl.DGX1()
//	planner := teccl.NewPlanner(t, teccl.PlannerOptions{})
//	plan, err := planner.Plan(ctx, teccl.Request{
//		Demand: teccl.AllGather(t, 1, 25e3), // 1 chunk of 25 KB per GPU
//	})
//	if err != nil { ... }
//	fmt.Println(plan.Schedule.FinishTime(), plan.Solver)
//
// Plan honors ctx end to end: cancellation (or a deadline) interrupts
// the simplex mid-iteration, the branch-and-bound worker pool between
// nodes, and the A* loop between rounds; Options.TimeLimit is enforced
// through the same mechanism, uniformly for all four solvers. The
// session caches per-topology state across requests — epoch estimates,
// tau derivations, solved schedules of structurally identical models,
// and warm-start bases — so repeated and related requests (sweeps,
// serving traffic) get progressively cheaper; Plan provenance
// (Plan.CacheHit, Plan.WarmStart) and Planner.Stats report the reuse.
//
// Sessions also absorb churn online: Planner.Replan applies a Delta
// (link/node failures, bandwidth degradation, straggler slowdown,
// demand add/drop) to the session and re-solves the incumbent request,
// incrementally when the incumbent LP basis can be reoptimized with a
// few dual-simplex pivots, and by a cold re-solve otherwise — see
// NewPlanner's documentation and examples/linkfailure.
//
// # Serving: the teccld daemon and the wire client
//
// The same session API is served over HTTP by cmd/teccld, a long-lived
// daemon owning a pool of Planner sessions keyed by topology
// fingerprint, with admission control (a concurrency cap plus a bounded
// queue; saturation returns 429) and graceful SIGTERM draining. Dial
// returns a Client whose Planner method yields a RemotePlanner backed
// by a daemon session; local and remote sessions are interchangeable
// behind the PlannerAPI interface:
//
//	var p teccl.PlannerAPI
//	if addr != "" {
//		c, err := teccl.Dial(addr, teccl.ClientOptions{})
//		if err != nil { ... }
//		p = c.Planner(t)
//	} else {
//		p = teccl.NewPlanner(t, teccl.PlannerOptions{})
//	}
//	plan, err := p.Plan(ctx, teccl.Request{Demand: d})
//
// Clients dialing one daemon share sessions: byte-identical topologies
// map to one fingerprint and therefore one session's caches, so a fleet
// of short-lived callers still gets schedule replays and warm bases.
// NewServer embeds the same daemon in-process (examples/multitenant
// does this); cmd/teccld/README.md documents the wire schema, flags,
// and deployment. Two Options fields do not cross the wire: Progress is
// dropped, and a func-valued LinkCapacity is rejected client-side
// (Priority survives — it is sampled over the demanded triples into
// explicit weights). Sessions end with Close, locally and remotely; a
// closed session's Plan/Replan return ErrPlannerClosed.
//
// Four formulations are available, mirroring the paper:
//
//   - SolverMILP — the general mixed-integer form (§3.1): optimal,
//     supports copy, slowest.
//   - SolverLP — the linear-program form (§4.1): optimal for demands
//     that do not benefit from copy (ALLTOALL-like), most scalable.
//   - SolverAStar — the round-partitioned approximation (§4.2):
//     supports copy, scales past the MILP, trades optimality for speed.
//   - SolverHorizon — the LP form solved by rolling-horizon
//     decomposition: overlapping epoch windows with warm-base chaining
//     and a committed prefix carried forward, for instances whose
//     monolithic time-expanded model is the scaling wall.
//
// Selection is a pluggable PlannerOptions.Policy: DefaultPolicy keeps
// the historical auto-pick (LP when no chunk has more than one
// destination, the MILP for small copy-friendly instances, A*
// otherwise), CostModelPolicy routes by estimated model size (huge
// LP-eligible instances above its HorizonCells threshold go to
// SolverHorizon), and ForceLP/ForceMILP/ForceAStar/ForceHorizon pin one
// formulation; Request.Solver overrides the policy per request.
//
// # Migrating from the free functions
//
// The original stateless API — Solve, SolveLP, SolveMILP, SolveAStar,
// BatchSolveLP — remains and behaves as before; each call now runs
// through a single-use Planner session. New code should hold a Planner
// per topology instead: same results, with cross-request state reuse
// and context cancellation. Baselines from the paper's evaluation (a
// TACCL-like heuristic, an SCCL-like synchronous-step synthesizer,
// shortest-path scheduling, and ring algorithms) live behind the
// Baseline* functions.
package teccl

import (
	"context"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/msccl"
	"teccl/internal/schedule"
	"teccl/internal/sim"
	"teccl/internal/topo"

	// Register the rolling-horizon solver (SolverHorizon) with the
	// Planner dispatch; policies may then route large instances to it.
	_ "teccl/internal/horizon"
)

// Topology is a directed graph of GPU and switch nodes; links carry a
// capacity (bytes/second) and a fixed latency α (seconds).
type Topology = topo.Topology

// NodeID identifies a node within a Topology.
type NodeID = topo.NodeID

// LinkID identifies a directed link within a Topology.
type LinkID = topo.LinkID

// Demand is a collective demand matrix: which destination wants which
// chunk of which source.
type Demand = collective.Demand

// TopologyDelta is the topology-only churn description consumed by
// Topology.ApplyDelta (Delta, the Planner.Replan form, additionally
// carries demand churn).
type TopologyDelta = topo.Delta

// Schedule is an executable collective schedule: per-epoch chunk sends.
type Schedule = schedule.Schedule

// Send is one chunk transmission within a Schedule.
type Send = schedule.Send

// Options configures a solve; the zero value uses the paper's defaults
// (fastest-link epochs, copy-capable switches, buffers on).
type Options = core.Options

// Result is the outcome of a solve.
type Result = core.Result

// SimResult reports a continuous-time α-β execution of a schedule.
type SimResult = sim.Result

// Epoch-duration modes (§5).
const (
	FastestLink = core.FastestLink
	SlowestLink = core.SlowestLink
)

// Switch models (§3.1).
const (
	SwitchCopy   = core.SwitchCopy
	SwitchNoCopy = core.SwitchNoCopy
)

// Crash-basis policies (Options.Crash): whether cold solves seed the
// simplex from the greedy schedule's flow support instead of the
// all-slack basis. See core.CrashMode.
const (
	CrashAuto = core.CrashAuto
	CrashAll  = core.CrashAll
	CrashOff  = core.CrashOff
)

// NewTopology returns an empty topology with the given name.
func NewTopology(name string) *Topology { return topo.New(name) }

// Topology builders for the paper's evaluation platforms (Table 2,
// Appendix H) plus generic shapes.
var (
	// DGX1 is a single 8-GPU NVLink chassis.
	DGX1 = topo.DGX1
	// NDv2 is chassis x 8-GPU NVLink boxes behind an InfiniBand switch.
	NDv2 = topo.NDv2
	// NDv2Mini is the laptop-scale NDv2 stand-in (4 GPUs per chassis).
	NDv2Mini = topo.NDv2Mini
	// DGX2 is chassis x (16 GPUs + NVSwitch) with cross-chassis links.
	DGX2 = topo.DGX2
	// DGX2Mini is the laptop-scale DGX2 stand-in.
	DGX2Mini = topo.DGX2Mini
	// Internal1 and Internal2 are synthetic stand-ins for the paper's
	// proprietary cloud topologies (their shapes are documented on the
	// internal/topo builders).
	Internal1        = topo.Internal1
	Internal1NoAlpha = topo.Internal1NoAlpha
	Internal2        = topo.Internal2
	// Generic shapes.
	Ring     = topo.Ring
	Line     = topo.Line
	FullMesh = topo.FullMesh
	Star     = topo.Star
	// ZeroAlpha copies a topology with every link latency zeroed (the
	// alpha-blind comparisons of Figure 2, and exactly-scaling sweeps).
	ZeroAlpha = topo.ZeroAlpha
)

// gpuInts converts a topology's GPU list to int indexes.
func gpuInts(t *Topology) []int {
	gs := t.GPUs()
	out := make([]int, len(gs))
	for i, g := range gs {
		out[i] = int(g)
	}
	return out
}

// AllGather builds an ALLGATHER demand over every GPU in t.
func AllGather(t *Topology, chunksPerGPU int, chunkBytes float64) *Demand {
	return collective.AllGather(t.NumNodes(), gpuInts(t), chunksPerGPU, chunkBytes)
}

// AllToAll builds an ALLTOALL demand over every GPU in t; chunksPerPair
// is the number of chunks each sender delivers to each destination.
func AllToAll(t *Topology, chunksPerPair int, chunkBytes float64) *Demand {
	return collective.AllToAll(t.NumNodes(), gpuInts(t), chunksPerPair, chunkBytes)
}

// Broadcast builds a BROADCAST demand from root to every other GPU.
func Broadcast(t *Topology, root NodeID, chunks int, chunkBytes float64) *Demand {
	return collective.Broadcast(t.NumNodes(), gpuInts(t), int(root), chunks, chunkBytes)
}

// Scatter builds a SCATTER demand from root.
func Scatter(t *Topology, root NodeID, chunksPerDest int, chunkBytes float64) *Demand {
	return collective.Scatter(t.NumNodes(), gpuInts(t), int(root), chunksPerDest, chunkBytes)
}

// Gather builds a GATHER demand to root.
func Gather(t *Topology, root NodeID, chunksPerGPU int, chunkBytes float64) *Demand {
	return collective.Gather(t.NumNodes(), gpuInts(t), int(root), chunksPerGPU, chunkBytes)
}

// ReduceScatter builds the communication pattern of a REDUCESCATTER.
func ReduceScatter(t *Topology, chunkBytes float64) *Demand {
	return collective.ReduceScatter(t.NumNodes(), gpuInts(t), chunkBytes)
}

// NewDemand builds an empty demand matrix for custom patterns (including
// multi-tenant unions via Demand.Or, per §5).
func NewDemand(t *Topology, chunksPerSource int, chunkBytes float64) *Demand {
	return collective.New(t.NumNodes(), chunksPerSource, chunkBytes)
}

// Solve optimizes the demand with the most appropriate formulation per
// DefaultPolicy: the LP when copy cannot help (every chunk has at most
// one destination), the general MILP for small copy-friendly instances,
// and A* for larger ones. It is a stateless wrapper over a single-use
// Planner; hold a Planner directly for cross-request state reuse and
// context cancellation.
func Solve(t *Topology, d *Demand, opt Options) (*Result, error) {
	return solveVia(t, d, opt, SolverAuto)
}

// SolveMILP solves with the general mixed-integer form (§3.1).
func SolveMILP(t *Topology, d *Demand, opt Options) (*Result, error) {
	return solveVia(t, d, opt, SolverMILP)
}

// SolveLP solves with the linear-program form (§4.1).
func SolveLP(t *Topology, d *Demand, opt Options) (*Result, error) {
	return solveVia(t, d, opt, SolverLP)
}

// BatchOptions tunes a BatchSolveLP sweep.
type BatchOptions = core.BatchOptions

// BatchSolveLP solves the LP form for a whole sweep of demand variants
// (e.g. a chunk-size sweep) against shared solver state: structurally
// identical points are solved once and replayed, the rest chain optimal
// bases point-to-point, and the points fan out over a worker pool.
// Results and errors are aligned with demands; points fail independently.
func BatchSolveLP(t *Topology, demands []*Demand, opt Options, bo BatchOptions) ([]*Result, []error) {
	return core.BatchSolveLP(context.Background(), t, demands, opt, bo)
}

// SolveAStar solves with the A* round partitioning (§4.2).
func SolveAStar(t *Topology, d *Demand, opt Options) (*Result, error) {
	return solveVia(t, d, opt, SolverAStar)
}

// SolveHorizon solves the LP form by rolling-horizon decomposition:
// overlapping epoch windows solved in sequence with warm-base chaining,
// a committed prefix carried forward between windows, and the stitched
// schedule validated like any monolithic solve. Options.HorizonWindow,
// HorizonOverlap, HorizonCertify, AutoEpochMultiplier, and
// HorizonCellBudget tune it; zero values auto-size from the topology.
// Result.Windows reports how many windows were stitched (0 means the
// solver fell back to one monolithic solve).
func SolveHorizon(t *Topology, d *Demand, opt Options) (*Result, error) {
	return solveVia(t, d, opt, SolverHorizon)
}

// Simulate executes a schedule in continuous time under the α-β cost
// model and reports precise completion metrics.
func Simulate(s *Schedule) (*SimResult, error) { return sim.Run(s) }

// SimulateOn executes a schedule against a different topology with the
// same shape (e.g. the real α after solving with α = 0, as in Figure 2).
func SimulateOn(s *Schedule, t *Topology) (*SimResult, error) { return sim.RunOn(s, t) }

// ExportMSCCL serializes a whole-chunk schedule to MSCCL-style XML.
func ExportMSCCL(s *Schedule, collName string) ([]byte, error) {
	return msccl.Export(s, collName)
}

// EstimateEpochs returns an upper bound on the epochs needed for the
// demand at epoch duration tau (Appendix E's Algorithm 1).
func EstimateEpochs(t *Topology, d *Demand, tau float64) int {
	return core.EstimateEpochs(t, d, tau)
}

// DeriveTau computes the epoch duration for a chunk size and mode (§5).
func DeriveTau(t *Topology, chunkBytes float64, mode core.EpochMode, multiplier float64) float64 {
	return core.DeriveTau(t, chunkBytes, mode, multiplier)
}
