// Package core implements the TE-CCL formulations: the collective
// communication optimization problem modeled as a time-expanded
// multi-commodity flow problem.
//
// Four solvers are provided, mirroring §3-§4 of the paper, each behind one
// context-first entry (cancellation and Options.TimeLimit interrupt all
// of them through that one context):
//
//   - SolveMILP: the general mixed-integer form (§3.1). Supports
//     in-network copy, store-and-forward buffers, and α-aware pipelining.
//     Optimal, but the slowest to solve.
//   - SolveLP (and BatchSolveLP for sweeps): the linear-program form
//     (§4.1) for demands that do not benefit from copy (ALLTOALL-like).
//     Optimal and far more scalable.
//   - SolveAStar: the round-partitioned approximation (§4.2, Appendix D).
//     Supports copy, scales further than the MILP, trades optimality for
//     solver time via the round length.
//   - SolveHorizon: the LP form over rolling epoch windows (horizon.go),
//     also reached through a Planner as SolverHorizon.
//
// Every solve is the same three steps. A model is built (lpModel.emit,
// milpModel.emit) or, by Replan, edited from the incumbent's; the form's
// one tail runs it — (*lpModel).run, (*milpModel).run, astarLoop: solve,
// status to error, schedule, Result — with refineMakespan on top when
// asked; and a Planner session's epilogue (Plan's, or adoptReplan) reads
// provenance off the Result and keeps the payload for the next request.
//
// Time is discrete: epochs of duration τ. Chunks are the schedulable unit;
// a link of capacity T carries T·τ bytes per epoch, and a link latency α
// delays arrivals by ⌈α/τ⌉ epochs.
package core

import (
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// EpochMode selects how the epoch duration τ is derived (§5).
type EpochMode int8

const (
	// FastestLink sets τ from the fastest link (option (b) in §5 and
	// Appendix F): finer-grained schedules; slow links then need κ > 1
	// epochs per chunk, enforced with sliding-window capacity constraints.
	// This is the paper's default for most evaluations.
	FastestLink EpochMode = iota
	// SlowestLink sets τ so the slowest link transmits one chunk per epoch
	// (option (a) in §5). Simple, but coarse on heterogeneous networks.
	SlowestLink
)

// CrashMode selects the crash-basis policy: whether cold solves seed the
// simplex from the greedy schedule's flow support — a crash basis —
// instead of the all-slack identity. Every LP-form solve of a new
// request is cold; a MILP root is when the session has no basis for it.
type CrashMode int8

const (
	// CrashAuto (the default) crash-starts cold LP-form solves — the
	// monolithic LP and a rolling horizon's first window when the
	// session's basis store has no hit for it — where the seed only
	// shortens phase 1 (the LP optimum the decomposition sees is
	// tie-broken the same way; property-tested). MILP roots keep
	// the all-slack start: their greedy incumbent already encodes the
	// heuristic structure, and crash-seeding the relaxation as well
	// biases equal-objective tie-breaks toward the greedy shape
	// (measurably worse simulated makespans on ALLGATHER microbenches).
	// The incumbent itself no longer wins a tie: milp replaces a
	// caller-supplied point with any point of equal objective its search
	// finds, an integral root included (milp.Options.IncumbentX), so a
	// greedy that ties the optimum is not returned verbatim. What the
	// crash seed would still bias is which optimal vertex the root
	// lands on.
	CrashAuto CrashMode = iota
	// CrashAll additionally crash-starts cold MILP root relaxations
	// from the greedy incumbent's support. Cheaper roots, but among
	// equal-objective integer optima the returned schedule may lean
	// toward the greedy shape.
	CrashAll
	// CrashOff always cold-starts from the all-slack basis (the
	// historical behavior).
	CrashOff
)

// SwitchMode selects the switch model (§3.1 "Modeling switches").
type SwitchMode int8

const (
	// SwitchCopy models modern switches that can multicast (SHArP-style).
	SwitchCopy SwitchMode = iota
	// SwitchNoCopy models legacy switches: traffic in equals traffic out.
	SwitchNoCopy
)

// Options configures a solve. The zero value asks for the paper's default
// configuration: fastest-link epochs, copy-capable switches, buffers on.
type Options struct {
	// Epochs is the horizon K (number of sending epochs). 0 means
	// estimate it with EstimateEpochs.
	Epochs int
	// EpochMode picks the τ derivation; the default is FastestLink.
	EpochMode EpochMode
	// Tau overrides the epoch duration in seconds (0 = derive from mode).
	Tau float64
	// EpochMultiplier scales τ up to trade schedule quality for solver
	// speed/memory (the EM column of Table 4). 0 or 1 means no scaling.
	EpochMultiplier float64
	// SwitchMode picks the switch model.
	SwitchMode SwitchMode
	// NoBuffers disables store-and-forward at GPUs (§2.2, Figure 9): a
	// non-destination GPU must then forward an arrival in the next epoch,
	// like a switch. Honoured by the MILP, LP and rolling-horizon
	// solvers; A* rejects it with an error (its round state carries no
	// bufferless GPUs).
	NoBuffers bool
	// BufferLimitChunks caps per-GPU buffered chunks (Appendix B);
	// 0 means unlimited. Honoured by the MILP, LP and rolling-horizon
	// solvers; A* rejects it with an error (its round state carries no
	// evictions).
	BufferLimitChunks int
	// GapLimit passes an early-stop optimality gap to the MILP solver
	// (the paper's Gurobi early-stop, e.g. 0.3). 0 solves to optimality.
	GapLimit float64
	// TimeLimit bounds a solve's wall time, whichever solver runs it (the
	// paper gives its MILPs 2 hours): every entry layers it onto its
	// context as one derived deadline covering model build, the solve
	// and any re-solves (context.go has what each solver returns when it
	// expires). 0 means no limit.
	TimeLimit time.Duration
	// NoIncumbentHeuristic disables the greedy warm-start incumbent.
	NoIncumbentHeuristic bool
	// Crash selects the crash-basis policy; the zero value (CrashAuto)
	// seeds cold LP-form solves from the greedy schedule's flow support
	// instead of the all-slack basis. See CrashMode.
	Crash CrashMode
	// MinimizeMakespan re-solves with shrinking horizons until the finish
	// epoch is provably minimal — the "binary search on the number of
	// epochs" the paper runs for its ALLTOALL results (§6). The base
	// objective already rewards early delivery, but it optimizes the
	// reward sum, which can trade the last chunk's arrival for earlier
	// intermediate ones; this switch pins the makespan.
	MinimizeMakespan bool

	// Workers is the number of branch-and-bound nodes the MILP and A*
	// solvers evaluate concurrently (and the default fan-out of
	// BatchSolveLP sweeps); 0 or 1 solves serially. The LP and
	// rolling-horizon solvers run one simplex at a time and ignore it.
	// With Workers > 1 the MILP and A* searches are opportunistic: they
	// prove the same optimum but may return a different one of several
	// equally optimal schedules run to run. No option here selects a
	// reproducible parallel search.
	Workers int

	// RoundEpochs is the number of epochs per A* round (§4.2); 0 derives
	// a round long enough that in-flight chunks land within one round.
	RoundEpochs int
	// MaxRounds caps A* rounds as a safety net; 0 means 64.
	MaxRounds int

	// Priority, when non-nil, scales the delivery reward of each demand
	// triple — the multi-tenant priority support of §5 ("prioritizing one
	// tenant's completion time over the others"). Values must be
	// positive; 1 is neutral.
	Priority func(src, chunk, dst int) float64
	// LinkCapacity, when non-nil, scales each link's capacity per epoch —
	// the variable-bandwidth support of §5 ("bandwidth only changes from
	// one epoch to the next"). The returned multiplier must be in [0, 1];
	// 0 disables the link for that epoch.
	LinkCapacity func(link topo.LinkID, epoch int) float64

	// Progress, when non-nil, receives observability samples while the
	// solve runs: model build, simplex completion, every branch-and-bound
	// node, each A* round, rolling-horizon windows, and makespan
	// re-solves. See ProgressFunc for the calling discipline.
	Progress ProgressFunc

	// HorizonWindow is the rolling-horizon window length in epochs
	// (SolverHorizon only); 0 derives one from the horizon and the
	// longest link span. See horizon.go.
	HorizonWindow int
	// HorizonOverlap is the number of trailing window epochs re-solved by
	// the next window; the committed stride is HorizonWindow −
	// HorizonOverlap. 0 derives the minimum overlap that keeps every
	// committed send's landing (including switch forwards) inside one
	// window.
	HorizonOverlap int
	// HorizonCertify, when positive, budgets a monolithic re-solve after
	// the stitched schedule is assembled to measure the windowed-vs-
	// monolithic objective gap; the result's Gap is then that measured
	// gap instead of 0. Certification time is excluded from SolveTime.
	HorizonCertify time.Duration
	// AutoEpochMultiplier lets the horizon solver probe epoch-multiplier
	// grids (Table 4's EM column) before any model is built, picking the
	// smallest multiplier whose estimated cell count fits
	// HorizonCellBudget. Ignored when EpochMultiplier > 1 or Tau is set
	// explicitly.
	AutoEpochMultiplier bool
	// HorizonCellBudget is the demands×links×epochs budget the
	// auto-selected epoch multiplier must fit; 0 means the built-in
	// default, calibrated so the prober reproduces Table 4's EM column.
	HorizonCellBudget int

	// estimates, when non-nil, memoizes DeriveTau and EstimateEpochs
	// results across solves. Set by a Planner session; never by callers
	// directly (the field is unexported on purpose — per-topology caching
	// is only sound while the session pins one topology).
	estimates *estimateCache
}

// priorityOf returns the priority weight for a triple (1 when unset).
func (o *Options) priorityOf(src, chunk, dst int) float64 {
	if o.Priority == nil {
		return 1
	}
	return o.Priority(src, chunk, dst)
}

// capScale returns the capacity multiplier for a link at an epoch.
func (o *Options) capScale(l topo.LinkID, epoch int) float64 {
	if o.LinkCapacity == nil {
		return 1
	}
	return o.LinkCapacity(l, epoch)
}

// Result is the outcome of a solve.
type Result struct {
	Schedule  *schedule.Schedule
	Objective float64
	Gap       float64 // relative optimality gap (0 when proven optimal)
	Optimal   bool
	SolveTime time.Duration
	Epochs    int     // horizon used
	Tau       float64 // epoch duration used
	Rounds    int     // A* rounds used (0 for single-shot solvers)
	Windows   int     // rolling-horizon window solves, retried and abandoned ones included

	// Solver-effort counters. RootIterations is the simplex iteration
	// count of the main solve: the root relaxation on the MILP path, the
	// single LP solve on the LP path. Nodes and NodeIterations are filled
	// by the MILP path only (branch-and-bound nodes and their warm-started
	// iteration total); NodeIterations/Nodes far below RootIterations is
	// the signature of effective basis reuse.
	Nodes          int
	RootIterations int
	NodeIterations int
	// Refactorizations counts basis factorizations across the main
	// solve's LP work (the LP path's single solve, or the MILP root plus
	// all warm-started node re-solves). FTUpdates counts the
	// Forrest–Tomlin basis updates that carried pivots between those
	// refactorizations, and UpdateNnz the total update-file nonzeros they
	// accumulated — a high FTUpdates/Refactorizations ratio is the
	// signature of cheap incremental reoptimization.
	Refactorizations int
	FTUpdates        int
	UpdateNnz        int

	// Reused marks a BatchSolveLP sweep point whose schedule was replayed
	// from a structurally identical, already-solved point instead of
	// running the simplex again (its solver counters are therefore zero).
	Reused bool
	// WarmStarted marks a solve whose main simplex run (the MILP root
	// relaxation, a rolling horizon's first window, or a replan's
	// reoptimization) resumed from a basis of an earlier related solve
	// instead of starting cold — the signature of cross-request state
	// reuse through a Planner session.
	WarmStarted bool
	// CrashStarted marks a cold solve whose main simplex run was seeded
	// from the greedy schedule's flow support (a crash basis) instead of
	// the all-slack identity. Mutually exclusive with WarmStarted.
	CrashStarted bool
}

// addLP and addMILP fold one solve's effort into the counters: a
// single-shot form adds its one solve, A* every round's.
func (r *Result) addLP(sol *lp.Solution) {
	r.RootIterations += sol.Iterations
	r.Refactorizations += sol.Refactorizations
	r.FTUpdates += sol.FTUpdates
	r.UpdateNnz += sol.UpdateNnz
}

func (r *Result) addMILP(sol *milp.Solution) {
	r.Nodes += sol.Nodes
	r.RootIterations += sol.RootIterations
	r.NodeIterations += sol.NodeIterations
	r.Refactorizations += sol.Refactorizations
	r.FTUpdates += sol.FTUpdates
	r.UpdateNnz += sol.UpdateNnz
}

// instance is the preprocessed solve context shared by the formulations.
type instance struct {
	topo   *topo.Topology
	demand *collective.Demand
	opt    Options

	tau   float64
	K     int
	delta []int // per link: ceil(alpha/tau)
	kappa []int // per link: epochs to transmit one chunk
	// capChunks is the per-epoch link budget in chunks (may be < 1 in
	// fastest-link mode for slow links; the window constraint applies).
	capChunks []float64

	// commodities: the (src, chunk) pairs that exist.
	comms []comm
}

type comm struct {
	src, chunk int
	// dests are node IDs demanding this chunk.
	dests []int
}

// DeriveTau returns the epoch duration for a topology, chunk size, and
// mode, applying the paper's adjustments: the epoch multiplier (Table 4)
// and the α ≫ τ inflation rule (§6: when α > 200·τ, grow τ by 5×).
func DeriveTau(t *topo.Topology, chunkBytes float64, mode EpochMode, multiplier float64) float64 {
	var cap float64
	if mode == SlowestLink {
		cap = t.MinCapacity()
	} else {
		cap = t.MaxCapacity()
	}
	if cap <= 0 {
		return 0
	}
	tau := chunkBytes / cap
	if multiplier > 1 {
		tau *= multiplier
	}
	if a := t.MaxAlpha(); a > 200*tau {
		tau *= 5
	}
	return tau
}

// newInstance preprocesses a solve: derives τ, per-link δ and κ, and the
// commodity list. A demand with commodities needs a positive, finite τ:
// with no live link DeriveTau returns 0, and κ = ⌈1/0⌉ would size every
// capacity window at 2⁶³ epochs, so that world is refused here, before
// any form builds a model.
func newInstance(t *topo.Topology, d *collective.Demand, opt Options) (*instance, error) {
	in := &instance{topo: t, demand: d, opt: opt}
	in.opt.estimates = nil // a model outlives the session state it was built in

	// Commodities.
	for s := 0; s < d.NumNodes(); s++ {
		for c := 0; c < d.NumChunks(); c++ {
			if !d.SourceHasChunk(s, c) {
				continue
			}
			cm := comm{src: s, chunk: c}
			for dst := 0; dst < d.NumNodes(); dst++ {
				if d.Wants(s, c, dst) {
					cm.dests = append(cm.dests, dst)
				}
			}
			in.comms = append(in.comms, cm)
		}
	}

	in.tau = opt.Tau
	if in.tau == 0 {
		if opt.estimates != nil {
			in.tau = opt.estimates.deriveTau(t, d.ChunkBytes, opt.EpochMode, opt.EpochMultiplier)
		} else {
			in.tau = DeriveTau(t, d.ChunkBytes, opt.EpochMode, opt.EpochMultiplier)
		}
	}
	if len(in.comms) > 0 && !(in.tau > 0 && !math.IsInf(in.tau, 1)) {
		return nil, fmt.Errorf("core: epoch duration τ = %g is not positive and finite: no live link carries the demand, or Options.Tau is out of range", in.tau)
	}

	nL := t.NumLinks()
	in.delta = make([]int, nL)
	in.kappa = make([]int, nL)
	in.capChunks = make([]float64, nL)
	for l := 0; l < nL; l++ {
		lk := t.Link(topo.LinkID(l))
		if lk.Alpha > 0 {
			in.delta[l] = int(math.Ceil(lk.Alpha/in.tau - 1e-9))
		}
		perEpoch := lk.Capacity * in.tau / d.ChunkBytes
		in.capChunks[l] = perEpoch
		if perEpoch >= 1-1e-9 {
			in.kappa[l] = 1
		} else {
			in.kappa[l] = int(math.Ceil(1/perEpoch - 1e-9))
		}
	}

	in.K = opt.Epochs
	if in.K == 0 {
		if opt.estimates != nil {
			in.K = opt.estimates.estimateEpochs(t, d, in.tau)
		} else {
			in.K = EstimateEpochs(t, d, in.tau)
		}
	}

	return in, nil
}

// capBudget is link l's Appendix F sliding-window budget for the window
// ending at epoch k: κ epochs of the per-epoch chunk budget under the
// per-epoch variable-bandwidth scaling (§5). The budget is κ·T·τ even
// when the window is truncated at the horizon start, so the scale epoch
// is clamped at 0.
func (in *instance) capBudget(l, k int) float64 {
	budget := 0.0
	for kk := k - in.kappa[l] + 1; kk <= k; kk++ {
		budget += in.capChunks[l] * in.opt.capScale(topo.LinkID(l), max(kk, 0))
	}
	return budget
}

// hopDistances returns all-pairs distances in epoch units.
func (in *instance) hopDistances() [][]float64 {
	t := in.topo
	n := t.NumNodes()
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = math.Inf(1)
			}
		}
	}
	for l := 0; l < t.NumLinks(); l++ {
		if t.LinkDown(topo.LinkID(l)) {
			continue
		}
		lk := t.Link(topo.LinkID(l))
		w := float64(in.delta[l] + in.kappa[l])
		if w < dist[lk.Src][lk.Dst] {
			dist[lk.Src][lk.Dst] = w
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if math.IsInf(dist[i][k], 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	return dist
}

// epochsPerChunk returns the κ slice for schedule validation, or nil when
// every link fits a chunk per epoch.
func (in *instance) epochsPerChunk() []int {
	any := false
	for _, k := range in.kappa {
		if k > 1 {
			any = true
			break
		}
	}
	if !any {
		return nil
	}
	return append([]int(nil), in.kappa...)
}

// EstimateEpochs returns an upper bound on the number of epochs needed to
// satisfy the demand at epoch duration tau. It implements the spirit of
// Algorithm 1 (Appendix E) with an analytic feasibility sweep instead of
// coarse trial solves: the bound combines the epoch-distance between the
// farthest demand endpoints with per-node serialization load, then adds
// slack. The optimization discovers on its own when fewer epochs suffice
// (the objective rewards early delivery), so looseness costs only solver
// time, never schedule quality.
func EstimateEpochs(t *topo.Topology, d *collective.Demand, tau float64) int {
	if tau <= 0 {
		return 1
	}
	hop := t.FloydWarshall(func(lk topo.Link) float64 {
		del := 0
		if lk.Alpha > 0 {
			del = int(math.Ceil(lk.Alpha/tau - 1e-9))
		}
		per := lk.Capacity * tau / d.ChunkBytes
		kap := 1
		if per < 1-1e-9 {
			kap = int(math.Ceil(1/per - 1e-9))
		}
		return float64(del + kap)
	})
	maxDist := 0.0
	for s := 0; s < d.NumNodes(); s++ {
		for c := 0; c < d.NumChunks(); c++ {
			for dst := 0; dst < d.NumNodes(); dst++ {
				if d.Wants(s, c, dst) && hop[s][dst] > maxDist {
					maxDist = hop[s][dst]
				}
			}
		}
	}

	// Serialization: chunks each node must absorb against its aggregate
	// ingress per epoch, and distinct chunks each source must emit
	// against its egress.
	serial := 0.0
	for n := 0; n < d.NumNodes(); n++ {
		nodeID := topo.NodeID(n)
		var inChunks float64
		for s := 0; s < d.NumNodes(); s++ {
			for c := 0; c < d.NumChunks(); c++ {
				if d.Wants(s, c, n) {
					inChunks++
				}
			}
		}
		if inChunks > 0 {
			var ingress float64
			for _, l := range t.In(nodeID) {
				ingress += t.Link(l).Capacity * tau / d.ChunkBytes
			}
			if ingress > 0 {
				if v := inChunks / ingress; v > serial {
					serial = v
				}
			}
		}
		var distinct float64
		for c := 0; c < d.NumChunks(); c++ {
			if d.SourceHasChunk(n, c) {
				distinct++
			}
		}
		if distinct > 0 {
			var egress float64
			for _, l := range t.Out(nodeID) {
				egress += t.Link(l).Capacity * tau / d.ChunkBytes
			}
			if egress > 0 {
				if v := distinct / egress; v > serial {
					serial = v
				}
			}
		}
	}

	// Relay serialization: chunks that can only reach their destination
	// THROUGH a node (e.g. the shared IB switch between NDv2 chassis) are
	// serialized by that node's ingress/egress budget, which the per-node
	// terms above miss because the relay itself demands nothing. Without
	// this term the estimate undershoots on switch-centric topologies and
	// the solve grinds on an infeasible horizon.
	for relay := 0; relay < t.NumNodes(); relay++ {
		reach := t.ReachableWithout(topo.NodeID(relay))
		var mustCross float64
		for s := 0; s < d.NumNodes(); s++ {
			if s == relay {
				continue
			}
			for c := 0; c < d.NumChunks(); c++ {
				if !d.SourceHasChunk(s, c) {
					continue
				}
				for dst := 0; dst < d.NumNodes(); dst++ {
					if dst != relay && d.Wants(s, c, dst) && !reach[s][dst] {
						mustCross++
					}
				}
			}
		}
		if mustCross == 0 {
			continue
		}
		var ingress, egress float64
		for _, l := range t.In(topo.NodeID(relay)) {
			ingress += t.Link(l).Capacity * tau / d.ChunkBytes
		}
		for _, l := range t.Out(topo.NodeID(relay)) {
			egress += t.Link(l).Capacity * tau / d.ChunkBytes
		}
		budget := math.Min(ingress, egress)
		if budget > 0 {
			if v := mustCross / budget; v > serial {
				serial = v
			}
		}
	}

	est := int(math.Ceil(maxDist + serial + 1))
	// Slack: the bound is intentionally loose (Algorithm 1's output is an
	// upper bound too); 1.5x plus a constant covers scheduling conflicts.
	est = int(math.Ceil(float64(est)*1.5)) + 2
	if est < 2 {
		est = 2
	}
	return est
}
