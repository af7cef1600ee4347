package core

// replan.go is the online-replanning layer: Planner.Replan applies
// topology/demand churn (links or nodes lost, bandwidth change,
// straggler slowdown, topology growth, demand add/drop) to a live
// session and re-solves the incumbent request against the churned
// world.
//
// The fast path edits the incumbent's model to the churned world and
// hands it, with the incumbent's basis or sends as the start, to the
// solve tail a cold plan of that form ends in ((*lpModel).run,
// (*milpModel).run, astarLoop); adoptReplan then makes the outcome the
// next incumbent. What is edited depends on the formulation:
//
//   - LP incumbents reoptimize by dual-feasible perturbation. Churn the
//     LP can absorb reduces to bound and right-hand-side edits of the
//     already-built model: a downed link fixes its flow columns to
//     [0,0] (a column drop), capacity change rewrites the windowed
//     capacity rows' budgets, and a dropped demand pair fixes its read
//     columns to [0,0] and zeroes its destination-total row. None of
//     those edits touch the cost vector, the constraint matrix or the
//     model's dimensions, so the incumbent optimal basis is still a
//     complete, dual-feasible basis of the edited model: lp.Solve
//     reoptimizes that model as stated (no presolve — see the lp
//     package comment) and the dual simplex pays pivots in proportion
//     to the edit, typically a few dozen. New demand is absorbed
//     structurally: lpappend.go prices the new (source, destination)
//     pairs in as appended columns and rows of the incumbent model, and
//     Basis.Extended pads the basis — appended columns nonbasic,
//     appended rows slack-basic — which keeps it complete.
//
//   - MILP incumbents re-root branch-and-bound: the root relaxation
//     reoptimizes from the incumbent root basis (complete, so again
//     without presolve) under the same bound/RHS edits, and the
//     incumbent integer schedule, re-validated against the churned
//     topology, seeds the search as a feasible incumbent when it
//     survives.
//
//   - A* incumbents replay unaffected rounds through the round-state
//     recurrence without solving anything, and resume the round loop at
//     the first round whose sends touch a newly-downed or degraded
//     link.
//
// Every incremental attempt runs under a bounded-regret budget derived
// from an EWMA of observed cold-solve cost (ReplanOptions): the LP path
// gets a pivot budget, the MILP and A* paths a wall-clock deadline. An
// attempt that exhausts its budget — or churn no incumbent can absorb,
// like a scale that changes a live link's δ or κ at the incumbent epoch
// duration, or topology growth — degrades gracefully to a crash-started
// cold solve of the edited request. Sessions additionally track the
// incremental path's advantage over cold solving and proactively
// re-base (crash-started refactorization of the incumbent) when it
// decays. With incremental replans costing tens of pivots, the budget
// and the re-base trigger are safety nets the benchmark and churnstream
// scripts no longer reach (ROADMAP item 4a has the rung hit counts); the
// rung that still fires is the structural one, and when churn returns
// the session to a world it has already solved (a straggler recovered)
// that rung is a replay from the carried model index (batch.go). Replan
// never errors when the cold solve would succeed.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// DemandPair names one (source, destination) demand pair for demand
// churn: dropping the pair removes every chunk dst wants from src.
type DemandPair struct {
	Src, Dst int
}

// Delta describes one step of churn for Planner.Replan: topology edits
// (applied immutably to the session's topology snapshot) plus demand
// edits (applied to the incumbent request's demand).
type Delta struct {
	// LinksDown lists links that failed. Downed links keep their IDs
	// (schedules and later deltas stay aligned) but carry no traffic.
	LinksDown []topo.LinkID
	// NodesDown lists nodes that failed: every link touching one goes
	// down, and every demand pair involving it is dropped.
	NodesDown []topo.NodeID
	// Scale lists per-link capacity/α multipliers — bandwidth
	// degradation, capacity restoration, and straggler slowdown. See
	// topo.LinkScale.
	Scale []topo.LinkScale
	// AddNodes appends new nodes and AddLinks new links (structural
	// growth — a scale-up joining the job). Grown topologies replan by
	// cold solve; the incumbent demand follows the session onto the
	// grown node space with the new nodes demandless.
	AddNodes []topo.Node
	AddLinks []topo.Link
	// DropPairs lists demand pairs to remove from the incumbent demand.
	DropPairs []DemandPair
	// AddDemand, when non-nil, is OR-ed into the incumbent demand (same
	// shape as the post-growth demand required). An LP incumbent absorbs
	// it incrementally by appending priced-out columns to the incumbent
	// model; the other forms solve cold.
	AddDemand *collective.Demand
}

// TopoDelta is the topology part of the churn: what Replan applies to
// the session's topology snapshot.
func (d Delta) TopoDelta() topo.Delta {
	return topo.Delta{
		LinksDown: d.LinksDown, NodesDown: d.NodesDown, Scale: d.Scale,
		AddNodes: d.AddNodes, AddLinks: d.AddLinks,
	}
}

// ReplanOptions tunes the bounded-regret budget and the adaptive
// re-basing of Planner.Replan. The zero value means defaults; set a
// field negative to disable that mechanism.
type ReplanOptions struct {
	// RegretFraction bounds every incremental replan attempt to this
	// fraction of the session's cold-solve cost estimate (an EWMA of
	// observed cold pivots and wall time): the LP path gets a pivot
	// budget, the MILP and A* paths a wall-clock deadline. An attempt
	// that exhausts its budget aborts to the crash-started cold
	// fallback, so a sour incremental replan can never cost much more
	// than the cold solve it degrades to. Default 0.2; negative
	// disables the budget.
	RegretFraction float64
	// PivotFloor is the minimum LP pivot budget, so small cold-pivot
	// estimates do not starve legitimate incremental replans (on small
	// models a disruptive delta legitimately reoptimizes in a sizable
	// fraction of the cold pivot count; the regret fraction only
	// governs at scale, where it is the binding bound). Default 2048;
	// negative means no floor.
	PivotFloor int
	// RebaseThreshold arms proactive re-basing: when the EWMA of
	// incremental pivots per replan exceeds this fraction of the
	// effective pivot budget (max(PivotFloor, RegretFraction·cold)) —
	// the warm basis has drifted so far from the churned world that
	// reoptimization trends toward the budget-abort region — the next
	// Replan skips the incremental attempt and runs a crash-started
	// cold solve to refresh the incumbent basis (Plan.ReBased,
	// PlannerStats.ReBases). Keep it below 1 so re-basing fires before
	// the budget abort would. Default 0.75; negative disables
	// re-basing.
	RebaseThreshold float64
}

func (o ReplanOptions) regretFraction() float64 {
	if o.RegretFraction < 0 {
		return 0
	}
	if o.RegretFraction == 0 {
		return 0.2
	}
	return o.RegretFraction
}

func (o ReplanOptions) pivotFloor() int {
	if o.PivotFloor < 0 {
		return 0
	}
	if o.PivotFloor == 0 {
		return 2048
	}
	return o.PivotFloor
}

func (o ReplanOptions) rebaseThreshold() float64 {
	if o.RebaseThreshold < 0 {
		return 0
	}
	if o.RebaseThreshold == 0 {
		return 0.75
	}
	return o.RebaseThreshold
}

// fallbackKind classifies why an incremental replan attempt degraded to
// the cold fallback, for PlannerStats' per-kind counters.
type fallbackKind int

const (
	fbNone fallbackKind = iota
	// fbStructural: churn the incumbent model cannot express — δ/κ
	// change, topology growth, demand churn on a MILP/A* incumbent, or
	// new demand the append path cannot price in.
	fbStructural
	// fbBudget: the bounded-regret pivot/deadline budget expired.
	fbBudget
	// fbSour: the incremental solve came back non-optimal, numerically
	// sour, or produced a schedule that failed re-validation.
	fbSour
	// fbNoModel: the incumbent carries no incremental payload and none
	// can be restated (empty solves, horizon plans, replays of a cache
	// entry that kept no basis). A replayed LP incumbent restates its
	// model from its own request instead (incumbentState.restated).
	fbNoModel
)

// replanDebug mirrors the lp package's LP_DEBUG switch for the replan
// layer: incremental aborts print their reason to stderr.
var replanDebug = os.Getenv("LP_DEBUG") != ""

func replanAbortf(format string, args ...any) {
	if replanDebug {
		fmt.Fprintf(os.Stderr, "replan: "+format+"\n", args...)
	}
}

// regretEWMAAlpha is the smoothing factor of the session cost EWMAs: new
// observations count half, so estimates track drift within a few solves.
const regretEWMAAlpha = 0.5

// observeCold folds a genuinely cold solve's observed cost into the
// session's cold-cost estimate. Replays and warm-started solves are
// skipped: the budget must be calibrated against what the crash-started
// fallback would actually cost.
func (pl *Planner) observeCold(res *Result) {
	if res == nil || res.Reused || res.WarmStarted {
		return
	}
	pivots := float64(res.RootIterations + res.NodeIterations)
	wall := res.SolveTime.Seconds()
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.coldPivotEWMA == 0 {
		pl.coldPivotEWMA = pivots
	} else {
		pl.coldPivotEWMA += regretEWMAAlpha * (pivots - pl.coldPivotEWMA)
	}
	if pl.coldWallEWMA == 0 {
		pl.coldWallEWMA = wall
	} else {
		pl.coldWallEWMA += regretEWMAAlpha * (wall - pl.coldWallEWMA)
	}
}

// noteIncremental folds a successful incremental replan's pivot count
// into the advantage EWMA and arms the re-base trigger when the
// incremental advantage over cold solving has decayed — smoothed cost
// trending into the budget-abort region means the warm basis has
// drifted too far from the churned world to stay worth reoptimizing.
func (pl *Planner) noteIncremental(pivots int) {
	thr := pl.opt.Replan.rebaseThreshold()
	budget := pl.pivotBudget()
	v := float64(pivots)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.incReplans == 0 {
		pl.incPivotEWMA = v
	} else {
		pl.incPivotEWMA += regretEWMAAlpha * (v - pl.incPivotEWMA)
	}
	pl.incReplans++
	if thr > 0 && budget > 0 && pl.incPivotEWMA > thr*float64(budget) {
		pl.rebasePending = true
	}
}

// coldEstimate snapshots the session's cold-cost EWMAs (pivots,
// seconds) under the lock, for budget derivation and debug output.
func (pl *Planner) coldEstimate() (float64, float64) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.coldPivotEWMA, pl.coldWallEWMA
}

// pivotBudget derives the LP incremental attempt's iteration budget
// from the cold-pivot estimate; 0 means unbudgeted (no estimate yet, or
// budgeting disabled).
func (pl *Planner) pivotBudget() int {
	frac := pl.opt.Replan.regretFraction()
	if frac == 0 {
		return 0
	}
	cold, _ := pl.coldEstimate()
	if cold <= 0 {
		return 0
	}
	b := int(frac*cold + 0.5)
	if f := pl.opt.Replan.pivotFloor(); b < f {
		b = f
	}
	if b < 1 {
		b = 1
	}
	return b
}

// minWallBudget keeps the MILP/A* incremental deadline from rounding to
// nothing when the cold estimate is tiny.
const minWallBudget = 100 * time.Millisecond

// wallBudget derives the MILP/A* incremental attempt's deadline from
// the cold wall-time estimate; 0 means unbudgeted.
func (pl *Planner) wallBudget() time.Duration {
	frac := pl.opt.Replan.regretFraction()
	if frac == 0 {
		return 0
	}
	_, wall := pl.coldEstimate()
	if wall <= 0 {
		return 0
	}
	d := time.Duration(frac * wall * float64(time.Second))
	if d < minWallBudget {
		d = minWallBudget
	}
	return d
}

// churnedInstance is the structural gate every incremental form shares,
// and the edited instance it opens onto: each live link of newTopo must
// keep the δ/κ it has in the incumbent instance at the incumbent τ, or
// the time discretization of the model no longer matches the world (nil
// is returned and the caller falls back structurally). The edited
// instance is the incumbent's on the churned topology with the
// recomputed per-epoch chunk budgets.
func churnedInstance(in *instance, newTopo *topo.Topology) *instance {
	abort := func() *instance {
		replanAbortf("structural fallback: a live link changed δ/κ at the incumbent τ")
		return nil
	}
	nL := newTopo.NumLinks()
	if nL != in.topo.NumLinks() || nL != len(in.kappa) {
		return abort()
	}
	in2 := *in
	in2.topo = newTopo
	in2.capChunks = make([]float64, nL)
	in2.opt.estimates = nil
	for l := 0; l < nL; l++ {
		if newTopo.LinkDown(topo.LinkID(l)) {
			continue
		}
		lk := newTopo.Link(topo.LinkID(l))
		del := 0
		if lk.Alpha > 0 {
			del = int(math.Ceil(lk.Alpha/in.tau - 1e-9))
		}
		per := lk.Capacity * in.tau / in.demand.ChunkBytes
		kap := 1
		if per < 1-1e-9 {
			kap = int(math.Ceil(1/per - 1e-9))
		}
		if del != in.delta[l] || kap != in.kappa[l] {
			return abort()
		}
		in2.capChunks[l] = per
	}
	return &in2
}

// applyLinkChurn perturbs q, a clone of an incumbent LP or MILP model
// whose flow columns and capacity rows fvar and capRow index, to the
// churned instance in2. Bound and RHS edits only, so the incumbent basis
// stays dual feasible: a newly-downed link's flow columns are dropped,
// and every live link's windowed capacity budgets are rewritten with the
// churned capacities (cheap, and uniform across scaled/unscaled).
func applyLinkChurn(q *lp.Problem, fvar [][][]int32, capRow [][]int32, in2 *instance, oldTopo *topo.Topology) {
	for l := 0; l < in2.topo.NumLinks(); l++ {
		lid := topo.LinkID(l)
		if !in2.topo.LinkDown(lid) {
			for k, r := range capRow[l] {
				if r != noVar {
					q.SetRHS(int(r), in2.capBudget(l, k))
				}
			}
		} else if !oldTopo.LinkDown(lid) {
			for ci := range fvar {
				for _, v := range fvar[ci][l] {
					if v != noVar {
						q.SetBounds(lp.VarID(v), 0, 0)
					}
				}
			}
		}
	}
}

// Replan applies churn to the session and re-solves the incumbent
// request (the session's last successful Plan) against the churned
// topology and demand. The session's topology snapshot is replaced and
// every cache derived from the topology — tau derivations, epoch
// estimates, the replay cache's request index, warm bases, the
// key-matched chains — starts empty, atomically, so requests planned
// after Replan returns can never replay pre-churn state. The replay
// cache's model index is carried over: its entries answer models, not
// worlds, so a churned world whose model is EqualTo one solved earlier
// in the session (a straggler recovered, a capacity cut undone) replays
// that answer once its schedule re-validates on the churned topology.
// Concurrent Plan calls are safe: each captures a consistent snapshot
// and in-flight solves against the old topology cannot contaminate the
// new caches.
//
// When the churn is non-structural, the re-solve is incremental per the
// incumbent's formulation (see the file comment) under the
// bounded-regret budget of PlannerOptions.Replan; otherwise, or when
// the incremental path sours or exhausts its budget, Replan degrades to
// a cold solve of the edited request — Plan.ReplanFallback reports
// which happened, and PlannerStats aggregates the session's churn
// history per fallback kind. A session whose incremental advantage has
// decayed re-bases instead: a deliberate crash-started cold solve that
// refreshes the incumbent basis (Plan.ReBased; counted in ReBases, not
// in ReplanFallbacks). An infeasible edited request (e.g. a demand
// whose destination was disconnected without dropping the pair) returns
// the cold solve's error.
//
// Replan requires a prior successful Plan; an invalid delta (unknown
// IDs, negative scales, malformed growth, mismatched AddDemand shape)
// errors without changing any session state.
func (pl *Planner) Replan(ctx context.Context, d Delta) (*Plan, error) {
	pl.replanMu.Lock()
	defer pl.replanMu.Unlock()

	pl.mu.Lock()
	closed := pl.closed
	st := pl.state
	inc := pl.incumbent
	pl.mu.Unlock()
	if closed {
		return nil, ErrPlannerClosed
	}
	if inc == nil {
		return nil, errors.New("core: Replan requires a prior successful Plan")
	}

	newTopo, err := st.t.ApplyDelta(d.TopoDelta())
	if err != nil {
		return nil, err
	}
	grew := len(d.AddNodes) > 0 || len(d.AddLinks) > 0
	newDemand := inc.demand.Clone()
	if newTopo.NumNodes() > newDemand.NumNodes() {
		// Structural growth: the incumbent demand follows the session
		// onto the grown node space; the new nodes start demandless.
		newDemand = newDemand.WithNodes(newTopo.NumNodes())
	}
	for _, pr := range d.DropPairs {
		if pr.Src < 0 || pr.Src >= newDemand.NumNodes() || pr.Dst < 0 || pr.Dst >= newDemand.NumNodes() {
			return nil, fmt.Errorf("core: Replan drops unknown demand pair (%d,%d)", pr.Src, pr.Dst)
		}
		newDemand.DropPair(pr.Src, pr.Dst)
	}
	for _, n := range d.NodesDown {
		newDemand.DropNode(int(n))
	}
	if d.AddDemand != nil {
		if d.AddDemand.NumNodes() != newDemand.NumNodes() ||
			d.AddDemand.NumChunks() != newDemand.NumChunks() ||
			d.AddDemand.ChunkBytes != newDemand.ChunkBytes {
			return nil, errors.New("core: Replan AddDemand shape mismatch with incumbent demand")
		}
		newDemand.Or(d.AddDemand)
	}

	// Swap the session onto the churned topology with fresh caches but
	// the carried model index; from here on, every concurrent and future
	// Plan sees post-churn state only. The key-matched basis chains are
	// flushed too — the fallback below must be a genuinely cold
	// (crash-started) solve, unless its model is one the session solved
	// before.
	newState := newSessionState(newTopo)
	pl.mu.Lock()
	if pl.closed {
		// A concurrent Close raced past the entry check; leave the closed
		// (empty) state in place rather than resurrecting the session.
		pl.mu.Unlock()
		return nil, ErrPlannerClosed
	}
	pl.foldStateHitsLocked(pl.state)
	newState.lpCache = pl.state.lpCache.carry()
	pl.state = newState
	pl.lastLP = sessionBasis{}
	pl.lastMILP = sessionBasis{}
	pl.stats.Replans++
	// Adaptive re-basing: when the incremental advantage has decayed
	// (see noteIncremental), skip the incremental attempt on purpose and
	// let the cold solve below refresh the incumbent basis.
	rebase := pl.rebasePending
	if rebase {
		pl.rebasePending = false
		pl.stats.ReBases++
		pl.incPivotEWMA = 0
		pl.incReplans = 0
	}
	pl.mu.Unlock()

	kind := fbNoModel
	if !rebase {
		demandChurn := d.AddDemand != nil || len(d.DropPairs) > 0 || len(d.NodesDown) > 0
		var res *Result
		var next incumbentState
		switch {
		case grew:
			// Growth changes the node space (and usually reachability);
			// every formulation rebuilds cold.
			kind = fbStructural
			replanAbortf("structural fallback: topology growth (+%d nodes, +%d links)",
				len(d.AddNodes), len(d.AddLinks))
		case inc.model != nil && inc.basis != nil:
			res, next, kind = pl.replanIncrementalLP(ctx, inc, st.t, newTopo, d)
		case inc.entry != nil:
			// A replayed LP incumbent: restate its model and reoptimize it
			// from the replayed entry's basis.
			if r := inc.restated(st.t); r != nil {
				res, next, kind = pl.replanIncrementalLP(ctx, r, st.t, newTopo, d)
			}
		case inc.mmodel != nil && inc.basis != nil:
			if demandChurn {
				kind = fbStructural
				replanAbortf("structural fallback: demand churn on a MILP incumbent")
			} else {
				res, next, kind = pl.replanIncrementalMILP(ctx, inc, st.t, newTopo)
			}
		case inc.ain != nil && inc.aKr > 0:
			if demandChurn {
				kind = fbStructural
				replanAbortf("structural fallback: demand churn on an A* incumbent")
			} else {
				res, next, kind = pl.replanIncrementalAStar(ctx, inc, st.t, newTopo)
			}
		}
		if res != nil {
			return pl.adoptReplan(newState, inc, newDemand, res, next), nil
		}
		if ierr := interrupted(ctx); ierr != nil {
			return nil, fmt.Errorf("core: replan interrupted: %w", ierr)
		}
	}

	// Graceful degradation: cold re-solve of the edited request. The
	// fresh session state guarantees no warm start survives from before
	// the churn, so this is exactly the solve a brand-new session would
	// run — or, when the churned model is EqualTo one the session solved
	// earlier, that solve's schedule replayed after Schedule.Validate on
	// the churned topology: an optimum of the same model, no simplex run.
	pl.mu.Lock()
	if !rebase {
		pl.stats.ReplanFallbacks++
		switch kind {
		case fbStructural:
			pl.stats.ReplanFallbackStructural++
		case fbBudget:
			pl.stats.ReplanFallbackBudget++
		case fbSour:
			pl.stats.ReplanFallbackSour++
		default:
			pl.stats.ReplanFallbackNoModel++
		}
	}
	pl.mu.Unlock()
	fopt := inc.opt
	plan, err := pl.Plan(ctx, Request{Demand: newDemand, Options: &fopt, Solver: inc.solver})
	if plan != nil {
		plan.Replanned = true
		if rebase {
			plan.ReBased = true
		} else {
			plan.ReplanFallback = true
		}
	}
	return plan, err
}

// adoptReplan is the epilogue of every incremental replan: the replanned
// payload becomes the incumbent for the next delta under the incumbent's
// own request (unless a later Replan already replaced the state), its
// basis seeds the fresh session caches, and its pivots feed the replan
// accounting and the re-base trigger.
func (pl *Planner) adoptReplan(newState *sessionState, old *incumbentState, newDemand *collective.Demand, res *Result, next incumbentState) *Plan {
	next.demand, next.opt, next.solver = newDemand.Clone(), old.opt, old.solver
	solver, last := SolverAStar, (*sessionBasis)(nil) // an A* payload has no basis to keep
	switch {
	case next.model != nil:
		solver, last = SolverLP, &pl.lastLP
	case next.mmodel != nil:
		solver, last = SolverMILP, &pl.lastMILP
	}
	pivots := res.RootIterations + res.NodeIterations
	res.WarmStarted = true // resumed from the incumbent, whatever the form
	pl.mu.Lock()
	pl.stats.ReplanPivots += pivots
	if pl.state == newState {
		pl.incumbent = &next
	}
	pl.mu.Unlock()
	pl.noteIncremental(pivots)
	pl.keepBasis(newState, last, &next)
	return &Plan{Result: res, Solver: solver, WarmStart: true, Replanned: true}
}

// wallBudgeted layers what bounds a MILP or A* incremental attempt onto
// ctx: the incumbent request's TimeLimit and the bounded-regret wall
// deadline, whichever is sooner (both expire as a budget, not as a
// cancellation).
func (pl *Planner) wallBudgeted(ctx context.Context, inc *incumbentState) (context.Context, context.CancelFunc) {
	limit := inc.opt.TimeLimit
	if wb := pl.wallBudget(); wb > 0 && (limit <= 0 || wb < limit) {
		limit = wb
	}
	return withTimeLimit(ctx, limit)
}

// wallFallback classifies a failed MILP or A* incremental attempt: a
// caller cancellation is sour (Replan surfaces it), an expired deadline
// a budget abort, anything else — a sour search, a schedule that failed
// extraction or re-validation — sour.
func (pl *Planner) wallFallback(ctx context.Context, what string, err error) fallbackKind {
	if interrupted(ctx) == nil && budgetExpired(ctx) {
		_, coldWall := pl.coldEstimate()
		replanAbortf("bounded-regret abort: %s exceeded its wall budget (%v, cold estimate %.3fs); falling back to a cold solve",
			what, pl.wallBudget(), coldWall)
		return fbBudget
	}
	replanAbortf("sour fallback: %v", err)
	return fbSour
}

// replanIncrementalLP edits a clone of the incumbent LP to the churned
// world — bound and right-hand-side edits for link churn and demand
// drops, column and row appends for new demand — and reoptimizes it from
// the (padded) incumbent basis under the bounded-regret pivot budget. It
// returns the fallback kind when the churn is structural at the
// incumbent discretization, the pivot budget expires, the dual simplex
// does not reach a verified optimum, or the reoptimized rates fail to
// decompose into a schedule that re-validates on the churned topology —
// the caller then falls back to a cold solve.
func (pl *Planner) replanIncrementalLP(ctx context.Context, inc *incumbentState, oldTopo, newTopo *topo.Topology, d Delta) (*Result, incumbentState, fallbackKind) {
	m := inc.model
	in := m.in
	start := time.Now()

	// The edited instance the schedule decomposition (and its built-in
	// re-validation) runs against: the churned topology and demand, the
	// recomputed per-epoch budgets, the incumbent discretization.
	in2 := churnedInstance(in, newTopo)
	if in2 == nil {
		return nil, incumbentState{}, fbStructural
	}
	q := m.p.Clone()
	applyLinkChurn(q, m.fvar, m.capRow, in2, oldTopo)
	// Demand drops: fix the pair's read columns at zero and zero its
	// destination-total row. The supply rows are left alone — the
	// source's inventory chain absorbs the now-undelivered chunks.
	expanded := in.demand.Clone()
	dem := make([][]float64, len(m.dem))
	for si := range m.dem {
		dem[si] = append([]float64(nil), m.dem[si]...)
	}
	srcIdx := make(map[int]int, len(m.sources))
	for si, s := range m.sources {
		srcIdx[s] = si
	}
	drop := func(src, dst int) {
		if src < 0 || src >= expanded.NumNodes() || dst < 0 || dst >= expanded.NumNodes() {
			return
		}
		expanded.DropPair(src, dst)
		si, ok := srcIdx[src]
		if !ok || dem[si][dst] == 0 {
			return
		}
		dem[si][dst] = 0
		for _, v := range m.rvar[si][dst] {
			if v != noVar {
				q.SetBounds(lp.VarID(v), 0, 0)
			}
		}
		if r := m.destRow[si][dst]; r != noVar {
			q.SetRHS(int(r), 0)
		}
	}
	for _, pr := range d.DropPairs {
		drop(pr.Src, pr.Dst)
	}
	for _, n := range d.NodesDown {
		for other := 0; other < expanded.NumNodes(); other++ {
			drop(int(n), other)
			drop(other, int(n))
		}
	}

	in2.demand = expanded
	m2 := *m
	m2.p = q
	m2.in = in2
	m2.dem = dem

	// New demand: price the appended pairs into the incumbent model as
	// appended columns and rows (lpappend.go). The incumbent basis is
	// padded across the append — new columns nonbasic, new rows
	// slack-basic — so the warm start stays structurally valid.
	var basis *lp.Basis
	if d.AddDemand != nil {
		if err := m2.appendDemand(d.AddDemand); err != nil {
			replanAbortf("structural fallback: demand append: %v", err)
			return nil, incumbentState{}, fbStructural
		}
		if basis = inc.basis.Extended(q.NumVars(), q.NumRows()); basis == nil {
			return nil, incumbentState{}, fbStructural
		}
	} else {
		basis = inc.basis.Clone()
	}

	// Reoptimization from the incumbent basis (a warm start, so the dual
	// simplex) under the bounded-regret pivot budget.
	budget := pl.pivotBudget()
	ctx, cancel := withTimeLimit(ctx, inc.opt.TimeLimit)
	defer cancel()
	res, sol, err := m2.run(ctx, lp.Options{WarmStart: basis, MaxIter: budget}, start)
	if err != nil {
		if sol != nil && sol.Status == lp.StatusIterLimit && interrupted(ctx) == nil {
			coldPivots, _ := pl.coldEstimate()
			replanAbortf("bounded-regret abort: %d pivots exhausted the incremental budget (%d; cold estimate %d); falling back to a cold solve",
				sol.Iterations, budget, int(coldPivots+0.5))
			return nil, incumbentState{}, fbBudget
		}
		replanAbortf("sour fallback: %v", err)
		return nil, incumbentState{}, fbSour // a cancellation is surfaced by the caller
	}
	return res, incumbentState{model: &m2, basis: sol.Basis}, fbNone
}

// replanIncrementalMILP re-roots the incumbent branch-and-bound on the
// churned world: the LP path's link-churn edits applied to a clone of
// the incumbent MILP, re-rooted from the incumbent root basis, with the
// incumbent integer schedule — re-validated against the churned topology
// — seeding the search when it survives. Runs under the bounded-regret
// wall deadline.
func (pl *Planner) replanIncrementalMILP(ctx context.Context, inc *incumbentState, oldTopo, newTopo *topo.Topology) (*Result, incumbentState, fallbackKind) {
	m := inc.mmodel
	start := time.Now()

	in2 := churnedInstance(m.in, newTopo)
	if in2 == nil {
		return nil, incumbentState{}, fbStructural
	}
	m2 := *m
	m2.p = m.p.Clone()
	m2.in = in2
	applyLinkChurn(m2.p, m.fvar, m.capRow, in2, oldTopo)

	// Re-validate the integer incumbent against the churned world: a
	// surviving incumbent both bounds the re-rooted search from below
	// and guarantees a feasible answer under the wall budget.
	mopt := milp.Options{RootWarmStart: inc.basis.Clone()}
	if len(inc.sends) > 0 {
		s := &schedule.Schedule{
			Topo: newTopo, Demand: in2.demand, Tau: in2.tau, NumEpochs: in2.K,
			Sends: inc.sends, AllowCopy: true, EpochsPerChunk: in2.epochsPerChunk(),
		}
		if s.Validate() == nil {
			mopt.IncumbentX = m2.pointFromSends(inc.sends)
		}
	}

	ctx, cancel := pl.wallBudgeted(ctx, inc)
	defer cancel()
	res, msol, err := m2.run(ctx, mopt, start)
	if err != nil {
		return nil, incumbentState{}, pl.wallFallback(ctx, "MILP re-root", err)
	}
	return res, incumbentState{mmodel: &m2, basis: msol.RootBasis, sends: res.Schedule.Sends}, fbNone
}

// replanIncrementalAStar replays the incumbent round schedule through
// the A* state recurrence on the churned instance up to the first round
// whose sends touch a newly-downed or capacity-degraded link, then
// re-enters the round loop there. Pure capacity increases replay the
// whole schedule without solving anything. Runs under the
// bounded-regret wall deadline.
func (pl *Planner) replanIncrementalAStar(ctx context.Context, inc *incumbentState, oldTopo, newTopo *topo.Topology) (*Result, incumbentState, fallbackKind) {
	start := time.Now()
	in2 := churnedInstance(inc.ain, newTopo)
	if in2 == nil {
		return nil, incumbentState{}, fbStructural
	}
	Kr := inc.aKr

	// Affected horizon: the first round whose sends ride a newly-downed
	// or capacity-degraded link must be re-solved; every round before it
	// replays verbatim (its sends remain feasible — budgets only grew).
	changed := make([]bool, newTopo.NumLinks())
	anyChanged := false
	for l := range changed {
		lid := topo.LinkID(l)
		if newTopo.LinkDown(lid) {
			if !oldTopo.LinkDown(lid) {
				changed[l] = true
				anyChanged = true
			}
			continue
		}
		if oldTopo.LinkDown(lid) {
			continue
		}
		if newTopo.Link(lid).Capacity < oldTopo.Link(lid).Capacity*(1-1e-12) {
			changed[l] = true
			anyChanged = true
		}
	}
	r0 := inc.aRounds // no affected round: replay everything
	if anyChanged {
		for _, snd := range inc.sends {
			if changed[snd.Link] {
				if r := snd.Epoch / Kr; r < r0 {
					r0 = r
				}
			}
		}
	}

	// Replay rounds [0, r0) through the state recurrence; sends of later
	// rounds are discarded and re-solved by the loop.
	st := newAStarState(in2)
	byRound := make([][]schedule.Send, r0)
	for _, snd := range inc.sends {
		if r := snd.Epoch / Kr; r < r0 {
			byRound[r] = append(byRound[r], snd)
		}
	}
	var sends []schedule.Send
	for r := 0; r < r0; r++ {
		advanceState(in2, st, byRound[r], r*Kr, Kr)
		sends = append(sends, byRound[r]...)
	}

	ctx, cancel := pl.wallBudgeted(ctx, inc)
	defer cancel()
	res, next, err := astarLoop(ctx, in2, st, Kr, r0, sends, inc.aGap, start)
	if err != nil {
		return nil, incumbentState{}, pl.wallFallback(ctx, "A* resume", err)
	}
	return res, next, fbNone
}
