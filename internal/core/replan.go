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
// The ladder has three rungs: incremental, resume, cold. An incremental
// attempt runs under the incumbent request's own TimeLimit, and an LP
// one also under a pivot budget derived from the session's cold-pivot
// EWMA (ReplanOptions): a deep edit — a GPU lost on a churned DGX1 —
// can take the dual simplex five times the pivots and seven times the
// wall time of aborting at the budget and solving cold. The budget
// counts pivots, not time, so which rung serves a delta depends
// on the inputs alone, never on the host's speed. Four things take a
// delta off the incremental rung: churn the incumbent cannot absorb
// (structural: a scale that changes a live link's δ or κ at the
// incumbent epoch duration, topology growth, demand churn on a MILP or
// A* incumbent), an exhausted pivot budget (budget), an attempt that
// comes back without a validated optimum (sour: infeasible at the
// incumbent horizon, out of its TimeLimit or of the kernel's iteration
// cap, or a schedule that fails re-validation), and an incumbent with
// nothing to edit (no model).
//
// The resume rung serves churn that undoes churn (a restore, a recover):
// the LP incumbent the last fallback displaced is kept as its recipe —
// the cold request and world it was rooted at, the deltas its replans
// absorbed, its final basis — not as its model. When the churned world
// keeps every live link's δ/κ at that incumbent's discretization and the
// session's request is its own, Replan restates its model (prepLP on the
// root world, then the same edits, churnLP) and reoptimizes it on the
// churned world through the incremental tail; the two incumbents swap.
// Otherwise the cold rung runs: a crash-started solve of the edited
// request in the churned session state, whose caches start empty, so it
// never replays. Replan never errors when the cold solve would succeed. A seeded stream of
// mixed churn pins the rung every delta lands on
// (TestReplanStreamRungs).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
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

// clone returns d with private copies of its slices and demand, so a
// recipe step does not alias the caller's delta.
func (d Delta) clone() Delta {
	d.LinksDown = slices.Clone(d.LinksDown)
	d.NodesDown = slices.Clone(d.NodesDown)
	d.Scale = slices.Clone(d.Scale)
	d.AddNodes = slices.Clone(d.AddNodes)
	d.AddLinks = slices.Clone(d.AddLinks)
	d.DropPairs = slices.Clone(d.DropPairs)
	if d.AddDemand != nil {
		d.AddDemand = d.AddDemand.Clone()
	}
	return d
}

// TopoDelta is the topology part of the churn: what Replan applies to
// the session's topology snapshot.
func (d Delta) TopoDelta() topo.Delta {
	return topo.Delta{
		LinksDown: d.LinksDown, NodesDown: d.NodesDown, Scale: d.Scale,
		AddNodes: d.AddNodes, AddLinks: d.AddLinks,
	}
}

// ReplanOptions tunes the pivot budget of Planner.Replan's incremental
// LP attempts. The zero value means defaults; set a field negative to
// disable that part.
type ReplanOptions struct {
	// RegretFraction bounds every incremental LP replan attempt to this
	// fraction of the session's cold-solve pivot estimate (an EWMA of
	// observed cold pivots). An attempt that exhausts its budget aborts
	// to the crash-started cold fallback: a deep edit (a GPU lost on
	// DGX1) can take the dual simplex five times the pivots of a cold,
	// presolved solve. Default 0.2; negative disables the budget.
	RegretFraction float64
	// PivotFloor is the minimum pivot budget, so small cold-pivot
	// estimates do not starve legitimate incremental replans. Default
	// 2048; negative means no floor.
	PivotFloor int
	// Deprecated: ignored. Adaptive re-basing is gone: the one re-base a
	// 10 000-delta seeded churn stream reached ran the same cold solve as
	// the structural fallback it stood in for.
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

// fallbackKind classifies why an incremental replan attempt degraded to
// the cold fallback, for PlannerStats' per-kind counters.
type fallbackKind int

const (
	fbNone fallbackKind = iota
	// fbStructural: churn the incumbent model cannot express — δ/κ
	// change, topology growth, demand churn on a MILP/A* incumbent, or
	// new demand the append path cannot price in.
	fbStructural
	// fbBudget: the incremental LP attempt exhausted its pivot budget.
	fbBudget
	// fbSour: the incremental solve came back non-optimal — infeasible at
	// the incumbent horizon, out of the request's TimeLimit or of the
	// kernel's iteration cap, numerically sour — or produced a schedule
	// that failed re-validation.
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

// regretEWMAAlpha is the smoothing factor of the session's cold-pivot
// EWMA: new observations count half, so the estimate tracks drift within
// a few solves.
const regretEWMAAlpha = 0.5

// observeCold folds a cold solve's pivots into the session's cold-pivot
// estimate: every LP-form plan the replay cache does not answer, since a
// related request crash-starts exactly as a fallback does, and a MILP
// plan whose root started cold. Replays and warm-started solves are
// skipped: the budget must be calibrated against what the crash-started
// fallback would actually cost.
func (pl *Planner) observeCold(res *Result) {
	if res == nil || res.Reused || res.WarmStarted {
		return
	}
	pivots := float64(res.RootIterations + res.NodeIterations)
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.coldPivotEWMA == 0 {
		pl.coldPivotEWMA = pivots
	} else {
		pl.coldPivotEWMA += regretEWMAAlpha * (pivots - pl.coldPivotEWMA)
	}
}

// pivotBudget derives the LP incremental attempt's iteration budget
// from the cold-pivot estimate; 0 means unbudgeted (no estimate yet, or
// budgeting disabled). It reads pivots, not a clock, so identical inputs
// land on identical rungs.
func (pl *Planner) pivotBudget() int {
	frac := pl.opt.Replan.regretFraction()
	pl.mu.Lock()
	cold := pl.coldPivotEWMA
	pl.mu.Unlock()
	if frac == 0 || cold <= 0 {
		return 0
	}
	b := int(frac*cold + 0.5)
	if f := pl.opt.Replan.pivotFloor(); b < f {
		b = f
	}
	return max(b, 1)
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
// topology and demand. The session state — the topology snapshot and
// every cache derived from it: tau derivations, epoch estimates, the
// replay cache, warm bases, the MILP key-matched chain — is replaced by an
// empty one on the churned topology, atomically, so requests planned
// after Replan returns can never replay pre-churn state. What crosses the
// swap is the incumbent and the displaced recipe. Concurrent Plan calls
// are safe: each captures a consistent snapshot and in-flight solves
// against the old topology cannot contaminate the new caches.
//
// The re-solve climbs the ladder of the file comment: incremental per
// the incumbent's formulation when the churn is non-structural, under the
// incumbent request's TimeLimit and, for an LP, the pivot budget of
// PlannerOptions.Replan; then, when that is structural, sours or exhausts
// its budget, a resume of the LP incumbent an earlier fallback displaced,
// if the churn has returned the session to a world it can be edited
// onto; then a cold solve of the edited request. Plan.ReplanFallback
// reports a cold solve, and PlannerStats counts resumes and aggregates
// the session's churn history per fallback kind. A caller cancellation
// during the incremental or resume attempt is returned, not degraded. An
// infeasible edited request (e.g. a demand whose destination was
// disconnected without dropping the pair) returns the cold solve's
// error.
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
	inc, dis := pl.incumbent, pl.displaced
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

	// Swap the session onto the churned topology with fresh caches; from
	// here on, every concurrent and future Plan sees post-churn state
	// only, and the fallback below is a genuinely cold (crash-started)
	// solve.
	newState := newSessionState(newTopo)
	pl.mu.Lock()
	if pl.closed {
		// A concurrent Close raced past the entry check; leave the closed
		// (empty) state in place rather than resurrecting the session.
		pl.mu.Unlock()
		return nil, ErrPlannerClosed
	}
	pl.foldStateHitsLocked(pl.state)
	pl.state = newState
	pl.stats.Replans++
	pl.mu.Unlock()

	kind := fbNoModel
	demandChurn := d.AddDemand != nil || len(d.DropPairs) > 0 || len(d.NodesDown) > 0
	var res *Result
	var next incumbentState
	cur := inc // the incumbent, with its model restated when it kept none
	switch {
	case grew:
		// Growth changes the node space (and usually reachability);
		// every formulation rebuilds cold.
		kind = fbStructural
		replanAbortf("structural fallback: topology growth (+%d nodes, +%d links)",
			len(d.AddNodes), len(d.AddLinks))
	case inc.model != nil && inc.basis != nil:
		res, next, kind = replanIncrementalLP(ctx, inc, false, st.t, newTopo, d, pl.pivotBudget())
	case inc.recipe != nil:
		// An LP incumbent kept as its recipe (a replay or a resume):
		// restate its model and reoptimize it from its basis.
		if r := inc.restated(); r != nil {
			cur = r
			res, next, kind = replanIncrementalLP(ctx, r, true, st.t, newTopo, d, pl.pivotBudget())
		}
	case inc.mmodel != nil && inc.basis != nil:
		if demandChurn {
			kind = fbStructural
			replanAbortf("structural fallback: demand churn on a MILP incumbent")
		} else {
			res, next, kind = replanIncrementalMILP(ctx, inc, st.t, newTopo)
		}
	case inc.ain != nil && inc.aKr > 0:
		if demandChurn {
			kind = fbStructural
			replanAbortf("structural fallback: demand churn on an A* incumbent")
		} else {
			res, next, kind = replanIncrementalAStar(ctx, inc, st.t, newTopo)
		}
	}
	if res != nil {
		if cur.recipe != nil {
			next.recipe = cur.recipe.then(recipeStep{d: d.clone()})
		}
		return pl.adoptReplan(newState, inc, newDemand, res, next, false, nil), nil
	}
	if ierr := interrupted(ctx); ierr != nil {
		return nil, fmt.Errorf("core: replan interrupted: %w", ierr)
	}

	// Resume: the incumbent an earlier fallback displaced, when churn
	// has returned the session to a world it can be edited onto, swaps
	// back in for the one that could not absorb this delta.
	if dis != nil {
		if res, next := pl.resume(ctx, dis, inc, newTopo, newDemand); res != nil {
			return pl.adoptReplan(newState, inc, newDemand, res, next, true, cur.displacedRecipe()), nil
		}
		if ierr := interrupted(ctx); ierr != nil {
			return nil, fmt.Errorf("core: replan interrupted: %w", ierr)
		}
	}

	// Graceful degradation: cold re-solve of the edited request. The
	// fresh session state guarantees no warm start or replay survives
	// from before the churn, so this is exactly the solve a brand-new
	// session would run.
	pl.mu.Lock()
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
	pl.mu.Unlock()
	fopt := inc.opt
	plan, err := pl.Plan(ctx, Request{Demand: newDemand, Options: &fopt, Solver: inc.solver})
	if plan != nil {
		plan.Replanned = true
		plan.ReplanFallback = true
	}
	if err == nil {
		// The incumbent the cold plan replaced is kept as its recipe.
		displaced := cur.displacedRecipe()
		pl.mu.Lock()
		if pl.state == newState {
			pl.displaced = displaced
		}
		pl.mu.Unlock()
	}
	return plan, err
}

// resume is the rung between incremental and cold. It restates dis, the
// LP incumbent an earlier fallback or resume displaced, and reoptimizes
// it on the churned world through the incremental LP tail; the edit is
// link churn alone (from dis's world to newTopo), since dis must hold
// the request the session now holds: newDemand, inc's solver, and every
// Options field its model reads (keyOf). The churned world must also
// pass churnedInstance's gate at dis's discretization, which is checked
// before anything is built. nil means the cold rung runs as it would
// have without dis.
func (pl *Planner) resume(ctx context.Context, dis, inc *incumbentState, newTopo *topo.Topology, newDemand *collective.Demand) (*Result, incumbentState) {
	if dis.solver != inc.solver || !dis.demand.Equal(newDemand) {
		return nil, incumbentState{}
	}
	kd, ok := keyOf(dis.demand, &dis.opt)
	ki, oki := keyOf(newDemand, &inc.opt)
	if !ok || !oki || kd != ki || churnedInstance(dis.at, newTopo) == nil {
		return nil, incumbentState{}
	}
	r := dis.restated()
	if r == nil {
		return nil, incumbentState{}
	}
	res, next, _ := replanIncrementalLP(ctx, r, true, r.model.in.topo, newTopo, Delta{}, pl.pivotBudget())
	if res == nil {
		return nil, incumbentState{}
	}
	next.recipe = r.recipe.then(recipeStep{world: newTopo})
	return res, next
}

// adoptReplan is the epilogue of every incremental replan and resume:
// the replanned payload becomes the incumbent for the next delta under
// the incumbent's own request (unless a later Replan already replaced
// the state), a MILP payload's root basis seeds the fresh session's MILP
// chain and basis store (an LP payload's seeds nothing), and its pivots
// feed the replan accounting. A resume (resumed) also swaps the two
// incumbents — displaced, the recipe of the one it replaced, takes the
// displaced slot — and keeps the resumed incumbent as its recipe and
// basis without its model, as a replay does, so a session that returns
// to a world holds no more than one that replays it; the next delta
// restates the model.
func (pl *Planner) adoptReplan(newState *sessionState, old *incumbentState, newDemand *collective.Demand, res *Result, next incumbentState, resumed bool, displaced *incumbentState) *Plan {
	next.demand, next.opt, next.solver = newDemand.Clone(), old.opt, old.solver
	solver := SolverAStar
	switch {
	case next.model != nil:
		solver = SolverLP
	case next.mmodel != nil:
		solver = SolverMILP
	}
	res.WarmStarted = true // resumed from the incumbent, whatever the form
	pl.keepBasis(newState, &next)
	if resumed && next.recipe != nil {
		next.model = nil
	}
	pl.mu.Lock()
	pl.stats.ReplanPivots += res.RootIterations + res.NodeIterations
	if resumed {
		pl.stats.ReplanResumes++
	}
	if pl.state == newState {
		pl.incumbent = &next
		if resumed {
			pl.displaced = displaced
		}
	}
	pl.mu.Unlock()
	return &Plan{Result: res, Solver: solver, WarmStart: true, Replanned: true}
}

// sour logs why an incremental attempt came back without a validated
// answer and classifies it: a caller cancellation among them, which
// Replan surfaces instead of falling back.
func sour(err error) (*Result, incumbentState, fallbackKind) {
	replanAbortf("sour fallback: %v", err)
	return nil, incumbentState{}, fbSour
}

// replanIncrementalLP edits the incumbent's model — a clone of it, or,
// inPlace, a restated model itself — to the churned world (churnLP) and
// reoptimizes it from the (padded) incumbent basis within budget pivots
// (0: unbudgeted). It returns the fallback kind when the churn is structural
// at the incumbent discretization, the budget runs out, the dual simplex
// does not reach a verified optimum, or the reoptimized rates fail to
// decompose into a schedule that re-validates on the churned topology —
// the caller then resumes a displaced incumbent or falls back to a cold
// solve.
func replanIncrementalLP(ctx context.Context, inc *incumbentState, inPlace bool, oldTopo, newTopo *topo.Topology, d Delta, budget int) (*Result, incumbentState, fallbackKind) {
	start := time.Now()
	m2 := churnLP(inc.model, inPlace, oldTopo, newTopo, d)
	if m2 == nil {
		return nil, incumbentState{}, fbStructural
	}
	q := m2.p
	// An append pads the incumbent basis — new columns nonbasic, new rows
	// slack-basic — so the warm start stays structurally valid.
	var basis *lp.Basis
	if d.AddDemand != nil {
		if basis = inc.basis.Extended(q.NumVars(), q.NumRows()); basis == nil {
			return nil, incumbentState{}, fbStructural
		}
	} else {
		basis = inc.basis.Clone()
	}

	// Reoptimization from the incumbent basis (a warm start, so the dual
	// simplex) within the pivot budget.
	ctx, cancel := withTimeLimit(ctx, inc.opt.TimeLimit)
	defer cancel()
	res, sol, err := m2.run(ctx, lp.Options{WarmStart: basis, MaxIter: budget}, start)
	if err != nil {
		// The budget is the iteration cap the simplex stopped at unless the
		// request's TimeLimit or the caller ended it first.
		if sol != nil && sol.Status == lp.StatusIterLimit && budget > 0 && ctx.Err() == nil {
			replanAbortf("budget fallback: %d pivots exhausted the incremental budget (%d)", sol.Iterations, budget)
			return nil, incumbentState{}, fbBudget
		}
		return sour(err)
	}
	return res, incumbentState{model: m2, basis: sol.Basis}, fbNone
}

// churnLP is the edit half of an incremental LP replan, shared by the
// live path and restatement (incumbentState.restated): it edits m to the
// world newTopo (from oldTopo) and to d's demand edits — bound and
// right-hand-side edits for link churn and demand drops, column and row
// appends for new demand (lpappend.go) — and returns the edited model;
// nil means the churn is structural at m's discretization or the new
// demand cannot be appended. The edits land on a clone of m's problem
// and indexes, made once the churn passed the gate, so m is left as it
// was — unless inPlace, for a model nobody else holds (a restatement),
// which is edited itself.
func churnLP(m *lpModel, inPlace bool, oldTopo, newTopo *topo.Topology, d Delta) *lpModel {
	in := m.in
	// The edited instance the schedule decomposition (and its built-in
	// re-validation) runs against: the churned topology and demand, the
	// recomputed per-epoch budgets, the incumbent discretization.
	in2 := churnedInstance(in, newTopo)
	if in2 == nil {
		return nil
	}
	q := m.p
	if !inPlace {
		q = q.Clone()
	}
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

	// New demand: price the appended pairs into the model as appended
	// columns and rows.
	if d.AddDemand != nil {
		if err := m2.appendDemand(d.AddDemand, inPlace); err != nil {
			replanAbortf("structural fallback: demand append: %v", err)
			return nil
		}
	}
	return &m2
}

// replanIncrementalMILP re-roots the incumbent branch-and-bound on the
// churned world: the LP path's link-churn edits applied to a clone of
// the incumbent MILP, re-rooted from the incumbent root basis, with the
// incumbent integer schedule — re-validated against the churned topology
// — seeding the search when it survives.
func replanIncrementalMILP(ctx context.Context, inc *incumbentState, oldTopo, newTopo *topo.Topology) (*Result, incumbentState, fallbackKind) {
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
	// and guarantees a feasible answer within the request's TimeLimit.
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

	ctx, cancel := withTimeLimit(ctx, inc.opt.TimeLimit)
	defer cancel()
	res, msol, err := m2.run(ctx, mopt, start)
	if err != nil {
		return sour(err)
	}
	return res, incumbentState{mmodel: &m2, basis: msol.RootBasis, sends: res.Schedule.Sends}, fbNone
}

// replanIncrementalAStar replays the incumbent round schedule through
// the A* state recurrence on the churned instance up to the first round
// whose sends touch a newly-downed or capacity-degraded link, then
// re-enters the round loop there. Pure capacity increases replay the
// whole schedule without solving anything.
func replanIncrementalAStar(ctx context.Context, inc *incumbentState, oldTopo, newTopo *topo.Topology) (*Result, incumbentState, fallbackKind) {
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

	ctx, cancel := withTimeLimit(ctx, inc.opt.TimeLimit)
	defer cancel()
	res, next, err := astarLoop(ctx, in2, st, Kr, r0, sends, inc.aGap, start)
	if err != nil {
		return sour(err)
	}
	return res, next, fbNone
}
