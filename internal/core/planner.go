package core

// planner.go is the session layer: a long-lived Planner pinned to one
// topology that answers a stream of solve requests, reusing everything
// expensive that survives from one request to the next — tau
// derivations, epoch estimates (Algorithm 1 runs Floyd–Warshall), solved
// schedules of repeated requests and of structurally identical LP models,
// and MILP root and horizon window bases. An LP request the replay cache
// cannot answer crash-starts, as on a fresh session: an LP plan is warm
// only as a replan. The free functions (SolveLP and friends) are the same
// solves with no session around them — Plan's arms call what they call
// and add the caches — so a service holding a Planner per topology gets
// the same answers with the cold-start work amortized across its stream.
//
// # Session lifecycle
//
// A session has three phases:
//
//  1. NewPlanner snapshots the topology (Clone) and allocates empty
//     caches; nothing expensive happens until the first request.
//  2. Plan and Replan calls, freely concurrent, populate the caches
//     (schedule replay, warm bases, estimates) and maintain the replan
//     incumbent. Everything a session derives from its world — τ and
//     epoch estimates, the replay cache, warm bases, the MILP chain —
//     lives in one sessionState, which Replan swaps atomically for an
//     empty one on the churned topology. What survives churn is
//     the replan incumbent and the LP incumbent the last fallback
//     displaced, kept as the recipe its model is restated from (Replan's
//     resume rung).
//  3. Close marks the session closed and releases the retained state —
//     the session state with every cache, the displaced incumbent's
//     recipe, and the replan incumbent, the one of them that pins a
//     whole LP model. Subsequent
//     Plan/Replan calls fail with ErrPlannerClosed; calls already in
//     flight finish normally (their results are simply not recorded back
//     into the session). Close is idempotent, and Stats/Topology keep
//     working on a closed session, so a serving tier can still report
//     and log a session it has just evicted.
//
// Long-lived processes that open sessions dynamically (one per served
// topology) must Close evicted sessions: the caches are bounded per
// session, but a session's floor is the retained incumbent model, which
// for large time-expanded LPs is tens of MB.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// PlannerOptions configures a session.
type PlannerOptions struct {
	// Defaults are the session's base solve options, used for every
	// request that does not carry its own.
	Defaults Options
	// Policy picks the formulation for requests that do not force one;
	// nil means DefaultPolicy{}.
	Policy Policy
	// Replan tunes the pivot budget of Planner.Replan's incremental LP
	// attempts; the zero value means sensible defaults.
	Replan ReplanOptions
}

// Request is one unit of work for a Planner session.
type Request struct {
	// Demand is the collective demand to schedule. Required.
	Demand *collective.Demand
	// Options, when non-nil, replaces the session defaults for this
	// request (it is a full replacement, not a merge).
	Options *Options
	// Solver forces a formulation for this request; SolverAuto defers
	// to the session policy.
	Solver Solver
	// Progress, when non-nil, overrides the options' progress hook.
	Progress ProgressFunc
}

// Plan is a solved request: the Result plus provenance about how the
// session produced it.
type Plan struct {
	*Result
	// Solver is the formulation that produced the result.
	Solver Solver
	// CacheHit marks a request served by replaying the schedule of a
	// structurally identical earlier request (no simplex ran).
	CacheHit bool
	// WarmStart marks a solve whose main simplex run resumed from a
	// basis of an earlier solve instead of starting cold: a replan, a
	// MILP root or a horizon's first window, never another LP Plan.
	WarmStart bool
	// CrashStart marks a cold solve whose main simplex run was seeded
	// from the greedy schedule's flow support (a crash basis) instead of
	// the all-slack identity; see Options.Crash.
	CrashStart bool
	// Replanned marks a plan produced by Replan: the incumbent request
	// re-solved against the churned topology/demand.
	Replanned bool
	// ReplanFallback marks a replan that could not reoptimize the
	// incumbent incrementally (structural churn, a sour or infeasible
	// incremental solve, or an incumbent with no incremental payload) and
	// degraded to a cold solve of the edited request. The solve runs in
	// the churned session state, whose caches start empty, so a fallback
	// is never a replay (CacheHit).
	ReplanFallback bool
	// ReBased is always false. It marked a proactive re-base, which is
	// gone, and stays for wire v1 (the rebased field).
	ReBased bool
}

// PlannerStats are cumulative session counters, retrievable at any time
// via Planner.Stats.
type PlannerStats struct {
	// Requests counts Plan calls that reached a solver.
	Requests int
	// ScheduleReplays counts requests served from the schedule cache
	// (Plan.CacheHit): a repeat of an LP request (equal demand, equal
	// model options, no Priority or LinkCapacity function) by lookup, a
	// new request whose model equals a solved one by building it.
	ScheduleReplays int
	// WarmStartHits counts solves that resumed from an earlier solve's
	// basis (Plan.WarmStart).
	WarmStartHits int
	// CrashStarts counts cold solves seeded from a greedy crash basis
	// (Plan.CrashStart).
	CrashStarts int
	// ExactBasisHits counts MILP roots and horizon windows started
	// verbatim from the fingerprint-keyed basis store.
	ExactBasisHits int
	// TauCacheHits / EpochCacheHits count derived-state cache hits. A
	// replay by lookup derives nothing, so it moves neither (a policy
	// choosing its solver still derives τ); a replay that builds its
	// model, and every solve, consult both.
	TauCacheHits   int
	EpochCacheHits int
	// Replans counts Replan calls that reached a solve (incremental or
	// fallback).
	Replans int
	// ReplanPivots totals the simplex iterations of incremental replans —
	// the dual-simplex pivots that carried each incumbent basis to the
	// churned optimum.
	ReplanPivots int
	// ColdEstimatePivots is the session's current EWMA estimate of one
	// cold solve's pivot count — the baseline the incremental LP pivot
	// budget is derived from.
	ColdEstimatePivots int
	// ReplanFallbacks counts replans that degraded to a cold solve.
	ReplanFallbacks int
	// Per-kind fallback counters (each fallback increments exactly one):
	// Structural — the churn changed the model's shape (δ/κ at the
	// incumbent τ, topology growth, or demand churn the incumbent form
	// cannot absorb); Budget — the incremental LP attempt exhausted its
	// pivot budget; Sour — the incremental solve came back non-optimal
	// (infeasible at the incumbent horizon, or out of the request's
	// TimeLimit or the kernel's iteration cap) or its schedule failed
	// re-validation; NoModel — the incumbent carried no incremental
	// payload and none could be restated (an empty solve, a horizon plan,
	// or a replay of a cache entry that kept no basis: a MinimizeMakespan
	// refinement). A replayed LP incumbent is not one: Replan restates
	// its model from its request and reoptimizes from the replayed
	// entry's basis.
	ReplanFallbackStructural int
	ReplanFallbackBudget     int
	ReplanFallbackSour       int
	ReplanFallbackNoModel    int
	// ReplanResumes counts replans the incremental rung could not serve
	// that resumed the incumbent an earlier fallback displaced instead of
	// solving cold (a restore or recover returning to its world). A
	// resume is no fallback: it moves none of the counters above.
	ReplanResumes int
	// ReBases is always 0, like Plan.ReBased, and stays for wire v1.
	ReBases int
}

// Planner is a long-lived solving session pinned to one topology.
// Methods are safe for concurrent use. The session snapshots the
// topology at NewPlanner (and again at every Replan), so the caller may
// keep mutating its own *Topology without corrupting cached state.
type Planner struct {
	opt PlannerOptions

	// replanMu serializes Replan calls (Plan calls keep flowing; they
	// capture a consistent state snapshot under mu).
	replanMu sync.Mutex

	mu        sync.Mutex
	closed    bool
	state     *sessionState
	incumbent *incumbentState // the one thing a session keeps a whole model for
	// displaced is the LP incumbent the last fallback or resume replaced,
	// kept as its recipe and basis with no model (displacedRecipe): what
	// Replan resumes when churn returns to its world. nil when there is
	// none, or the incumbent replaced had no recipe.
	displaced *incumbentState
	stats     PlannerStats

	// coldPivotEWMA (under mu) is the session's estimate of one cold
	// solve's pivots, which the incremental LP pivot budget is derived
	// from (replan.go).
	coldPivotEWMA float64
}

// sessionState is everything a session derives from its current
// topology: the snapshot itself plus every per-topology cache. Replan
// swaps the whole bundle atomically for an empty one, so nothing derived
// from a topology can outlive it — the replay/basis/estimate staleness
// bugs all reduce to violating that invariant. A swap hands on only the
// incumbent and the displaced recipe, which the Planner holds.
type sessionState struct {
	t         *topo.Topology
	numGPU    int
	est       *estimateCache
	lpCache   *batchCache // exact-structure schedule replay
	warmBases *basisStore // exact-fingerprint MILP root and window bases
	// lastMILP (under Planner.mu) is the MILP form's key-matched
	// warm-start chain; the LP form has none.
	lastMILP sessionBasis
}

func newSessionState(t *topo.Topology) *sessionState {
	return &sessionState{
		t:      t,
		numGPU: len(t.GPUs()),
		est:    newEstimateCache(),
		// Sessions are long-lived: bound the schedule-replay cache (each
		// entry retains a schedule, the request that built its model and
		// its final basis) the same way the basis store is.
		lpCache:   &batchCache{limit: basisStoreLimit},
		warmBases: newBasisStore(),
	}
}

// sessionBasis remembers the session's most recent MILP solve for
// key-matched transfer of its root basis into the next MILP request: the
// model's column keys (lp.Problem.Keys) and root basis, which is all the
// transfer reads — not the model.
type sessionBasis struct {
	keys  []lp.VarKey
	basis *lp.Basis
}

// incumbentState is the session's memory of the last successful Plan:
// the request (demand snapshot, resolved options, forced solver) for
// fallback re-solves, plus the formulation-specific incremental payload
// every solver returns and Replan perturbs — the LP model and optimal
// basis, the MILP model with its root basis and integer incumbent, or
// the A* instance with its round schedule.
type incumbentState struct {
	demand *collective.Demand // snapshot of the request demand
	opt    Options            // resolved request options (estimates cleared)
	solver Solver             // the request's forced solver (SolverAuto when policy-chosen)

	// LP incumbents carry model, MILP incumbents mmodel; basis is the
	// final simplex basis of model.p, or the root-relaxation basis of
	// mmodel.p that Replan re-roots branch-and-bound from.
	model  *lpModel
	mmodel *milpModel
	basis  *lp.Basis
	// recipe is how an LP incumbent's model is derived, which is all an
	// incumbent without a model keeps of it (a replay, a resume, a
	// displaced incumbent): Replan restates the model from it and
	// reoptimizes from basis (restated). nil when the model cannot be
	// restated: a MinimizeMakespan refinement, or a lineage past
	// maxRecipeSteps.
	recipe *lpRecipe
	// at is a displaced incumbent's world and discretization (topology,
	// τ, δ, κ and chunk size, nothing else of its instance), what
	// churnedInstance gates a resume on before the model is restated.
	at *instance

	// A* incumbents: Replan replays unaffected rounds through the state
	// recurrence and re-solves only rounds touching churned links.
	ain     *instance
	aKr     int
	aRounds int
	aGap    float64

	// sends is the incumbent schedule of the MILP and A* forms (the LP
	// form replans from its basis instead): Replan re-validates a MILP
	// incumbent's against the churned topology to seed the re-root.
	sends []schedule.Send
}

// maxRecipeSteps caps an LP incumbent's lineage: the replans a recipe
// records between its cold root and the incumbent. A displaced incumbent
// worth resuming is one the session left a delta or two before churn
// undid it (a restore, a recover), and every lineage the churn
// benchmark's seven-delta script or the rung stream's sixteen-delta
// sessions build fits; the cap bounds what a recipe holds (one delta, or
// one world for a resume, per step) and the edit passes a restatement
// replays (an ApplyDelta and a pass over the capacity rows each, well
// under a model build) however long a session runs incrementally.
const maxRecipeSteps = 16

// lpRecipe derives an LP model without holding it: the world the cold
// request at its root was planned on, that request's demand (its options
// are the incumbent's), and the replans the incumbent took since, in
// order. A recipe is never changed once built; a replan extends a copy.
type lpRecipe struct {
	root   *topo.Topology
	demand *collective.Demand
	steps  []recipeStep
}

// recipeStep is one replan of a lineage: an incremental replan of delta
// d, applied to the previous world, or a resume, which edited a restated
// model onto world (d is then empty).
type recipeStep struct {
	d     Delta
	world *topo.Topology
}

// then returns the recipe extended by one step, or nil past
// maxRecipeSteps (or when r is nil).
func (r *lpRecipe) then(s recipeStep) *lpRecipe {
	if r == nil || len(r.steps) >= maxRecipeSteps {
		return nil
	}
	next := *r
	next.steps = append(slices.Clip(r.steps), s)
	return &next
}

// restated returns the LP incumbent inc with its model restated from its
// recipe — prepLP of the root request on the root world, then each
// step's edits through churnLP, the edit half of an incremental replan —
// and nil when inc has no recipe or basis, a step no longer applies, or
// the basis does not fit. It serves the incumbent a replay left (a
// recipe of no steps: the replay confirmed the request's model is the
// entry's, so the entry's basis is optimal for it), a resumed one and a
// displaced one alike; assertRecipesRestate (recipe_test.go) holds the
// restated model EqualTo the incumbent's and its basis optimal in 0
// pivots.
func (inc *incumbentState) restated() *incumbentState {
	rc, b := inc.recipe, inc.basis
	if rc == nil || b == nil {
		return nil
	}
	// The root request was planned on rc.root, so its τ was accepted then.
	pr, _ := prepLP(rc.root, rc.demand, inc.opt)
	m, world := pr.m, rc.root
	for _, s := range rc.steps {
		if m == nil {
			return nil
		}
		next := s.world
		if next == nil {
			var err error
			if next, err = world.ApplyDelta(s.d.TopoDelta()); err != nil {
				return nil
			}
		}
		m, world = churnLP(m, true, world, next, s.d), next
	}
	if m == nil || len(b.Vars) != m.p.NumVars() || len(b.Rows) != m.p.NumRows() {
		return nil
	}
	r := *inc
	r.model = m
	return &r
}

// displacedRecipe returns what the session keeps of an LP incumbent a
// fallback or a resume replaces: its request, recipe and final basis,
// and the world and discretization a resume is gated on — no model, so a
// session still pins one lp.Problem at most. nil when inc has no model to
// read the discretization from or no recipe.
func (inc *incumbentState) displacedRecipe() *incumbentState {
	m := inc.model
	if m == nil || inc.recipe == nil || inc.basis == nil {
		return nil
	}
	in := m.in
	return &incumbentState{
		demand: inc.demand, opt: inc.opt, solver: inc.solver,
		basis: inc.basis, recipe: inc.recipe,
		at: &instance{topo: in.topo, demand: in.demand, tau: in.tau, delta: in.delta, kappa: in.kappa},
	}
}

// NewPlanner opens a session on a topology. The topology is snapshotted
// (Clone), so the caller's value may be mutated freely afterwards.
func NewPlanner(t *topo.Topology, opt PlannerOptions) *Planner {
	return &Planner{
		opt:   opt,
		state: newSessionState(t.Clone()),
	}
}

// snapshot captures the current session state for one request.
func (pl *Planner) snapshot() *sessionState {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.state
}

// snapshotOpen captures the session state for one solving request,
// refusing closed sessions.
func (pl *Planner) snapshotOpen() (*sessionState, error) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return nil, ErrPlannerClosed
	}
	return pl.state, nil
}

// ErrPlannerClosed is returned by Plan and Replan on a session that has
// been Closed.
var ErrPlannerClosed = errors.New("core: planner session is closed")

// Close releases the session's retained state — the session state with
// its schedule-replay cache, warm-basis store and MILP key-matched
// chain, the displaced incumbent's recipe, and the replan incumbent
// (which pins a whole LP model) — and marks the session
// closed: subsequent Plan and Replan calls return ErrPlannerClosed.
// Calls already in flight finish normally; their results are not
// recorded back into the session. Close is idempotent and safe for
// concurrent use. Stats and Topology keep working after Close (the
// cumulative counters and the final topology snapshot survive), so a
// serving tier can report a session it has just evicted.
func (pl *Planner) Close() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return nil
	}
	pl.closed = true
	pl.foldStateHitsLocked(pl.state)
	// Swap in a fresh empty state (same topology) rather than nil it
	// out: concurrent Plan/Topology calls hold or take state pointers,
	// and the swap unpins every cached schedule and basis at once.
	pl.state = newSessionState(pl.state.t)
	pl.incumbent, pl.displaced = nil, nil
	return nil
}

// foldStateHitsLocked folds the cache-hit counters of a session state
// being retired (by Close or a Replan state swap) into the cumulative
// stats, so hit counts survive the swap. Callers hold pl.mu.
func (pl *Planner) foldStateHitsLocked(st *sessionState) {
	pl.stats.ExactBasisHits += st.warmBases.hitCount()
	tauHits, epochHits := st.est.hitCounts()
	pl.stats.TauCacheHits += tauHits
	pl.stats.EpochCacheHits += epochHits
}

// Topology returns the session's current topology snapshot (the churned
// one after Replan calls). Callers must not mutate it.
func (pl *Planner) Topology() *topo.Topology { return pl.snapshot().t }

// Stats snapshots the session counters.
func (pl *Planner) Stats() PlannerStats {
	pl.mu.Lock()
	st := pl.stats
	st.ColdEstimatePivots = int(pl.coldPivotEWMA + 0.5)
	state := pl.state
	pl.mu.Unlock()
	// Cumulative counters plus the live state's hits: Replan and Close
	// fold a retiring state's hit counts into pl.stats, so the totals
	// survive cache-bundle swaps.
	st.ExactBasisHits += state.warmBases.hitCount()
	tauHits, epochHits := state.est.hitCounts()
	st.TauCacheHits += tauHits
	st.EpochCacheHits += epochHits
	return st
}

// Plan solves one request. The context is honored end to end: the
// simplex iteration loops, the branch-and-bound node loop and worker
// pool, and the A* round loop all watch it, so a cancellation (or the
// caller's deadline) interrupts the solve promptly with an error
// wrapping context.Cause(ctx) — alongside a partial Plan when the
// search had an incumbent in hand. Options.TimeLimit is layered onto
// ctx as a derived deadline, so the budget is enforced identically for
// all four solvers.
func (pl *Planner) Plan(ctx context.Context, req Request) (*Plan, error) {
	if req.Demand == nil {
		return nil, errors.New("core: Plan requires a Demand")
	}
	st, err := pl.snapshotOpen()
	if err != nil {
		return nil, err
	}
	opt := pl.opt.Defaults
	if req.Options != nil {
		opt = *req.Options
	}
	if req.Progress != nil {
		opt.Progress = req.Progress
	}
	// incOpt is what Replan's fallback re-solve runs with: the resolved
	// request options, with a fresh TimeLimit budget and without the old
	// state's estimate cache.
	incOpt := opt
	incOpt.estimates = nil
	opt.estimates = st.est

	solver := req.Solver
	if solver == SolverAuto {
		solver = pl.choose(st, req.Demand, opt)
	}
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	opt.TimeLimit = 0 // already layered onto ctx; avoid re-derivation below

	pl.mu.Lock()
	pl.stats.Requests++
	pl.mu.Unlock()

	var res *Result
	var inc incumbentState
	switch solver {
	case SolverLP:
		res, inc, err = pl.planLP(ctx, st, req.Demand, opt)
	case SolverMILP:
		res, inc, err = pl.planMILP(ctx, st, req.Demand, opt)
	case SolverAStar:
		res, inc, err = solveAStar(ctx, st.t, req.Demand, opt)
	case SolverHorizon:
		// No incremental payload: Replan degrades to a cold horizon
		// re-solve of the recorded request.
		res, err = solveHorizon(ctx, st.t, req.Demand, opt, st.warmBases)
	default:
		return nil, fmt.Errorf("core: policy chose unknown solver %v", solver)
	}
	// A cancelled search or makespan refinement returns its last complete
	// schedule alongside the cancellation error; pass both through.
	if res == nil {
		return nil, err
	}
	// Provenance and its counters are read off the Result, whichever
	// solver produced it.
	pl.mu.Lock()
	if res.Reused {
		pl.stats.ScheduleReplays++
	}
	if res.WarmStarted {
		pl.stats.WarmStartHits++
	}
	if res.CrashStarted {
		pl.stats.CrashStarts++
	}
	pl.mu.Unlock()
	if err == nil {
		pl.observeCold(res)
		pl.recordIncumbent(st, req, incOpt, inc)
	}
	return &Plan{Result: res, Solver: solver, CacheHit: res.Reused,
		WarmStart: res.WarmStarted, CrashStart: res.CrashStarted}, err
}

// recordIncumbent remembers a successful request as the session's replan
// target. The incremental payload in inc is form-specific and may be
// empty (empty solves and horizon plans replan by cold re-solve) or, for
// an LP replay, the replayed cache entry's basis and a recipe alone. A
// request solved against an already-replaced session state (a Plan
// racing a Replan) is not recorded: its model references the pre-churn
// topology.
func (pl *Planner) recordIncumbent(st *sessionState, req Request, incOpt Options, inc incumbentState) {
	inc.demand = req.Demand.Clone()
	if inc.recipe != nil {
		inc.recipe.demand = inc.demand // a plan's recipe roots at its own request
	}
	inc.opt = incOpt
	inc.solver = req.Solver
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.state != st {
		return
	}
	pl.incumbent = &inc
}

// choose resolves the session policy for one request.
func (pl *Planner) choose(st *sessionState, d *collective.Demand, opt Options) Solver {
	tau := opt.Tau
	if tau == 0 {
		tau = st.est.deriveTau(st.t, d.ChunkBytes, opt.EpochMode, opt.EpochMultiplier)
	}
	in := PolicyInput{
		Topology:  st.t,
		Demand:    d,
		Options:   opt,
		NumGPUs:   st.numGPU,
		Multicast: d.HasMulticast(),
		Tau:       tau,
		EstimateEpochs: func() int {
			if opt.Epochs > 0 {
				return opt.Epochs
			}
			return st.est.estimateEpochs(st.t, d, tau)
		},
	}
	p := pl.opt.Policy
	if p == nil {
		p = DefaultPolicy{}
	}
	if s := p.Choose(in); s != SolverAuto {
		return s
	}
	return DefaultPolicy{}.Choose(in)
}

// keepBasis chains the root basis of a solved MILP payload into st, the
// session state it was solved against: lastMILP, which the next MILP
// request starts from by column key, and the fingerprint store. An LP
// payload keeps nothing here; its basis survives only as a replay entry's
// or the replan incumbent's.
func (pl *Planner) keepBasis(st *sessionState, inc *incumbentState) {
	m, b := inc.mmodel, inc.basis
	if m == nil || b == nil || len(b.Vars) != m.p.NumVars() {
		return
	}
	pl.mu.Lock()
	st.lastMILP = sessionBasis{keys: m.p.Keys(), basis: b}
	pl.mu.Unlock()
	st.warmBases.record(m.p, b)
}

// planLP serves an LP-form request through the session's replay cache: a
// repeated request or an identical model replays its schedule, anything
// else is solved as on a fresh session, from the greedy crash basis.
func (pl *Planner) planLP(ctx context.Context, st *sessionState, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	res, inc, e, err := st.lpCache.solvePoint(ctx, st.t, d, opt)
	// An entry keeps a basis only when its solve ended on the request's
	// own model (no makespan refinement): then the model is prepLP's of
	// the request on this world, which recordIncumbent completes into a
	// recipe of no steps. A replay carries no model, so its incumbent is
	// the entry's basis and that recipe alone.
	if e != nil && e.basis != nil {
		inc.basis, inc.recipe = e.basis, &lpRecipe{root: st.t}
	}
	return res, inc, err
}

// planMILP serves a MILP-form request, warm-starting the root relaxation
// from the fingerprint store or the previous MILP's root basis by key.
func (pl *Planner) planMILP(ctx context.Context, st *sessionState, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	pl.mu.Lock()
	last := st.lastMILP
	pl.mu.Unlock()
	hint := sessionHint(last.keys, last.basis, st.warmBases)

	res, inc, err := solveMILP(ctx, st.t, d, opt, hint)
	pl.keepBasis(st, &inc)
	return res, inc, err
}

// estimateCache memoizes the per-topology derived quantities of a
// session: tau derivations and epoch estimates (the latter run
// Floyd–Warshall plus per-node load scans). Keys do not include the
// topology — the session pins one.
type estimateCache struct {
	mu        sync.Mutex
	tau       map[tauKey]float64
	epochs    map[epochKey]int
	tauHits   int
	epochHits int
}

type tauKey struct {
	chunkBytes float64
	mode       EpochMode
	multiplier float64
}

type epochKey struct {
	demand uint64 // collective.Demand.Fingerprint
	tau    float64
}

func newEstimateCache() *estimateCache {
	return &estimateCache{
		tau:    make(map[tauKey]float64),
		epochs: make(map[epochKey]int),
	}
}

func (c *estimateCache) deriveTau(t *topo.Topology, chunkBytes float64, mode EpochMode, multiplier float64) float64 {
	k := tauKey{chunkBytes, mode, multiplier}
	c.mu.Lock()
	if v, ok := c.tau[k]; ok {
		c.tauHits++
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := DeriveTau(t, chunkBytes, mode, multiplier)
	c.mu.Lock()
	c.tau[k] = v
	c.mu.Unlock()
	return v
}

func (c *estimateCache) estimateEpochs(t *topo.Topology, d *collective.Demand, tau float64) int {
	k := epochKey{d.Fingerprint(), tau}
	c.mu.Lock()
	if v, ok := c.epochs[k]; ok {
		c.epochHits++
		c.mu.Unlock()
		return v
	}
	c.mu.Unlock()
	v := EstimateEpochs(t, d, tau)
	c.mu.Lock()
	c.epochs[k] = v
	c.mu.Unlock()
	return v
}

func (c *estimateCache) hitCounts() (tau, epochs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tauHits, c.epochHits
}
