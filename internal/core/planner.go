package core

// planner.go is the session layer: a long-lived Planner pinned to one
// topology that answers a stream of solve requests, reusing everything
// expensive that survives from one request to the next — tau
// derivations, epoch estimates (Algorithm 1 runs Floyd–Warshall), solved
// schedules of repeated requests and of structurally identical LP models,
// and warm-start bases keyed by problem fingerprint or chained by column
// key. The free functions (SolveLP and friends) are the same solves with
// no session around them — Plan's arms call what they call and add the
// caches — so a service holding a Planner per topology gets the same
// answers with the cold-start work amortized across its request stream.
//
// # Session lifecycle
//
// A session has three phases:
//
//  1. NewPlanner snapshots the topology (Clone) and allocates empty
//     caches; nothing expensive happens until the first request.
//  2. Plan and Replan calls, freely concurrent, populate the caches
//     (schedule replay, warm bases, estimates) and maintain the replan
//     incumbent. Replan swaps the cache bundle atomically onto the
//     churned topology. Topology-derived state — τ and epoch estimates,
//     the request index, warm bases, the key-matched chains — is per
//     state and never outlives the topology it was derived from. What
//     survives churn is the replay cache's model index: an answer to a
//     model, which a later world serves only for a model EqualTo the
//     one it answered, and only after its schedule re-validates on that
//     world.
//  3. Close marks the session closed and releases the retained state —
//     the schedule-replay cache, the warm-basis store, the key-matched
//     basis chains, and the replan incumbent, the one of them that pins
//     a whole LP model. Subsequent Plan/Replan calls fail with
//     ErrPlannerClosed; calls already in flight finish normally (their
//     results are simply not recorded back into the session). Close is
//     idempotent, and Stats/Topology keep working on a closed session,
//     so a serving tier can still report and log a session it has just
//     evicted.
//
// Long-lived processes that open sessions dynamically (one per served
// topology) must Close evicted sessions: the caches are bounded per
// session, but a session's floor is the retained incumbent model, which
// for large time-expanded LPs is tens of MB.

import (
	"context"
	"errors"
	"fmt"
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
	// Replan tunes the bounded-regret budget and adaptive re-basing of
	// Planner.Replan; the zero value means sensible defaults.
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
	// basis of an earlier request instead of starting cold.
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
	// incremental solve, a bounded-regret budget abort, or an incumbent
	// with no incremental payload) and degraded to a cold solve of the
	// edited request — a replay (CacheHit) when the session has solved
	// that model before.
	ReplanFallback bool
	// ReBased marks a replan served by a proactive crash-started re-base:
	// the session detected that the incremental advantage had decayed
	// (see ReplanOptions.RebaseThreshold) and chose a cold solve to
	// refresh the incumbent basis. ReBased plans are not fallbacks — the
	// session skipped the incremental attempt on purpose.
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
	// WarmStartHits counts solves that resumed from an earlier
	// request's basis (Plan.WarmStart).
	WarmStartHits int
	// CrashStarts counts cold solves seeded from a greedy crash basis
	// (Plan.CrashStart).
	CrashStarts int
	// ExactBasisHits counts warm starts served verbatim from the
	// fingerprint-keyed basis store (a subset of WarmStartHits).
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
	// cold solve's pivot count — the baseline the bounded-regret budget
	// and the re-base trigger compare incremental replans against.
	ColdEstimatePivots int
	// ReplanFallbacks counts replans that degraded to a cold solve.
	ReplanFallbacks int
	// Per-kind fallback counters (each fallback increments exactly one):
	// Structural — the churn changed the model's shape (δ/κ at the
	// incumbent τ, topology growth, or demand churn the incumbent form
	// cannot absorb); Budget — the incremental attempt was aborted by the
	// bounded-regret pivot/deadline budget; Sour — the incremental solve
	// came back non-optimal or its schedule failed re-validation; NoModel
	// — the incumbent carried no incremental payload and none could be
	// restated (an empty solve, a horizon plan, or a replay of a cache
	// entry that kept no basis: a MinimizeMakespan refinement). A replayed
	// LP incumbent is not one: Replan restates its model from its request
	// and reoptimizes from the replayed entry's basis.
	ReplanFallbackStructural int
	ReplanFallbackBudget     int
	ReplanFallbackSour       int
	ReplanFallbackNoModel    int
	// ReBases counts replans served by a proactive crash-started re-base
	// (Plan.ReBased); they are not included in ReplanFallbacks.
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
	lastLP    sessionBasis    // key-matched warm-start chain, LP form
	lastMILP  sessionBasis    // key-matched warm-start chain, MILP form
	incumbent *incumbentState // the one thing a session keeps a whole model for
	stats     PlannerStats

	// Bounded-regret bookkeeping (replan.go, all under mu): EWMAs of
	// observed cold-solve cost seed the incremental pivot/deadline
	// budget; the incremental-pivot EWMA tracks the advantage whose decay
	// triggers a proactive re-base.
	coldPivotEWMA float64
	coldWallEWMA  float64 // seconds
	incPivotEWMA  float64
	incReplans    int
	rebasePending bool
}

// sessionState is everything a session derives from its current
// topology: the snapshot itself plus every per-topology cache. Replan
// swaps the whole bundle atomically, so nothing derived from a topology
// can outlive it — the replay/basis/estimate staleness bugs all reduce
// to violating that invariant. The one thing the swap hands on is
// lpCache's model index (batchCache.carry), whose entries are not
// derived from the current topology: each answers the model it was
// solved from on its own.
type sessionState struct {
	t         *topo.Topology
	numGPU    int
	est       *estimateCache
	lpCache   *batchCache // exact-structure schedule replay
	warmBases *basisStore // exact-fingerprint warm bases
}

func newSessionState(t *topo.Topology) *sessionState {
	return &sessionState{
		t:      t,
		numGPU: len(t.GPUs()),
		est:    newEstimateCache(),
		// Sessions are long-lived: bound the schedule-replay cache (each
		// entry retains a schedule, the request that built its model and
		// its final basis; entries carried across Replans count too) the
		// same way the basis store is.
		lpCache:   &batchCache{limit: basisStoreLimit},
		warmBases: newBasisStore(),
	}
}

// sessionBasis remembers the most recent solve of one form for
// key-matched basis transfer into the next request: the model's column
// keys (lp.Problem.Keys) and final basis, which is all the transfer
// reads — not the model.
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
	// entry is the replay-cache entry of an LP incumbent: the one its
	// solve stored (a later replay of that entry is a replay of this
	// solve, see incumbentPayload), or, for a replay, the one it replayed,
	// which is all the incumbent keeps — Replan restates the model from
	// the request and reoptimizes from the entry's basis (restated).
	entry *batchEntry

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

// root returns the solved problem and basis of an LP or MILP payload —
// what a later solve of the same form chains its warm start from — and
// nils for any other.
func (inc *incumbentState) root() (*lp.Problem, *lp.Basis) {
	switch {
	case inc.model != nil:
		return inc.model.p, inc.basis
	case inc.mmodel != nil:
		return inc.mmodel.p, inc.basis
	}
	return nil, nil
}

// restated returns the LP incumbent a replay left with only its cache
// entry, with the model restated from its own request on t (the topology
// it was planned on) and the entry's basis; nil when the entry kept no
// basis or the basis does not fit. The replay confirmed that this
// request's model is the entry's (EqualTo, or the same request on the
// same world), so the basis is an optimal basis of the restated model.
func (inc *incumbentState) restated(t *topo.Topology) *incumbentState {
	b := inc.entry.basis
	if b == nil {
		return nil
	}
	m := prepLP(t, inc.demand, inc.opt).m
	if m == nil || len(b.Vars) != m.p.NumVars() || len(b.Rows) != m.p.NumRows() {
		return nil
	}
	r := *inc
	r.model, r.basis = m, b
	return &r
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

// Close releases the session's retained state — the schedule-replay
// cache, the warm-basis store, the key-matched basis chains, and the
// replan incumbent (which pins a whole LP model) — and marks the session
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
	pl.lastLP, pl.lastMILP = sessionBasis{}, sessionBasis{}
	pl.incumbent = nil
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
		fn := registeredSolver(SolverHorizon)
		if fn == nil {
			return nil, errors.New("core: no rolling-horizon solver registered (import teccl/internal/horizon)")
		}
		// The hooks hand the driver the session's fingerprint-keyed basis
		// store: each window's basis recorded by one request warm-starts
		// the identical window of the next. No incremental payload: Replan
		// degrades to a cold horizon re-solve of the recorded request.
		hooks := &SessionHooks{LookupBasis: st.warmBases.lookup, RecordBasis: st.warmBases.record}
		res, err = fn(ctx, st.t, req.Demand, opt, hooks)
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
// an LP replay, the replayed cache entry alone. A request solved against
// an already-replaced session state (a Plan racing a Replan) is not
// recorded: its model references the pre-churn topology.
func (pl *Planner) recordIncumbent(st *sessionState, req Request, incOpt Options, inc incumbentState) {
	inc.demand = req.Demand.Clone()
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
	s := p.Choose(in)
	if s == SolverAuto {
		s = DefaultPolicy{}.Choose(in)
	}
	// A policy may route to the rolling-horizon solver without the
	// implementation linked in; degrade to the monolithic LP rather than
	// failing the request. Explicitly forced SolverHorizon requests skip
	// choose() and do fail, so tests see the missing registration.
	if s == SolverHorizon && registeredSolver(SolverHorizon) == nil {
		s = SolverLP
	}
	return s
}

// keepBasis chains the basis of a solved LP or MILP payload into the
// session: last, the key-matched chain of its form — unless a Replan
// swapped the session state mid-solve (a model built against the old
// topology must not seed the new chain) — and the fingerprint store of
// the state it was solved against.
func (pl *Planner) keepBasis(st *sessionState, last *sessionBasis, inc *incumbentState) {
	p, b := inc.root()
	if p == nil || b == nil || len(b.Vars) != p.NumVars() {
		return
	}
	pl.mu.Lock()
	if pl.state == st {
		*last = sessionBasis{keys: p.Keys(), basis: b}
	}
	pl.mu.Unlock()
	st.warmBases.record(p, b)
}

// planLP serves an LP-form request through the session caches: a
// repeated request or an identical model replays its schedule, anything
// else warm-starts from the fingerprint store or the previous LP's basis
// by column key.
func (pl *Planner) planLP(ctx context.Context, st *sessionState, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	pl.mu.Lock()
	last := pl.lastLP
	pl.mu.Unlock()
	hint := sessionHint(last.keys, last.basis, st.warmBases)

	res, inc, replayOf, err := st.lpCache.solvePoint(ctx, st.t, d, opt, hint)
	pl.keepBasis(st, &pl.lastLP, &inc)
	if replayOf != nil {
		inc = pl.incumbentPayload(replayOf, d, res.Tau)
	}
	return res, inc, err
}

// incumbentPayload returns the payload of a request for d at epoch
// duration tau that has just replayed cache entry e. A replay carries no
// model of its own: when it replayed the incumbent's own solve (e is the
// entry that solve stored), the incumbent's model and basis are handed
// back, so the request refreshes the incumbent instead of emptying it;
// otherwise the payload is e alone, whose model Replan restates.
func (pl *Planner) incumbentPayload(e *batchEntry, d *collective.Demand, tau float64) incumbentState {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	inc := pl.incumbent
	if inc == nil || inc.model == nil || inc.entry != e || inc.model.in.tau != tau || !inc.demand.Equal(d) {
		return incumbentState{entry: e}
	}
	return incumbentState{model: inc.model, basis: inc.basis, entry: e}
}

// planMILP serves a MILP-form request, warm-starting the root relaxation
// from the fingerprint store or the previous MILP's root basis by name.
func (pl *Planner) planMILP(ctx context.Context, st *sessionState, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	pl.mu.Lock()
	last := pl.lastMILP
	pl.mu.Unlock()
	hint := sessionHint(last.keys, last.basis, st.warmBases)

	res, inc, err := solveMILP(ctx, st.t, d, opt, hint)
	pl.keepBasis(st, &pl.lastMILP, &inc)
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
