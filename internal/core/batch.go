package core

// batch.go is the schedule-layer batching of sweep solves: the
// experiment harness (Fig 5's size sweeps, Table 4's chunk-size
// columns) solves the same topology over and over with demands that
// differ only in scale, and rebuilding the full time-expanded model per
// point throws away everything the previous point learned. BatchSolveLP
// solves such a sweep against shared state instead:
//
//   - Structurally identical points are solved once. Under a
//     proportional epoch mode the LP is stated in chunk units, so a
//     chunk-size sweep whose tau scales with the chunk produces
//     bit-identical models that differ only in the epoch duration; the
//     optimal schedule is replayed with the new tau for free. Identity
//     is established by lp.Problem.Fingerprint plus an exact EqualTo
//     confirmation, and every replayed schedule is re-validated against
//     its own demand before being trusted.
//   - The remaining points chain bases: each worker's chain passes the
//     previous point's optimal basis (matched by column key, as the
//     MinimizeMakespan loop already does across horizons) into the next
//     solve, which then reoptimizes with the dual simplex instead of
//     starting cold.
//   - Points fan out over a worker pool (BatchOptions.Workers), the
//     same knob that parallelizes branch-and-bound node evaluation.
//
// A Planner session serves its LP requests through the same cache, where
// the request index below makes a repeated request a lookup.
//
// What a session cache may keep across churn: the request index is
// per-topology (a request names a demand, not a world), but an entry of
// the model index answers the model it was solved from, on the topology
// it was solved on, and that stays true on any world. Planner.Replan
// therefore hands the model index on to the churned state (carry), and a
// carried entry answers only a model EqualTo its own, rebuilt on its own
// topology, with its schedule re-validated on the world that asks.

import (
	"context"
	"math"
	"sync"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// BatchOptions tunes a batched sweep solve.
type BatchOptions struct {
	// Workers fans the sweep points out over this many goroutines; 0 or
	// 1 solves the whole sweep as one serial chain. Points are assigned
	// to workers in contiguous blocks so neighboring points (the ones
	// most likely to share structure) stay in one basis chain.
	Workers int
}

// batchEntry caches the outcome of one solved sweep point for replay by
// structurally identical later points. The schedule is stored in chunk
// units (sends, epochs), which is exactly the part that coincides; only
// the epoch duration differs between identical points. The model the
// point was solved from is kept as its recipe — the request's demand and
// options and the topology it was solved on, which prepLP restates it
// from — rather than as an lp.Problem; only a request carrying a Priority
// or LinkCapacity function, which cannot be restated as data, keeps its
// model in base. basis is the final basis of that model, what a Replan of
// an incumbent that replayed the entry reoptimizes from; nil when the
// solve ended on another model (a MinimizeMakespan refinement).
type batchEntry struct {
	demand *collective.Demand
	opt    Options // the request's options, Progress cleared
	topo   *topo.Topology
	base   *lp.Problem
	basis  *lp.Basis

	sends     []schedule.Send
	numEpochs int
	epc       []int // EpochsPerChunk of the solved schedule
	objective float64
	gap       float64
	optimal   bool
}

// model states the model the entry was solved from: the one it holds, or
// its recipe built afresh on the entry's own topology.
func (e *batchEntry) model() *lp.Problem {
	if e.base != nil {
		return e.base
	}
	return prepLP(e.topo, e.demand, e.opt).m.p
}

// requestKey identifies a request by what its LP model and cached
// schedule are made of: the demand, by fingerprint (a hit is confirmed
// with Demand.Equal), every Options field prepLP reads, and
// MinimizeMakespan, which decides the schedule an entry holds. The rest
// is the cache's topology. TestRequestKeyCoversModelInputs classifies
// every Options field as keyed, unread by the model, or a function.
type requestKey struct {
	demand            uint64
	epochs            int
	bufferLimitChunks int
	tau, multiplier   uint64 // bit patterns
	epochMode         EpochMode
	switchMode        SwitchMode
	noBuffers         bool
	makespan          bool
}

// keyOf returns the request key of d under opt, and false for a request
// carrying a Priority or LinkCapacity function, which has none.
func keyOf(d *collective.Demand, opt *Options) (requestKey, bool) {
	if opt.Priority != nil || opt.LinkCapacity != nil {
		return requestKey{}, false
	}
	return requestKey{
		demand:            d.Fingerprint(),
		epochs:            opt.Epochs,
		bufferLimitChunks: opt.BufferLimitChunks,
		tau:               math.Float64bits(opt.Tau),
		multiplier:        math.Float64bits(opt.EpochMultiplier),
		epochMode:         opt.EpochMode,
		switchMode:        opt.SwitchMode,
		noBuffers:         opt.NoBuffers,
		makespan:          opt.MinimizeMakespan,
	}, true
}

// keyedRequest is one request the cache has answered: its demand, which
// a later hit must equal, the τ it resolved to, and the entry whose
// schedule answered it.
type keyedRequest struct {
	demand *collective.Demand
	tau    float64
	entry  *batchEntry
}

// batchCache indexes solved points twice. The request index maps a
// requestKey to the entry that answered it, so a repeated request is a
// lookup: no estimate, no build, no fingerprint. Behind it the model
// index maps lp.Problem.Fingerprint to entries, for a request not seen
// before whose model equals a solved one (a chunk-size sweep under a
// proportional τ); such a hit builds the entry's model from its recipe
// to confirm with EqualTo, then enters the request in the request index,
// so the extra build is paid once per (request, model) pair. With a zero
// limit both indexes grow with the sweep they serve (one bounded call); a
// long-lived Planner session sets a limit, past which storing evicts the
// oldest fingerprint bucket and remembering the oldest request key, each
// index on its own. Oldest-first, like the basisStore, so identical
// request streams replay identically. A session's Replan starts the
// churned state's cache with the model index carried over (carry) and
// an empty request index.
type batchCache struct {
	mu       sync.Mutex
	entries  map[uint64][]*batchEntry // buckets are append-only
	order    []uint64                 // bucket fingerprints, oldest first (limit > 0 only)
	size     int
	requests map[requestKey]keyedRequest
	keys     []requestKey // request keys, oldest first (limit > 0 only)
	limit    int
}

// lookupRequest returns the entry that answered a request for d under k,
// and the τ that request resolved to.
func (c *batchCache) lookupRequest(k requestKey, d *collective.Demand) (*batchEntry, float64) {
	c.mu.Lock()
	r, ok := c.requests[k]
	c.mu.Unlock()
	if !ok || !r.demand.Equal(d) {
		return nil, 0
	}
	return r.entry, r.tau
}

// remember enters a request in the request index.
func (c *batchCache) remember(k requestKey, r keyedRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.requests == nil {
		c.requests = make(map[requestKey]keyedRequest)
	}
	if _, ok := c.requests[k]; !ok && c.limit > 0 {
		if len(c.keys) >= c.limit {
			delete(c.requests, c.keys[0])
			c.keys = c.keys[1:]
		}
		c.keys = append(c.keys, k)
	}
	c.requests[k] = r
}

// lookup returns an entry solved from a model equal to p under the same
// MinimizeMakespan choice. The flag is consumed after the model is built,
// so it is invisible to the fingerprint; a session mixing per-request
// options must not replay an unrefined schedule into a request that asked
// for the refinement (or vice versa). The confirming build runs outside
// the lock.
func (c *batchCache) lookup(fp uint64, p *lp.Problem, makespan bool) *batchEntry {
	c.mu.Lock()
	bucket := c.entries[fp]
	c.mu.Unlock()
	for _, e := range bucket {
		if e.opt.MinimizeMakespan == makespan && e.model().EqualTo(p) {
			return e
		}
	}
	return nil
}

// carry returns the cache a churned session state starts from: c's model
// index, oldest first as in c, with an empty request index. Entries that
// hold their model (function-bearing requests) stay behind, so a session
// carries no lp.Problem across churn. Buckets are copied, so neither
// cache's appends reach the other's.
func (c *batchCache) carry() *batchCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := &batchCache{limit: c.limit, entries: make(map[uint64][]*batchEntry, len(c.entries))}
	for fp, bucket := range c.entries {
		var kept []*batchEntry
		for _, e := range bucket {
			if e.base == nil {
				kept = append(kept, e)
			}
		}
		if kept != nil {
			next.entries[fp] = kept
			next.size += len(kept)
		}
	}
	for _, fp := range c.order {
		if next.entries[fp] != nil {
			next.order = append(next.order, fp)
		}
	}
	return next
}

func (c *batchCache) store(fp uint64, e *batchEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[uint64][]*batchEntry)
	}
	if c.limit > 0 {
		if c.size >= c.limit {
			for i, k := range c.order {
				if k == fp {
					continue
				}
				c.size -= len(c.entries[k])
				delete(c.entries, k)
				c.order = append(c.order[:i], c.order[i+1:]...)
				break
			}
		}
		if len(c.entries[fp]) == 0 {
			c.order = append(c.order, fp)
		}
	}
	c.entries[fp] = append(c.entries[fp], e)
	c.size++
}

// BatchSolveLP solves the LP form (§4.1) for every demand in the sweep,
// reusing solver state across points as described at the top of the
// file. Results and errors are returned per point, aligned with demands;
// points fail independently. opt applies to every point (opt.Workers is
// the default pool size when bo.Workers is zero). The fan-out stops
// picking up new points once ctx is done (each unsolved point's error
// wraps context.Cause), and in-flight solves are interrupted through the
// same ctx. Options.TimeLimit is a per-point budget, as if each point
// were a separate SolveLP call.
func BatchSolveLP(ctx context.Context, t *topo.Topology, demands []*collective.Demand, opt Options, bo BatchOptions) ([]*Result, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(demands))
	errs := make([]error, len(demands))
	if len(demands) == 0 {
		return results, errs
	}
	workers := bo.Workers
	if workers == 0 {
		workers = opt.Workers
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(demands) {
		workers = len(demands)
	}

	cache := &batchCache{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(demands) / workers
		hi := (w + 1) * len(demands) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			var prev incumbentState // the chain's last solved model and basis
			for i := lo; i < hi; i++ {
				if err := context.Cause(ctx); err != nil && ctx.Err() != nil {
					errs[i] = err
					continue
				}
				res, inc, _, err := cache.solvePoint(ctx, t, demands[i], opt, hintFromSolve(prev.root()))
				results[i], errs[i] = res, err
				if err == nil && inc.model != nil {
					prev = inc
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	return results, errs
}

// solvePoint solves one sweep point: replayed from the cache when the
// same request or a structurally identical point was already solved,
// otherwise solved for real (warm-started from hint) and cached. A replay
// carries no payload of its own; replayOf names the entry it replayed,
// and a solve's payload names the entry it stored, so a session can
// recognise a replay of its own incumbent, or keep the entry as the
// incumbent's payload. Options.TimeLimit is layered onto ctx per point.
func (c *batchCache) solvePoint(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, hint *basisHint) (res *Result, inc incumbentState, replayOf *batchEntry, err error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	start := time.Now()
	key, keyed := keyOf(d, &opt)
	if keyed {
		if e, tau := c.lookupRequest(key, d); e != nil {
			if res := e.replay(t, noCopy(d), tau, start); res != nil {
				return res, incumbentState{}, e, nil
			}
		}
	}
	pr := prepLP(t, d, opt)
	var fp uint64
	if pr.m != nil {
		fp = pr.m.p.Fingerprint()
		if e := c.lookup(fp, pr.m.p, opt.MinimizeMakespan); e != nil {
			if res := e.replay(t, pr.d, pr.in.tau, start); res != nil {
				if keyed {
					c.remember(key, keyedRequest{demand: d.Clone(), tau: pr.in.tau, entry: e})
				}
				return res, incumbentState{}, e, nil
			}
			// A replay that fails validation (e.g. a demand whose chunk
			// numbering differs despite the identical model) falls
			// through to an honest solve.
		}
	}
	res, inc, err = solvePrepped(ctx, t, pr, opt, hint, start)
	if err == nil && inc.model != nil {
		e := &batchEntry{
			demand:    d.Clone(),
			opt:       opt,
			topo:      t,
			sends:     res.Schedule.Sends,
			numEpochs: res.Schedule.NumEpochs,
			epc:       res.Schedule.EpochsPerChunk,
			objective: res.Objective,
			gap:       res.Gap,
			optimal:   res.Optimal,
		}
		e.opt.Progress = nil
		if !keyed {
			e.base = pr.m.p
		}
		if inc.model == pr.m {
			e.basis = inc.basis
		}
		c.store(fp, e)
		if keyed {
			c.remember(key, keyedRequest{demand: e.demand, tau: pr.in.tau, entry: e})
		}
		inc.entry = e
	}
	return res, inc, nil, err
}

// replay re-issues the entry's schedule for demand d (the form the LP
// schedules, see noCopy) at epoch duration tau. Identical points coincide
// in chunk units, so only tau and the demand the schedule serves change;
// a validation pass confirms the transplanted schedule really satisfies
// d, returning nil (solve for real) if anything disagrees.
func (e *batchEntry) replay(t *topo.Topology, d *collective.Demand, tau float64, start time.Time) *Result {
	sch := &schedule.Schedule{
		Topo:           t,
		Demand:         d,
		Tau:            tau,
		NumEpochs:      e.numEpochs,
		Sends:          e.sends,
		AllowCopy:      false,
		EpochsPerChunk: e.epc,
	}
	if err := sch.Validate(); err != nil {
		return nil
	}
	return &Result{
		Schedule:  sch,
		Objective: e.objective,
		Gap:       e.gap,
		Optimal:   e.optimal,
		SolveTime: time.Since(start),
		Epochs:    e.numEpochs,
		Tau:       tau,
		Reused:    true,
	}
}
