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

import (
	"context"
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
// the epoch duration differs between identical points.
type batchEntry struct {
	base      *lp.Problem // the built base model (pre-makespan), for exact identity checks
	sends     []schedule.Send
	numEpochs int
	epc       []int // EpochsPerChunk of the solved schedule
	objective float64
	gap       float64
	optimal   bool
	// makespan records whether the entry was solved with
	// MinimizeMakespan. The flag is consumed after the model is built,
	// so it is invisible to the fingerprint; a Planner session mixing
	// per-request options must not replay an unrefined schedule into a
	// request that asked for the refinement (or vice versa).
	makespan bool
}

// batchCache indexes solved points by model fingerprint. With a zero
// limit it grows with the sweep it serves (one bounded call); a
// long-lived Planner session sets a limit, past which storing evicts the
// oldest fingerprint bucket (each retained entry holds a full
// lp.Problem, so an unbounded serving session would otherwise grow
// linearly with distinct request shapes). Oldest-first, like the
// basisStore, so identical request streams replay identically.
type batchCache struct {
	mu      sync.Mutex
	entries map[uint64][]*batchEntry
	order   []uint64 // bucket fingerprints, oldest first (limit > 0 only)
	limit   int
	size    int
}

func (c *batchCache) lookup(fp uint64, base *lp.Problem, makespan bool) *batchEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries[fp] {
		if e.makespan == makespan && e.base.EqualTo(base) {
			return e
		}
	}
	return nil
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

// solvePoint solves one sweep point: replayed from the cache when a
// structurally identical point was already solved, otherwise solved for
// real (warm-started from hint) and cached. A replay carries no payload
// of its own; replayOf names the cached model it replayed, so a session
// can recognise a replay of its own incumbent. Options.TimeLimit is
// layered onto ctx per point.
func (c *batchCache) solvePoint(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, hint *basisHint) (res *Result, inc incumbentState, replayOf *lp.Problem, err error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	start := time.Now()
	pr := prepLP(t, d, opt)
	var fp uint64
	if pr.m != nil {
		fp = pr.m.p.Fingerprint()
		if e := c.lookup(fp, pr.m.p, opt.MinimizeMakespan); e != nil {
			if res := replayEntry(t, pr, e, start); res != nil {
				return res, incumbentState{}, e.base, nil
			}
			// A replay that fails validation (e.g. a demand whose chunk
			// numbering differs despite the identical model) falls
			// through to an honest solve.
		}
	}
	res, inc, err = solvePrepped(ctx, t, pr, opt, hint, start)
	if err == nil && inc.model != nil {
		c.store(fp, &batchEntry{
			base:      pr.m.p,
			sends:     res.Schedule.Sends,
			numEpochs: res.Schedule.NumEpochs,
			epc:       res.Schedule.EpochsPerChunk,
			objective: res.Objective,
			gap:       res.Gap,
			optimal:   res.Optimal,
			makespan:  opt.MinimizeMakespan,
		})
	}
	return res, inc, nil, err
}

// replayEntry re-issues a cached point's schedule under this point's
// epoch duration and demand. The sweep points coincide in chunk units,
// so only tau (and the demand the schedule serves) changes; a validation
// pass confirms the transplanted schedule really satisfies this demand,
// returning nil (solve for real) if anything disagrees.
func replayEntry(t *topo.Topology, pr *lpPrep, e *batchEntry, start time.Time) *Result {
	sch := &schedule.Schedule{
		Topo:           t,
		Demand:         pr.d,
		Tau:            pr.in.tau,
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
		Tau:       pr.in.tau,
		Reused:    true,
	}
}
