// Package horizon implements the rolling-horizon decomposition of the
// time-expanded LP (§4.1): instead of one monolithic simplex over all K
// epochs, the horizon is sliced into overlapping windows [S, S+W) that
// are solved in sequence, each a small LP in the same variable space as
// the monolithic model.
//
// # Window / commit / carry-forward invariants
//
// After window [lo, hi) solves, the driver commits the prefix [lo,
// lo+C) (C = W − V, V the overlap): every tentative flow departing a
// buffered node inside the committed stride becomes permanent, and
// flows departing bufferless nodes (switches, NoBuffers pass-through
// GPUs) are committed by proportional closure — each forwards the
// fraction of its node's arrivals that is itself committed, processed
// in ascending epoch order so the chase follows chains through
// consecutive switches. The closure keeps every committed chunk's full
// switch path committed together; if any committed arrival at a
// bufferless node would be dropped (committed-in exceeds committed-out),
// the decomposition is abandoned for one monolithic solve rather than
// ever producing an invalid schedule.
//
// The next window then starts from a Boundary replayed from the
// committed prefix: per-source inventory at buffered nodes, in-flight
// sends landing at epochs >= lo (fixed conservation right-hand sides),
// committed link usage (subtracted from the sliding capacity budgets),
// and remaining per-pair demand. Window flows are self-contained — they
// land inside their window — so the default overlap is sized to the
// longest committed forward chain (link span × (1 + longest
// consecutive-switch chain)), which guarantees a committed send's
// switch forwards never need epochs the next window cannot see.
//
// The final window must consume all remaining demand; if that is
// infeasible at the estimated K, the horizon is extended a few strides
// and, failing that, the driver falls back to the monolithic LP. The
// stitched flow/read arrays then pass through the same peeling
// decomposition and schedule validation as the monolithic path.
//
// Three safeguards keep the windowed optima committable. A pruning pass
// strips degenerate stranded relay flow before committing: the LP's
// bufferless rows only bound forwarding (out <= in), so a window optimum
// may park chunks at a switch it never forwards from — harmless to the
// LP, fatal to the commit closure. The window width is floored at the
// dk-weighted longest demanded route plus the commit stride: reads are
// the window objective's only terms, so a window too narrow to complete
// any read along a route has no incentive to advance that route at all
// and the decomposition stalls at zero objective. And as a safety net
// behind the floor, two consecutive zero-objective non-final windows
// double W in place (congestion can stretch the effective route length
// past the uncongested floor).
//
// Windows chain warm bases two ways: an exact fingerprint hit from the
// Planner session's basis store (identical window of an earlier
// request), else a key-matched projection of the previous window's
// basis — overlapping epochs share column keys, so the projection
// seeds most of the new basis and the dual simplex repairs the rest.
//
// Policy routes to this solver (SolverHorizon) when CostModelPolicy
// prices an LP-eligible request above HorizonCells — the regime where
// the monolithic model's demands×links×epochs product makes one simplex
// the scaling wall. ForceHorizon pins it for tests; importing this
// package (blank import from the facade, daemon, and experiments)
// registers the implementation with core.
package horizon

import (
	"context"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// maxExtensions bounds how many times the final window may extend the
// horizon before degrading to a monolithic solve.
const maxExtensions = 4

// Solve runs the rolling-horizon decomposition as a one-shot solve (no
// session state). See the package comment for the invariants.
func Solve(ctx context.Context, t *topo.Topology, d *collective.Demand, opt core.Options) (*core.Result, error) {
	if opt.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.TimeLimit)
		defer cancel()
		opt.TimeLimit = 0
	}
	return solve(ctx, t, d, opt, nil)
}

func prog(opt *core.Options, p core.Progress) {
	if opt.Progress != nil {
		opt.Progress(p)
	}
}

func sample(phase string, round, iters int, obj float64, haveObj bool) core.Progress {
	p := core.Progress{
		Solver:     "horizon",
		Phase:      phase,
		Round:      round,
		Iterations: iters,
		Incumbent:  math.NaN(),
		Bound:      math.NaN(),
		Gap:        math.Inf(1),
	}
	if haveObj {
		p.Incumbent, p.Bound, p.Gap = obj, obj, 0
	}
	return p
}

// solve is the registered SolverFunc (register.go): the caller (Planner
// or Solve) has already layered TimeLimit onto ctx.
func solve(ctx context.Context, t *topo.Topology, d *collective.Demand, opt core.Options, hooks *core.SessionHooks) (*core.Result, error) {
	start := time.Now()

	// Makespan refinement re-solves whole horizons; it composes with the
	// monolithic path, not with windowed commitment.
	if opt.MinimizeMakespan {
		return core.SolveLP(ctx, t, d, opt)
	}

	if opt.AutoEpochMultiplier && opt.EpochMultiplier <= 1 && opt.Tau == 0 {
		em := SelectEM(t, d, opt, opt.HorizonCellBudget)
		opt.EpochMultiplier = em
		prog(&opt, sample("em", 0, 0, em, true))
	}

	wi := core.NewWindowInstance(t, d, opt)
	if wi.Empty() {
		return wi.EmptyResult(start), nil
	}

	maxdk := wi.MaxLinkSpan()
	span := maxdk * (1 + maxSwitchChain(t))
	W := opt.HorizonWindow
	if W <= 0 {
		W = 2 * span
		if W < 8 {
			W = 8
		}
	}
	V := opt.HorizonOverlap
	if V <= 0 {
		V = span - 1
	}
	if V > W-1 {
		V = W - 1
	}
	C := W - V
	// Reads are the window objective's only terms, so a window too
	// narrow to complete any read along a demanded route has no
	// incentive to advance that route's chunks at all and the
	// decomposition stalls. Floor the width so every departure inside
	// the commit stride can still see its longest route finish within
	// the same window. When the floor binds on an auto-sized request,
	// grow the commit stride along with the width: keeping the original
	// sliver stride would re-solve nearly the same epochs K/C times
	// (measured 1.5x slower than C = routeSpan on the NDv2 headline).
	if rs := routeSpan(wi); W < rs+C {
		if opt.HorizonWindow <= 0 && opt.HorizonOverlap <= 0 && rs > C {
			C = rs
		}
		W = rs + C
		V = W - C
	}

	st := newStitcher(wi)
	res := &core.Result{Tau: wi.Tau()}
	var prevProb *lp.Problem
	var prevBasis *lp.Basis
	warmFirst := false
	extensions := 0
	stalled := 0
	S := 0
	// One solve workspace for every window's LP: each rebinds the storage
	// the one before sized (windows of one horizon are near-equal in
	// size), nothing numeric carries over, no result aliases it, and it
	// dies with this call — a session, Result or Plan must never hold one.
	var ws lp.Solver

	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: horizon solve interrupted at window %d: %w", res.Windows+1, context.Cause(ctx))
		}
		K := wi.Epochs()
		lo, hi := S, S+W
		final := false
		if hi >= K {
			hi, final = K, true
		}

		bd, err := st.boundary(lo)
		if err != nil {
			return fallbackMono(ctx, t, d, opt, start, err)
		}
		wlp, err := wi.BuildWindow(lo, hi, final, bd)
		if err != nil {
			return fallbackMono(ctx, t, d, opt, start, err)
		}

		// Warm start: an exact fingerprint hit from the session store
		// beats a key-matched projection of the previous window.
		var warm *lp.Basis
		if hooks != nil && hooks.LookupBasis != nil {
			warm = hooks.LookupBasis(wlp.P)
		}
		if warm == nil && prevProb != nil {
			warm = core.TransferBasis(prevProb, prevBasis, wlp.P)
		}
		lpOpt := lp.Options{Context: ctx}
		if warm != nil {
			lpOpt.WarmStart = warm
			lpOpt.Method = lp.MethodDual
		}
		sol, err := ws.Solve(wlp.P, lpOpt)
		if err != nil {
			return nil, err
		}
		switch sol.Status {
		case lp.StatusOptimal:
		case lp.StatusInfeasible:
			if final && extensions < maxExtensions {
				// The estimated K cannot finish the committed prefix's
				// remainder; extend the horizon by a stride and retry.
				extensions++
				ext := C
				if maxdk > ext {
					ext = maxdk
				}
				wi.SetEpochs(K + ext)
				st.grow(wi.Epochs())
				prevProb, prevBasis = nil, nil
				continue
			}
			return fallbackMono(ctx, t, d, opt, start,
				fmt.Errorf("window [%d,%d) infeasible (K=%d)", lo, hi, K))
		default:
			if ierr := ctx.Err(); ierr != nil {
				return nil, fmt.Errorf("core: horizon window [%d,%d) interrupted after %d iterations: %w",
					lo, hi, sol.Iterations, context.Cause(ctx))
			}
			return fallbackMono(ctx, t, d, opt, start,
				fmt.Errorf("window [%d,%d) solve ended %v", lo, hi, sol.Status))
		}

		// Safety net behind the route-span floor: if two consecutive
		// non-final windows schedule no reads at all, the remaining
		// routes evidently outrun the lookahead (longer-than-shortest
		// detours, congested shortest paths); widen the window in place
		// instead of rolling forward through dead epochs.
		if !final && sol.Objective <= commitTol {
			if stalled++; stalled >= 2 {
				W *= 2
				V = W - C
				prevProb, prevBasis = nil, nil
				stalled = 0
				continue
			}
		} else {
			stalled = 0
		}

		if res.Windows == 0 {
			warmFirst = warm != nil
		}
		res.Windows++
		res.RootIterations += sol.Iterations
		res.Refactorizations += sol.Refactorizations
		res.FTUpdates += sol.FTUpdates
		res.UpdateNnz += sol.UpdateNnz
		prog(&opt, sample("window", res.Windows, sol.Iterations, sol.Objective, true))

		if hooks != nil && hooks.RecordBasis != nil {
			hooks.RecordBasis(wlp.P, sol.Basis)
		}

		flows, reads := wlp.Flows(sol.X)
		st.prune(flows)
		if final {
			st.commitAll(flows, reads, lo)
			break
		}
		if err := st.commit(flows, reads, lo, lo+C); err != nil {
			return fallbackMono(ctx, t, d, opt, start, err)
		}
		prevProb, prevBasis = wlp.P, sol.Basis
		S += C
	}

	// Stitch: the committed arrays hold a full-horizon rate allocation;
	// the same peeling pass as the monolithic path decomposes and
	// validates it (st.flows is consumed, st.reads survives for the
	// objective and the certify pass).
	obj := wi.Objective(st.reads)
	sch, err := wi.Decompose(st.flows, st.reads)
	if err != nil {
		return fallbackMono(ctx, t, d, opt, start, err)
	}
	prog(&opt, sample("stitch", res.Windows, res.RootIterations, obj, true))

	res.Schedule = sch
	res.Objective = obj
	res.Epochs = wi.Epochs()
	res.WarmStarted = warmFirst
	res.SolveTime = time.Since(start)

	if opt.HorizonCertify > 0 {
		certify(ctx, t, d, opt, wi, st.reads, res)
	}
	return res, nil
}

// certify re-solves the instance monolithically under its own budget and
// scores the stitched allocation at the monolithic horizon's tail
// weights, recording the relative objective gap. Certification time is
// excluded from SolveTime; a budget overrun or error leaves the result
// uncertified (Gap 0, Optimal false).
func certify(ctx context.Context, t *topo.Topology, d *collective.Demand, opt core.Options, wi *core.WindowInstance, reads [][][]float64, res *core.Result) {
	cctx, cancel := context.WithTimeout(ctx, opt.HorizonCertify)
	defer cancel()
	copt := opt
	copt.TimeLimit = 0
	copt.HorizonCertify = 0
	copt.Progress = nil
	mono, err := core.SolveLP(cctx, t, d, copt)
	if err != nil || mono.Objective <= 0 {
		return
	}
	stObj := wi.ObjectiveAt(reads, core.LPTailWeights(mono.Epochs))
	gap := (mono.Objective - stObj) / mono.Objective
	if gap < 0 {
		gap = 0
	}
	res.Gap = gap
	res.Optimal = mono.Optimal && gap <= 1e-6
	prog(&opt, sample("certify", res.Windows, mono.RootIterations, gap, true))
}

// fallbackMono abandons the decomposition for one monolithic LP solve —
// the safety net behind every invariant the windowed path checks
// (boundary bookkeeping, committed-flow closure, final-window
// feasibility, stitched-schedule validation).
func fallbackMono(ctx context.Context, t *topo.Topology, d *collective.Demand, opt core.Options, start time.Time, cause error) (*core.Result, error) {
	prog(&opt, sample("fallback", 0, 0, 0, false))
	res, err := core.SolveLP(ctx, t, d, opt)
	if err != nil {
		return nil, fmt.Errorf("core: horizon fallback (%v) failed: %w", cause, err)
	}
	res.SolveTime = time.Since(start)
	return res, nil
}

// routeSpan is the epoch span of the longest demanded shortest route:
// the maximum over demanded (source, destination) pairs of the
// dk-weighted (per-link epochs-in-flight) shortest-path distance. A
// chunk departing at epoch e along its shortest route lands at its
// destination no earlier than e + routeSpan - 1, so windows narrower
// than this can never schedule the pair's read. Unreachable demanded
// pairs are skipped — the monolithic model is just as infeasible for
// them, and the final-window fallback reports it.
func routeSpan(wi *core.WindowInstance) int {
	t := wi.Topo()
	nN := t.NumNodes()
	type edge struct{ to, dk int }
	adj := make([][]edge, nN)
	for l := 0; l < t.NumLinks(); l++ {
		lk := t.Link(topo.LinkID(l))
		adj[lk.Src] = append(adj[lk.Src], edge{int(lk.Dst), wi.LandEpoch(l, 0) + 1})
	}
	const inf = math.MaxInt32
	span := 0
	dist := make([]int, nN)
	done := make([]bool, nN)
	for si := 0; si < wi.NumSources(); si++ {
		for i := range dist {
			dist[i], done[i] = inf, false
		}
		dist[wi.Source(si)] = 0
		//teccl:allow-ctxcheck bounded: Dijkstra over nN nodes; every iteration marks one node done or exits
		for {
			u, best := -1, inf
			for i, v := range dist {
				if !done[i] && v < best {
					u, best = i, v
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for _, e := range adj[u] {
				if nd := best + e.dk; nd < dist[e.to] {
					dist[e.to] = nd
				}
			}
		}
		for dst := 0; dst < nN; dst++ {
			if wi.Dem(si, dst) > 0 && dist[dst] < inf && dist[dst] > span {
				span = dist[dst]
			}
		}
	}
	return span
}

// maxSwitchChain is the longest chain of consecutive bufferless switch
// hops reachable in the topology — the number of extra forwards a
// committed send may need beyond its first landing. Cycles among
// switches are capped at the switch count.
func maxSwitchChain(t *topo.Topology) int {
	nN := t.NumNodes()
	var switches []int
	for n := 0; n < nN; n++ {
		if t.IsSwitch(topo.NodeID(n)) {
			switches = append(switches, n)
		}
	}
	if len(switches) == 0 {
		return 0
	}
	// chain[n]: switches on the longest switch-only path starting at n
	// (inclusive). Relax |switches| times; cycles saturate at the cap.
	chain := make([]int, nN)
	for _, n := range switches {
		chain[n] = 1
	}
	for iter := 0; iter < len(switches); iter++ {
		changed := false
		for _, n := range switches {
			best := 1
			for _, lid := range t.Out(topo.NodeID(n)) {
				m := int(t.Link(lid).Dst)
				if t.IsSwitch(topo.NodeID(m)) && 1+chain[m] > best {
					best = 1 + chain[m]
				}
			}
			if best > len(switches) {
				best = len(switches)
			}
			if best > chain[n] {
				chain[n] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	max := 0
	for _, n := range switches {
		if chain[n] > max {
			max = chain[n]
		}
	}
	return max
}
