package core

// horizon.go is the rolling-horizon decomposition of the time-expanded
// LP (§4.1): instead of one monolithic simplex over all K epochs, the
// horizon is sliced into overlapping windows [S, S+W) that are solved in
// sequence, each a small LP in the same variable space as the
// monolithic model.
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
// A first window with no store hit has no previous window to project:
// unless Options.Crash is CrashOff it is crash-started from the greedy
// plan's path support (crashBasisLP), as a cold monolithic solve is,
// and Result.CrashStarted reports it.
//
// Policy routes to this solver (SolverHorizon) when CostModelPolicy
// prices an LP-eligible request above HorizonCells — the regime where
// the monolithic model's demands×links×epochs product makes one simplex
// the scaling wall. ForceHorizon pins it for tests.

import (
	"context"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// maxExtensions bounds how many times the final window may extend the
// horizon before degrading to a monolithic solve.
const maxExtensions = 4

// SolveHorizon runs the rolling-horizon decomposition as a one-shot
// solve (no session basis store). See the file comment for the
// invariants.
func SolveHorizon(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	opt.TimeLimit = 0
	return solveHorizon(ctx, t, d, opt, nil)
}

// solveHorizon is SolveHorizon with the caller (Planner or SolveHorizon)
// having already layered TimeLimit onto ctx. warmBases is the session's
// fingerprint-keyed basis store, nil for a one-shot solve: each window's
// basis recorded by one request warm-starts the identical window of the
// next.
func solveHorizon(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, warmBases *basisStore) (*Result, error) {
	start := time.Now()

	// Makespan refinement re-solves whole horizons; it composes with the
	// monolithic path, not with windowed commitment.
	if opt.MinimizeMakespan {
		return SolveLP(ctx, t, d, opt)
	}

	if opt.AutoEpochMultiplier && opt.EpochMultiplier <= 1 && opt.Tau == 0 {
		em, _ := probeEM(t, d, opt, opt.HorizonCellBudget)
		opt.EpochMultiplier = em
		opt.Progress.emit(lpSample("horizon", "em", 0, 0, em, true))
	}

	wi := NewWindowInstance(t, d, opt)
	if wi.err != nil {
		return nil, wi.err
	}
	if wi.ix == nil {
		r := emptyResult(wi.in, start)
		r.Schedule.AllowCopy = false
		return r, nil
	}

	maxdk := wi.in.maxLinkSpan()
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
	res := &Result{Tau: wi.in.tau}
	var prevProb *lp.Problem
	var prevBasis *lp.Basis
	warmFirst, crashFirst := false, false
	extensions := 0
	stalled := 0
	S := 0

	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: horizon solve interrupted at window %d: %w", res.Windows+1, context.Cause(ctx))
		}
		K := wi.in.K
		lo, hi := S, S+W
		final := false
		if hi >= K {
			hi, final = K, true
		}

		bd, err := st.boundary(lo)
		if err != nil {
			return fallbackMono(ctx, t, d, opt, start, res, err)
		}
		wlp, err := wi.BuildWindow(lo, hi, final, bd)
		if err != nil {
			return fallbackMono(ctx, t, d, opt, start, res, err)
		}

		// Warm start: an exact fingerprint hit from the session store
		// beats a key-matched projection of the previous window.
		var warm *lp.Basis
		if warmBases != nil {
			warm = warmBases.lookup(wlp.P)
		}
		if warm == nil && prevProb != nil {
			warm = hintFromSolve(prevProb, prevBasis).basisFor(wlp.P)
		}
		lpOpt := lp.Options{Context: ctx}
		if warm != nil {
			lpOpt.WarmStart = warm
		} else if lo == 0 && opt.Crash != CrashOff {
			// A cold first window starts from the greedy plan's path
			// support, as a cold monolithic solve does.
			lpOpt.Crash = crashBasisLP(wlp.m, wi.greedy)
		}
		// Each window borrows a workspace from lp's process pool: windows of
		// one horizon are near-equal in size, so a window usually rebinds
		// the storage the one before sized.
		sol, err := lp.Solve(wlp.P, lpOpt)
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
				wi.setEpochs(K + ext)
				st.grow(wi.in.K)
				prevProb, prevBasis = nil, nil
				continue
			}
			return fallbackMono(ctx, t, d, opt, start, res,
				fmt.Errorf("window [%d,%d) infeasible (K=%d)", lo, hi, K))
		default:
			if ierr := ctx.Err(); ierr != nil {
				return nil, fmt.Errorf("core: horizon window [%d,%d) interrupted after %d iterations: %w",
					lo, hi, sol.Iterations, context.Cause(ctx))
			}
			return fallbackMono(ctx, t, d, opt, start, res,
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
			warmFirst, crashFirst = warm != nil, lpOpt.Crash != nil
		}
		res.Windows++
		res.addLP(sol)
		opt.Progress.emit(lpSample("horizon", "window", res.Windows, sol.Iterations, sol.Objective, true))

		if warmBases != nil {
			warmBases.record(wlp.P, sol.Basis)
		}

		flows, reads := wlp.Flows(sol.X)
		st.prune(flows)
		if final {
			st.commitAll(flows, reads, lo)
			break
		}
		if err := st.commit(flows, reads, lo, lo+C); err != nil {
			return fallbackMono(ctx, t, d, opt, start, res, err)
		}
		prevProb, prevBasis = wlp.P, sol.Basis
		S += C
	}

	// Stitch: the committed arrays hold a full-horizon rate allocation;
	// the same peeling pass as the monolithic path decomposes and
	// validates it (st.flows is consumed, st.reads survives for the
	// objective and measureGap).
	obj := wi.objectiveAt(st.reads, wi.ix.tail)
	sch, err := wi.Decompose(st.flows, st.reads)
	if err != nil {
		return fallbackMono(ctx, t, d, opt, start, res, err)
	}
	opt.Progress.emit(lpSample("horizon", "stitch", res.Windows, res.RootIterations, obj, true))

	res.Schedule = sch
	res.Objective = obj
	res.Epochs = wi.in.K
	res.WarmStarted, res.CrashStarted = warmFirst, crashFirst
	res.SolveTime = time.Since(start)

	if opt.HorizonCertify > 0 {
		measureGap(ctx, t, d, opt, wi, st.reads, res)
	}
	return res, nil
}

// measureGap re-solves the instance monolithically under its own budget
// and scores the stitched allocation at the monolithic horizon's tail
// weights, recording the relative objective gap in a "certify" Progress
// sample. Its time is excluded from SolveTime; a budget overrun or error
// leaves the gap unmeasured (Gap 0, Optimal false).
func measureGap(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, wi *WindowInstance, reads [][][]float64, res *Result) {
	cctx, cancel := context.WithTimeout(ctx, opt.HorizonCertify)
	defer cancel()
	copt := opt
	copt.TimeLimit = 0
	copt.HorizonCertify = 0
	copt.Progress = nil
	mono, err := SolveLP(cctx, t, d, copt)
	if err != nil || mono.Objective <= 0 {
		return
	}
	stObj := wi.objectiveAt(reads, lpTailWeights(mono.Epochs))
	gap := (mono.Objective - stObj) / mono.Objective
	if gap < 0 {
		gap = 0
	}
	res.Gap = gap
	res.Optimal = mono.Optimal && gap <= 1e-6
	opt.Progress.emit(lpSample("horizon", "certify", res.Windows, mono.RootIterations, gap, true))
}

// fallbackMono abandons the decomposition for one monolithic LP solve —
// the safety net behind every invariant the windowed path checks
// (boundary bookkeeping, committed-flow closure, final-window
// feasibility, stitched-schedule validation). abandoned holds the effort
// of the windows solved before it, which the "fallback" Progress sample
// reports (Round the windows, Iterations their pivots) and the returned
// Result adds to the monolithic solve's.
func fallbackMono(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, start time.Time, abandoned *Result, cause error) (*Result, error) {
	opt.Progress.emit(lpSample("horizon", "fallback", abandoned.Windows, abandoned.RootIterations, 0, false))
	res, err := SolveLP(ctx, t, d, opt)
	if err != nil {
		return nil, fmt.Errorf("core: horizon fallback (%v) failed: %w", cause, err)
	}
	res.Windows += abandoned.Windows
	res.RootIterations += abandoned.RootIterations
	res.Refactorizations += abandoned.Refactorizations
	res.FTUpdates += abandoned.FTUpdates
	res.UpdateNnz += abandoned.UpdateNnz
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
func routeSpan(wi *WindowInstance) int {
	t := wi.t
	nN := t.NumNodes()
	type edge struct{ to, dk int }
	adj := make([][]edge, nN)
	for l := 0; l < t.NumLinks(); l++ {
		lk := t.Link(topo.LinkID(l))
		adj[lk.Src] = append(adj[lk.Src], edge{int(lk.Dst), wi.in.landEpoch(l, 0) + 1})
	}
	const inf = math.MaxInt32
	span := 0
	dist := make([]int, nN)
	done := make([]bool, nN)
	for si, src := range wi.ix.sources {
		for i := range dist {
			dist[i], done[i] = inf, false
		}
		dist[src] = 0
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
			if wi.dem(si, dst) > 0 && dist[dst] < inf && dist[dst] > span {
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
