package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// lpIndex is the commodity indexing the LP form (§4.1) is stated over:
// the demanded sources, their per-destination chunk counts, each
// source's reachability windows, and the objective's tail weights at the
// instance's horizon. Every model of one instance — the monolithic LP
// and each rolling-horizon window — is emitted over the same index, so
// they slice the exact same commodity space.
type lpIndex struct {
	sources []int
	// dem[si][d]: chunks destination d wants from source si.
	dem [][]float64
	// earliest[si][n]: epoch windows per source.
	earliest [][]int
	// tail[k]: reward of consuming at epoch k (see lpTailWeights).
	tail []float64
}

func newLPIndex(in *instance) *lpIndex {
	d := in.demand
	nN := in.topo.NumNodes()
	ix := &lpIndex{tail: lpTailWeights(in.K)}

	// Sources and per-destination demand counts.
	for s := 0; s < nN; s++ {
		var row []float64
		total := 0.0
		for dst := 0; dst < nN; dst++ {
			cnt := float64(len(d.DestWantsFromSource(s, dst)))
			if row == nil && cnt > 0 {
				row = make([]float64, nN)
			}
			if cnt > 0 {
				row[dst] = cnt
				total += cnt
			}
		}
		if total > 0 {
			ix.sources = append(ix.sources, s)
			ix.dem = append(ix.dem, row)
		}
	}

	// Reachability windows per source.
	hop := in.hopDistances()
	ix.earliest = make([][]int, len(ix.sources))
	for si, s := range ix.sources {
		ix.earliest[si] = in.reachWindow(hop[s])
	}
	return ix
}

// reachWindow turns one source's hop distances into its reachability
// window: the earliest epoch its commodity can be at each node, K+1 for
// nodes it cannot reach.
func (in *instance) reachWindow(hop []float64) []int {
	e := make([]int, len(hop))
	for n := range e {
		if math.IsInf(hop[n], 1) {
			e[n] = in.K + 1
		} else {
			e[n] = int(hop[n])
		}
	}
	return e
}

// buffered reports whether node n holds inventory for source si's
// commodity: switches never do, the source always does, and under
// NoBuffers only demanders do.
func (ix *lpIndex) buffered(in *instance, si, n int) bool {
	if in.topo.IsSwitch(topo.NodeID(n)) {
		return false
	}
	if n == ix.sources[si] {
		return true
	}
	if in.opt.NoBuffers && ix.dem[si][n] == 0 {
		return false
	}
	return true
}

// initialBoundary is the epoch-0 boundary: full supply at each source,
// nothing in flight, full demand remaining.
func (ix *lpIndex) initialBoundary() *Boundary {
	bd := &Boundary{
		Inv: make([][]float64, len(ix.sources)),
		Rem: make([][]float64, len(ix.sources)),
	}
	for si, s := range ix.sources {
		bd.Inv[si] = make([]float64, len(ix.dem[si]))
		bd.Rem[si] = append([]float64(nil), ix.dem[si]...)
		for _, cnt := range ix.dem[si] {
			bd.Inv[si][s] += cnt
		}
	}
	return bd
}

// lpTailWeights returns the objective's time-discounted tail weights for
// horizon K: the paper's objective sums cumulative reads weighted
// 1/(k+1), so consuming at epoch k earns tail[k] = sum_{j>=k} 1/(j+1).
func lpTailWeights(K int) []float64 {
	tail := make([]float64, K+1)
	for k := K - 1; k >= 0; k-- {
		tail[k] = tail[k+1] + 1/float64(k+1)
	}
	return tail
}

// lpModel is an LP-form problem (§4.1: copy support removed, chunk
// indexes dropped, everything continuous) over an lpIndex, with the
// variable and row indexes its solution is read back through. The
// monolithic LP, every rolling-horizon window, and a model grown by the
// demand-append replan path are all this one struct, filled by emit.
type lpModel struct {
	lpIndex
	in *instance
	p  *lp.Problem
	// fvar[si][l][k], bvar[si][n][k] (k in 0..K), rvar[si][d][k]; noVar
	// where emit created no column.
	fvar [][][]int32
	bvar [][][]int32
	rvar [][][]int32
	// Row indexes the replanning layer edits in place (see replan.go):
	// capRow[l][k] is the windowed capacity row of link l ending at epoch
	// k, destRow[si][dst] the destination-total row of the pair; noVar
	// when the row was not emitted. initRow[si] is source si's supply row
	// and consRow[si][n][k] the conservation row of (source si, node n,
	// epoch k) — the rows the demand-append replan path (lpappend.go)
	// wires new columns into.
	capRow  [][]int32
	destRow [][]int32
	initRow []int32
	consRow [][][]int32
}

// landEpoch is the epoch by whose end a send at epoch e on link l is
// resident at the destination.
func (in *instance) landEpoch(l, e int) int { return e + in.delta[l] + in.kappa[l] - 1 }

// maxLinkSpan is the largest per-link δ+κ (at least 1): the number of
// epochs a single send can stay in flight. The A* round length and the
// rolling-horizon overlap are sized from it so a send lands within the
// next round or window.
func (in *instance) maxLinkSpan() int {
	m := 1
	for l := range in.delta {
		if s := in.delta[l] + in.kappa[l]; s > m {
			m = s
		}
	}
	return m
}

func newLPModel(in *instance, ix *lpIndex) *lpModel {
	return &lpModel{lpIndex: *ix, in: in, p: lp.NewProblem(lp.Maximize)}
}

// noVars is an index column of n entries with nothing emitted yet.
func noVars(n int) []int32 {
	col := make([]int32, n)
	for i := range col {
		col[i] = noVar
	}
	return col
}

// noVarGrid is rows index columns of n entries each with nothing emitted
// yet, cut from one allocation.
func noVarGrid(rows, n int) [][]int32 {
	slab := noVars(rows * n)
	grid := make([][]int32, rows)
	for i := range grid {
		grid[i] = slab[i*n : (i+1)*n : (i+1)*n]
	}
	return grid
}

// fSpan, bSpan and rSpan are the epochs [k0, k1) at which a model over
// [lo, hi) has a flow column of source si on link l, a buffer column at
// node n, and a read column at destination dst opened from bd; k0 >= k1
// when it has none. emit creates exactly these columns, and counts them
// first so the problem's column storage is allocated once at its size.

// fSpan: departures in [lo, hi) that the source's commodity can make
// (reach window) and that also land inside the window, on a live link
// that does not lead back into the source.
func (m *lpModel) fSpan(si, l, lo, hi int) (k0, k1 int) {
	t := m.in.topo
	if t.LinkDown(topo.LinkID(l)) {
		return 0, 0
	}
	lk := t.Link(topo.LinkID(l))
	if int(lk.Dst) == m.sources[si] {
		return 0, 0
	}
	return max(lo, m.earliest[si][lk.Src]), hi - m.in.landEpoch(l, 0)
}

// bSpan: inventory semantics (what remains to forward) over the window's
// epoch boundaries [lo..hi], from the first epoch the commodity can be
// at a buffered node.
func (m *lpModel) bSpan(si, n, lo, hi int) (k0, k1 int) {
	if !m.buffered(m.in, si, n) {
		return 0, 0
	}
	blo := m.earliest[si][n]
	if n == m.sources[si] {
		blo = 0
	}
	return max(blo, lo), hi + 1
}

// rSpan: a pair with demand still uncommitted may consume the epoch an
// arrival lands, one epoch before the chunk becomes forwardable.
func (m *lpModel) rSpan(si, dst, lo, hi int, bd *Boundary) (k0, k1 int) {
	if m.dem[si][dst] == 0 || bd.Rem[si][dst] <= remTol {
		return 0, 0
	}
	return max(m.earliest[si][dst]-1, lo), hi
}

// countCols is the number of columns emit(s0, lo, hi, _, bd) creates.
func (m *lpModel) countCols(s0, lo, hi int, bd *Boundary) int {
	t := m.in.topo
	cols := 0
	for si := s0; si < len(m.sources); si++ {
		for l := 0; l < t.NumLinks(); l++ {
			k0, k1 := m.fSpan(si, l, lo, hi)
			cols += max(k1-k0, 0)
		}
		for n := 0; n < t.NumNodes(); n++ {
			k0, k1 := m.bSpan(si, n, lo, hi)
			cols += max(k1-k0, 0)
			k0, k1 = m.rSpan(si, n, lo, hi, bd)
			cols += max(k1-k0, 0)
		}
	}
	return cols
}

const remTol = 1e-9

// emit is the one statement of the §4.1 LP with the Appendix A
// initialization and termination handling: it adds to m.p the variables
// and rows of sources [s0, len(m.sources)) over epochs [lo, hi), opened
// from boundary bd, and records their indexes in m. Three callers:
//
//   - buildLP: every source, the full horizon, the initial boundary.
//   - BuildWindow (window.go): every source over one rolling-horizon
//     window, bd carrying the committed prefix — inventory rows pin
//     b[lo]+out(lo) to the carried inventory, conservation rows absorb
//     committed in-flight arrivals on their right-hand side, capacity
//     budgets shrink by committed usage, and window flows are
//     self-contained (they land by hi-1). Destination totals are <=
//     remaining demand mid-stream and == remaining demand when final.
//   - appendSourceBlock (lpappend.go): one source pushed onto an already
//     emitted full-span model (s0 > 0). Its flow columns join the
//     capacity rows earlier sources populated. appendDemand refuses the
//     model shapes where a new source would change rows it does not own
//     (NoBuffers, buffer limits, Priority).
//
// The creation order — all f, all b, all r columns, then inventory,
// conservation, bufferless, destination-total, capacity and buffer-limit
// rows — fixes the pivot path of every solve and is pinned by
// bench/expected/seed1.json (make bench-verify).
func (m *lpModel) emit(s0, lo, hi int, final bool, bd *Boundary) error {
	in, p := m.in, m.p
	t := in.topo
	K := in.K
	nL := t.NumLinks()
	nN := t.NumNodes()
	nS := len(m.sources)

	p.Reserve(m.countCols(s0, lo, hi, bd))

	// Flow variables.
	for si := s0; si < nS; si++ {
		s := m.sources[si]
		cols := noVarGrid(nL, K)
		for l, col := range cols {
			for k, k1 := m.fSpan(si, l, lo, hi); k < k1; k++ {
				col[k] = int32(p.AddKeyedVar(lp.MakeKey(lp.KindFlow, s, 0, l, k), 0, lp.Inf, 0))
			}
		}
		m.fvar = append(m.fvar, cols)
	}

	// Buffer variables.
	for si := s0; si < nS; si++ {
		s := m.sources[si]
		cols := noVarGrid(nN, K+1)
		for n, col := range cols {
			for k, k1 := m.bSpan(si, n, lo, hi); k < k1; k++ {
				col[k] = int32(p.AddKeyedVar(lp.MakeKey(lp.KindBuffer, s, 0, n, k), 0, lp.Inf, 0))
			}
		}
		m.bvar = append(m.bvar, cols)
	}

	// Read variables, bounded by the remaining (uncommitted) demand and
	// weighted by the full-horizon tails (see lpTailWeights) so window
	// objectives are comparable slices of the monolithic objective.
	for si := s0; si < nS; si++ {
		s := m.sources[si]
		cols := noVarGrid(nN, K)
		for dst, col := range cols {
			k, k1 := m.rSpan(si, dst, lo, hi, bd)
			if k >= k1 {
				continue
			}
			prio := 1.0
			if in.opt.Priority != nil {
				// The LP aggregates chunks per (source, destination); use
				// the first demanded chunk's priority for the pair.
				if cs := in.demand.DestWantsFromSource(s, dst); len(cs) > 0 {
					prio = in.opt.priorityOf(s, cs[0], dst)
				}
			}
			for ; k < k1; k++ {
				col[k] = int32(p.AddKeyedVar(lp.MakeKey(lp.KindRead, s, 0, dst, k), 0, bd.Rem[si][dst], prio*m.tail[k]))
			}
		}
		m.rvar = append(m.rvar, cols)
	}

	// Every row is assembled in this one buffer: AddRow and AppendToRow
	// copy what they keep.
	var terms []lp.Term
	fAt := func(si, l, k int) int32 {
		if k < lo || k >= hi {
			return noVar
		}
		return m.fvar[si][l][k]
	}

	// Inventory rows: b[lo] plus epoch-lo departures equal the carried-in
	// inventory. At lo = 0 only sources have a b[0] variable and Inv is
	// the supply, which is exactly the Appendix A initialization: the
	// source's inventory plus its epoch-0 sends equal its total supply.
	for si := s0; si < nS; si++ {
		m.initRow = append(m.initRow, noVar)
		for n := 0; n < nN; n++ {
			b := m.bvar[si][n][lo]
			inv := bd.Inv[si][n]
			if b == noVar {
				if inv > 1e-6 {
					return fmt.Errorf("core: window [%d,%d): %.6g chunks of source %d stranded at bufferless node %d",
						lo, hi, inv, m.sources[si], n)
				}
				continue
			}
			terms = append(terms[:0], lp.Term{Var: lp.VarID(b), Coeff: 1})
			for _, lid := range t.Out(topo.NodeID(n)) {
				if f := m.fvar[si][int(lid)][lo]; f != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
				}
			}
			r := p.AddRow(terms, lp.EQ, inv)
			if n == m.sources[si] {
				m.initRow[si] = int32(r)
			}
		}
	}

	// Conservation for buffered nodes, with committed in-flight arrivals
	// landing during epoch k credited on the right-hand side:
	//   B_k + in(k) + Arr(k) = B_{k+1} + R_k + out(k+1)
	// where in(k) are sends landing during epoch k (sent at k-δ-κ+1) and
	// out(k+1) are sends departing at epoch k+1.
	for si := s0; si < nS; si++ {
		rows := noVarGrid(nN, K)
		for n, row := range rows {
			if !m.buffered(in, si, n) {
				continue
			}
			for k := lo; k < hi; k++ {
				terms = terms[:0]
				if b := m.bvar[si][n][k]; b != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(b), Coeff: 1})
				}
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					if f := fAt(si, l, k-in.delta[l]-in.kappa[l]+1); f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
				if b := m.bvar[si][n][k+1]; b != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(b), Coeff: -1})
				}
				if r := m.rvar[si][n][k]; r != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(r), Coeff: -1})
				}
				if k+1 < hi {
					for _, lid := range t.Out(topo.NodeID(n)) {
						if f := m.fvar[si][int(lid)][k+1]; f != noVar {
							terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: -1})
						}
					}
				}
				rhs := 0.0
				if arr := bd.arrAt(si, n, k); arr != 0 {
					rhs = -arr // avoid -0.0: fingerprints hash bit patterns
				}
				if len(terms) == 0 {
					if rhs != 0 {
						return fmt.Errorf("core: window [%d,%d): committed arrival at (source %d, node %d, epoch %d) has no receiving variables",
							lo, hi, m.sources[si], n, k)
					}
					continue
				}
				row[k] = int32(p.AddRow(terms, lp.EQ, rhs))
			}
		}
		m.consRow = append(m.consRow, rows)
	}

	// Bufferless nodes (switches and, under NoBuffers, pass-through
	// GPUs): outgoing flow at k is limited by window arrivals forwardable
	// exactly at k (landed during k-1). Committed flows through a
	// bufferless node are closed under forwarding before they are
	// committed (see horizon.go), so they never appear on either
	// side here.
	for si := s0; si < nS; si++ {
		for n := 0; n < nN; n++ {
			if m.buffered(in, si, n) {
				continue
			}
			for k := lo; k < hi; k++ {
				terms = terms[:0]
				for _, lid := range t.Out(topo.NodeID(n)) {
					if f := m.fvar[si][int(lid)][k]; f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
				// Demanders always keep buffers for their own demand, so
				// bufferless nodes here never consume — only relay.
				nOut := len(terms)
				if nOut == 0 {
					continue
				}
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					if f := fAt(si, l, k-in.delta[l]-in.kappa[l]); f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: -1})
					}
				}
				if len(terms) == nOut {
					// Nothing can arrive to be relayed.
					for _, tm := range terms {
						p.SetBounds(tm.Var, 0, 0)
					}
					continue
				}
				p.AddRow(terms, lp.LE, 0)
			}
		}
	}

	// Destination totals: the final window must consume exactly the
	// remaining demand; earlier windows may consume at most that much
	// (the rest arrives in later windows).
	for si := s0; si < nS; si++ {
		rows := noVars(nN)
		for dst := range rows {
			if m.dem[si][dst] == 0 || bd.Rem[si][dst] <= remTol {
				continue
			}
			terms = terms[:0]
			for k := lo; k < hi; k++ {
				if r := m.rvar[si][dst][k]; r != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(r), Coeff: 1})
				}
			}
			if final {
				// An empty row (unreachable pair) is emitted all the same:
				// it yields an infeasible problem for the solver to report.
				rows[dst] = int32(p.AddRow(terms, lp.EQ, bd.Rem[si][dst]))
			} else if len(terms) > 0 {
				rows[dst] = int32(p.AddRow(terms, lp.LE, bd.Rem[si][dst]))
			}
		}
		m.destRow = append(m.destRow, rows)
	}

	// Capacity, windowed per Appendix F, with per-epoch variable
	// bandwidth (§5) and committed usage inside each sliding span
	// pre-charged against the budget. This is capBudget with the usage
	// subtracted epoch by epoch: summing the budget first and the usage
	// after rounds differently, and window right-hand sides are pinned to
	// the bit.
	if m.capRow == nil {
		m.capRow = noVarGrid(nL, K)
	}
	for l := 0; l < nL; l++ {
		for k := lo; k < hi; k++ {
			terms = terms[:0]
			budget := 0.0
			for kk := k - in.kappa[l] + 1; kk <= k; kk++ {
				budget += in.capChunks[l] * in.opt.capScale(topo.LinkID(l), max(kk, 0))
				if kk < 0 {
					continue
				}
				budget -= bd.capUsedAt(l, kk)
				for si := s0; si < nS; si++ {
					if f := fAt(si, l, kk); f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
			}
			if len(terms) == 0 {
				continue
			}
			if r := m.capRow[l][k]; r != noVar {
				// An earlier source populated the window: join its row.
				p.AppendToRow(int(r), terms)
				continue
			}
			m.capRow[l][k] = int32(p.AddRow(terms, lp.LE, max(budget, 0)))
		}
	}

	// Buffer limits (Appendix B): the LP only needs an upper bound on
	// buffered inventory, excluding the source's own supply.
	if in.opt.BufferLimitChunks > 0 {
		for n := 0; n < nN; n++ {
			if t.IsSwitch(topo.NodeID(n)) {
				continue
			}
			for k := max(lo, 1); k <= hi; k++ {
				terms = terms[:0]
				for si, s := range m.sources {
					if s == n {
						continue
					}
					if b := m.bvar[si][n][k]; b != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(b), Coeff: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				p.AddRow(terms, lp.LE, float64(in.opt.BufferLimitChunks))
			}
		}
	}
	return nil
}

// buildLP constructs the monolithic LP: every source of ix over the full
// horizon, opened from the initial boundary.
func buildLP(in *instance, ix *lpIndex) *lpModel {
	m := newLPModel(in, ix)
	// Neither of emit's errors can occur from the initial boundary: its
	// only inventory sits at each source, which always has a b[0] column
	// to receive it, and it carries no in-flight arrivals.
	if err := m.emit(0, 0, in.K, true, ix.initialBoundary()); err != nil {
		panic(fmt.Sprintf("core: full-span LP from the initial boundary: %v", err))
	}
	return m
}

// SolveLP solves the linear-program form (§4.1): optimal for demands that
// do not benefit from copy (ALLTOALL-like), and far more scalable than
// the MILP. The resulting rate allocation is decomposed into per-chunk
// fractional paths to produce an executable schedule. The simplex checks
// ctx between iterations, so cancellation (or a caller deadline)
// interrupts the solve promptly with an error wrapping
// context.Cause(ctx). Options.TimeLimit is layered onto ctx as a derived
// deadline covering model build, the solve, and any MinimizeMakespan
// re-solves together.
func SolveLP(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	res, _, err := solveLP(ctx, t, d, opt)
	return res, err
}

// lpPrep is a preprocessed LP-form instance: the per-destination
// expanded demand, the preprocessed context (with an auto horizon already
// tightened by the greedy bound), its commodity index, the greedy plan's
// sends (crash-basis seed; nil when the greedy did not run or failed),
// and — from prepLP — the constructed model. ix and m are nil when the
// demand has no commodities.
type lpPrep struct {
	d      *collective.Demand
	in     *instance
	ix     *lpIndex
	m      *lpModel
	greedy []schedule.Send
}

// noCopy returns the demand the LP form schedules. Without copy, a chunk
// wanted by several destinations is physically several transfers, so a
// multicast demand gives each its own commodity (a result's
// Schedule.Demand is that expanded form); any other is d itself.
func noCopy(d *collective.Demand) *collective.Demand {
	if d.HasMulticast() {
		return d.ExpandPerDestination()
	}
	return d
}

// prepIndex is the preprocessing the monolithic LP and the
// rolling-horizon windows share, so both agree on the demand, K and the
// commodity space: multicast expansion, instance preprocessing, greedy
// horizon tightening, and the commodity index.
func prepIndex(t *topo.Topology, d *collective.Demand, opt Options) (*lpPrep, error) {
	d = noCopy(d)
	in, err := newInstance(t, d, opt)
	if err != nil {
		return nil, err
	}
	if len(in.comms) == 0 {
		return &lpPrep{d: d, in: in}, nil
	}
	// Tighten an auto-estimated horizon with a quick greedy upper bound:
	// the LP optimum finishes no later than the greedy schedule. The
	// greedy plan's sends are kept as the crash-basis seed. The greedy
	// budgets a constant capacity per window, so under a per-epoch
	// LinkCapacity its finish is no bound at all.
	var greedy []schedule.Send
	if opt.Epochs == 0 && opt.LinkCapacity == nil {
		bound, sends := lpGreedyBound(in)
		greedy = sends
		if bound >= 0 && bound+1 < in.K {
			opt2 := opt
			opt2.Epochs = bound + 1
			in, _ = newInstance(t, d, opt2) // the same τ, accepted above
		}
	}
	return &lpPrep{d: d, in: in, ix: newLPIndex(in), greedy: greedy}, nil
}

// prepLP performs everything of an LP solve that precedes the simplex:
// prepIndex plus model construction. Split out so the batch layer can
// fingerprint the built model (and reuse an identical point's solution)
// before paying for a solve.
func prepLP(t *topo.Topology, d *collective.Demand, opt Options) (*lpPrep, error) {
	pr, err := prepIndex(t, d, opt)
	if err == nil && pr.ix != nil {
		pr.m = buildLP(pr.in, pr.ix)
	}
	return pr, err
}

// solveLP is SolveLP returning the incremental payload as well: the
// solved model and its basis, which Replan edits. The caller has already
// layered Options.TimeLimit onto ctx.
func solveLP(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	// The clock starts before model construction: SolveTime and the
	// TimeLimit deadline cover the build, as they always have.
	start := time.Now()
	pr, err := prepLP(t, d, opt)
	if err != nil {
		return nil, incumbentState{}, err
	}
	return solvePrepped(ctx, t, pr, opt, start)
}

// solvePrepped runs an already-built LP-form instance (and the
// MinimizeMakespan refinement) from the one start a new request has: the
// greedy plan's crash basis, or the slack basis under CrashOff. No basis
// of another request is carried in; a replay or a Replan is how a
// session reuses a solve.
func solvePrepped(ctx context.Context, t *topo.Topology, pr *lpPrep, opt Options, start time.Time) (*Result, incumbentState, error) {
	m := pr.m
	if m == nil {
		r := emptyResult(pr.in, start)
		r.Schedule.AllowCopy = false
		return r, incumbentState{}, nil
	}
	var lpOpt lp.Options
	if opt.Crash != CrashOff {
		lpOpt.Crash = crashBasisLP(m, pr.greedy)
	}
	res, sol, err := m.run(ctx, lpOpt, start)
	if err != nil {
		return nil, incumbentState{}, err
	}
	inc := incumbentState{model: m, basis: sol.Basis}
	if !opt.MinimizeMakespan {
		return res, inc, nil
	}
	return refineMakespan(ctx, "lp", opt, res, inc, start, func(opt2 Options, _ *incumbentState) (*Result, incumbentState, error) {
		return solveLP(ctx, t, pr.d, opt2)
	})
}

// run is the LP form's one solve tail, shared by cold plans, makespan
// re-solves and Replan's edited incumbents, which differ only in how m
// was built or edited and in the start they pass: announce the model,
// run the simplex, turn its status into the caller-facing error,
// announce the optimum, decompose it into a schedule (validated against
// m's instance, so an edited model re-validates on the churned world)
// and report the effort. The lp.Solution comes back whenever the simplex
// ran, error or not, so Replan can tell an exhausted budget from a sour
// solve.
func (m *lpModel) run(ctx context.Context, lpOpt lp.Options, start time.Time) (*Result, *lp.Solution, error) {
	in, progress := m.in, m.in.opt.Progress
	lpOpt.Context = ctx
	progress.emit(lpSample("lp", "model", 0, 0, 0, false))
	sol, err := lp.Solve(m.p, lpOpt)
	if err != nil {
		return nil, nil, err
	}
	switch sol.Status {
	case lp.StatusOptimal:
	case lp.StatusInfeasible:
		return nil, sol, fmt.Errorf("core: LP infeasible with K=%d epochs (tau=%g); increase Epochs", in.K, in.tau)
	case lp.StatusIterLimit:
		if ierr := interrupted(ctx); ierr != nil {
			return nil, sol, fmt.Errorf("core: LP solve interrupted after %d iterations: %w", sol.Iterations, ierr)
		}
		return nil, sol, fmt.Errorf("core: LP hit its time/iteration budget with K=%d (tau=%g); raise TimeLimit or EpochMultiplier", in.K, in.tau)
	default:
		return nil, sol, fmt.Errorf("core: LP solve failed: %v", sol.Status)
	}
	progress.emit(lpSample("lp", "simplex", 0, sol.Iterations, sol.Objective, true))

	s, err := m.decompose(sol.X)
	if err != nil {
		return nil, sol, err
	}
	res := &Result{
		Schedule:     s,
		Objective:    sol.Objective,
		Optimal:      true,
		SolveTime:    time.Since(start),
		Epochs:       in.K,
		Tau:          in.tau,
		WarmStarted:  lpOpt.WarmStart != nil,
		CrashStarted: lpOpt.Crash != nil,
	}
	res.addLP(sol)
	return res, sol, nil
}

// refineMakespan is MinimizeMakespan for both monolithic forms (§6's
// "binary search on the number of epochs"): re-solve with the horizon
// pinned to the current finish epoch until that is infeasible or stops
// helping. τ is pinned so quantization stays comparable across horizons.
// resolve gets the previous horizon's payload: the MILP form resumes its
// root from that basis (matched by column key, since the variable set
// changes with K), the LP form starts each re-solve as a new request. An
// expired TimeLimit stops the refinement and keeps the last complete
// schedule (valid, just not proven makespan-minimal); a caller
// cancellation returns that schedule alongside an error wrapping the
// cause, honoring the cancellation contract.
func refineMakespan(ctx context.Context, solver string, opt Options, res *Result, inc incumbentState, start time.Time,
	resolve func(Options, *incumbentState) (*Result, incumbentState, error)) (*Result, incumbentState, error) {
	// WarmStarted/CrashStarted report how THIS REQUEST's root solve
	// started, which the re-solves must not overwrite.
	rootWarm, rootCrash := res.WarmStarted, res.CrashStarted
	var err error
	for {
		if ierr := interrupted(ctx); ierr != nil {
			err = fmt.Errorf("core: makespan refinement cancelled; returning last complete schedule (finish epoch %d): %w",
				res.Schedule.FinishEpoch(), ierr)
			break
		}
		fe := res.Schedule.FinishEpoch()
		if budgetExpired(ctx) || fe < 1 {
			break // TimeLimit (keep the result, no error), or nothing left to shrink
		}
		opt2 := opt
		opt2.MinimizeMakespan = false
		opt2.Epochs = fe // forces completion by epoch fe-1
		opt2.Tau = res.Tau
		tighter, inc2, rerr := resolve(opt2, &inc)
		if rerr != nil && interrupted(ctx) != nil {
			continue // reported at the top of the loop
		}
		if rerr != nil || tighter.Schedule.FinishEpoch() >= fe {
			break // infeasible at the tighter horizon, or no earlier: minimal
		}
		tighter.SolveTime = time.Since(start)
		res, inc = tighter, inc2
		sample := Progress{Solver: solver, Phase: "makespan", Nodes: res.Nodes, Iterations: res.RootIterations,
			Incumbent: res.Objective, Bound: math.NaN(), Gap: res.Gap}
		if res.Optimal {
			sample.Bound = res.Objective
		}
		opt.Progress.emit(sample)
	}
	res.WarmStarted, res.CrashStarted = rootWarm, rootCrash
	return res, inc, err
}

const flowTol = 1e-7

// densify reads a solution vector back into full-horizon flow and read
// arrays ([si][link][epoch] and [si][dst][epoch]) over the emitted epochs
// [lo, hi); entries outside them are zero.
func (m *lpModel) densify(x []float64, lo, hi int) (flows, reads [][][]float64) {
	K := m.in.K
	dense := func(vars [][]int32) [][]float64 {
		out := make([][]float64, len(vars))
		for i, col := range vars {
			out[i] = make([]float64, K)
			for k := lo; k < hi; k++ {
				if v := col[k]; v != noVar {
					out[i][k] = x[v]
				}
			}
		}
		return out
	}
	flows = make([][][]float64, len(m.sources))
	reads = make([][][]float64, len(m.sources))
	for si := range m.sources {
		flows[si] = dense(m.fvar[si])
		reads[si] = dense(m.rvar[si])
	}
	return flows, reads
}

// decompose peels the LP's rate allocation into per-chunk fractional
// paths — the DFS-like translation from rates to chunk schedules that
// §4.1 describes. The stitched rolling-horizon path hands peelSchedule
// the same arrays accumulated across windows.
func (m *lpModel) decompose(x []float64) (*schedule.Schedule, error) {
	flows, reads := m.densify(x, 0, m.in.K)
	return peelSchedule(m.in, m.sources, m.dem, flows, reads)
}

// peelSchedule translates a rate allocation — per-source link flows and
// destination read rates over absolute epochs — into per-chunk
// fractional paths and a validated schedule. flows is consumed (peeled
// to residuals) in place; reads is left untouched.
func peelSchedule(in *instance, sources []int, dem [][]float64, flows, reads [][][]float64) (*schedule.Schedule, error) {
	t := in.topo
	K := in.K
	res := flows

	type hop struct {
		link  int
		epoch int
	}

	// peel finds a backward path from (dst, consumed-by epoch k) to the
	// source through positive residuals and returns the path (forward
	// order) and its bottleneck fraction.
	var peel func(si, node, landBy int, exact bool, want float64) ([]hop, float64)
	peel = func(si, node, landBy int, exact bool, want float64) ([]hop, float64) {
		s := sources[si]
		if node == s {
			return []hop{}, want
		}
		// Candidate incoming sends, preferring the latest landing.
		type cand struct {
			l, e, land int
		}
		var best *cand
		for _, lid := range t.In(topo.NodeID(node)) {
			l := int(lid)
			for e := K - 1; e >= 0; e-- {
				if res[si][l][e] <= flowTol {
					continue
				}
				land := in.landEpoch(l, e)
				if exact {
					if land != landBy {
						continue
					}
				} else if land > landBy {
					continue
				}
				if best == nil || land > best.land {
					best = &cand{l, e, land}
				}
				break // epochs scanned descending; first hit is latest
			}
		}
		if best == nil {
			return nil, 0
		}
		frac := math.Min(want, res[si][best.l][best.e])
		up := int(t.Link(topo.LinkID(best.l)).Src)
		upExact := t.IsSwitch(topo.NodeID(up)) ||
			(in.opt.NoBuffers && up != s && dem[si][up] == 0)
		// The upstream node must hold the fraction when the send departs:
		// forwardable at best.e means landed by best.e-1.
		path, got := peel(si, up, best.e-1, upExact, frac)
		if path == nil {
			// Temporarily exclude this candidate and retry.
			saved := res[si][best.l][best.e]
			res[si][best.l][best.e] = 0
			path2, got2 := peel(si, node, landBy, exact, want)
			res[si][best.l][best.e] = saved
			return path2, got2
		}
		return append(path, hop{best.l, best.e}), got
	}

	var sends []schedule.Send
	d := in.demand
	for si, s := range sources {
		for dst := 0; dst < d.NumNodes(); dst++ {
			if dem[si][dst] == 0 {
				continue
			}
			chunks := d.DestWantsFromSource(s, dst)
			remaining := make([]float64, len(chunks))
			for i := range remaining {
				remaining[i] = 1
			}
			cursor := 0
			for k := 0; k < K; k++ {
				need := reads[si][dst][k]
				//teccl:allow-ctxcheck bounded: a peel either meets need or is held to a residual arc's value, which it zeroes, so there are at most as many peels as positive arcs plus one
				for need > flowTol {
					path, got := peel(si, dst, k, false, need)
					if path == nil || got <= flowTol {
						return nil, fmt.Errorf("core: flow decomposition stuck for source %d dst %d epoch %d (%.6g undelivered)",
							s, dst, k, need)
					}
					for _, h := range path {
						res[si][h.link][h.epoch] -= got
					}
					need -= got
					// Assign the peeled fraction to chunk IDs in order,
					// splitting across chunk boundaries.
					left := got
					//teccl:allow-ctxcheck bounded: each pass either uses up left or empties remaining[cursor] and advances cursor
					for left > flowTol && cursor < len(chunks) {
						take := math.Min(left, remaining[cursor])
						for _, h := range path {
							sends = append(sends, schedule.Send{
								Src: s, Chunk: chunks[cursor],
								Link: topo.LinkID(h.link), Epoch: h.epoch,
								Fraction: take,
							})
						}
						remaining[cursor] -= take
						left -= take
						if remaining[cursor] <= flowTol {
							cursor++
						}
					}
				}
			}
			for i, rem := range remaining {
				if rem > 1e-5 {
					return nil, fmt.Errorf("core: chunk %d of source %d not fully routed to %d (%.6g left)",
						chunks[i], s, dst, rem)
				}
			}
		}
	}

	// Merge identical sends.
	merged := map[[4]int]float64{}
	for _, snd := range sends {
		merged[[4]int{snd.Src, snd.Chunk, int(snd.Link), snd.Epoch}] += snd.Fraction
	}
	out := make([]schedule.Send, 0, len(merged))
	for kf, frac := range merged {
		if frac > 1 {
			frac = 1 // clamp accumulated rounding
		}
		out = append(out, schedule.Send{
			Src: kf[0], Chunk: kf[1], Link: topo.LinkID(kf[2]), Epoch: kf[3], Fraction: frac,
		})
	}

	sch := &schedule.Schedule{
		Topo:           t,
		Demand:         d,
		Tau:            in.tau,
		NumEpochs:      K,
		Sends:          out,
		AllowCopy:      false,
		EpochsPerChunk: in.epochsPerChunk(),
	}
	if err := sch.Validate(); err != nil {
		return nil, fmt.Errorf("core: LP decomposition produced invalid schedule: %w", err)
	}
	return sch, nil
}
