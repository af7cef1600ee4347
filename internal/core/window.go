package core

// window.go is the rolling-horizon face of the §4.1 LP: the instance
// the driver (horizon.go) solves one epoch window [lo, hi) at a time,
// the committed prefix folded into a Boundary. It states no formulation
// of its own — a window is lpModel.emit (lpform.go) over [lo, hi), and
// the monolithic LP is the same emit over the full horizon from the
// initial boundary — so a window model shares the column keys, row
// ordering, and commodity indexing of every other LP model by
// construction. That is what lets the session basis store and the
// key-transfer warm path treat window models like any other.

import (
	"fmt"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// WindowInstance is a preprocessed LP-form instance that windows are
// built on: the per-destination expanded demand, the derived epoch grid,
// the shared commodity index, and the greedy plan's sends that crash the
// first window of a cold solve (nil when the greedy did not run).
type WindowInstance struct {
	t      *topo.Topology
	d      *collective.Demand
	opt    Options
	in     *instance
	ix     *lpIndex
	greedy []schedule.Send
	err    error
}

// NewWindowInstance preprocesses (t, d, opt) exactly like the monolithic
// LP path (prepIndex), so the windowed and monolithic paths agree on K.
// When prepIndex refuses the world, the instance holds only that error:
// check Err before anything else.
func NewWindowInstance(t *topo.Topology, d *collective.Demand, opt Options) *WindowInstance {
	pr, err := prepIndex(t, d, opt)
	if err != nil {
		return &WindowInstance{err: err}
	}
	return &WindowInstance{t: t, d: pr.d, opt: opt, in: pr.in, ix: pr.ix, greedy: pr.greedy}
}

// Err is the preprocessing error of a world no window can be built on.
func (wi *WindowInstance) Err() error { return wi.err }

// Epochs is the current horizon K in epochs.
func (wi *WindowInstance) Epochs() int { return wi.in.K }

// setEpochs rebuilds the instance over a longer horizon (same tau), used
// when the final window proves infeasible and the driver extends K.
func (wi *WindowInstance) setEpochs(K int) {
	opt2 := wi.opt
	opt2.Epochs = K
	opt2.Tau = wi.in.tau
	// The τ is wi's own, accepted when wi was built, so this cannot fail.
	wi.in, _ = newInstance(wi.t, wi.d, opt2)
	wi.ix = newLPIndex(wi.in)
}

// dem is the chunk count destination dst wants from commodity si.
func (wi *WindowInstance) dem(si, dst int) float64 {
	if wi.ix.dem[si] == nil {
		return 0
	}
	return wi.ix.dem[si][dst]
}

// objectiveAt evaluates the LP objective (priority-weighted discounted
// reads) of a stitched read allocation under a tail-weight vector (see
// lpTailWeights); reads at epochs past the vector's horizon contribute
// nothing. The driver scores at the instance's own tail, the certify
// pass at the monolithic solve's horizon for a like-for-like gap.
func (wi *WindowInstance) objectiveAt(reads [][][]float64, tail []float64) float64 {
	obj := 0.0
	for si, s := range wi.ix.sources {
		for dst := range reads[si] {
			if wi.dem(si, dst) == 0 {
				continue
			}
			prio := 1.0
			if wi.opt.Priority != nil {
				if cs := wi.in.demand.DestWantsFromSource(s, dst); len(cs) > 0 {
					prio = wi.opt.priorityOf(s, cs[0], dst)
				}
			}
			for k, r := range reads[si][dst] {
				if r <= 0 || k >= len(tail)-1 {
					continue
				}
				obj += prio * tail[k] * r
			}
		}
	}
	return obj
}

// Decompose translates stitched full-horizon flow and read rates into a
// validated per-chunk schedule, via the same peeling pass the monolithic
// decompose uses. flows is consumed in place.
func (wi *WindowInstance) Decompose(flows, reads [][][]float64) (*schedule.Schedule, error) {
	return peelSchedule(wi.in, wi.ix.sources, wi.ix.dem, flows, reads)
}

// Boundary carries the committed prefix's state into a window solve.
// All quantities are in chunks, indexed over absolute epochs.
type Boundary struct {
	// Inv[si][n]: inventory of commodity si resident (and not yet
	// consumed or departed) at buffered node n when the window opens —
	// the pre-departure convention of the Appendix A init row, so the
	// boundary row "b[lo] + out(lo) = Inv" degenerates to exactly that
	// row at lo = 0.
	Inv [][]float64
	// Arr[si][n][k]: committed sends still in flight at the window
	// boundary, landing at buffered node n during epoch k >= lo. May be
	// nil (no in-flight state).
	Arr [][][]float64
	// CapUsed[l][k]: committed flow already occupying link l at epoch k;
	// subtracted from the window's sliding capacity budgets. May be nil.
	CapUsed [][]float64
	// Rem[si][dst]: demand not yet consumed by committed reads.
	Rem [][]float64
}

func (bd *Boundary) arrAt(si, n, k int) float64 {
	if bd.Arr == nil {
		return 0
	}
	return bd.Arr[si][n][k]
}

func (bd *Boundary) capUsedAt(l, k int) float64 {
	if bd.CapUsed == nil {
		return 0
	}
	return bd.CapUsed[l][k]
}

// InitialBoundary is the epoch-0 boundary: full supply at each source,
// nothing in flight, full demand remaining.
func (wi *WindowInstance) InitialBoundary() *Boundary { return wi.ix.initialBoundary() }

// WindowLP is one window's built problem plus the model whose indexes
// extract its solution.
type WindowLP struct {
	P  *lp.Problem
	Lo int // first epoch in the window
	Hi int // one past the last epoch in the window

	m *lpModel
}

// BuildWindow constructs the window LP over epochs [lo, hi) (hi clamped
// to the horizon) opened from bd; see lpModel.emit for the boundary
// adaptations. With lo=0, hi=K, final=true and the initial boundary it
// is the monolithic model.
func (wi *WindowInstance) BuildWindow(lo, hi int, final bool, bd *Boundary) (*WindowLP, error) {
	K := wi.in.K
	if hi > K {
		hi = K
	}
	if lo < 0 || lo >= hi {
		return nil, fmt.Errorf("core: window [%d,%d) out of range (K=%d)", lo, hi, K)
	}
	m := newLPModel(wi.in, wi.ix)
	if err := m.emit(0, lo, hi, final, bd); err != nil {
		return nil, err
	}
	return &WindowLP{P: m.p, Lo: lo, Hi: hi, m: m}, nil
}

// Flows densifies a window solution into full-horizon flow and read
// arrays ([si][link][epoch] and [si][dst][epoch]); entries outside
// [Lo, Hi) are zero.
func (w *WindowLP) Flows(x []float64) (flows, reads [][][]float64) {
	return w.m.densify(x, w.Lo, w.Hi)
}
