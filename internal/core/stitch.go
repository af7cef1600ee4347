package core

import (
	"fmt"

	"teccl/internal/topo"
)

const (
	commitTol = 1e-9
	lossTol   = 1e-6
)

// stitcher accumulates the committed flow/read rates across windows and
// replays them into the next window's boundary state.
type stitcher struct {
	wi *WindowInstance
	// flows[si][l][k] and reads[si][dst][k]: committed rates over
	// absolute epochs. After the final window commits, these are the
	// full-horizon allocation handed to the peeling decomposition.
	flows [][][]float64
	reads [][][]float64
}

func newStitcher(wi *WindowInstance) *stitcher {
	t := wi.t
	st := &stitcher{
		wi:    wi,
		flows: make([][][]float64, len(wi.ix.sources)),
		reads: make([][][]float64, len(wi.ix.sources)),
	}
	K := wi.in.K
	for si := range wi.ix.sources {
		st.flows[si] = make([][]float64, t.NumLinks())
		for l := range st.flows[si] {
			st.flows[si][l] = make([]float64, K)
		}
		st.reads[si] = make([][]float64, t.NumNodes())
		for n := range st.reads[si] {
			st.reads[si][n] = make([]float64, K)
		}
	}
	return st
}

// grow extends the committed arrays to a longer horizon (final-window
// extension); committed entries keep their absolute epochs.
func (st *stitcher) grow(K int) {
	for si := range st.flows {
		for l := range st.flows[si] {
			if len(st.flows[si][l]) < K {
				st.flows[si][l] = append(st.flows[si][l], make([]float64, K-len(st.flows[si][l]))...)
			}
		}
		for n := range st.reads[si] {
			if len(st.reads[si][n]) < K {
				st.reads[si][n] = append(st.reads[si][n], make([]float64, K-len(st.reads[si][n]))...)
			}
		}
	}
}

// prune strips degenerate stranded relay flow from a window solution.
// The LP's bufferless rows only bound forwarding (out(k+1) <= in(k)), so
// an optimal window may send chunks into a switch and silently drop
// them when the objective gains nothing from delivery; committing such
// a send would strand the chunk forever (the origin's inventory is
// already decremented). Landing epochs are processed descending so a
// pruned forward cascades to the arrivals feeding it.
func (st *stitcher) prune(wf [][][]float64) {
	wi := st.wi
	t := wi.t
	K := wi.in.K
	nL := t.NumLinks()
	nN := t.NumNodes()

	type hop struct{ l, e int }
	// byLand[n] maps a landing epoch to the (link, departure) pairs that
	// arrive at bufferless node n then; outLinks[n] lists n's egress.
	byLand := make([]map[int][]hop, nN)
	outLinks := make([][]int, nN)
	for l := 0; l < nL; l++ {
		lk := t.Link(topo.LinkID(l))
		outLinks[lk.Src] = append(outLinks[lk.Src], l)
	}

	for si := range wf {
		for n := 0; n < nN; n++ {
			byLand[n] = nil
		}
		for l := 0; l < nL; l++ {
			dst := int(t.Link(topo.LinkID(l)).Dst)
			if wi.ix.buffered(wi.in, si, dst) {
				continue
			}
			if byLand[dst] == nil {
				byLand[dst] = make(map[int][]hop)
			}
			for e, f := range wf[si][l] {
				if f > commitTol {
					land := wi.in.landEpoch(l, e)
					byLand[dst][land] = append(byLand[dst][land], hop{l, e})
				}
			}
		}
		for k := K - 1; k >= 0; k-- {
			for n := 0; n < nN; n++ {
				hops := byLand[n][k]
				if len(hops) == 0 {
					continue
				}
				in := 0.0
				for _, h := range hops {
					in += wf[si][h.l][h.e]
				}
				out := 0.0
				if k+1 < K {
					for _, l := range outLinks[n] {
						out += wf[si][l][k+1]
					}
				}
				if in <= out+commitTol {
					continue
				}
				scale := 0.0
				if out > commitTol {
					scale = out / in
				}
				for _, h := range hops {
					wf[si][h.l][h.e] *= scale
				}
			}
		}
	}
}

// commit makes the window's tentative allocation over [lo, commitHi)
// permanent, closing committed flows over bufferless forwards: a flow
// departing a buffered node inside the stride commits fully; a flow
// departing a bufferless node commits the fraction of its node's
// arrivals (landed the epoch before) that is itself committed. Epochs
// are processed ascending, so chases follow chains through consecutive
// switches past commitHi. Reads inside the stride commit fully.
//
// Returns an error if any committed arrival at a bufferless node is not
// fully forwarded (the window solution dropped relayed traffic near its
// edge) — the caller falls back to the monolithic solve.
func (st *stitcher) commit(wf, wr [][][]float64, lo, commitHi int) error {
	wi := st.wi
	t := wi.t
	K := wi.in.K
	nL := t.NumLinks()
	nN := t.NumNodes()

	for si := range wf {
		// Tentative arrivals at bufferless nodes, by landing epoch.
		tentIn := make([][]float64, nN)
		comIn := make([][]float64, nN)
		comOut := make([][]float64, nN)
		for n := 0; n < nN; n++ {
			if !wi.ix.buffered(wi.in, si, n) {
				tentIn[n] = make([]float64, K)
				comIn[n] = make([]float64, K)
				comOut[n] = make([]float64, K)
			}
		}
		for l := 0; l < nL; l++ {
			dst := int(t.Link(topo.LinkID(l)).Dst)
			if tentIn[dst] == nil {
				continue
			}
			for e, f := range wf[si][l] {
				if f > commitTol {
					tentIn[dst][wi.in.landEpoch(l, e)] += f
				}
			}
		}

		for e := lo; e < K; e++ {
			for l := 0; l < nL; l++ {
				f := wf[si][l][e]
				if f <= commitTol {
					continue
				}
				lk := t.Link(topo.LinkID(l))
				org := int(lk.Src)
				var cf float64
				if wi.ix.buffered(wi.in, si, org) {
					if e < commitHi {
						cf = f
					}
				} else if e > 0 {
					// Forward the committed share of what landed at e-1.
					tent := tentIn[org][e-1]
					if tent > commitTol {
						share := comIn[org][e-1] / tent
						if share > 1 {
							share = 1
						}
						cf = f * share
					}
				}
				if cf <= commitTol {
					continue
				}
				st.flows[si][l][e] += cf
				if comOut[org] != nil {
					comOut[org][e] += cf
				}
				dst := int(lk.Dst)
				if comIn[dst] != nil {
					comIn[dst][wi.in.landEpoch(l, e)] += cf
				}
			}
		}

		// Closure check: every committed arrival at a bufferless node must
		// be forwarded by a committed departure the next epoch.
		for n := 0; n < nN; n++ {
			if comIn[n] == nil {
				continue
			}
			for k := 0; k < K; k++ {
				in := comIn[n][k]
				if in <= lossTol {
					continue
				}
				out := 0.0
				if k+1 < K {
					out = comOut[n][k+1]
				}
				if in-out > lossTol {
					return fmt.Errorf("core: horizon commit [%d,%d): %.6g committed chunks of source %d dropped at bufferless node %d (epoch %d)",
						lo, commitHi, in-out, wi.ix.sources[si], n, k)
				}
			}
		}

		for dst := 0; dst < nN; dst++ {
			for k := lo; k < commitHi; k++ {
				if r := wr[si][dst][k]; r > commitTol {
					st.reads[si][dst][k] += r
				}
			}
		}
	}
	return nil
}

// commitAll commits the final window's entire allocation from lo on.
func (st *stitcher) commitAll(wf, wr [][][]float64, lo int) {
	K := st.wi.in.K
	for si := range wf {
		for l := range wf[si] {
			for e := lo; e < K; e++ {
				if f := wf[si][l][e]; f > commitTol {
					st.flows[si][l][e] += f
				}
			}
		}
		for dst := range wr[si] {
			for k := lo; k < K; k++ {
				if r := wr[si][dst][k]; r > commitTol {
					st.reads[si][dst][k] += r
				}
			}
		}
	}
}

// boundary replays the committed prefix into the state window lo opens
// from: buffered inventory, in-flight arrivals landing at epochs >= lo,
// committed link usage, and remaining demand. Negative inventory or
// remaining demand signals a commit bookkeeping bug; the caller falls
// back to the monolithic solve.
func (st *stitcher) boundary(lo int) (*Boundary, error) {
	wi := st.wi
	t := wi.t
	K := wi.in.K
	nL := t.NumLinks()
	nN := t.NumNodes()

	bd := wi.ix.initialBoundary()
	bd.Arr = make([][][]float64, len(wi.ix.sources))
	bd.CapUsed = make([][]float64, nL)
	for l := 0; l < nL; l++ {
		bd.CapUsed[l] = make([]float64, K)
	}
	for si := range st.flows {
		bd.Arr[si] = make([][]float64, nN)
		for n := 0; n < nN; n++ {
			bd.Arr[si][n] = make([]float64, K)
		}
		for l := 0; l < nL; l++ {
			lk := t.Link(topo.LinkID(l))
			org, dst := int(lk.Src), int(lk.Dst)
			for e, cf := range st.flows[si][l] {
				if cf <= 0 {
					continue
				}
				bd.CapUsed[l][e] += cf
				if wi.ix.buffered(wi.in, si, org) {
					bd.Inv[si][org] -= cf
				}
				land := wi.in.landEpoch(l, e)
				if wi.ix.buffered(wi.in, si, dst) {
					if land < lo {
						bd.Inv[si][dst] += cf
					} else {
						bd.Arr[si][dst][land] += cf
					}
				}
			}
		}
		for dst := 0; dst < nN; dst++ {
			for k := 0; k < lo; k++ {
				if r := st.reads[si][dst][k]; r > 0 {
					bd.Inv[si][dst] -= r
					bd.Rem[si][dst] -= r
				}
			}
		}
		for n := 0; n < nN; n++ {
			if bd.Inv[si][n] < -lossTol {
				return nil, fmt.Errorf("core: horizon boundary at epoch %d: negative inventory %.6g for source %d at node %d",
					lo, bd.Inv[si][n], wi.ix.sources[si], n)
			}
			if bd.Inv[si][n] < 0 {
				bd.Inv[si][n] = 0
			}
		}
		for dst := 0; dst < nN; dst++ {
			if bd.Rem[si][dst] < -lossTol {
				return nil, fmt.Errorf("core: horizon boundary at epoch %d: demand (source %d, dst %d) over-consumed by %.6g",
					lo, wi.ix.sources[si], dst, -bd.Rem[si][dst])
			}
			if bd.Rem[si][dst] < 0 {
				bd.Rem[si][dst] = 0
			}
		}
	}
	return bd, nil
}
