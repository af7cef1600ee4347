package core

// lpappend.go is the warm column-append path of the LP replanning
// layer: new demand arriving in a churn delta is priced into the
// incumbent LP model as appended variables and rows instead of forcing
// a cold rebuild. Three shapes arise, in increasing order of surgery:
//
//  1. Count bump / resurrection — the (source, destination) pair
//     already has read columns and a destination-total row (possibly
//     zeroed by an earlier drop). Widening the read columns' upper
//     bounds and raising the row's right-hand side re-admits the pair.
//  2. New pair on an existing source — fresh read columns are appended
//     and wired into the source's existing conservation rows, plus a
//     new destination-total row.
//  3. New source — the source is pushed onto the model's commodity
//     index and lpModel.emit (lpform.go), the same emitter that built
//     the model, adds its full block (flow, buffer, and read columns;
//     supply, conservation, bufferless-relay, and destination-total
//     rows), wiring its flow columns into the shared windowed capacity
//     rows (creating rows for windows no existing source populated).
//
// Appends interact with the warm start through lp.Basis.Extended:
// appended columns enter nonbasic at their lower bound and appended
// rows enter with their slack basic, so the incumbent basis matrix
// stays nonsingular and the dual simplex (or the warm-start repair)
// drives out the newly infeasible equality slacks.
//
// An appended model states the same LP as a cold build of the union
// demand, in a different creation order (TestAppendMatchesColdUnion).
// The order appends are created in is itself pinned, like every model's:
// by bench/expected/seed1.json via make bench-verify.

import (
	"errors"
	"fmt"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// cloneIndexes gives the model private copies of every index structure
// the append path mutates, so the incumbent model shared with the
// session stays untouched if the append (or the solve after it) fails.
// A restated model holds its indexes alone and skips the copy.
// m.p, m.in, and m.dem are the caller's responsibility — the replan
// path has already swapped in clones of those.
func (m *lpModel) cloneIndexes() {
	m.sources = append([]int(nil), m.sources...)
	deep2 := func(s [][]int) [][]int {
		out := make([][]int, len(s))
		for i := range s {
			out[i] = append([]int(nil), s[i]...)
		}
		return out
	}
	deep2i32 := func(s [][]int32) [][]int32 {
		out := make([][]int32, len(s))
		for i := range s {
			out[i] = append([]int32(nil), s[i]...)
		}
		return out
	}
	deep3 := func(s [][][]int32) [][][]int32 {
		out := make([][][]int32, len(s))
		for i := range s {
			out[i] = deep2i32(s[i])
		}
		return out
	}
	m.earliest = deep2(m.earliest)
	m.fvar = deep3(m.fvar)
	m.bvar = deep3(m.bvar)
	m.rvar = deep3(m.rvar)
	m.capRow = deep2i32(m.capRow)
	m.destRow = deep2i32(m.destRow)
	m.initRow = append([]int32(nil), m.initRow...)
	m.consRow = deep3(m.consRow)
}

// appendDemand prices the demand in add that the incumbent model does
// not already carry into the model as appended columns and rows, and
// ORs add into the model's demand. An error means the new demand is
// structural for this model — the caller falls back to a cold rebuild —
// and leaves the model's demand untouched (the model carries private
// index clones, discarded by the caller on failure). private means the
// indexes are m's own (a restatement): nothing is cloned.
func (m *lpModel) appendDemand(add *collective.Demand, private bool) error {
	in := m.in
	t := in.topo
	d := in.demand
	nN := t.NumNodes()

	// Gates: model shapes an append cannot state. NoBuffers prunes
	// buffer columns per demand pattern, buffer-limit rows would need
	// the new buffer columns added to every limit row, and the priority
	// objective weighs pairs by their first demanded chunk — all three
	// change existing rows/objective terms, not just append new ones.
	if in.opt.NoBuffers {
		return errors.New("NoBuffers model prunes buffers per demand; cold rebuild required")
	}
	if in.opt.BufferLimitChunks > 0 {
		return errors.New("buffer-limited model; cold rebuild required")
	}
	if in.opt.Priority != nil {
		return errors.New("prioritized objective re-weighs pairs; cold rebuild required")
	}
	if add.NumNodes() != nN || add.NumNodes() != d.NumNodes() ||
		add.NumChunks() != d.NumChunks() || add.ChunkBytes != d.ChunkBytes {
		return errors.New("demand shape mismatch with incumbent model")
	}
	// The LP form expands multicast demands per destination at build
	// time; an appended multicast (or one created by the union) would
	// need that re-expansion.
	if d.HasMulticast() {
		return errors.New("incumbent demand is multicast-expanded; cold rebuild required")
	}
	union := d.Clone()
	union.Or(add)
	if union.HasMulticast() {
		return errors.New("new demand introduces multicast; cold rebuild required")
	}

	// Diff: per-pair counts of genuinely new chunks.
	type pairAdd struct{ src, dst, extra int }
	var adds []pairAdd
	for src := 0; src < nN; src++ {
		for dst := 0; dst < nN; dst++ {
			if src == dst {
				continue
			}
			extra := 0
			for _, c := range add.DestWantsFromSource(src, dst) {
				if !d.Wants(src, c, dst) {
					extra++
				}
			}
			if extra > 0 {
				adds = append(adds, pairAdd{src, dst, extra})
			}
		}
	}
	if len(adds) == 0 {
		return nil // everything re-added is already modeled
	}

	if !private {
		m.cloneIndexes()
	}
	srcIdx := make(map[int]int, len(m.sources))
	for si, s := range m.sources {
		srcIdx[s] = si
	}
	touched := map[int]bool{}
	newSrc := map[int][]float64{} // source node -> per-destination new counts
	for _, a := range adds {
		si, ok := srcIdx[a.src]
		if !ok {
			row := newSrc[a.src]
			if row == nil {
				row = make([]float64, nN)
				newSrc[a.src] = row
			}
			row[a.dst] += float64(a.extra)
			continue
		}
		if t.IsSwitch(topo.NodeID(a.dst)) {
			return fmt.Errorf("new demand destination %d is a switch", a.dst)
		}
		if m.destRow[si][a.dst] != noVar {
			// Count bump / resurrection: the pair's columns and total row
			// exist (an earlier drop may have zeroed them); widen and
			// re-admit.
			newCnt := m.dem[si][a.dst] + float64(a.extra)
			for _, v := range m.rvar[si][a.dst] {
				if v != noVar {
					m.p.SetBounds(lp.VarID(v), 0, newCnt)
				}
			}
			m.p.SetRHS(int(m.destRow[si][a.dst]), newCnt)
			m.dem[si][a.dst] = newCnt
		} else if err := m.appendPair(si, a.src, a.dst, float64(a.extra)); err != nil {
			return err
		}
		touched[si] = true
	}
	// New sources in ascending node order, for determinism.
	for src := 0; src < nN; src++ {
		if row := newSrc[src]; row != nil {
			if err := m.appendSourceBlock(src, row); err != nil {
				return err
			}
		}
	}
	// Refresh the touched supply rows to the new totals, as a cold build
	// of the union demand would set them. (Appended sources wrote their
	// supply at row creation.)
	for si := range touched {
		supply := 0.0
		for dst := 0; dst < nN; dst++ {
			supply += m.dem[si][dst]
		}
		m.p.SetRHS(int(m.initRow[si]), supply)
	}
	in.demand.Or(add)
	return nil
}

// appendPair appends the read columns and destination-total row of a
// brand-new (source, destination) pair on an existing source, wiring
// the read columns into the source's conservation rows.
func (m *lpModel) appendPair(si, src, dst int, cnt float64) error {
	in := m.in
	K := in.K
	p := m.p
	if m.earliest[si][dst] > K {
		return fmt.Errorf("new demand destination %d unreachable from %d within the incumbent horizon", dst, src)
	}
	// The read window emit gives a pair: consumption may happen the
	// epoch an arrival lands.
	lo := max(m.earliest[si][dst]-1, 0)
	col := m.rvar[si][dst]
	destTerms := make([]lp.Term, 0, K-lo)
	for k := lo; k < K; k++ {
		cr := m.consRow[si][dst][k]
		if cr == noVar {
			return fmt.Errorf("no conservation row for destination %d at epoch %d", dst, k)
		}
		v := p.AddKeyedVar(lp.MakeKey(lp.KindRead, src, 0, dst, k), 0, cnt, m.tail[k])
		col[k] = int32(v)
		p.AppendToRow(int(cr), []lp.Term{{Var: v, Coeff: -1}})
		destTerms = append(destTerms, lp.Term{Var: v, Coeff: 1})
	}
	if len(destTerms) == 0 {
		return fmt.Errorf("empty read window for pair (%d,%d)", src, dst)
	}
	m.destRow[si][dst] = int32(p.AddRow(destTerms, lp.EQ, cnt))
	m.dem[si][dst] = cnt
	return nil
}

// appendSourceBlock appends the full per-source variable and constraint
// block of a brand-new source: the source joins the commodity index and
// emit states its block over the full horizon from the initial boundary,
// exactly as buildLP stated every other source's. row holds the
// per-destination chunk counts.
func (m *lpModel) appendSourceBlock(src int, row []float64) error {
	in := m.in
	t := in.topo
	if t.IsSwitch(topo.NodeID(src)) {
		return fmt.Errorf("new demand source %d is a switch", src)
	}
	// Reachability window from the new source on the current topology.
	e := in.reachWindow(in.hopDistances()[src])
	for dst := range row {
		if row[dst] == 0 {
			continue
		}
		if t.IsSwitch(topo.NodeID(dst)) {
			return fmt.Errorf("new demand destination %d is a switch", dst)
		}
		if e[dst] > in.K {
			return fmt.Errorf("new demand destination %d unreachable from %d within the incumbent horizon", dst, src)
		}
	}
	m.sources = append(m.sources, src)
	m.dem = append(m.dem, append([]float64(nil), row...))
	m.earliest = append(m.earliest, e)
	return m.emit(len(m.sources)-1, 0, in.K, true, m.initialBoundary())
}
