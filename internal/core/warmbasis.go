package core

import (
	"sync"

	"teccl/internal/lp"
	"teccl/internal/schedule"
)

// basisHint carries a basis from one solved formulation to a related one
// whose dimensions differ — a MILP's shrunken MinimizeMakespan horizon,
// the next A* round, the next rolling-horizon window, or the next MILP
// request of a Planner session. A new LP-form request takes none: it
// crash-starts (solvePrepped). Variables are matched by their column
// keys (lp.VarKey, stable across horizons: the key of f[s3,l7,k2]
// identifies the same flow regardless of K), so the surviving structure
// of the old optimal basis seeds the new solve;
// anonymous columns take no part, and rows are left to the solver's
// basis-repair pass, which completes any short basis with the slacks of
// uncovered rows. A session hint may additionally carry a basisStore:
// when the new problem fingerprints to a basis solved earlier in the
// session, that full basis (rows included) is used verbatim instead of
// the key projection. The two differ in kind to lp.Solve: a store hit is
// a complete basis and reoptimizes the model as stated, a key projection
// is a partial hint and goes through presolve.
type basisHint struct {
	vars map[lp.VarKey]lp.BasisStatus
	// srcKeys/srcBasis lazily back vars: session hints defer the
	// O(numVars) key-map build to first use, after the fingerprint
	// store has had its (cheaper, often successful) say — and outside
	// the Planner mutex the hint was captured under.
	srcKeys  []lp.VarKey
	srcBasis *lp.Basis
	store    *basisStore
}

// hintFromSolve captures a solved problem's basis for transfer. Returns
// nil when there is nothing usable.
func hintFromSolve(p *lp.Problem, b *lp.Basis) *basisHint {
	if p == nil || b == nil || len(b.Vars) != p.NumVars() {
		return nil
	}
	return &basisHint{vars: keyMap(p.Keys(), b)}
}

// keyMap indexes a basis by column key; keys are the solved problem's
// (lp.Problem.Keys), so they are no longer than b.Vars.
func keyMap(keys []lp.VarKey, b *lp.Basis) map[lp.VarKey]lp.BasisStatus {
	m := make(map[lp.VarKey]lp.BasisStatus, len(keys))
	for j, key := range keys {
		if key != 0 {
			m[key] = b.Vars[j]
		}
	}
	return m
}

// sessionHint builds a Planner MILP request's hint: an exact-fingerprint
// store plus a lazily materialized key map over the column keys and root
// basis of the session's previous MILP solve (see sessionBasis). Returns
// nil when there is nothing to offer.
func sessionHint(keys []lp.VarKey, basis *lp.Basis, store *basisStore) *basisHint {
	if basis == nil && store == nil {
		return nil
	}
	return &basisHint{srcKeys: keys, srcBasis: basis, store: store}
}

// basisFor projects the hint onto a new problem: an exact-fingerprint
// store hit returns the stored basis verbatim; otherwise keyed variables
// inherit their old status, everything else rests nonbasic, and all rows
// start nonbasic so the solver's repair pass installs slacks exactly
// where the transferred columns leave rows uncovered.
func (h *basisHint) basisFor(p *lp.Problem) *lp.Basis {
	if h == nil {
		return nil
	}
	if h.store != nil {
		if b := h.store.lookup(p); b != nil {
			return b
		}
	}
	if h.vars == nil && h.srcBasis != nil {
		h.vars = keyMap(h.srcKeys, h.srcBasis)
	}
	if len(h.vars) == 0 {
		return nil
	}
	b := &lp.Basis{
		Vars: make([]lp.BasisStatus, p.NumVars()),
		Rows: make([]lp.BasisStatus, p.NumRows()),
	}
	matched := 0
	for j := range b.Vars {
		if st, ok := h.vars[p.Key(lp.VarID(j))]; ok {
			b.Vars[j] = st
			if st == lp.BasisBasic {
				matched++
			}
		}
	}
	if matched == 0 {
		return nil
	}
	return b
}

// crashBasisLP builds a crash basis for the LP form from the support of
// the greedy schedule's LP point: every hop's flow column; where a hop is
// followed by the next hop of its path (see lpGreedyBound), the relay's
// buffer columns from the epoch after the landing to the epoch before the
// next departure (the conservation row B_k + in(k) = B_{k+1} + R_k +
// out(k+1) holds the chunk there); where it is the path's last hop, the
// destination's read at the landing epoch; and each source's inventory
// chain. Phase 1 thus starts from the greedy's whole path flow instead
// of the all-slack identity. The guess is purely structural — redundant
// or dependent columns are demoted by the solver's install/repair pass,
// so any greedy plan is a safe seed. Returns nil when there is no usable
// support.
func crashBasisLP(m *lpModel, sends []schedule.Send) *lp.Basis {
	if m == nil || len(sends) == 0 {
		return nil
	}
	p, in := m.p, m.in
	rows := p.NumRows()
	b := &lp.Basis{
		Vars: make([]lp.BasisStatus, p.NumVars()),
		Rows: make([]lp.BasisStatus, rows),
	}
	srcIdx := make(map[int]int, len(m.sources))
	for si, s := range m.sources {
		srcIdx[s] = si
	}
	marked := 0
	mark := func(col []int32, k int) {
		if k >= len(col) {
			return // a send past a caller-set horizon
		}
		if v := col[k]; v != noVar && b.Vars[v] != lp.BasisBasic && marked < rows {
			b.Vars[v] = lp.BasisBasic
			marked++
		}
	}
	for i, snd := range sends {
		si, ok := srcIdx[snd.Src]
		if !ok || int(snd.Link) >= len(m.fvar[si]) {
			continue
		}
		l := int(snd.Link)
		mark(m.fvar[si][l], snd.Epoch)
		n := int(in.topo.Link(snd.Link).Dst)
		land := in.landEpoch(l, snd.Epoch)
		if i+1 < len(sends) && chainedHop(in, snd, sends[i+1]) {
			for k := land + 1; k < sends[i+1].Epoch; k++ {
				mark(m.bvar[si][n], k)
			}
		} else {
			mark(m.rvar[si][n], land)
		}
	}
	if marked == 0 {
		return nil
	}
	// Source inventory chains: the buffer variables that carry each
	// source's remaining supply across epochs.
	for si, s := range m.sources {
		col := m.bvar[si][s]
		for k := range col {
			mark(col, k)
		}
	}
	return b
}

// chainedHop reports whether send b is the hop after a on one greedy
// path: the same commodity, leaving the node a lands at.
func chainedHop(in *instance, a, b schedule.Send) bool {
	return a.Src == b.Src && a.Chunk == b.Chunk && in.topo.Link(b.Link).Src == in.topo.Link(a.Link).Dst
}

// basisStore is a session's warm-basis memory: final bases of solved MILP
// roots and rolling-horizon windows keyed by lp.Problem.Fingerprint. A
// lookup that matches both fingerprint and dimensions returns a clone of
// the stored basis — even a hash collision is safe, because a warm start
// is only ever a hint (the solver repairs stale or singular bases). The
// store is bounded: once full, recording evicts the oldest entry, so
// identical request streams keep identical warm-start decisions and
// pivot paths.
type basisStore struct {
	mu    sync.Mutex
	bases map[uint64]*lp.Basis
	order []uint64 // fingerprints in bases, oldest first
	hits  int
	limit int
}

const basisStoreLimit = 256

func newBasisStore() *basisStore {
	return &basisStore{bases: make(map[uint64]*lp.Basis), limit: basisStoreLimit}
}

// lookup returns a clone of the stored basis for p, or nil.
func (s *basisStore) lookup(p *lp.Problem) *lp.Basis {
	fp := p.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bases[fp]
	if b == nil || len(b.Vars) != p.NumVars() || len(b.Rows) != p.NumRows() {
		return nil
	}
	s.hits++
	return b.Clone()
}

// record stores the final basis of a solved problem.
func (s *basisStore) record(p *lp.Problem, b *lp.Basis) {
	if p == nil || b == nil || len(b.Vars) != p.NumVars() {
		return
	}
	fp := p.Fingerprint()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.bases[fp]; !ok {
		if len(s.order) >= s.limit {
			delete(s.bases, s.order[0])
			s.order = s.order[1:]
		}
		s.order = append(s.order, fp)
	}
	s.bases[fp] = b
}

// hitCount reports how many lookups were served.
func (s *basisStore) hitCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits
}
