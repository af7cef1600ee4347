package lp

// simplex.go is the revised-simplex driver. The basis is represented by
// the sparse LU factorization in factor.go (never a dense inverse), the
// entering variable is chosen by the partial pricer in pricing.go, and
// feasibility is reached by a composite phase 1 that minimizes the total
// bound violation of the basic variables directly — no artificial
// variables, so a warm-started basis that is already (nearly) feasible
// skips phase 1 in a handful of iterations.

import (
	"fmt"
	"math"
	"os"
)

var lpDebug = os.Getenv("LP_DEBUG") != ""

// Numerical tolerances. These are conventional values for double-precision
// simplex implementations.
const (
	feasTol  = 1e-7  // bound/row feasibility
	optTol   = 1e-7  // reduced-cost optimality
	pivotTol = 1e-8  // smallest acceptable pivot magnitude
	zeroTol  = 1e-11 // values below this are treated as exact zero
)

// boundsFixed reports whether a variable's bounds pin it to a single
// value (EQ slacks and presolve-fixed columns). Bounds are assigned,
// never computed, so identity — not tolerance — is the correct test:
// comparing the bit patterns says exactly that, and keeps a pair of
// bounds within feasTol of each other (a genuinely thin range) from
// being misread as fixed.
func boundsFixed(lo, hi float64) bool {
	return math.Float64bits(lo) == math.Float64bits(hi)
}

// varStatus describes where a variable currently sits.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
	nonbasicFree // free variable resting at value 0
)

// colMatrix is a column-wise (CSC) copy of a row-wise matrix: column j's
// rows, ascending, and coefficients are colRow/colVal[colStart[j]:
// colStart[j+1]] — two shared backing arrays with per-column extents.
type colMatrix struct {
	colStart []int32
	colRow   []int32
	colVal   []float64
	next     []int32 // fill cursors (scratch)
}

// fill builds the copy from rows over n columns with a single counted
// pass — count per-column entries, prefix-sum into extents, fill — in the
// storage it holds, grown (to at least roomN columns, roomNnz entries)
// only where that is too small.
func (c *colMatrix) fill(rows [][]Term, n, roomN, roomNnz int) {
	c.colStart = fit(c.colStart, n+1, roomN+1)
	clear(c.colStart)
	nnz := 0
	for _, row := range rows {
		for _, t := range row {
			c.colStart[t.Var+1]++
			nnz++
		}
	}
	for j := 0; j < n; j++ {
		c.colStart[j+1] += c.colStart[j]
	}
	c.colRow = fit(c.colRow, nnz, roomNnz)
	c.colVal = fit(c.colVal, nnz, roomNnz)
	c.next = fit(c.next, n, roomN)
	copy(c.next, c.colStart[:n])
	for i, row := range rows {
		for _, t := range row {
			k := c.next[t.Var]
			c.next[t.Var]++
			c.colRow[k] = int32(i)
			c.colVal[k] = t.Coeff
		}
	}
}

// simplex is the working state of a solve context (see Solver). bind
// rebuilds what depends on the matrix — the CSC copy, the slack unit
// columns, the pricing norms, the sizes of every work vector and of the LU
// storage — and reset, at the top of each solve, re-reads bounds,
// right-hand sides and costs from the problem and returns every per-solve
// field to what a freshly built simplex holds, so a retained context and
// a new one walk the same pivot path bit for bit. All variables live in a
// single index space:
//
//	[0, n)    structural variables
//	[n, n+m)  one slack per row (rows become equalities)
type simplex struct {
	p   *Problem // nil until the first bind
	opt Options  // of the solve in progress

	m int // rows
	n int // structural variables

	// Sparse constraint matrix, structural columns only; slack columns
	// are unit vectors handled implicitly.
	colMatrix
	// stepRow is colRow in the step space of the current factorization
	// (stepRow[k] = lu.rowStep[colRow[k]]), rebuilt by factorizeBasis, the
	// only caller of factorize: rowStep moves nowhere else. Pricing, the
	// phase-1 slope and computeDuals dot columns against y through it, and
	// the entering column scatters into FTRAN through it.
	stepRow []int32

	rhs []float64

	// Per-variable data across the full index space.
	lo, hi []float64
	cost   []float64 // phase-2 cost (internal minimization form)
	status []varStatus
	value  []float64

	nTotal int // structural + slack count

	basis  []int // basis[i] = variable basic in position i
	inBrow []int // inBrow[v] = basis position of v, or -1

	lu luFactor

	xB []float64 // basic variable values (mirrors value[] for basic vars)

	iter      int
	refactors int
	degenRun  int // consecutive degenerate pivots (Bland trigger)

	// Anti-stall bound perturbation state (see perturbBounds).
	pertRound int
	perturbed bool
	trueLo    []float64 // pristine bounds while perturbed
	trueHi    []float64

	priceCursor int       // partial-pricing rotation state
	gamma       []float64 // devex reference weights, one per column
	// gammaMoved records that devexUpdate overwrote the static column
	// norms in gamma, so the next solve recomputes them.
	gammaMoved bool

	// scratch buffers
	// y is the last BTRAN result in step space (y of row i at
	// lu.rowStep[i]): the duals B⁻ᵀc_B, or ρ = B⁻ᵀe_r for a pivot row. It
	// trades storage with lu.work on every BTRAN (see btranStep).
	y []float64
	// w is B⁻¹a_enter by basis position, and wNnz the positions of its
	// entries above dropTol, ascending; both come out of ftranStep.
	w []float64
	// cb holds the basic costs in step space: the cost of the variable at
	// basis position pos is cb[lu.colStep[pos]], so BTRAN starts with a
	// copy. colStep moves only in factorize, which every refill follows.
	cb       []float64
	resid    []float64
	wNnz     []int32
	p1events []p1event
	// rsort orders the breakpoints of both ratio tests (ratiosort.go):
	// p1events here, cand in the dual.
	rsort ratioSort

	// Dual-simplex state (dual.go), sized on first dual use of a binding.
	d     []float64 // reduced costs of nonbasic columns
	dwt   []float64 // devex reference weights, one per basis row
	alpha []float64 // priced pivot row ρᵀA (full index space)
	// alpha and alphaSeen are zero outside alphaNnz, over their whole
	// capacity: pivotRow clears what it listed, never the arrays.
	alphaSeen []bool
	alphaNnz  []int32
	cand      []dualCand
	flipBuf   []int32
	// Row-wise (CSR) copy of the structural matrix for pivotRow; csr
	// says it describes the bound matrix.
	csr      bool
	rowStart []int32
	rowColJ  []int32
	rowValR  []float64

	// per-position basis column views handed to the factorization
	fcolIdx [][]int32
	fcolVal [][]float64
	// unit-column backing for slack columns
	slackIdx []int32
	slackVal []float64
}

// bind points the context at p, rebuilding everything that depends only
// on p's matrix and dimensions in the storage the context holds; nothing
// here is read from bounds, right-hand sides or costs, so a binding
// survives SetBounds/SetRHS/SetObj edits (see Solver). Storage too small
// for p is reallocated with room for roomN columns, roomM rows and
// roomNnz entries when those are larger; a context holding none
// allocates what one built for p alone would.
func (s *simplex) bind(p *Problem, roomN, roomM, roomNnz int) {
	m, n := p.NumRows(), p.NumVars()
	total, roomT := n+m, roomN+roomM
	for _, j := range s.alphaNnz {
		s.alpha[j], s.alphaSeen[j] = 0, false
	}
	s.alphaNnz, s.csr = s.alphaNnz[:0], false
	s.p, s.m, s.n, s.nTotal = p, m, n, total
	s.fill(p.rows, n, roomN, roomNnz)
	s.stepRow = fit(s.stepRow, len(s.colRow), roomNnz)

	s.rhs = fit(s.rhs, m, roomM)
	s.lo = fit(s.lo, total, roomT)
	s.hi = fit(s.hi, total, roomT)
	s.cost = fit(s.cost, total, roomT)
	clear(s.cost[n:]) // slacks cost nothing; reset writes the structurals
	s.status = fit(s.status, total, roomT)
	s.value = fit(s.value, total, roomT)
	s.basis = fit(s.basis, m, roomM)
	s.inBrow = fit(s.inBrow, total, roomT)
	s.xB = fit(s.xB, m, roomM)
	s.y = fit(s.y, m, roomM)
	s.w = fit(s.w, m, roomM)
	s.cb = fit(s.cb, m, roomM)
	s.resid = fit(s.resid, m, roomM)
	s.wNnz = fit(s.wNnz, m, roomM)[:0]
	s.slackIdx = fit(s.slackIdx, m, roomM)
	s.slackVal = fit(s.slackVal, m, roomM)
	for i := 0; i < m; i++ {
		s.slackIdx[i] = int32(i)
		s.slackVal[i] = 1
	}
	s.fcolIdx = fit(s.fcolIdx, m, roomM)
	s.fcolVal = fit(s.fcolVal, m, roomM)
	s.gamma = fit(s.gamma, total, roomT)
	s.staticNorms()
	// A dual ratio test ranks at most n nonbasic candidates; a phase-1
	// one at most two breakpoints per basic variable and the entering
	// variable's own range.
	s.rsort.bind(max(n, 2*m+1), max(roomN, 2*roomM+1))
	s.lu.bind(m, roomM)
}

// staticNorms fills gamma with the default pricing weights: static
// scale-invariant column norms (cheap, adequate on small problems),
// upgraded in place by the devex recurrence on large instances (see
// devexUpdate's caller).
func (s *simplex) staticNorms() {
	for j := 0; j < s.nTotal; j++ {
		w := 1.0
		_, val := s.column(j)
		for _, v := range val {
			w += v * v
		}
		s.gamma[j] = w
	}
	s.gammaMoved = false
}

// reset returns the context to the state of a freshly built simplex
// about to solve p under opt: bounds, right-hand sides and costs are
// re-read from the problem (slack bounds follow the row senses; a solve
// that stopped while perturbed leaves shifted ones behind), the
// per-variable statuses, values and basis positions are cleared for
// install, and every counter restarts. The work vectors (xB, y, w, cb,
// resid, the dual arrays) are always written before they are read and
// keep whatever the last solve left in them.
func (s *simplex) reset(opt Options) {
	p, n, m := s.p, s.n, s.m
	s.opt = opt
	copy(s.rhs, p.rhs)

	// Structural bounds and cost (convert to internal minimization).
	sign := 1.0
	if p.Dir == Maximize {
		sign = -1.0
	}
	copy(s.lo, p.lo)
	copy(s.hi, p.hi)
	for j := 0; j < n; j++ {
		s.cost[j] = sign * p.obj[j]
	}
	// Slack bounds by row sense: row a'x + slack = b.
	for i := 0; i < m; i++ {
		sl := n + i
		switch p.senses[i] {
		case LE:
			s.lo[sl], s.hi[sl] = 0, Inf
		case GE:
			s.lo[sl], s.hi[sl] = math.Inf(-1), 0
		case EQ:
			s.lo[sl], s.hi[sl] = 0, 0
		}
	}
	for j := range s.status {
		s.status[j] = atLower
		s.value[j] = 0
		s.inBrow[j] = -1
	}
	if s.gammaMoved {
		s.staticNorms()
	}
	s.iter, s.refactors, s.degenRun = 0, 0, 0
	s.pertRound, s.perturbed = 0, false
	s.priceCursor = 0
	s.lu.statUpdates, s.lu.statUpdNnz, s.lu.testPanic = 0, 0, opt.testPanic
}

// column returns the sparse form of column j of the full matrix.
func (s *simplex) column(j int) ([]int32, []float64) {
	if j < s.n {
		return s.colRow[s.colStart[j]:s.colStart[j+1]], s.colVal[s.colStart[j]:s.colStart[j+1]]
	}
	r := j - s.n
	return s.slackIdx[r : r+1], s.slackVal[r : r+1]
}

// ftranEntering computes w = B⁻¹a_enter into s.w, saving the spike for
// the Forrest–Tomlin update that follows the pivot, and lists the
// positions of w's entries above dropTol in s.wNnz, ascending (the ratio
// tests break ties in that order). The column reaches FTRAN by step:
// a structural through stepRow, a slack through rowStep.
func (s *simplex) ftranEntering(enter int) {
	var idx []int32
	var val []float64
	if enter < s.n {
		lo, hi := s.colStart[enter], s.colStart[enter+1]
		idx, val = s.stepRow[lo:hi], s.colVal[lo:hi]
	} else {
		r := enter - s.n
		idx, val = s.lu.rowStep[r:r+1], s.slackVal[r:r+1]
	}
	s.wNnz = s.lu.ftranStep(idx, val, s.w, s.wNnz)
}

// stepDot returns a_j · y for column j and y in step space, summing in
// the column's row order.
func (s *simplex) stepDot(j int, y []float64) float64 {
	if j < s.n {
		var d float64
		lo, hi := s.colStart[j], s.colStart[j+1]
		idx := s.stepRow[lo:hi]
		val := s.colVal[lo:hi]
		for k := range idx {
			d += val[k] * y[idx[k]]
		}
		return d
	}
	return y[s.lu.rowStep[j-s.n]]
}

// fillCB writes the basic costs of the current basis into cb, by step.
func (s *simplex) fillCB(cost []float64) {
	for pos, v := range s.basis {
		s.cb[s.lu.colStep[pos]] = cost[v]
	}
}

// restValue returns the value a nonbasic variable rests at.
func (s *simplex) restValue(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lo[j]
	case atUpper:
		return s.hi[j]
	default:
		return 0 // nonbasicFree
	}
}

func restStatus(lo, hi float64) varStatus {
	switch {
	case !math.IsInf(lo, -1) && (math.IsInf(hi, 1) || math.Abs(lo) <= math.Abs(hi)):
		return atLower
	case !math.IsInf(hi, 1):
		return atUpper
	default:
		return nonbasicFree
	}
}

// sanitizeStatus reconciles a requested nonbasic status with the current
// bounds (warm starts may carry statuses from before a bound change).
func sanitizeStatus(st varStatus, lo, hi float64) varStatus {
	loInf, hiInf := math.IsInf(lo, -1), math.IsInf(hi, 1)
	switch st {
	case atLower:
		if !loInf {
			return atLower
		}
		if !hiInf {
			return atUpper
		}
		return nonbasicFree
	case atUpper:
		if !hiInf {
			return atUpper
		}
		if !loInf {
			return atLower
		}
		return nonbasicFree
	default:
		if loInf && hiInf {
			return nonbasicFree
		}
		return restStatus(lo, hi)
	}
}

// install sets up statuses, the starting basis (warm or cold), the LU
// factorization, and the basic values on a freshly reset context.
func (s *simplex) install() {
	n, m := s.n, s.m

	warm := s.opt.WarmStart
	if warm == nil {
		// A crash basis is installed exactly like a warm start (statuses
		// sanitized, short bases padded, singular bases repaired); it only
		// differs in intent — a structural phase-1 seed, not a claim of
		// near-optimality — so it never triggers the dual-reoptimization
		// path the way Options.WarmStart does.
		warm = s.opt.Crash
	}
	useWarm := warm != nil && len(warm.Vars) == n && len(warm.Rows) == m
	nBasic := 0
	if useWarm {
		toVS := func(bs BasisStatus) varStatus {
			switch bs {
			case BasisBasic:
				return basic
			case BasisAtUpper:
				return atUpper
			case BasisFree:
				return nonbasicFree
			default:
				return atLower
			}
		}
		for j := 0; j < s.nTotal; j++ {
			var want varStatus
			if j < n {
				want = toVS(warm.Vars[j])
			} else {
				want = toVS(warm.Rows[j-n])
			}
			if want == basic {
				if nBasic < m {
					s.basis[nBasic] = j
					s.status[j] = basic
					nBasic++
					continue
				}
				want = restStatus(s.lo[j], s.hi[j]) // demote overflow
			}
			s.status[j] = sanitizeStatus(want, s.lo[j], s.hi[j])
			s.value[j] = s.restValue(j)
		}
		// Pad a short basis with nonbasic slacks.
		for i := 0; i < m && nBasic < m; i++ {
			sl := n + i
			if s.status[sl] == basic {
				continue
			}
			s.basis[nBasic] = sl
			s.status[sl] = basic
			nBasic++
		}
	}
	if !useWarm || nBasic < m {
		// Cold start: every structural at a bound, the slack basis (its
		// identity factorization is free, and the composite phase 1
		// reaches feasibility without artificial variables).
		for j := 0; j < n; j++ {
			s.status[j] = restStatus(s.lo[j], s.hi[j])
			s.value[j] = s.restValue(j)
		}
		for i := 0; i < m; i++ {
			sl := n + i
			s.basis[i] = sl
			s.status[sl] = basic
		}
	}
	for i, v := range s.basis {
		s.inBrow[v] = i
	}

	s.factorizeBasis()
	s.computeXB()
}

// factorizeBasis (re)factorizes the current basis, repairing singular
// bases by slotting row slacks into the uncovered rows. The all-slack
// fallback makes this effectively infallible; it reports false only if
// even that cannot be factorized (which would indicate corruption).
func (s *simplex) factorizeBasis() bool {
	for attempt := 0; attempt < 4; attempt++ {
		for pos, v := range s.basis {
			s.fcolIdx[pos], s.fcolVal[pos] = s.column(v)
		}
		failRows, failCols := s.lu.factorize(s.fcolIdx, s.fcolVal)
		if failRows == nil {
			s.refactors++
			for k, r := range s.colRow {
				s.stepRow[k] = s.lu.rowStep[r]
			}
			return true
		}
		if attempt < 2 {
			s.repairBasis(failRows, failCols)
			continue
		}
		// Last resort: restart from the identity (all-slack) basis.
		for j := 0; j < s.nTotal; j++ {
			if s.status[j] == basic {
				s.status[j] = restStatus(s.lo[j], s.hi[j])
				s.value[j] = s.restValue(j)
			}
			s.inBrow[j] = -1
		}
		for i := 0; i < s.m; i++ {
			sl := s.n + i
			s.basis[i] = sl
			s.status[sl] = basic
			s.inBrow[sl] = i
		}
	}
	return false
}

// repairBasis replaces the basis entries at the unpivoted positions with
// the slacks of the unpivoted rows (unit columns covering exactly the
// uncovered part of the space), kicking the dependent variables out to
// their nearest bound.
func (s *simplex) repairBasis(failRows, failCols []int32) {
	assigned := make([]bool, len(failCols))
	var leftRows []int32
	for _, r := range failRows {
		sl := s.n + int(r)
		if p := s.inBrow[sl]; p >= 0 {
			// Already basic; its position must be among the failed ones.
			for ci, pc := range failCols {
				if int(pc) == p {
					assigned[ci] = true
					break
				}
			}
			continue
		}
		leftRows = append(leftRows, r)
	}
	li := 0
	for ci, pc := range failCols {
		if assigned[ci] || li >= len(leftRows) {
			continue
		}
		r := leftRows[li]
		li++
		pos := int(pc)
		out := s.basis[pos]
		s.inBrow[out] = -1
		s.status[out] = restStatus(s.lo[out], s.hi[out])
		s.value[out] = s.restValue(out)
		sl := s.n + int(r)
		s.basis[pos] = sl
		s.status[sl] = basic
		s.inBrow[sl] = pos
	}
}

// computeXB recomputes the basic values x_B = B^-1 (b - A_N x_N) from the
// current statuses and factorization.
func (s *simplex) computeXB() {
	copy(s.resid, s.rhs)
	for j := 0; j < s.nTotal; j++ {
		if s.status[j] == basic {
			continue
		}
		v := s.value[j]
		if v == 0 {
			continue
		}
		idx, val := s.column(j)
		for k, i := range idx {
			s.resid[i] -= val[k] * v
		}
	}
	s.lu.ftran(s.resid)
	copy(s.xB, s.resid)
	for i := range s.xB {
		s.value[s.basis[i]] = s.xB[i]
	}
}

// perturbBounds breaks ratio-test ties by shifting every non-fixed
// finite bound outward by a tiny deterministic pseudo-random amount —
// the standard anti-degeneracy device: on the massively degenerate
// polytopes of time-expanded flow LPs, exact bound ties let the simplex
// walk objective plateaus indefinitely, and distinct perturbed vertices
// make every step strictly improving again. The shifts only RELAX the
// problem, so an infeasibility verdict under perturbation still stands
// for the true problem; an optimality verdict is cleaned up by
// restoreBounds plus a short reoptimization. Each round uses fresh
// offsets (deterministic in the round number, preserving solve
// determinism).
func (s *simplex) perturbBounds() {
	if !s.perturbed {
		s.trueLo = append(s.trueLo[:0], s.lo...)
		s.trueHi = append(s.trueHi[:0], s.hi...)
		s.perturbed = true
	}
	s.pertRound++
	const pertScale = 1e-6
	seed := uint64(0x9e3779b97f4a7c15) * uint64(s.pertRound)
	next := func(j int) float64 {
		x := seed + uint64(j)*0xbf58476d1ce4e5b9
		x ^= x >> 31
		x *= 0x94d049bb133111eb
		x ^= x >> 29
		return 0.5 + float64(x>>40)/(2*float64(1<<24)) // in [0.5, 1)
	}
	for j := 0; j < s.nTotal; j++ {
		lo, hi := s.trueLo[j], s.trueHi[j]
		if boundsFixed(lo, hi) {
			continue // fixed (EQ slacks included): semantics must not move
		}
		if !math.IsInf(lo, -1) {
			s.lo[j] = lo - pertScale*(1+math.Abs(lo))*next(2*j)
		}
		if !math.IsInf(hi, 1) {
			s.hi[j] = hi + pertScale*(1+math.Abs(hi))*next(2*j+1)
		}
		if s.status[j] != basic {
			s.value[j] = s.restValue(j)
		}
	}
	s.computeXB()
}

// restoreBounds undoes perturbBounds: pristine bounds return, nonbasic
// variables snap back onto them, and the basic values are recomputed.
// The follow-up phase-1/phase-2 pass repairs the ~perturbation-sized
// violations and re-certifies optimality on the exact problem.
func (s *simplex) restoreBounds() {
	if !s.perturbed {
		return
	}
	copy(s.lo, s.trueLo)
	copy(s.hi, s.trueHi)
	s.perturbed = false
	for j := 0; j < s.nTotal; j++ {
		if s.status[j] != basic {
			s.value[j] = s.restValue(j)
		}
	}
	s.computeXB()
}

// totalInfeas sums the bound violations of the basic variables, ignoring
// sub-tolerance noise (which can otherwise accumulate across thousands of
// rows into an apparent infeasibility).
func (s *simplex) totalInfeas() float64 {
	var sum float64
	for i, v := range s.basis {
		if d := s.lo[v] - s.xB[i]; d > feasTol {
			sum += d
		} else if d := s.xB[i] - s.hi[v]; d > feasTol {
			sum += d
		}
	}
	return sum
}

// recertifyFeasible runs a phase-1 mop-up and reports the status the
// surrounding solve should continue with: StatusOptimal when the point
// is (within tolerance) primal feasible, StatusIterLimit when the
// budget expired mid-mop-up (passes through so the caller keeps its
// partial-point semantics), StatusNumericalError otherwise.
func (s *simplex) recertifyFeasible(maxIter int) Status {
	p1 := s.iterate(true, nil, maxIter)
	if p1 == StatusInfeasible && s.totalInfeas() <= feasTol*float64(1+s.m) {
		return StatusOptimal
	}
	if p1 == StatusOptimal || p1 == StatusIterLimit {
		return p1
	}
	return StatusNumericalError
}

// solve runs one solve of the bound problem as stated (no presolve) under
// opt, starting from a reset context.
func (s *simplex) solve(opt Options) (*Solution, error) {
	s.reset(opt)
	s.install()

	maxIter := s.opt.MaxIter
	if maxIter == 0 {
		maxIter = 20000
		if v := 60 * s.m; v > maxIter {
			maxIter = v
		}
	}

	// done wraps up a solve that ends with the given status; the current
	// basis is always snapshotted (even infeasible or out-of-budget bases
	// are useful warm-start hints for related solves).
	done := func(st Status) (*Solution, error) {
		return &Solution{
			Status:           st,
			Iterations:       s.iter,
			Refactorizations: s.refactors,
			FTUpdates:        s.lu.statUpdates,
			UpdateNnz:        s.lu.statUpdNnz,
			Basis:            s.snapshot(),
		}, nil
	}

	// Test hook: pre-apply anti-stall bound perturbation rounds so the
	// restore/re-certification exit paths can be exercised directly.
	for i := 0; i < s.opt.testPerturb; i++ {
		s.perturbBounds()
	}

	// The start picks the method: a WarmStart runs the dual simplex first
	// (the reoptimization case it exists for), every other start the
	// primal alone. Whatever the dual concludes, the primal phases below
	// still run from the basis it leaves behind: after a dual optimum
	// they certify and return in a handful of iterations; after a
	// dual-unboundedness verdict the composite phase 1 independently
	// confirms infeasibility; after a refused start or a stall the primal
	// simply does the job.
	useDual := s.opt.WarmStart != nil
	if s.opt.testMethod != 0 {
		useDual = s.opt.testMethod == forceDual
	}
	if useDual && s.prepareDual() {
		switch st := s.dualIterate(maxIter); st {
		case StatusOptimal, StatusInfeasible, statusDualStall:
			// Fall through to the primal phases for certification,
			// confirmation, or completion respectively.
		default:
			return done(st)
		}
	}

	// The phase pair below may run under anti-stall bound perturbation
	// (see perturbBounds); an optimum found on perturbed bounds is cleaned
	// up by restoring the exact bounds and reoptimizing — normally a
	// handful of pivots from the adjacent perturbed vertex.
	var st Status
restart:
	for restores := 0; ; restores++ {
		// Phase 1: drive the basic bound violations to zero (a no-op when
		// the starting basis — cold or warm — is already primal feasible).
		// An infeasibility verdict is only accepted after it survives a
		// fresh factorization, so accumulated floating drift cannot fake
		// one. (Perturbation only relaxes bounds, so an infeasibility
		// verdict under perturbation stands for the true problem.)
	phase1:
		for tries := 0; ; tries++ {
			switch st := s.iterate(true, nil, maxIter); st {
			case StatusOptimal:
				break phase1 // feasible
			case StatusInfeasible:
				// Priced out at minimal infeasibility; decide by magnitude.
				if s.totalInfeas() <= feasTol*float64(1+s.m) {
					break phase1
				}
				if tries < 2 {
					if !s.factorizeBasis() {
						return done(StatusNumericalError)
					}
					s.computeXB()
					continue
				}
				return done(StatusInfeasible)
			case StatusUnbounded:
				// The phase-1 objective is bounded below by zero; unbounded
				// here can only mean numerical trouble.
				return done(StatusNumericalError)
			default:
				return done(st)
			}
		}

		// Phase 2: the real objective. An optimality verdict must describe
		// a primal-feasible point: a mid-phase singular-basis repair (or
		// plain drift) can silently kick the iterate out of feasibility, so
		// re-check and loop back through phase 1 if violations reappeared.
		// A statusPerturbed hand-back (anti-stall bound perturbation) also
		// routes through phase 1, which mops the perturbation-sized
		// violations in a few pivots.
		for tries, perts := 0, 0; ; {
			st = s.iterate(false, s.cost, maxIter)
			if st == StatusOptimal && s.totalInfeas() > feasTol*float64(1+s.m) {
				if tries++; tries > 2 {
					st = StatusNumericalError
					break
				}
			} else if st == statusPerturbed {
				if perts++; perts > 4 {
					st = StatusNumericalError
					break
				}
			} else {
				break
			}
			// The iterate was feasible when phase 2 started, so failing
			// to restore feasibility now is numerical trouble (or an
			// expired budget, which passes through).
			if p1 := s.recertifyFeasible(maxIter); p1 != StatusOptimal {
				st = p1
				break
			}
		}

		if st == StatusOptimal && s.perturbed {
			// An optimal verdict on perturbed bounds never leaves this
			// loop unrestored: the exact bounds return and the phases
			// reoptimize. The restore budget cannot actually be exhausted
			// while perturbation sessions are capped (perturbBounds runs
			// at most pertRound < 3 times plus one test pre-seed, so at
			// most three restores are ever needed); the branch below is a
			// defensive net should that invariant change — it re-certifies
			// feasibility on the pristine bounds so an "optimal" verdict
			// can never describe values (or an objective priced from them)
			// outside them.
			s.restoreBounds()
			if restores < 3 {
				continue restart
			}
			if p1 := s.recertifyFeasible(maxIter); p1 != StatusOptimal {
				st = p1
			}
		}
		break
	}
	if s.perturbed {
		// Non-optimal exit while perturbed (budget, numerical): report
		// against the true bounds.
		s.restoreBounds()
	}

	sol, _ := done(st)
	if st == StatusOptimal || st == StatusIterLimit {
		sol.X = make([]float64, s.n)
		var objv float64
		for j := 0; j < s.n; j++ {
			v := s.value[j]
			if math.Abs(v) < zeroTol {
				v = 0
			}
			sol.X[j] = v
			objv += s.p.obj[j] * v
		}
		sol.Objective = objv
	}
	if st == StatusOptimal && s.m > 0 {
		// Row duals y = B⁻ᵀc_B, converted to rows from step space and from
		// the internal minimization form back to the problem's stated
		// direction.
		s.fillCB(s.cost)
		s.y = s.lu.btranStep(s.cb, s.y)
		sign := 1.0
		if s.p.Dir == Maximize {
			sign = -1.0
		}
		sol.Duals = make([]float64, s.m)
		for i := range sol.Duals {
			d := sign * s.y[s.lu.rowStep[i]]
			if math.Abs(d) < zeroTol {
				d = 0
			}
			sol.Duals[i] = d
		}
	}
	return sol, nil
}

// snapshot captures the current basis for warm-starting a later solve.
func (s *simplex) snapshot() *Basis {
	toBS := func(st varStatus) BasisStatus {
		switch st {
		case basic:
			return BasisBasic
		case atUpper:
			return BasisAtUpper
		case nonbasicFree:
			return BasisFree
		default:
			return BasisAtLower
		}
	}
	b := &Basis{
		Vars: make([]BasisStatus, s.n),
		Rows: make([]BasisStatus, s.m),
	}
	for j := 0; j < s.n; j++ {
		b.Vars[j] = toBS(s.status[j])
	}
	for i := 0; i < s.m; i++ {
		b.Rows[i] = toBS(s.status[s.n+i])
	}
	return b
}

// interrupted reports whether the solve's wall-clock budget is spent:
// the Options context is done. Checked every 64 iterations by both
// simplex drivers, so a cancelled solve returns (with StatusIterLimit
// and a usable basis snapshot) promptly.
func (s *simplex) interrupted() bool {
	return s.opt.Context != nil && s.opt.Context.Err() != nil
}

// iterate runs primal simplex iterations until the phase completes.
// Phase 1 (phase1 true, cost nil) minimizes the total bound violation of
// the basic variables and returns StatusOptimal once feasible or
// StatusInfeasible when violations remain at a phase-1 optimum. Phase 2
// minimizes the given cost vector and returns StatusOptimal or
// StatusUnbounded. Both return StatusIterLimit/StatusNumericalError on
// the respective failures.
func (s *simplex) iterate(phase1 bool, cost []float64, maxIter int) Status {
	useBland := false
	checkBudget := s.opt.Context != nil
	m := s.m

	// Stall escalation: massively degenerate instances can walk objective
	// plateaus forever with nonzero-length steps, which the per-step
	// degeneracy counter below never sees (each step resets it). Track
	// the actual phase objective over fixed windows; a windowful of no
	// progress first forces a fresh factorization (drift can manufacture
	// phantom candidates), and a second consecutive one pins Bland's rule
	// on until progress resumes, restoring guaranteed termination.
	const stallWindow = 512
	phaseObj := func() float64 {
		if phase1 {
			return s.totalInfeas()
		}
		// Full objective, nonbasic values included: bound-flip progress
		// must register, or flip-heavy windows would read as stalls.
		var v float64
		for j := 0; j < s.nTotal; j++ {
			if x := s.value[j]; x != 0 {
				v += cost[j] * x
			}
		}
		return v
	}
	lastObj := math.Inf(1)
	stallWins := 0
	sinceCheck := 0

	// Phase 2's basic costs are filled here and after a refactorization
	// (whose repair may re-seat the basis, and which renumbers the steps);
	// in between, a pivot changes them at the leaving position's step only.
	fillCB := func() {
		if !phase1 {
			s.fillCB(cost)
		}
	}
	refresh := func() bool {
		if !s.factorizeBasis() {
			return false
		}
		s.computeXB()
		fillCB()
		return true
	}
	fillCB()

	for {
		if s.iter >= maxIter {
			return StatusIterLimit
		}
		if sinceCheck++; sinceCheck >= stallWindow {
			sinceCheck = 0
			cur := phaseObj()
			if cur >= lastObj-1e-9*(1+math.Abs(lastObj)) {
				stallWins++
				switch {
				case stallWins == 1:
					// Drift can manufacture phantom candidates; refresh.
					if !refresh() {
						return StatusNumericalError
					}
				case stallWins == 2 && s.pertRound < 3:
					s.perturbBounds()
					if !phase1 {
						// The shifted bounds leave perturbation-sized
						// violations on the basics; hand control back so
						// a phase-1 mop-up runs before phase 2 resumes.
						return statusPerturbed
					}
					stallWins = 0
					cur = phaseObj() // bounds moved; rebase the window
				}
			} else {
				stallWins = 0
			}
			lastObj = cur
		}
		if stallWins >= 2 {
			useBland = true // sticky until the windowed objective moves
		}
		if checkBudget && s.iter%64 == 0 && s.interrupted() {
			return StatusIterLimit
		}
		if lpDebug && s.iter%5000 == 0 {
			fmt.Fprintf(os.Stderr, "lp: iter=%d refactors=%d updates=%d luNnz=%d uNnz=%d(base %d) rNnz=%d obj=%.6g p1=%v bland=%v\n",
				s.iter, s.refactors, s.lu.statUpdates, s.lu.luNnz, s.lu.uNnz, s.lu.baseUNnz, s.lu.rNnz(), phaseObj(), phase1, useBland)
		}

		// Basic costs in step space: the phase-1 objective is the total
		// violation, whose gradient on basic variables is ±1.
		if phase1 {
			any := false
			colStep := s.lu.colStep
			for i := 0; i < m; i++ {
				v := s.basis[i]
				switch {
				case s.xB[i] < s.lo[v]-feasTol:
					s.cb[colStep[i]] = -1
					any = true
				case s.xB[i] > s.hi[v]+feasTol:
					s.cb[colStep[i]] = 1
					any = true
				default:
					s.cb[colStep[i]] = 0
				}
			}
			if !any {
				return StatusOptimal // primal feasible: phase 1 done
			}
		}

		// BTRAN: y = B^-T c_B, in step space.
		s.y = s.lu.btranStep(s.cb, s.y)

		// Pricing: pick the entering variable.
		var pcost []float64
		if !phase1 {
			pcost = cost
		}
		enter, enterDir := s.price(pcost, s.y, useBland)
		if enter == -1 {
			if phase1 {
				return StatusInfeasible
			}
			return StatusOptimal
		}
		s.iter++ // a pivot, not a loop entry: an optimal basis counts none

		// FTRAN: w = B^-1 a_enter (spike saved for the FT update below).
		s.ftranEntering(enter)

		// Ratio test.
		var leave int
		var t float64
		var leaveToUpper bool
		if phase1 {
			slope0 := enterDir * -s.stepDot(enter, s.y)
			leave, t, leaveToUpper = s.ratioTestPhase1(enter, enterDir, slope0, useBland)
		} else {
			leave, t, leaveToUpper = s.ratioTest(enter, enterDir, useBland)
		}
		if leave == -2 {
			if phase1 {
				// A feasibility-improving direction with no blocking bound
				// cannot exist; the factorization has drifted.
				return StatusNumericalError
			}
			return StatusUnbounded
		}

		if t < 1e-9 {
			s.degenRun++
			if s.degenRun > 2*s.m+200 {
				useBland = true
			}
		} else {
			s.degenRun = 0
			useBland = false
		}

		if leave == -1 {
			// Bound flip: the entering variable moves to its other bound.
			for _, i := range s.wNnz {
				s.xB[i] -= t * enterDir * s.w[i]
				s.value[s.basis[i]] = s.xB[i]
			}
			if enterDir > 0 {
				s.status[enter] = atUpper
				s.value[enter] = s.hi[enter]
			} else {
				s.status[enter] = atLower
				s.value[enter] = s.lo[enter]
			}
			continue
		}

		// Devex weight refresh from the pivot row, against the pre-pivot
		// factorization and statuses (skipped for unusable pivots, which
		// refactorize below anyway). The extra BTRAN + row pass per pivot
		// only pays for itself on large, degenerate instances; small
		// problems stay on the static norm weights.
		if m >= devexMinRows && math.Abs(s.w[leave]) >= pivotTol {
			s.devexUpdate(enter, leave, s.w[leave])
		}

		// Pivot: enter replaces basis[leave].
		out := s.basis[leave]
		newEnterVal := s.restValue(enter) + enterDir*t
		for _, i := range s.wNnz {
			if int(i) == leave {
				continue
			}
			s.xB[i] -= t * enterDir * s.w[i]
			s.value[s.basis[i]] = s.xB[i]
		}
		if leaveToUpper {
			s.status[out] = atUpper
			s.value[out] = s.hi[out]
		} else {
			s.status[out] = atLower
			s.value[out] = s.lo[out]
		}
		s.inBrow[out] = -1

		s.basis[leave] = enter
		s.inBrow[enter] = leave
		s.status[enter] = basic
		s.xB[leave] = newEnterVal
		s.value[enter] = newEnterVal
		if !phase1 {
			s.cb[s.lu.colStep[leave]] = cost[enter]
		}

		// Factorization update: apply the Forrest–Tomlin update, or
		// refactorize when the pivot is too small, the update is rejected
		// as numerically unsafe (singular spike, drift), or the update
		// file's measured fill/drift has grown past the refactor point.
		if math.Abs(s.w[leave]) < pivotTol ||
			!s.lu.update(int32(leave), s.w[leave]) || s.lu.shouldRefactor() {
			if !refresh() {
				return StatusNumericalError
			}
		}
	}
}

// ratioTest finds the blocking constraint for the entering variable moving
// in direction dir, for a primal-feasible basis. Returns (leavePos, step,
// leavesAtUpper). leavePos -1 means a bound flip of the entering variable;
// -2 means unbounded.
func (s *simplex) ratioTest(enter int, dir float64, useBland bool) (int, float64, bool) {
	t := math.Inf(1)
	// Entering variable's own range.
	if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
		t = s.hi[enter] - s.lo[enter]
	}
	leave := -1
	leaveToUpper := false
	bestPivot := 0.0
	for _, i32 := range s.wNnz {
		i := int(i32)
		wi := dir * s.w[i]
		v := s.basis[i]
		var ti float64
		var toUpper bool
		switch {
		case wi > pivotTol:
			// Basic variable decreases toward its lower bound.
			if math.IsInf(s.lo[v], -1) {
				continue
			}
			ti = (s.xB[i] - s.lo[v]) / wi
			toUpper = false
		case wi < -pivotTol:
			// Basic variable increases toward its upper bound.
			if math.IsInf(s.hi[v], 1) {
				continue
			}
			ti = (s.hi[v] - s.xB[i]) / (-wi)
			toUpper = true
		default:
			continue
		}
		if ti < 0 {
			ti = 0 // basic var already (slightly) beyond bound
		}
		if ti < t-1e-10 {
			t, leave, leaveToUpper = ti, i, toUpper
			bestPivot = math.Abs(wi)
		} else if ti <= t+1e-10 && leave != -1 {
			// Tie-break: prefer the largest pivot for stability, or the
			// smallest basis index under Bland's rule.
			if useBland {
				if s.basis[i] < s.basis[leave] {
					leave, leaveToUpper = i, toUpper
					bestPivot = math.Abs(wi)
				}
			} else if math.Abs(wi) > bestPivot {
				leave, leaveToUpper = i, toUpper
				bestPivot = math.Abs(wi)
			}
		}
	}
	if math.IsInf(t, 1) {
		return -2, 0, false
	}
	return leave, t, leaveToUpper
}

// p1event is one breakpoint of the piecewise-linear phase-1 objective
// along the entering ray: at step t the directional derivative increases
// by dSlope, and pos (if >= 0) could leave the basis at that point.
type p1event struct {
	t       float64
	dSlope  float64
	pos     int32
	toUpper bool
	rate    float64
}

// ratioTestPhase1 is the long-step piecewise-linear phase-1 ratio test:
// instead of blocking at the first bound crossing, it walks the
// breakpoints of the infeasibility sum along the entering ray in order of
// step length, accumulating the slope, and stops at the minimizer — the
// breakpoint where the slope turns nonnegative. One iteration can thus
// carry basic variables through bounds (even making feasible ones
// temporarily infeasible) whenever that reduces the total violation,
// which removes the degenerate crawl of first-blocking phase-1 variants.
// slope0 is the entering variable's phase-1 reduced cost in its direction
// of motion (negative). Under useBland the long step is abandoned for the
// short-step rule — block at the first breakpoint, ties broken by least
// basis index — which together with Bland pricing restores the classic
// anti-cycling termination guarantee. Returns (leavePos, step,
// leavesAtUpper); -1 means a bound flip of the entering variable, -2 a
// numerical failure (the phase-1 objective is bounded below, so an
// unbounded ray is impossible).
func (s *simplex) ratioTestPhase1(enter int, dir float64, slope0 float64, useBland bool) (int, float64, bool) {
	ev := s.p1events[:0]
	if !math.IsInf(s.lo[enter], -1) && !math.IsInf(s.hi[enter], 1) {
		// The entering variable's own range is a hard stop.
		ev = append(ev, p1event{t: s.hi[enter] - s.lo[enter], dSlope: math.Inf(1), pos: -1})
	}
	for _, i32 := range s.wNnz {
		i := int(i32)
		rate := -dir * s.w[i] // d x_B[i] / dt
		if rate > -pivotTol && rate < pivotTol {
			continue
		}
		v := s.basis[i]
		xv := s.xB[i]
		lo, hi := s.lo[v], s.hi[v]
		ar := math.Abs(rate)
		switch {
		case xv < lo-feasTol:
			if rate > 0 {
				// Becomes feasible at lo; starts violating above at hi.
				ev = append(ev, p1event{t: (lo - xv) / rate, dSlope: ar, pos: i32, rate: rate})
				if !math.IsInf(hi, 1) {
					ev = append(ev, p1event{t: (hi - xv) / rate, dSlope: ar, pos: i32, toUpper: true, rate: rate})
				}
			}
		case xv > hi+feasTol:
			if rate < 0 {
				ev = append(ev, p1event{t: (hi - xv) / rate, dSlope: ar, pos: i32, toUpper: true, rate: rate})
				if !math.IsInf(lo, -1) {
					ev = append(ev, p1event{t: (lo - xv) / rate, dSlope: ar, pos: i32, rate: rate})
				}
			}
		default:
			// Feasible: passing the bound it moves toward starts a new
			// violation.
			if rate < 0 && !math.IsInf(lo, -1) {
				ev = append(ev, p1event{t: (xv - lo) / ar, dSlope: ar, pos: i32, rate: rate})
			} else if rate > 0 && !math.IsInf(hi, 1) {
				ev = append(ev, p1event{t: (hi - xv) / rate, dSlope: ar, pos: i32, toUpper: true, rate: rate})
			}
		}
	}
	s.p1events = ev
	if len(ev) == 0 {
		return -2, 0, false
	}
	// Both walks read the breakpoints in order of step length through
	// the lazy sorter, so only the prefix they reach gets sorted.
	keys := s.rsort.load(len(ev))
	for k := range ev {
		if ev[k].t < 0 {
			ev[k].t = 0
		}
		keys[k] = ratioPair{key: ev[k].t, at: int32(k)}
	}

	if useBland {
		// Short-step Bland rule: the first breakpoint blocks; among
		// (near-)coincident ones the lowest basis index leaves.
		best := -1
		for k := range ev {
			i := s.rsort.at(k)
			e := &ev[i]
			if best >= 0 && e.t > ev[best].t+1e-10 {
				break
			}
			if e.pos < 0 {
				return -1, e.t, false
			}
			if best < 0 || s.basis[e.pos] < s.basis[ev[best].pos] {
				best = i
			}
		}
		return int(ev[best].pos), ev[best].t, ev[best].toUpper
	}

	slope := slope0
	leave, leaveToUpper := -1, false
	t := 0.0
	bestRate := 0.0
	for k := range ev {
		e := &ev[s.rsort.at(k)]
		if e.pos < 0 {
			// Entering variable exhausted its range: bound flip.
			return -1, e.t, false
		}
		// Among (near-)coincident breakpoints prefer the largest pivot.
		if leave == -1 || e.t > t+1e-10 || math.Abs(e.rate) > bestRate {
			leave, leaveToUpper = int(e.pos), e.toUpper
			t = e.t
			bestRate = math.Abs(e.rate)
		}
		slope += e.dSlope
		if slope >= 0 {
			return leave, t, leaveToUpper
		}
	}
	// Slope stayed negative past every breakpoint: numerically impossible
	// for the bounded phase-1 objective.
	return -2, 0, false
}
