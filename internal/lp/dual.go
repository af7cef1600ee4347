package lp

// dual.go implements the dual simplex method: devex reference-framework
// pricing over rows, a bound-flipping (long-step) dual ratio test with
// Harris-style two-pass tolerances, and reduced costs maintained
// incrementally from the pivot row. The basis machinery (the sparse LU
// and Forrest–Tomlin updates of factor.go) is shared with the primal
// method;
// the dual is BTRAN-heavy — each iteration prices the leaving row via
// ρ = B⁻ᵀe_r and a sparse row-wise pass over A — where the primal is
// FTRAN-heavy.
//
// The dual method shines on reoptimization: a basis that was optimal
// before a bound change (a branch-and-bound child, a tightened horizon)
// stays DUAL feasible, so the dual simplex walks straight back to
// optimality with no feasibility phase. solve() runs it from every
// Options.WarmStart: prepareDual reports whether a dual-feasible start
// exists (bound-flipping boxed variables into sign agreement), and
// dualIterate runs the method proper, handing back statusDualStall when
// it stops making progress so the caller can fall back to the primal
// path from the current (never corrupted) basis.

import (
	"cmp"
	"math"
)

const (
	// dualTol is the reduced-cost sign tolerance (dual feasibility).
	dualTol = 1e-7
	// dualAcceptTol is the looser acceptance threshold prepareDual uses:
	// a warm basis whose worst reduced-cost violation sits within an
	// order of magnitude of optTol is still a dual-feasible start for
	// practical purposes (the violating column enters at a zero-length
	// ratio and self-corrects).
	dualAcceptTol = 10 * dualTol
	// dualPivTol is the smallest pivot-row entry considered for entering.
	dualPivTol = 1e-9
)

// statusDualStall is the internal verdict "the dual simplex stopped
// making progress; resume with the primal method from the current basis."
const statusDualStall Status = -1

// statusPerturbed is the internal verdict "anti-stall perturbation was
// applied mid-phase-2; run a phase-1 mop-up before resuming."
const statusPerturbed Status = -2

// dualCand is one entering candidate of the dual ratio test.
type dualCand struct {
	j     int32
	abar  float64 // σ·α_j: positive slope direction of the candidate
	ratio float64 // Harris-relaxed dual ratio (ordering key)
}

// buildCSR materializes a row-wise copy of the structural matrix, used by
// pivotRow to form α = ρᵀA in time proportional to the nonzeros of the
// rows ρ touches. Built on the first dual use of a binding, in storage
// sized like the arrays bind sized.
func (s *simplex) buildCSR() {
	if s.csr {
		return
	}
	s.csr = true
	m, nnz := s.m, len(s.colRow)
	s.alpha = fit(s.alpha, s.nTotal, cap(s.lo))
	s.alphaSeen = fit(s.alphaSeen, s.nTotal, cap(s.lo))
	s.alphaNnz = fit(s.alphaNnz, m, cap(s.rhs))[:0]
	s.rowStart = fit(s.rowStart, m+1, cap(s.rhs)+1)
	clear(s.rowStart)
	for _, r := range s.colRow {
		s.rowStart[r+1]++
	}
	for i := 0; i < m; i++ {
		s.rowStart[i+1] += s.rowStart[i]
	}
	s.rowColJ = fit(s.rowColJ, nnz, cap(s.colRow))
	s.rowValR = fit(s.rowValR, nnz, cap(s.colRow))
	next := fit(s.next, m, cap(s.rhs))
	s.next = next
	copy(next, s.rowStart[:m])
	for j := 0; j < s.n; j++ {
		for k := s.colStart[j]; k < s.colStart[j+1]; k++ {
			i := s.colRow[k]
			s.rowColJ[next[i]] = int32(j)
			s.rowValR[next[i]] = s.colVal[k]
			next[i]++
		}
	}
}

// computeDuals recomputes y = B⁻ᵀc_B and the reduced costs d_j of every
// nonbasic column from scratch (basic columns get exactly zero). Called on
// dual startup and after each refactorization to kill accumulated drift.
func (s *simplex) computeDuals() {
	s.fillCB(s.cost)
	s.y = s.lu.btranStep(s.cb, s.y)
	for j := 0; j < s.nTotal; j++ {
		if s.status[j] == basic {
			s.d[j] = 0
			continue
		}
		s.d[j] = s.cost[j] - s.stepDot(j, s.y)
	}
}

// prepareDual decides whether the current (installed) basis is a usable
// dual-feasible start, sizing the dual working state on first use.
// Boxed nonbasic variables whose reduced cost has the wrong sign are
// flipped to their other bound — a free dual feasibility repair — before
// giving up. Flips are only applied when the whole basis can be made
// dual feasible, so a false return leaves the simplex state untouched
// for the primal path.
func (s *simplex) prepareDual() bool {
	if s.m == 0 {
		return false
	}
	s.d = fit(s.d, s.nTotal, cap(s.lo))
	s.dwt = fit(s.dwt, s.m, cap(s.rhs))
	s.buildCSR()
	s.computeDuals()

	flips := s.flipBuf[:0]
	for j := 0; j < s.nTotal; j++ {
		st := s.status[j]
		if st == basic {
			continue
		}
		lo, hi := s.lo[j], s.hi[j]
		if boundsFixed(lo, hi) && !math.IsInf(lo, 0) {
			continue // fixed: reduced-cost sign is unconstrained
		}
		d := s.d[j]
		switch st {
		case atLower:
			if d < -dualAcceptTol {
				if math.IsInf(hi, 1) {
					return false
				}
				flips = append(flips, int32(j))
			}
		case atUpper:
			if d > dualAcceptTol {
				if math.IsInf(lo, -1) {
					return false
				}
				flips = append(flips, int32(j))
			}
		default: // nonbasicFree
			if d < -dualAcceptTol || d > dualAcceptTol {
				return false
			}
		}
	}
	s.flipBuf = flips[:0]
	if len(flips) > 0 {
		for _, j32 := range flips {
			j := int(j32)
			if s.status[j] == atLower {
				s.status[j] = atUpper
				s.value[j] = s.hi[j]
			} else {
				s.status[j] = atLower
				s.value[j] = s.lo[j]
			}
		}
		s.computeXB()
	}
	for i := range s.dwt {
		s.dwt[i] = 1
	}
	return true
}

// pivotRow computes α_j = ρᵀa_j for every column touched by the nonzeros
// of ρ, sparsely: structural columns through the CSR rows, slack columns
// directly from ρ. ρ is in step space (btranUnitStep's result) and is
// read through rowStep in row order. Results land in s.alpha with the
// touched set listed in s.alphaNnz (previous contents are cleared first).
func (s *simplex) pivotRow(rho []float64) {
	alpha, seen := s.alpha, s.alphaSeen
	for _, j := range s.alphaNnz {
		alpha[j] = 0
		seen[j] = false
	}
	nnz := s.alphaNnz[:0]
	for i, k := range s.lu.rowStep {
		ri := rho[k]
		if ri > -dropTol && ri < dropTol {
			continue
		}
		sj := int32(s.n + i)
		if !seen[sj] {
			seen[sj] = true
			nnz = append(nnz, sj)
		}
		alpha[sj] += ri
		lo, hi := s.rowStart[i], s.rowStart[i+1]
		cols := s.rowColJ[lo:hi]
		vals := s.rowValR[lo:hi]
		for k := range cols {
			j := cols[k]
			if !seen[j] {
				seen[j] = true
				nnz = append(nnz, j)
			}
			alpha[j] += ri * vals[k]
		}
	}
	s.alphaNnz = nnz
}

// dualIterate runs dual simplex iterations from a dual-feasible basis
// until primal feasibility (StatusOptimal), a proof of primal
// infeasibility via dual unboundedness (StatusInfeasible; the caller
// re-confirms with the primal phase 1), an expired budget, numerical
// failure, or a progress stall (statusDualStall → primal fallback).
func (s *simplex) dualIterate(maxIter int) Status {
	m := s.m
	checkBudget := s.opt.Context != nil
	stall := 0
	retries := 0
	for {
		if s.iter >= maxIter {
			return StatusIterLimit
		}
		if checkBudget && s.iter%64 == 0 && s.interrupted() {
			return StatusIterLimit
		}
		s.iter++

		// Leaving row: devex-weighted largest primal infeasibility.
		r := -1
		var delta, best float64
		for i := 0; i < m; i++ {
			v := s.basis[i]
			var di float64
			if d := s.lo[v] - s.xB[i]; d > feasTol {
				di = -d
			} else if d := s.xB[i] - s.hi[v]; d > feasTol {
				di = d
			} else {
				continue
			}
			if sc := di * di / s.dwt[i]; sc > best {
				best, r, delta = sc, i, di
			}
		}
		if r == -1 {
			return StatusOptimal // primal feasible; dual feasibility held throughout
		}
		sigma := 1.0
		if delta < 0 {
			sigma = -1
		}

		// Pivot row: ρ = B⁻ᵀe_r, then α = ρᵀA over the touched columns.
		s.y = s.lu.btranUnitStep(r, s.y)
		s.pivotRow(s.y)

		// Collect entering candidates with Harris-relaxed ratios. abar is
		// the slope σ·α_j; a candidate's reduced cost moves by -θ·abar as
		// the dual step θ grows, so dual feasibility bounds θ by d/abar.
		cands := s.cand[:0]
		for _, j32 := range s.alphaNnz {
			j := int(j32)
			st := s.status[j]
			if st == basic {
				continue
			}
			lo, hi := s.lo[j], s.hi[j]
			if boundsFixed(lo, hi) && !math.IsInf(lo, 0) {
				continue // fixed: can never enter
			}
			abar := sigma * s.alpha[j]
			var rr float64
			switch st {
			case atLower:
				if abar <= dualPivTol {
					continue
				}
				rr = (s.d[j] + dualTol) / abar
			case atUpper:
				if abar >= -dualPivTol {
					continue
				}
				rr = (s.d[j] - dualTol) / abar
			default: // nonbasicFree: blocks immediately in either direction
				if abar > -dualPivTol && abar < dualPivTol {
					continue
				}
				rr = 0
			}
			if rr < 0 {
				rr = 0
			}
			cands = append(cands, dualCand{j: j32, abar: abar, ratio: rr})
		}
		s.cand = cands
		if len(cands) == 0 {
			return StatusInfeasible // dual unbounded ⇒ primal infeasible
		}
		keys := s.rsort.load(len(cands))
		for k := range cands {
			keys[k] = ratioPair{key: cands[k].ratio, at: int32(k)}
		}

		// Bound-flipping (long-step) walk over the candidates in ratio
		// order: passing a boxed candidate's breakpoint flips it to its
		// other bound and reduces the rate at which the leaving row's
		// infeasibility shrinks; keep walking while the slope stays
		// positive, so one dual iteration can sweep many bound flips. The
		// lazy sorter orders only the prefix the walk reads.
		slope := math.Abs(delta)
		flips := s.flipBuf[:0]
		sel := -1
		for k := range cands {
			i := s.rsort.at(k)
			c := &cands[i]
			j := int(c.j)
			if !math.IsInf(s.lo[j], -1) && !math.IsInf(s.hi[j], 1) {
				drop := math.Abs(c.abar) * (s.hi[j] - s.lo[j])
				if slope-drop > dualTol {
					slope -= drop
					flips = append(flips, int32(i))
					continue
				}
			}
			sel = i
			break
		}
		s.flipBuf = flips
		if sel == -1 {
			// Every candidate flips and the row stays infeasible in the
			// same direction: nothing can enter — dual unbounded.
			return StatusInfeasible
		}

		// Harris pass 2: any candidate whose strict ratio fits under the
		// blocking candidate's relaxed ratio is eligible; take the
		// largest pivot among them for numerical stability, the first in
		// ratio order among equal largest ones. That needs no order: the
		// smallest ratio among them, and a walk of the sorted prefix
		// only when that smallest ratio is shared.
		rrSel := cands[sel].ratio
		eligible := func(c *dualCand) bool {
			strict := s.d[c.j] / c.abar
			if strict < 0 {
				strict = 0
			}
			return strict <= rrSel
		}
		q := sel
		bestPiv := math.Abs(cands[sel].abar)
		tied := false
		for k := range cands {
			c := &cands[k]
			piv := math.Abs(c.abar)
			if piv < bestPiv || !eligible(c) {
				continue // a smaller pivot cannot win: skip its division
			}
			switch {
			case piv > bestPiv:
				q, bestPiv, tied = k, piv, false
			case q != sel && math.Float64bits(piv) == math.Float64bits(bestPiv):
				switch cmp.Compare(c.ratio, cands[q].ratio) {
				case -1:
					q, tied = k, false
				case 0:
					tied = true
				}
			}
		}
		if tied {
			for k := 0; ; k++ {
				i := s.rsort.at(k)
				if c := &cands[i]; math.Float64bits(math.Abs(c.abar)) == math.Float64bits(bestPiv) && eligible(c) {
					q = i
					break
				}
			}
		}
		enter := int(cands[q].j)
		theta := s.d[enter] / cands[q].abar
		if theta < 0 {
			theta = 0
		}

		// Apply the bound flips that the chosen step actually passes
		// (flipping a candidate the step stops short of would manufacture
		// a dual infeasibility). Their aggregate effect on the basic
		// values is one FTRAN of the accumulated column.
		flipped := false
		fd := s.resid
		for _, k32 := range s.flipBuf {
			c := &cands[k32]
			j := int(c.j)
			if j == enter {
				continue
			}
			dAfter := s.d[j] - theta*c.abar
			var dx float64
			if s.status[j] == atLower {
				if dAfter > dualTol {
					continue // step stops short of this breakpoint
				}
				dx = s.hi[j] - s.lo[j]
				s.status[j] = atUpper
				s.value[j] = s.hi[j]
			} else {
				if dAfter < -dualTol {
					continue
				}
				dx = s.lo[j] - s.hi[j]
				s.status[j] = atLower
				s.value[j] = s.lo[j]
			}
			if !flipped {
				for i := range fd {
					fd[i] = 0
				}
				flipped = true
			}
			idx, val := s.column(j)
			for kk, i := range idx {
				fd[i] += val[kk] * dx
			}
		}
		if flipped {
			s.lu.ftran(fd)
			for i := 0; i < m; i++ {
				if fd[i] != 0 {
					s.xB[i] -= fd[i]
					s.value[s.basis[i]] = s.xB[i]
				}
			}
		}

		// FTRAN the entering column and pivot (spike saved for the FT
		// update below).
		s.ftranEntering(enter)
		pivot := s.w[r]
		if math.Abs(pivot) < pivotTol {
			// The FTRAN pivot disagrees with the priced row badly enough
			// to be unusable: refresh the factorization and retry.
			if retries++; retries > 4 {
				return statusDualStall
			}
			if !s.factorizeBasis() {
				return StatusNumericalError
			}
			s.computeXB()
			s.computeDuals()
			continue
		}
		retries = 0

		out := s.basis[r]
		var bound float64
		if sigma > 0 {
			bound = s.hi[out]
		} else {
			bound = s.lo[out]
		}
		t := (s.xB[r] - bound) / pivot

		// Incremental dual update from the priced row: y moves along
		// θ·σ·ρ, so every touched nonbasic reduced cost moves by
		// -θ·σ·α_j; the leaving variable's becomes -θ·σ (its α is 1).
		if theta != 0 {
			for _, j32 := range s.alphaNnz {
				j := int(j32)
				if s.status[j] == basic || j == enter {
					continue
				}
				s.d[j] -= theta * sigma * s.alpha[j]
			}
		}
		s.d[out] = -theta * sigma
		s.d[enter] = 0

		// Devex weight update over the FTRAN spike (the reference-
		// framework approximation of steepest-edge row norms).
		wq := s.dwt[r]
		for _, i32 := range s.wNnz {
			i := int(i32)
			if i == r {
				continue
			}
			g := s.w[i] / pivot
			if cand := g * g * wq; cand > s.dwt[i] {
				s.dwt[i] = cand
			}
		}
		if w := wq / (pivot * pivot); w > 1 {
			s.dwt[r] = w
		} else {
			s.dwt[r] = 1
		}
		if s.dwt[r] > devexReset {
			for i := range s.dwt {
				s.dwt[i] = 1 // new reference framework
			}
		}

		// Primal bookkeeping, identical to the primal pivot.
		newVal := s.restValue(enter) + t
		for _, i32 := range s.wNnz {
			i := int(i32)
			if i == r {
				continue
			}
			s.xB[i] -= t * s.w[i]
			s.value[s.basis[i]] = s.xB[i]
		}
		if sigma > 0 {
			s.status[out] = atUpper
			s.value[out] = s.hi[out]
		} else {
			s.status[out] = atLower
			s.value[out] = s.lo[out]
		}
		s.inBrow[out] = -1
		s.basis[r] = enter
		s.inBrow[enter] = r
		s.status[enter] = basic
		s.xB[r] = newVal
		s.value[enter] = newVal

		if theta <= 1e-12 && math.Abs(t) <= 1e-12 {
			if stall++; stall > 2*m+200 {
				return statusDualStall
			}
		} else {
			stall = 0
		}

		if !s.lu.update(int32(r), pivot) || s.lu.shouldRefactor() {
			if !s.factorizeBasis() {
				return StatusNumericalError
			}
			s.computeXB()
			s.computeDuals()
		}
	}
}
