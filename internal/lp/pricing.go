package lp

// pricing.go implements entering-variable selection for the primal
// simplex. Candidates come from a rotating partial-pricing window (so an
// iteration does not touch all n columns; optimality is still exact
// because the scan wraps the full variable space before concluding), and
// candidates are ranked by devex reference-framework weights: each
// column's score is d_j² / γ_j where γ_j approximates the steepest-edge
// norm ‖B⁻¹a_j‖² relative to the reference framework, updated after every
// pivot from the priced pivot row. Devex pricing is what keeps the
// iteration count in check on massively degenerate time-expanded flow
// LPs, where static weights walk long plateaus. Under the Bland
// anti-cycling fallback the pricer degrades to a full least-index scan,
// preserving the termination guarantee.

import "math"

// minPriceWindow is the smallest number of columns examined per pricing
// pass; small problems are effectively fully priced.
const minPriceWindow = 256

// devexReset is the weight growth bound: when a weight passes it, the
// reference framework restarts from the current basis (all weights 1).
const devexReset = 1e10

// devexMinRows gates the dynamic devex update: below this row count the
// pricer keeps its static column-norm weights — the per-pivot BTRAN and
// row pass of the devex recurrence cost more than the iterations they
// save on small problems.
const devexMinRows = 2048

// priceWindow returns the partial-pricing window for n columns: a fixed
// fraction of the variable space, floored at minPriceWindow.
func priceWindow(n int) int {
	w := n / 8
	if w < minPriceWindow {
		w = minPriceWindow
	}
	return w
}

// price selects an entering variable given the duals y (in step space,
// see stepDot). cost may be nil,
// meaning the all-zero cost vector (used by the composite phase 1, whose
// objective lives entirely in the duals). It returns the entering index
// and its direction of motion, or (-1, 0) if no column prices out — which,
// because the scan wraps the full space before giving up, proves
// optimality for the current cost vector.
func (s *simplex) price(cost []float64, y []float64, useBland bool) (int, float64) {
	n := s.nTotal
	if useBland {
		// Bland's rule: first improving column by index.
		for j := 0; j < n; j++ {
			if d, dir := s.priceOne(j, cost, y); dir != 0 && math.Abs(d) > optTol {
				return j, dir
			}
		}
		return -1, 0
	}

	window := priceWindow(n)
	scanned := 0
	enter := -1
	var enterDir float64
	bestScore := 0.0
	j := s.priceCursor
	if j >= n {
		j = 0
	}
	//teccl:allow-ctxcheck bounded: one wrap of the pricing window, scanned++ every iteration up to n
	for scanned < n {
		d, dir := s.priceOne(j, cost, y)
		scanned++
		if dir != 0 {
			// Devex score: d_j² / γ_j, the reference-framework estimate
			// of the objective rate per unit of actual (edge-normalized)
			// movement, so long columns do not dominate entering choices
			// they barely improve.
			if score := d * d / s.gamma[j]; score > bestScore {
				bestScore, enter, enterDir = score, j, dir
			}
		}
		j++
		if j >= n {
			j = 0
		}
		if enter != -1 && scanned >= window {
			break
		}
	}
	s.priceCursor = j
	return enter, enterDir
}

// priceOne computes the reduced cost of column j and the improving
// direction it allows, or dir 0 when j cannot enter.
func (s *simplex) priceOne(j int, cost []float64, y []float64) (float64, float64) {
	st := s.status[j]
	if st == basic {
		return 0, 0
	}
	if boundsFixed(s.lo[j], s.hi[j]) && !math.IsInf(s.lo[j], 0) {
		return 0, 0 // fixed variable can never improve
	}
	d := -s.stepDot(j, y)
	if cost != nil {
		d += cost[j]
	}
	switch st {
	case atLower:
		if d < -optTol {
			return d, 1
		}
	case atUpper:
		if d > optTol {
			return d, -1
		}
	case nonbasicFree:
		if d < -optTol {
			return d, 1
		} else if d > optTol {
			return d, -1
		}
	}
	return 0, 0
}

// devexUpdate refreshes the reference weights after a pivot where column
// enter (weight γ_q) replaced basis position leaveRow with FTRAN pivot
// wr. It prices the pivot row ρ = B⁻ᵀe_r against A (the same sparse
// row pass the dual simplex uses) and applies the devex recurrence
// γ_j = max(γ_j, (α_j/α_q)²·γ_q) to every touched nonbasic column; the
// leaving variable, now nonbasic, gets the transformed entering weight.
// Must run against the pre-pivot factorization (before the eta append).
func (s *simplex) devexUpdate(enter, leaveRow int, wr float64) {
	s.buildCSR()
	s.gammaMoved = true
	gq := s.gamma[enter]
	s.y = s.lu.btranUnitStep(leaveRow, s.y)
	s.pivotRow(s.y)
	inv2 := gq / (wr * wr)
	grew := false
	for _, j32 := range s.alphaNnz {
		j := int(j32)
		if j == enter || s.status[j] == basic {
			continue
		}
		a := s.alpha[j]
		if cand := a * a * inv2; cand > s.gamma[j] {
			s.gamma[j] = cand
			if cand > devexReset {
				grew = true
			}
		}
	}
	out := s.basis[leaveRow] // still the pre-pivot occupant
	if w := inv2; w > 1 {
		s.gamma[out] = w
	} else {
		s.gamma[out] = 1
	}
	s.gamma[enter] = 1 // becomes basic; reset for its next nonbasic spell
	if grew || s.gamma[out] > devexReset {
		for j := range s.gamma {
			s.gamma[j] = 1 // new reference framework
		}
	}
}
