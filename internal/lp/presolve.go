package lp

// presolve.go implements the presolve/postsolve layer that fronts both
// simplex methods. Before a solve, the problem is reduced — fixed
// variables substituted out, empty/singleton rows folded into variable
// bounds, forcing and redundant rows detected from activity bounds, safe
// doubleton (implied-free column singleton) substitutions applied — and
// the surviving matrix is equilibrated with Curtis–Reid-style iterative
// geometric-mean scaling, rounded to powers of two so the scaling itself
// introduces no floating-point error. After the solve, postsolve maps the
// reduced Solution (X, Duals, and the Basis snapshot) back onto the
// original problem, reconstructing a valid square basis: every dropped
// row regains exactly one basic variable (its own slack, or the variable
// the row determined), so warm-start chaining across solves — including
// the variable-name basis transfer in internal/core — works unchanged
// whether presolve ran or not.
//
// Time-expanded flow LPs are the target workload: their horizons produce
// long chains of fixed/implied variables, per-epoch capacity singletons,
// and rows made redundant by reachability windows, which presolve removes
// before the simplex ever factorizes a basis.

import "math"

const (
	// psFixTol: a variable whose bound gap shrinks below this is fixed.
	psFixTol = 1e-9
	// psActTol: activity-bound comparisons (forcing/redundant/infeasible).
	psActTol = 1e-7
)

// psKind enumerates the recorded presolve transformations.
type psKind int8

const (
	opFixVar     psKind = iota // variable fixed at val and substituted out
	opDropRow                  // row dropped (empty/redundant): slack basic, dual 0
	opSingleton                // singleton row folded into a variable bound
	opDoubleton                // EQ doubleton: implied-free column singleton eliminated
	opForcingRow               // binding row whose activity bound pinned its variables
)

// psOp is one recorded transformation, replayed in reverse by postsolve.
type psOp struct {
	kind    psKind
	row     int // original row index (-1 when none)
	v       int // the variable acted on (fixed / singleton / eliminated)
	x       int // doubleton partner variable
	a       float64
	b       float64
	rhs     float64
	val     float64
	bs      BasisStatus
	sns     Sense
	maxSide bool   // forcing: activity pinned at its maximum (else minimum)
	terms   []Term // forcing: the row's terms (stable after dropRow)
}

// presolver is the presolve scratch of a solve workspace (see Solver): the
// working reduction state, kept in original index space, then the
// finished reduction — the reduced problem, the index maps and scales
// connecting it to the original, and the op log postsolve replays. reset
// starts a reduction of a new problem in the storage the last one left.
type presolver struct {
	p *Problem

	lo, hi, obj []float64
	senses      []Sense
	rhs         []float64
	rowLive     []bool
	varLive     []bool

	// rows[i] is the live part of row i, a view into arena — a private
	// copy of every row, back to back. Rows only shrink (swap-delete), so
	// the views never collide.
	rows  [][]Term
	arena []Term

	// Column view of the ORIGINAL matrix, counted once per reduction.
	// The passes read it for the rows a variable occurs in (stale-
	// tolerant: a listed row may have lost the term), postsolve for the
	// coefficients that price a column against the reconstructed duals.
	colMatrix
	colCount []int // live occurrence count per var

	fixQ   []int
	queued []bool

	ops        []psOp
	infeasible bool

	// The finished reduction (build).
	red      Problem // rows are views into redArena
	redArena []Term
	terms    []Term // one reduced row under construction

	varMap  []int32 // orig var -> reduced var, -1 when eliminated
	redVars []int32 // reduced var -> orig var
	rowMap  []int32
	redRows []int32

	rowScale []float64 // original index space; 1 for dropped rows
	colScale []float64
	colMin   []float64 // equilibration scratch, reduced index space
	colMax   []float64
}

func (ps *presolver) reset(p *Problem) {
	n, m := p.NumVars(), p.NumRows()
	ps.p = p
	ps.lo = append(ps.lo[:0], p.lo...)
	ps.hi = append(ps.hi[:0], p.hi...)
	ps.obj = append(ps.obj[:0], p.obj...)
	ps.senses = append(ps.senses[:0], p.senses...)
	ps.rhs = append(ps.rhs[:0], p.rhs...)
	ps.fixQ, ps.ops, ps.infeasible = ps.fixQ[:0], ps.ops[:0], false

	ps.fill(p.rows, n, 0, 0)
	ps.colCount = fit(ps.colCount, n, 0)
	ps.varLive = fit(ps.varLive, n, 0)
	ps.queued = fit(ps.queued, n, 0)
	for j := 0; j < n; j++ {
		ps.colCount[j] = int(ps.colStart[j+1] - ps.colStart[j])
		ps.varLive[j], ps.queued[j] = true, false
	}
	ps.arena = fit(ps.arena, len(ps.colRow), 0)[:0]
	ps.rows = fit(ps.rows, m, 0)
	ps.rowLive = fit(ps.rowLive, m, 0)
	for i, row := range p.rows {
		at := len(ps.arena)
		ps.arena = append(ps.arena, row...)
		ps.rows[i], ps.rowLive[i] = ps.arena[at:], true
	}
}

// queueFix marks a live variable whose bounds have collapsed for
// substitution.
func (ps *presolver) queueFix(v int) {
	if !ps.queued[v] && ps.varLive[v] {
		ps.queued[v] = true
		ps.fixQ = append(ps.fixQ, v)
	}
}

// tighten applies an implied bound to variable v, reporting whether the
// problem became infeasible. A collapsed range queues v for fixing.
func (ps *presolver) tighten(v int, newLo, newHi float64) {
	if newLo > ps.lo[v]+psFixTol {
		ps.lo[v] = newLo
	}
	if newHi < ps.hi[v]-psFixTol {
		ps.hi[v] = newHi
	}
	gap := ps.hi[v] - ps.lo[v]
	scale := 1 + math.Abs(ps.lo[v])
	if gap < -psActTol*scale {
		ps.infeasible = true
		return
	}
	if gap <= psFixTol*scale {
		// Collapse exactly so later passes see a clean fixed variable.
		mid := ps.lo[v]
		if gap > 0 {
			mid = (ps.lo[v] + ps.hi[v]) / 2
		}
		ps.lo[v], ps.hi[v] = mid, mid
		ps.queueFix(v)
	}
}

// dropRow removes a live row, decrementing the occurrence counts of its
// variables (the terms stay in place for any pending op bookkeeping).
func (ps *presolver) dropRow(i int) {
	ps.rowLive[i] = false
	for _, t := range ps.rows[i] {
		ps.colCount[t.Var]--
	}
}

// fixStatus classifies a fixed value against the variable's pristine
// bounds for basis reconstruction.
func (ps *presolver) fixStatus(v int, val float64) BasisStatus {
	lo, hi := ps.p.lo[v], ps.p.hi[v]
	switch {
	case !math.IsInf(lo, -1) && math.Abs(val-lo) <= psActTol*(1+math.Abs(lo)):
		return BasisAtLower
	case !math.IsInf(hi, 1) && math.Abs(val-hi) <= psActTol*(1+math.Abs(hi)):
		return BasisAtUpper
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return BasisFree
	default:
		return BasisAtLower
	}
}

// rowPass sweeps live rows: empty and singleton rows are folded away, and
// activity bounds expose redundant, forcing, and infeasible rows.
func (ps *presolver) rowPass() bool {
	changed := false
	for i := range ps.rows {
		if !ps.rowLive[i] || ps.infeasible {
			continue
		}
		row := ps.rows[i]
		rhs := ps.rhs[i]
		sns := ps.senses[i]
		tol := psActTol * (1 + math.Abs(rhs))
		switch len(row) {
		case 0:
			ok := true
			switch sns {
			case LE:
				ok = rhs >= -tol
			case GE:
				ok = rhs <= tol
			case EQ:
				ok = math.Abs(rhs) <= tol
			}
			if !ok {
				ps.infeasible = true
				continue
			}
			ps.dropRow(i)
			ps.ops = append(ps.ops, psOp{kind: opDropRow, row: i, v: -1})
			changed = true
			continue
		case 1:
			t := row[0]
			v := int(t.Var)
			a := t.Coeff
			if math.Abs(a) <= dropTol {
				// Numerically dead coefficient: treat as empty.
				row[0] = Term{}
				ps.rows[i] = row[:0]
				ps.colCount[v]--
				continue
			}
			bound := rhs / a
			switch {
			case sns == EQ:
				ps.tighten(v, bound, bound)
			case (sns == LE) == (a > 0):
				ps.tighten(v, math.Inf(-1), bound)
			default:
				ps.tighten(v, bound, math.Inf(1))
			}
			if ps.infeasible {
				continue
			}
			ps.dropRow(i)
			ps.ops = append(ps.ops, psOp{kind: opSingleton, row: i, v: v, a: a, rhs: rhs, sns: sns})
			changed = true
			continue
		}

		// Activity bounds over the row's variables.
		actLo, actHi := 0.0, 0.0
		for _, t := range row {
			v := int(t.Var)
			if t.Coeff > 0 {
				actLo += t.Coeff * ps.lo[v]
				actHi += t.Coeff * ps.hi[v]
			} else {
				actLo += t.Coeff * ps.hi[v]
				actHi += t.Coeff * ps.lo[v]
			}
		}
		infLo, infHi := math.IsInf(actLo, -1), math.IsInf(actHi, 1)
		switch sns {
		case LE:
			if !infLo && actLo > rhs+tol {
				ps.infeasible = true
				continue
			}
			if !infHi && actHi <= rhs+tol {
				ps.dropRow(i)
				ps.ops = append(ps.ops, psOp{kind: opDropRow, row: i, v: -1})
				changed = true
				continue
			}
			if !infLo && actLo >= rhs-tol {
				ps.forceRow(i) // activity pinned at its minimum
				changed = true
				continue
			}
		case GE:
			if !infHi && actHi < rhs-tol {
				ps.infeasible = true
				continue
			}
			if !infLo && actLo >= rhs-tol {
				ps.dropRow(i)
				ps.ops = append(ps.ops, psOp{kind: opDropRow, row: i, v: -1})
				changed = true
				continue
			}
			if !infHi && actHi <= rhs+tol {
				ps.forceRowMax(i)
				changed = true
				continue
			}
		case EQ:
			if (!infLo && actLo > rhs+tol) || (!infHi && actHi < rhs-tol) {
				ps.infeasible = true
				continue
			}
			if !infLo && actLo >= rhs-tol {
				ps.forceRow(i)
				changed = true
				continue
			}
			if !infHi && actHi <= rhs+tol {
				ps.forceRowMax(i)
				changed = true
				continue
			}
		}
	}
	return changed
}

// forceRow handles a row whose minimum activity already meets the
// constraint boundary: every variable is pinned at its min-contribution
// bound. The row itself drops with a basic slack (it is tight, so the
// slack value is 0, inside the slack bounds for every sense here); the
// recorded op lets postsolve reconstruct the row's dual, which is
// generally nonzero because the row is binding.
func (ps *presolver) forceRow(i int) {
	for _, t := range ps.rows[i] {
		v := int(t.Var)
		if t.Coeff > 0 {
			ps.tighten(v, ps.lo[v], ps.lo[v])
		} else {
			ps.tighten(v, ps.hi[v], ps.hi[v])
		}
	}
	if ps.infeasible {
		return
	}
	ps.dropRow(i)
	ps.ops = append(ps.ops, psOp{
		kind: opForcingRow, row: i, v: -1, sns: ps.senses[i], terms: ps.rows[i],
	})
}

// forceRowMax mirrors forceRow for a maximum activity pinned at the
// boundary.
func (ps *presolver) forceRowMax(i int) {
	for _, t := range ps.rows[i] {
		v := int(t.Var)
		if t.Coeff > 0 {
			ps.tighten(v, ps.hi[v], ps.hi[v])
		} else {
			ps.tighten(v, ps.lo[v], ps.lo[v])
		}
	}
	if ps.infeasible {
		return
	}
	ps.dropRow(i)
	ps.ops = append(ps.ops, psOp{
		kind: opForcingRow, row: i, v: -1, sns: ps.senses[i], terms: ps.rows[i], maxSide: true,
	})
}

// removeTerm deletes the term for v from row i (swap-delete) and adjusts
// the occurrence count.
func (ps *presolver) removeTerm(i, v int) (coeff float64, found bool) {
	row := ps.rows[i]
	for k := range row {
		if int(row[k].Var) == v {
			coeff = row[k].Coeff
			row[k] = row[len(row)-1]
			ps.rows[i] = row[:len(row)-1]
			ps.colCount[v]--
			return coeff, true
		}
	}
	return 0, false
}

// fixPass substitutes every queued fixed variable out of its rows.
func (ps *presolver) fixPass() bool {
	changed := false
	//teccl:allow-ctxcheck bounded: every iteration pops fixQ, and a variable is queued at most once (queued[v] gate)
	for len(ps.fixQ) > 0 && !ps.infeasible {
		v := ps.fixQ[len(ps.fixQ)-1]
		ps.fixQ = ps.fixQ[:len(ps.fixQ)-1]
		ps.queued[v] = false
		if !ps.varLive[v] {
			continue
		}
		val := ps.lo[v]
		for _, r32 := range ps.colRow[ps.colStart[v]:ps.colStart[v+1]] {
			i := int(r32)
			if !ps.rowLive[i] {
				continue
			}
			if a, ok := ps.removeTerm(i, v); ok && val != 0 {
				ps.rhs[i] -= a * val
			}
		}
		ps.varLive[v] = false
		ps.ops = append(ps.ops, psOp{kind: opFixVar, row: -1, v: v, val: val, bs: ps.fixStatus(v, val)})
		changed = true
	}
	return changed
}

// doubletonPass eliminates implied-free column singletons from EQ
// doubleton rows: in a·x + b·y = rhs where y appears in no other row and
// the bounds x carries already confine y within its own bounds, y is
// determined by x. The row and y vanish, y's objective folds into x's,
// and no other row is touched — the "safe" doubleton class.
func (ps *presolver) doubletonPass() bool {
	changed := false
	for i := range ps.rows {
		if !ps.rowLive[i] || ps.senses[i] != EQ || len(ps.rows[i]) != 2 || ps.infeasible {
			continue
		}
		row := ps.rows[i]
		for pick := 0; pick < 2; pick++ {
			yv := int(row[pick].Var)
			xv := int(row[1-pick].Var)
			b := row[pick].Coeff
			a := row[1-pick].Coeff
			if ps.colCount[yv] != 1 || math.Abs(b) <= 1e-9 || math.Abs(a/b) > 1e7 {
				continue
			}
			// y = (rhs - a·x)/b over x's range. Implied free means y's own
			// bounds can never bind: each finite y bound must contain the
			// whole implied range (an infinite implied end against a
			// finite bound fails, as does a NaN from ∞-∞ arithmetic).
			rhs := ps.rhs[i]
			y1 := (rhs - a*ps.lo[xv]) / b
			y2 := (rhs - a*ps.hi[xv]) / b
			yMin, yMax := math.Min(y1, y2), math.Max(y1, y2)
			if math.IsNaN(yMin) || math.IsNaN(yMax) {
				continue
			}
			loOK := math.IsInf(ps.lo[yv], -1) ||
				yMin >= ps.lo[yv]-psActTol*(1+math.Abs(ps.lo[yv]))
			hiOK := math.IsInf(ps.hi[yv], 1) ||
				yMax <= ps.hi[yv]+psActTol*(1+math.Abs(ps.hi[yv]))
			if !loOK || !hiOK {
				continue // y's own bounds could bind: not implied free
			}
			// Fold y's objective into x: c_y·y = c_y·rhs/b - (c_y·a/b)·x.
			ps.obj[xv] -= ps.obj[yv] * a / b
			ps.dropRow(i)
			ps.varLive[yv] = false
			ps.ops = append(ps.ops, psOp{kind: opDoubleton, row: i, v: yv, x: xv, a: a, b: b, rhs: rhs})
			changed = true
			break
		}
	}
	return changed
}

// emptyColPass pins variables that appear in no live row at their
// objective-preferred bound. Variables whose improving direction is
// unbounded are left in the problem so the simplex reports unboundedness.
func (ps *presolver) emptyColPass() bool {
	changed := false
	sign := 1.0
	if ps.p.Dir == Maximize {
		sign = -1.0
	}
	for v := range ps.varLive {
		if !ps.varLive[v] || ps.colCount[v] != 0 {
			continue
		}
		c := sign * ps.obj[v] // minimization form: want the smaller c·x
		var val float64
		var bs BasisStatus
		switch {
		case c > 0 && !math.IsInf(ps.lo[v], -1):
			val, bs = ps.lo[v], BasisAtLower
		case c < 0 && !math.IsInf(ps.hi[v], 1):
			val, bs = ps.hi[v], BasisAtUpper
		case c == 0 && !math.IsInf(ps.lo[v], -1):
			val, bs = ps.lo[v], BasisAtLower
		case c == 0 && !math.IsInf(ps.hi[v], 1):
			val, bs = ps.hi[v], BasisAtUpper
		case c == 0:
			val, bs = 0, BasisFree
		default:
			continue // improving direction unbounded: leave for the solver
		}
		ps.varLive[v] = false
		ps.ops = append(ps.ops, psOp{kind: opFixVar, row: -1, v: v, val: val, bs: bs})
		changed = true
	}
	return changed
}

// run drives the reduction passes to a fixpoint (bounded by a handful of
// sweeps; each pass only fires on work the previous one created).
func (ps *presolver) run() {
	for pass := 0; pass < 8 && !ps.infeasible; pass++ {
		changed := ps.rowPass()
		changed = ps.fixPass() || changed
		changed = ps.doubletonPass() || changed
		changed = ps.fixPass() || changed
		if !changed {
			break
		}
	}
	if !ps.infeasible {
		ps.emptyColPass()
	}
}

// pow2Round rounds a positive scale to the nearest power of two, so
// applying it is exact in floating point.
func pow2Round(s float64) float64 {
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return 1
	}
	e := math.Round(math.Log2(s))
	if e > 20 {
		e = 20
	} else if e < -20 {
		e = -20
	}
	return math.Ldexp(1, int(e))
}

// build materializes the reduced problem ps.red, running the
// Curtis–Reid-style equilibration (iterative geometric-mean row/column
// scaling, rounded to powers of two) over the surviving matrix. The room
// arguments are bind's: what storage the reduction outgrows is sized by.
func (ps *presolver) build(roomN, roomM, roomNnz int) {
	p := ps.p
	n, m := p.NumVars(), p.NumRows()
	ps.varMap, ps.redVars = fit(ps.varMap, n, 0), fit(ps.redVars, n, 0)[:0]
	ps.rowMap, ps.redRows = fit(ps.rowMap, m, 0), fit(ps.redRows, m, 0)[:0]
	ps.rowScale, ps.colScale = fit(ps.rowScale, m, 0), fit(ps.colScale, n, 0)
	for i := range ps.rowScale {
		ps.rowScale[i] = 1
	}
	for j := range ps.colScale {
		ps.colScale[j] = 1
	}
	for j := 0; j < n; j++ {
		if ps.varLive[j] {
			ps.varMap[j] = int32(len(ps.redVars))
			ps.redVars = append(ps.redVars, int32(j))
		} else {
			ps.varMap[j] = -1
		}
	}
	live := 0
	for i := 0; i < m; i++ {
		if ps.rowLive[i] {
			ps.rowMap[i] = int32(len(ps.redRows))
			ps.redRows = append(ps.redRows, int32(i))
			live += len(ps.rows[i])
		} else {
			ps.rowMap[i] = -1
		}
	}

	// Equilibration on the live submatrix: alternate row and column
	// geometric-mean scaling, then snap to powers of two.
	const scaleIters = 3
	colMin, colMax := fit(ps.colMin, len(ps.redVars), roomN), fit(ps.colMax, len(ps.redVars), roomN)
	ps.colMin, ps.colMax = colMin, colMax
	for it := 0; it < scaleIters; it++ {
		for _, i32 := range ps.redRows {
			i := int(i32)
			minA, maxA := math.Inf(1), 0.0
			for _, t := range ps.rows[i] {
				a := math.Abs(t.Coeff) * ps.rowScale[i] * ps.colScale[t.Var]
				if a < minA {
					minA = a
				}
				if a > maxA {
					maxA = a
				}
			}
			if maxA > 0 && minA > 0 {
				ps.rowScale[i] /= math.Sqrt(minA * maxA)
			}
		}
		for k := range colMin {
			colMin[k], colMax[k] = math.Inf(1), 0
		}
		for _, i32 := range ps.redRows {
			i := int(i32)
			for _, t := range ps.rows[i] {
				k := ps.varMap[t.Var]
				a := math.Abs(t.Coeff) * ps.rowScale[i] * ps.colScale[t.Var]
				if a < colMin[k] {
					colMin[k] = a
				}
				if a > colMax[k] {
					colMax[k] = a
				}
			}
		}
		for k, j32 := range ps.redVars {
			if colMax[k] > 0 && !math.IsInf(colMin[k], 1) && colMin[k] > 0 {
				ps.colScale[j32] /= math.Sqrt(colMin[k] * colMax[k])
			}
		}
	}
	for _, i32 := range ps.redRows {
		ps.rowScale[i32] = pow2Round(ps.rowScale[i32])
	}
	for _, j32 := range ps.redVars {
		ps.colScale[j32] = pow2Round(ps.colScale[j32])
	}

	// Materialize the reduced, scaled problem: A' = R·A·C, b' = R·b,
	// c' = C·c, bounds' = bounds/C (so x = C·x') — at its exact size, in
	// the storage of the last one, each row merged as AddRow would merge
	// it. The reduction is private to the solve and carries no names.
	red := &ps.red
	red.Dir = p.Dir
	nr, mr := len(ps.redVars), len(ps.redRows)
	red.lo, red.hi, red.obj = fit(red.lo, nr, roomN), fit(red.hi, nr, roomN), fit(red.obj, nr, roomN)
	for k, j32 := range ps.redVars {
		j := int(j32)
		c := ps.colScale[j]
		lo, hi := ps.lo[j], ps.hi[j]
		if !math.IsInf(lo, -1) {
			lo /= c
		}
		if !math.IsInf(hi, 1) {
			hi /= c
		}
		red.lo[k], red.hi[k], red.obj[k] = lo, hi, ps.obj[j]*c
	}
	red.rows, red.senses, red.rhs = fit(red.rows, mr, roomM), fit(red.senses, mr, roomM), fit(red.rhs, mr, roomM)
	arena, terms := fit(ps.redArena, live, roomNnz)[:0], ps.terms
	for k, i32 := range ps.redRows {
		i := int(i32)
		r := ps.rowScale[i]
		terms = terms[:0]
		for _, t := range ps.rows[i] {
			terms = append(terms, Term{
				Var:   VarID(ps.varMap[t.Var]),
				Coeff: t.Coeff * r * ps.colScale[t.Var],
			})
		}
		at := len(arena)
		arena = append(arena, red.mergeTerms(terms, nil)...)
		red.rows[k], red.senses[k], red.rhs[k] = arena[at:], ps.senses[i], ps.rhs[i]*r
	}
	ps.redArena, ps.terms = arena, terms
}

// mapBasis carries a starting hint of the original problem onto the
// reduced one by dropping the statuses of eliminated rows and columns
// (statuses are scale-invariant). The result generally has the wrong
// number of basics for the reduction — the install pass truncates or
// slack-pads it — so it seeds phase 1 rather than resuming a solve;
// complete bases never come here (Solve reoptimizes the original problem
// from them). Mismatched dimensions fall back to a cold start.
func (ps *presolver) mapBasis(b *Basis) *Basis {
	if b == nil || len(b.Vars) != ps.p.NumVars() || len(b.Rows) != ps.p.NumRows() {
		return nil
	}
	rb := &Basis{
		Vars: make([]BasisStatus, len(ps.redVars)),
		Rows: make([]BasisStatus, len(ps.redRows)),
	}
	for k, j := range ps.redVars {
		rb.Vars[k] = b.Vars[j]
	}
	for k, i := range ps.redRows {
		rb.Rows[k] = b.Rows[i]
	}
	return rb
}

// tightSlackStatus is the nonbasic status of a dropped row's slack when
// the row is binding: LE slacks live in [0, ∞), GE in (-∞, 0], EQ in
// [0, 0] — binding means 0 in every case.
func tightSlackStatus(s Sense) BasisStatus {
	if s == GE {
		return BasisAtUpper
	}
	return BasisAtLower
}

// post maps the reduced solution back onto the original problem: values
// unscale, eliminated variables and dropped rows are reconstructed by
// replaying the op log in reverse, and the objective is recomputed from
// the original cost vector.
func (ps *presolver) post(rsol *Solution) *Solution {
	p := ps.p
	n, m := p.NumVars(), p.NumRows()
	sol := &Solution{
		Status:           rsol.Status,
		Iterations:       rsol.Iterations,
		Refactorizations: rsol.Refactorizations,
		FTUpdates:        rsol.FTUpdates,
		UpdateNnz:        rsol.UpdateNnz,
	}

	var x []float64
	if rsol.X != nil {
		x = make([]float64, n)
		for k, j := range ps.redVars {
			x[j] = rsol.X[k] * ps.colScale[j]
		}
	}
	var duals []float64
	if rsol.Duals != nil || (rsol.Status == StatusOptimal && m > 0) {
		// An optimal reduction with every row eliminated yields no reduced
		// duals, but the original rows still deserve a dual vector (the op
		// replay below fills the binding ones).
		duals = make([]float64, m)
		for k, i := range ps.redRows {
			if rsol.Duals != nil {
				duals[i] = rsol.Duals[k] * ps.rowScale[i]
			}
		}
	}
	// redCost prices column v of the ORIGINAL matrix against every row's
	// dual but row's own: obj[v] - Σ a_iv·y_i over i ≠ row. A dropped row
	// that ends up binding (an active folded bound, a doubleton) receives
	// the dual that zeroes its basic variable's reduced cost, taking every
	// other row's dual as already reconstructed.
	redCost := func(v VarID, row int) float64 {
		d := p.obj[v]
		for k := ps.colStart[v]; k < ps.colStart[v+1]; k++ {
			if i := ps.colRow[k]; int(i) != row {
				d -= ps.colVal[k] * duals[i]
			}
		}
		return d
	}

	// Basis reconstruction: kept rows/vars inherit the reduced statuses;
	// the reverse op replay assigns exactly one basic variable per
	// dropped row, keeping the basis square.
	var varStat []BasisStatus
	var rowStat []BasisStatus
	if rsol.Basis != nil {
		varStat = make([]BasisStatus, n)
		rowStat = make([]BasisStatus, m)
		for i := range rowStat {
			rowStat[i] = BasisBasic // dropped-row default; ops may override
		}
		for k, j := range ps.redVars {
			varStat[j] = rsol.Basis.Vars[k]
		}
		for k, i := range ps.redRows {
			rowStat[i] = rsol.Basis.Rows[k]
		}
	}

	for oi := len(ps.ops) - 1; oi >= 0; oi-- {
		op := &ps.ops[oi]
		switch op.kind {
		case opFixVar:
			if x != nil {
				x[op.v] = op.val
			}
			if varStat != nil {
				varStat[op.v] = op.bs
			}
		case opDropRow:
			if rowStat != nil {
				rowStat[op.row] = BasisBasic
			}
		case opForcingRow:
			if rowStat != nil {
				rowStat[op.row] = BasisBasic // slack basic at value 0 (binding)
			}
			if duals == nil {
				break
			}
			// The row is binding with every variable pinned at a bound, so
			// its dual λ must give each pinned variable a sign-correct
			// reduced cost d_v = c̃_v − λ·a_v (c̃_v folding in every other
			// row's dual). Each variable bounds λ from the same side —
			// below when (min-side, Maximize) or (max-side, Minimize),
			// above otherwise — so the extreme ratio is the valid choice,
			// clamped toward zero where the row sense restricts the dual's
			// sign (the clamp always moves λ further into the feasible
			// side of every variable's inequality).
			wantMax := op.maxSide == (p.Dir == Minimize)
			lam, first := 0.0, true
			for _, tm := range op.terms {
				r := redCost(tm.Var, op.row) / tm.Coeff
				if first || (wantMax && r > lam) || (!wantMax && r < lam) {
					lam, first = r, false
				}
			}
			switch op.sns {
			case LE:
				if (p.Dir == Maximize && lam < 0) || (p.Dir == Minimize && lam > 0) {
					lam = 0
				}
			case GE:
				if (p.Dir == Maximize && lam > 0) || (p.Dir == Minimize && lam < 0) {
					lam = 0
				}
			}
			duals[op.row] = lam
		case opSingleton:
			// If the variable rests exactly where this row binds, the
			// vertex in the original space has the ROW active, not a
			// variable bound: the variable turns basic and the slack
			// rests at its binding side. Otherwise the slack is basic.
			if rowStat == nil {
				break
			}
			claimed := false
			if x != nil && varStat[op.v] != BasisBasic {
				if math.Abs(op.a*x[op.v]-op.rhs) <= psActTol*(1+math.Abs(op.rhs)) {
					varStat[op.v] = BasisBasic
					rowStat[op.row] = tightSlackStatus(op.sns)
					claimed = true
					if duals != nil {
						duals[op.row] = redCost(VarID(op.v), op.row) / op.a
					}
				}
			}
			if !claimed {
				rowStat[op.row] = BasisBasic
			}
		case opDoubleton:
			if x != nil {
				x[op.v] = (op.rhs - op.a*x[op.x]) / op.b
			}
			if varStat != nil {
				varStat[op.v] = BasisBasic
				rowStat[op.row] = BasisAtLower // EQ slack, fixed at 0
			}
			if duals != nil {
				// Complementarity: the eliminated column is basic in this
				// row, so the row's dual zeroes its reduced cost.
				duals[op.row] = redCost(VarID(op.v), op.row) / op.b
			}
		}
	}

	if x != nil {
		var objv float64
		for j := 0; j < n; j++ {
			if math.Abs(x[j]) < zeroTol {
				x[j] = 0
			}
			objv += p.obj[j] * x[j]
		}
		sol.X = x
		sol.Objective = objv
	}
	sol.Duals = duals
	if varStat != nil {
		sol.Basis = &Basis{Vars: varStat, Rows: rowStat}
	}
	return sol
}

// defaultBasis is the all-slack basis of a problem, used when presolve
// proves infeasibility before any simplex runs (Solution.Basis is
// documented to always be present).
func defaultBasis(p *Problem) *Basis {
	b := &Basis{
		Vars: make([]BasisStatus, p.NumVars()),
		Rows: make([]BasisStatus, p.NumRows()),
	}
	for j := range b.Vars {
		switch {
		case !math.IsInf(p.lo[j], -1):
			b.Vars[j] = BasisAtLower
		case !math.IsInf(p.hi[j], 1):
			b.Vars[j] = BasisAtUpper
		default:
			b.Vars[j] = BasisFree
		}
	}
	for i := range b.Rows {
		b.Rows[i] = BasisBasic
	}
	return b
}

// solvePresolved is the presolve-enabled solve path: reduce, solve the
// reduction (seeded by the starting hint's surviving statuses), and map
// everything back.
func (sv *Solver) solvePresolved(p *Problem, opt Options, roomy bool) (*Solution, error) {
	ps := &sv.ps
	ps.reset(p)
	ps.run()
	if ps.infeasible {
		return &Solution{Status: StatusInfeasible, Basis: defaultBasis(p)}, nil
	}
	var roomN, roomM, roomNnz int
	if roomy {
		roomN, roomM, roomNnz = p.NumVars(), p.NumRows(), len(ps.colRow)
	}
	ps.build(roomN, roomM, roomNnz)
	ropt := opt
	ropt.NoPresolve = true
	ropt.WarmStart = ps.mapBasis(opt.WarmStart)
	ropt.Crash = ps.mapBasis(opt.Crash)
	sv.s.bind(&ps.red, roomN, roomM, roomNnz)
	rsol, err := sv.s.solve(ropt)
	if err != nil {
		return nil, err
	}
	return ps.post(rsol), nil
}
