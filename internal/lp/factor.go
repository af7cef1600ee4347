package lp

// factor.go implements the sparse basis factorization behind the revised
// simplex: an LU decomposition P·B·Q = L·U computed by Markowitz-ordered
// Gaussian elimination on the sparse basis matrix, kept current between
// refactorizations by Forrest–Tomlin updates — after each pivot the
// FTRAN spike is spliced into U as the replaced column, the replaced row
// is cyclically permuted to the end of the elimination order, and its
// off-diagonal entries are eliminated into a compact row eta (the FT "R"
// transform). Unlike the product-form eta file this used to be, the
// update file grows with the FILL the pivots actually cause, not with
// the dense spike length, so refactorization is triggered by measured
// L+U+update nonzero growth and numeric drift instead of a fixed pivot
// count.
//
// The factorization exploits the near-triangular structure of
// time-expanded flow bases: column and row singletons are peeled off with
// no fill-in (this typically eliminates the large majority of the basis),
// and only the residual kernel pays for general elimination with a
// minimum-degree style pivot search under threshold partial pivoting.
//
// Index spaces. A vector of length m is indexed by one of three things:
// an original row (the constraint, and the slack that belongs to it), a
// basis position (the simplex's slot basis[pos]), or a step k of the last
// fresh factorization, which pivoted row pivRow[k] against position
// pivCol[k] (rowStep and colStep are the inverses). L, U and the row etas
// live in step space, and the steps move only in factorize — an FT update
// rotates the elimination order, never rowStep or colStep — so a vector
// the simplex keeps by step stays valid until the next refactorization.
// The entry points, by what they take and give:
//
//	ftran          a by row in, w by position out (computeXB, bound flips)
//	ftranStep      a sparse entering column by step in; w by position and
//	               its positions above dropTol out, from one gather; the
//	               FT spike saved
//	btranStep      c by step in (the basic costs, cb), y by step out
//	btranUnitStep  e_pos in, ρ = B⁻ᵀe_pos by step out (the pivot row)
//
// The BTRANs solve in f.work and hand it over as the result, taking the
// caller's buffer as the next work vector, so no pass moves y anywhere.
//
// Cost of a solve. FTRAN (solve B·w = a) and BTRAN (solve Bᵀ·y = c) are
// dense-vector solves that skip what is empty or zero, not reach-driven
// ones: each costs O(m + touched nonzeros), never O(m²). The O(m) part
// is the way in and out of step space — ftran gathers in and scatters
// out, ftranStep clears in and gathers out (w and its nonzero list
// together), btranStep copies in, btranUnitStep clears in — and one walk
// of U's m rows in elimination order (btranUnitStep starts it at the
// unit's position) that loads each row's entry, plus, when FTRAN saves
// the spike, one copy of the vector. The rest is per nonzero: the L
// passes walk only the columns that have multipliers (lStep), the scatter
// passes (L forward, Uᵀ, the eta transposes) skip a column whose entry is
// zero, and FTRAN's U pass is output-sensitive in its gathers. A row of
// U gathers and divides only if its entry is nonzero or it was marked:
// each row whose result comes out nonzero marks, through uColRows, the
// rows still to come that carry its column and whose entry is zero. So
// uColRows must list every off-diagonal entry (a missing one is a wrong
// answer, not a wrong bit), and the mark array is all-false between
// solves, each marked row clearing its own mark when the walk reaches it.
// Every sum keeps the term order a full sweep would give it, so results
// are those of the sweeping solves to the bit — refFactor in
// factor_test.go is that sweep, and the test beside it holds the two
// together — except that a skipped row or division leaves a zero's sign
// alone where 0/d could flip it.
//
// Passes over m per simplex iteration. A phase-2 primal iteration makes
// six: btranStep's copy of cb and its Uᵀ walk, ftranStep's clear, spike
// copy, U walk and gather. Phase 1 adds the scan that sets cb, and the
// devex update (m ≥ devexMinRows) a unit BTRAN's clear and walk plus
// pivotRow's scan of ρ, read through rowStep in row order. A dual
// iteration makes eight: the leaving-row scan, the unit BTRAN's clear and
// walk, pivotRow's scan and the entering FTRAN's four. Pricing and the
// duals dot columns against y by step through simplex.stepRow, which
// each successful factorize costs one pass over the matrix nonzeros to
// rebuild; Solution.Duals go back to rows once, at the end of a solve.

import "math"

const (
	// dropTol: values below this are dropped during elimination/updates.
	dropTol = 1e-12
	// stabRelTol: threshold partial pivoting — within the candidate row a
	// pivot must be at least this fraction of the row's largest entry.
	stabRelTol = 0.1

	// ftRejectRel rejects a Forrest–Tomlin update whose new diagonal is
	// tiny relative to the spike (a numerically singular replacement);
	// the caller refactorizes instead.
	ftRejectRel = 1e-11
	// ftDriftReject rejects an update when the FT diagonal identity
	// d = w_leave · u_tt disagrees with the eliminated value by more than
	// this relative error: the factorization has drifted too far to keep
	// updating.
	ftDriftReject = 1e-5
	// ftDriftRefactor schedules a refactorization (without rejecting the
	// update) once the accumulated diagonal-identity drift passes this.
	ftDriftRefactor = 1e-8
	// ftGrowthFactor triggers refactorization when the current
	// U + update-eta nonzeros exceed this multiple of the fresh L+U count
	// (plus an 8m allowance for small bases): past that point a fresh
	// factorization is cheaper than dragging the fill through every
	// FTRAN/BTRAN.
	ftGrowthFactor = 2
	// ftMaxUpdates is a hard safety cap on updates between
	// refactorizations, far above what the growth/drift triggers allow in
	// practice; it bounds worst-case floating-error accumulation.
	ftMaxUpdates = 2000
	// ftCostBalance scales the refactorization-cost estimate in the
	// cost-balance trigger: refactorize once the accumulated extra
	// FTRAN/BTRAN work from update fill exceeds this multiple of the
	// factor nonzeros (each iteration runs a small constant number of
	// solves, and a refactorization costs a few passes over the factor).
	ftCostBalance = 2.0
	// ftMinUpdates floors the cost-balance trigger: small problems whose
	// first updates already rival the (tiny) factor cost would otherwise
	// refactorize every handful of pivots for no measurable gain.
	ftMinUpdates = 12
)

// rEta is one Forrest–Tomlin row transform: row t of U gained
// row_t -= Σ val[k]·row_idx[k] during the update's re-triangularization.
// Applied to an FTRAN right-hand side as work[t] -= Σ val·work[idx];
// transposed for BTRAN as work[idx] -= val·work[t]. The entries are
// luFactor.etaIdx/etaVal[lo:hi].
type rEta struct {
	t      int32
	lo, hi int32
}

// luFactor is a sparse LU factorization of the basis in pivot order, plus
// the Forrest–Tomlin update state accumulated since the last
// refactorization: mutable U rows, the elimination order permutation, and
// the row-eta file.
type luFactor struct {
	m int

	// L is unit lower triangular in pivot-position space and static
	// between refactorizations (updates only touch U). Only the columns
	// that have below-diagonal multipliers are stored: lStep lists their
	// steps in ascending order, and column lStep[j]'s targets (positions
	// > lStep[j]) and multipliers are lIdx/lVal[lStart[j]:lStart[j+1]].
	// factorize truncates the four slices, so their storage is reused.
	lStep  []int32
	lStart []int32
	lIdx   []int32
	lVal   []float64

	// U is upper triangular with respect to the elimination order below:
	// uIdx[k]/uVal[k] are row k's off-diagonal entries (columns in step
	// space); uDiag[k] is the diagonal. Updates replace columns and
	// rows in place.
	uIdx  [][]int32
	uVal  [][]float64
	uDiag []float64

	// uColRows[c] lists the rows carrying an off-diagonal entry at column
	// c: FTRAN's U pass marks the rows to gather through it, and updates
	// splice a column out without scanning all rows. It must be complete.
	// Entries may be stale — retiring a row does not prune the lists of
	// its old columns — but a stale entry names a row ordered after c
	// (retired rows move to the end), which the U pass has already passed
	// and the splice verifies against the row itself.
	uColRows [][]int32

	// order is the triangular elimination order of the steps: row
	// order[q] has off-diagonal entries only in columns order[q+1:].
	// Fresh factorizations are triangular in step order (identity);
	// each FT update cyclically rotates the replaced step to the end.
	order   []int32
	stepPos []int32 // inverse of order

	pivRow  []int32 // elimination step k pivoted original row pivRow[k]...
	pivCol  []int32 // ...against basis position pivCol[k]
	colStep []int32 // inverse of pivCol: basis position -> step
	rowStep []int32 // inverse of pivRow: original row -> step

	luNnz    int // L+U nonzeros of the fresh factorization
	uNnz     int // current U off-diagonal nonzeros (tracks update fill)
	baseUNnz int // U off-diagonal nonzeros of the fresh factorization

	// extraCost accumulates, one charge per update, the update-file
	// nonzeros every subsequent solve drags along; refactorization
	// triggers when it outweighs the (amortized) cost of refactorizing.
	extraCost float64

	// The row-eta file: one rEta per update that eliminated anything, its
	// entries appended to the two arenas, which factorize truncates — so
	// the file's storage is reused from one refactorization to the next.
	retas  []rEta
	etaIdx []int32
	etaVal []float64

	updates int     // FT updates since the last refactorization
	drift   float64 // worst FT diagonal-identity relative error so far
	stale   bool    // a rejected update left U unusable; must refactorize

	// statUpdates/statUpdNnz accumulate across refactorizations for
	// solver-effort reporting (Solution.FTUpdates / UpdateNnz).
	statUpdates int
	statUpdNnz  int
	testPanic   int // Options.testPanic of the solve in progress

	work []float64 // dense scratch, len m

	// spike holds the most recent FTRAN's partial result L⁻¹R-applied
	// right-hand side (step space) — exactly the column an immediately
	// following update must splice into U.
	spike    []float64
	spikeNnz []int32
	acc      []float64 // update elimination accumulator, kept all-zero
	mark     []bool    // FTRAN's U pass: rows to gather, kept all-false

	// Elimination workspace, retained across factorizations so the hot
	// refactorization path reuses grown backing arrays instead of
	// reallocating the whole active submatrix every time.
	wsRowsIdx    [][]int32
	wsRowsVal    [][]float64
	wsColRows    [][]int32
	wsRowDone    []bool
	wsColDone    []bool
	wsWpos       []int32
	wsActiveRows []int32
	wsColQ       []int32 // singleton queues
	wsRowQ       []int32
	wsTgt        []int32 // pivot-column snapshot of one elimination step
}

// rNnz is the nonzero count of the row-eta file.
func (f *luFactor) rNnz() int { return len(f.etaIdx) }

// bind sizes the factor for bases of m columns in the storage it holds
// (fresh storage gets room for a basis of `room`): every fixed-length
// array is resliced, and the row and column lists keep what their entries
// have grown to. factorize rebuilds all of it but acc and mark, whose
// all-zero invariants hold over their whole capacity.
func (f *luFactor) bind(m, room int) {
	f.m = m
	f.uIdx, f.uVal = fitKeep(f.uIdx, m, room), fitKeep(f.uVal, m, room)
	f.uColRows = fitKeep(f.uColRows, m, room)
	f.uDiag = fit(f.uDiag, m, room)
	f.order, f.stepPos = fit(f.order, m, room), fit(f.stepPos, m, room)
	f.pivRow, f.pivCol = fit(f.pivRow, m, room), fit(f.pivCol, m, room)
	f.colStep, f.rowStep = fit(f.colStep, m, room), fit(f.rowStep, m, room)
	f.work, f.spike, f.acc = fit(f.work, m, room), fit(f.spike, m, room), fit(f.acc, m, room)
	f.mark = fit(f.mark, m, room)
	f.spikeNnz = fit(f.spikeNnz, m, room)[:0]
	f.wsRowsIdx, f.wsRowsVal = fitKeep(f.wsRowsIdx, m, room), fitKeep(f.wsRowsVal, m, room)
	f.wsColRows = fitKeep(f.wsColRows, m, room)
	f.wsRowDone, f.wsColDone = fit(f.wsRowDone, m, room), fit(f.wsColDone, m, room)
	f.wsWpos, f.wsActiveRows = fit(f.wsWpos, m, room), fit(f.wsActiveRows, m, room)
}

// factorize computes the LU factors of the basis whose columns are given
// as parallel sparse (row index, value) slices, replacing any previous
// factorization and clearing the update state. On success it returns nil
// slices. If the basis is structurally or numerically singular it returns
// the original rows left without a pivot and the basis positions left
// unpivoted; the caller repairs the basis (slotting in slacks for the
// uncovered rows) and retries.
func (f *luFactor) factorize(colIdx [][]int32, colVal [][]float64) (failRows, failCols []int32) {
	m := f.m
	f.retas = f.retas[:0]
	f.etaIdx = f.etaIdx[:0]
	f.etaVal = f.etaVal[:0]
	f.lStep = f.lStep[:0]
	f.lStart = append(f.lStart[:0], 0)
	f.lIdx = f.lIdx[:0]
	f.lVal = f.lVal[:0]
	f.luNnz = 0
	f.updates = 0
	f.drift = 0
	f.stale = false

	// Active submatrix, maintained exactly: entries per original row and
	// the set of rows containing each basis position (column). The
	// workspace is retained on f across calls; only reset here.
	rowsIdx := f.wsRowsIdx // per row: active basis positions
	rowsVal := f.wsRowsVal
	colRows := f.wsColRows // per basis position: active rows
	rowDone := f.wsRowDone
	colDone := f.wsColDone
	for i := 0; i < m; i++ {
		rowsIdx[i] = rowsIdx[i][:0]
		rowsVal[i] = rowsVal[i][:0]
		colRows[i] = colRows[i][:0]
		rowDone[i] = false
		colDone[i] = false
	}
	for pos := 0; pos < m; pos++ {
		for ki, r := range colIdx[pos] {
			rowsIdx[r] = append(rowsIdx[r], int32(pos))
			rowsVal[r] = append(rowsVal[r], colVal[pos][ki])
		}
	}
	for i := 0; i < m; i++ {
		for _, pos := range rowsIdx[i] {
			colRows[pos] = append(colRows[pos], int32(i))
		}
	}
	// Singleton queues; entries may be stale and are re-checked on pop.
	colQ, rowQ := f.wsColQ[:0], f.wsRowQ[:0]
	for pos := 0; pos < m; pos++ {
		if len(colRows[pos]) == 1 {
			colQ = append(colQ, int32(pos))
		}
	}
	for i := 0; i < m; i++ {
		if len(rowsIdx[i]) == 1 {
			rowQ = append(rowQ, int32(i))
		}
	}

	// wpos[pos] = index+1 of pos within the row currently being updated.
	wpos := f.wsWpos
	for i := range wpos {
		wpos[i] = 0
	}

	findInRow := func(r int, pos int32) int {
		for ki, c := range rowsIdx[r] {
			if c == pos {
				return ki
			}
		}
		return -1
	}
	removeFromCol := func(pos int32, r int32) {
		cr := colRows[pos]
		for ki, rr := range cr {
			if rr == r {
				cr[ki] = cr[len(cr)-1]
				colRows[pos] = cr[:len(cr)-1]
				return
			}
		}
	}
	// dropRowEntry removes rowsIdx[r][ki] and its column back-reference,
	// enqueueing any new singletons.
	dropRowEntry := func(r int, ki int) {
		pos := rowsIdx[r][ki]
		last := len(rowsIdx[r]) - 1
		rowsIdx[r][ki] = rowsIdx[r][last]
		rowsVal[r][ki] = rowsVal[r][last]
		rowsIdx[r] = rowsIdx[r][:last]
		rowsVal[r] = rowsVal[r][:last]
		removeFromCol(pos, int32(r))
		if !colDone[pos] && len(colRows[pos]) == 1 {
			colQ = append(colQ, pos)
		}
		if len(rowsIdx[r]) == 1 {
			rowQ = append(rowQ, int32(r))
		}
	}

	step := 0
	// pivotAt eliminates basis position pos using original row i. The
	// pivot entry must already be known to be acceptably large.
	pivotAt := func(i int, pos int32) {
		ki := findInRow(i, pos)
		piv := rowsVal[i][ki]
		f.pivRow[step] = int32(i)
		f.pivCol[step] = pos

		// L multipliers: eliminate pos from every other active row.
		lLo := len(f.lIdx)
		spike := len(rowsIdx[i]) > 1 // pivot row has off-pivot entries
		// Snapshot: the column's row set shrinks as we eliminate.
		tgt := append(f.wsTgt[:0], colRows[pos]...)
		f.wsTgt = tgt
		for _, r32 := range tgt {
			r := int(r32)
			if r == i {
				continue
			}
			kj := findInRow(r, pos)
			if kj < 0 {
				continue
			}
			mult := rowsVal[r][kj] / piv
			// Remove the pivot-column entry from row r first so the axpy
			// below never touches it.
			dropRowEntry(r, kj)
			if math.Abs(mult) <= dropTol {
				continue
			}
			f.lIdx = append(f.lIdx, r32) // original row; remapped to steps below
			f.lVal = append(f.lVal, mult)
			if !spike {
				continue
			}
			// row r -= mult * row i over the remaining active columns.
			for kk, c := range rowsIdx[r] {
				wpos[c] = int32(kk) + 1
			}
			nOld := len(rowsIdx[r])
			for kk, c := range rowsIdx[i] {
				if c == pos {
					continue
				}
				v := rowsVal[i][kk]
				if w := wpos[c]; w != 0 {
					rowsVal[r][w-1] -= mult * v
				} else {
					rowsIdx[r] = append(rowsIdx[r], c)
					rowsVal[r] = append(rowsVal[r], -mult*v)
					colRows[c] = append(colRows[c], r32)
				}
			}
			for kk := 0; kk < len(rowsIdx[r]); kk++ {
				wpos[rowsIdx[r][kk]] = 0
			}
			// Drop entries cancelled to (near) zero among the updated ones.
			for kk := nOld - 1; kk >= 0; kk-- {
				if math.Abs(rowsVal[r][kk]) <= dropTol {
					dropRowEntry(r, kk)
				}
			}
			if len(rowsIdx[r]) == 1 {
				rowQ = append(rowQ, r32)
			}
		}
		if len(f.lIdx) > lLo {
			f.lStep = append(f.lStep, int32(step))
			f.lStart = append(f.lStart, int32(len(f.lIdx)))
		}

		// U row: the pivot row's remaining entries.
		uIdx := f.uIdx[step][:0]
		uVal := f.uVal[step][:0]
		for kk, c := range rowsIdx[i] {
			if c == pos {
				continue
			}
			uIdx = append(uIdx, c) // basis position; remapped to steps below
			uVal = append(uVal, rowsVal[i][kk])
			removeFromCol(c, int32(i))
			if !colDone[c] && len(colRows[c]) == 1 {
				colQ = append(colQ, c)
			}
		}
		f.uIdx[step] = uIdx
		f.uVal[step] = uVal
		f.uDiag[step] = piv
		f.luNnz += len(f.lIdx) - lLo + len(uIdx) + 1

		rowDone[i] = true
		colDone[pos] = true
		rowsIdx[i] = rowsIdx[i][:0]
		rowsVal[i] = rowsVal[i][:0]
		colRows[pos] = colRows[pos][:0]
		step++
	}

	activeRows := f.wsActiveRows[:m]
	for i := range activeRows {
		activeRows[i] = int32(i)
	}

	//teccl:allow-ctxcheck bounded: every pass pops a finite singleton queue or pivots a row (step++); at most m pivots
	for step < m {
		// 1. Column singletons: pivot with no elimination in the column.
		if len(colQ) > 0 {
			pos := colQ[len(colQ)-1]
			colQ = colQ[:len(colQ)-1]
			if colDone[pos] || len(colRows[pos]) != 1 {
				continue
			}
			i := int(colRows[pos][0])
			ki := findInRow(i, pos)
			if math.Abs(rowsVal[i][ki]) < pivotTol {
				continue // too small; leave for the general search
			}
			pivotAt(i, pos)
			continue
		}
		// 2. Row singletons: the eliminations only cancel, no fill.
		if len(rowQ) > 0 {
			i := rowQ[len(rowQ)-1]
			rowQ = rowQ[:len(rowQ)-1]
			if rowDone[i] || len(rowsIdx[i]) != 1 {
				continue
			}
			if math.Abs(rowsVal[i][0]) < pivotTol {
				continue
			}
			pivotAt(int(i), rowsIdx[i][0])
			continue
		}
		// 3. General step: pick the shortest active row, then within it the
		// entry with the fewest column occupants subject to the stability
		// threshold (a Markowitz (r-1)(c-1) approximation).
		w := 0
		bestRow, bestLen := -1, m+1
		for _, r32 := range activeRows {
			if rowDone[r32] {
				continue
			}
			activeRows[w] = r32
			w++
			if l := len(rowsIdx[r32]); l > 0 && l < bestLen {
				bestRow, bestLen = int(r32), l
			}
		}
		activeRows = activeRows[:w]
		f.wsActiveRows = activeRows[:cap(activeRows)]
		if bestRow == -1 {
			break // only empty rows remain: singular
		}
		amax := 0.0
		for _, v := range rowsVal[bestRow] {
			if a := math.Abs(v); a > amax {
				amax = a
			}
		}
		if amax < pivotTol {
			// Numerically dead row; no pivot possible here or later.
			break
		}
		thresh := stabRelTol * amax
		bestK, bestCnt, bestAbs := -1, m+1, 0.0
		for ki, pos := range rowsIdx[bestRow] {
			a := math.Abs(rowsVal[bestRow][ki])
			if a < thresh || a < pivotTol {
				continue
			}
			cnt := len(colRows[pos])
			if cnt < bestCnt || (cnt == bestCnt && a > bestAbs) {
				bestK, bestCnt, bestAbs = ki, cnt, a
			}
		}
		if bestK == -1 {
			break
		}
		// The L multipliers are column entries divided by the pivot, so
		// stability must also be judged against the pivot COLUMN's largest
		// entry; if the candidate is small relative to it, pivot at the
		// column's dominant row instead (multipliers then stay <= 1).
		pivRow, pivPos := bestRow, rowsIdx[bestRow][bestK]
		cmaxRow, cmax := pivRow, bestAbs
		for _, r32 := range colRows[pivPos] {
			r := int(r32)
			if kj := findInRow(r, pivPos); kj >= 0 {
				if a := math.Abs(rowsVal[r][kj]); a > cmax {
					cmaxRow, cmax = r, a
				}
			}
		}
		if bestAbs < stabRelTol*cmax {
			pivRow = cmaxRow
		}
		pivotAt(pivRow, pivPos)
	}

	f.wsColQ, f.wsRowQ = colQ, rowQ
	if step < m {
		for i := 0; i < m; i++ {
			if !rowDone[i] {
				failRows = append(failRows, int32(i))
			}
			if !colDone[i] {
				failCols = append(failCols, int32(i))
			}
		}
		return failRows, failCols
	}

	// Remap L targets (original rows) and U columns (basis positions) into
	// pivot-step space so the solves run on triangular systems directly.
	rowStep := f.rowStep
	for k := 0; k < m; k++ {
		rowStep[f.pivRow[k]] = int32(k)
		f.colStep[f.pivCol[k]] = int32(k)
	}
	for ki, r := range f.lIdx {
		f.lIdx[ki] = rowStep[r]
	}
	f.uNnz = 0
	for k := 0; k < m; k++ {
		ui := f.uIdx[k]
		for ki := range ui {
			ui[ki] = f.colStep[ui[ki]]
		}
		f.uNnz += len(ui)
	}
	f.baseUNnz = f.uNnz
	f.extraCost = 0
	// Fresh factorizations are triangular in step order; rebuild the
	// column pattern for the update path.
	for k := 0; k < m; k++ {
		f.order[k] = int32(k)
		f.stepPos[k] = int32(k)
		f.uColRows[k] = f.uColRows[k][:0]
	}
	for k := 0; k < m; k++ {
		for _, c := range f.uIdx[k] {
			f.uColRows[c] = append(f.uColRows[c], int32(k))
		}
	}
	return nil, nil
}

// ftran solves B·w = a in place: on entry x holds a indexed by original
// row; on return it holds w indexed by basis position.
func (f *luFactor) ftran(x []float64) {
	work := f.work
	for k := range work {
		work[k] = x[f.pivRow[k]]
	}
	f.ftranWork(false)
	for k, v := range work {
		x[f.pivCol[k]] = v
	}
}

// ftranStep solves B·w = a for an entering column a given sparsely by
// step (its rows mapped through rowStep), saving the partial result after
// L and the row etas — the Forrest–Tomlin spike of a — for the update
// call that follows the pivot. One gather over the basis positions writes
// w into x (whose contents on entry are ignored) and lists the positions
// of its entries above dropTol, ascending, in nz's storage (capacity m),
// which it returns. The listing writes every position and advances the
// cursor only past the kept ones, so it has no data-dependent branch.
func (f *luFactor) ftranStep(idx []int32, val []float64, x []float64, nz []int32) []int32 {
	work := f.work
	clear(work)
	for k, i := range idx {
		work[i] += val[k]
	}
	f.ftranWork(true)
	nz, n := nz[:f.m], 0
	for pos, k := range f.colStep {
		v := work[k]
		x[pos] = v
		nz[n] = int32(pos)
		if math.Abs(v) > dropTol {
			n++
		}
	}
	return nz[:n]
}

// ftranWork runs FTRAN in place on f.work, the right-hand side in step
// space; the result is left there, in step space.
func (f *luFactor) ftranWork(save bool) {
	m := f.m
	work := f.work
	// L forward (scatter), over the non-empty columns only.
	for j, k := range f.lStep {
		v := work[k]
		if v == 0 {
			continue
		}
		lo, hi := f.lStart[j], f.lStart[j+1]
		val := f.lVal[lo:hi]
		for ki, tgt := range f.lIdx[lo:hi] {
			work[tgt] -= val[ki] * v
		}
	}
	// Row etas, oldest first.
	for ei := range f.retas {
		e := &f.retas[ei]
		acc := work[e.t]
		val := f.etaVal[e.lo:e.hi]
		for ki, k := range f.etaIdx[e.lo:e.hi] {
			acc -= val[ki] * work[k]
		}
		work[e.t] = acc
	}
	// U backward (gather) in elimination order, over the rows that can be
	// nonzero: a row's result is nonzero only if its entry is, or if one
	// of its columns' results is, so each row whose result comes out
	// nonzero marks the zero-entry rows of its column (uColRows) still to
	// come. A row neither nonzero nor marked keeps its zero, which is the
	// sweep's result up to the sign of 0/d. When save is set, the spike —
	// work as L and the row etas left it — is saved for the Forrest–Tomlin
	// update that follows, and spikeNnz lists its nonzeros in reverse
	// elimination order; update reads it through a max and through
	// splices into distinct rows, so its order is free.
	if save {
		copy(f.spike, work)
	}
	mark, stepPos := f.mark, f.stepPos
	nz, n := f.spikeNnz[:cap(f.spikeNnz)], 0
	for q := m - 1; q >= 0; q-- {
		k := f.order[q]
		v := work[k]
		if v == 0 && !mark[k] {
			continue
		}
		mark[k] = false
		if save {
			nz[n] = k
			if v != 0 {
				n++
			}
		}
		val := f.uVal[k]
		for ki, c := range f.uIdx[k] {
			v -= val[ki] * work[c]
		}
		v /= f.uDiag[k]
		work[k] = v
		if v == 0 {
			continue
		}
		// Every row that carries column k is ordered before it; a stale
		// entry names a retired row ordered after it, already passed.
		for _, r := range f.uColRows[k] {
			if work[r] == 0 && stepPos[r] < int32(q) {
				mark[r] = true
			}
		}
	}
	if save {
		f.spikeNnz = nz[:n]
	}
}

// btranStep solves Bᵀ·y = c for c indexed by step (c[colStep[pos]] is
// the entry of basis position pos). The result, indexed by step (y of row
// i is at rowStep[i]), is solved in f.work, which then trades places with
// y: the returned slice is the solution, and y's storage (whose contents
// on entry are ignored) becomes the factor's work vector.
func (f *luFactor) btranStep(c, y []float64) []float64 {
	copy(f.work, c)
	f.btranFrom(0)
	y, f.work = f.work, y
	return y
}

// btranUnitStep is btranStep of the unit vector e_pos: the row of B⁻¹
// both pivot-row pricers need, returned in step space the same way.
// Every step ordered before the unit's own is zero on entry to the Uᵀ
// pass and stays zero through it, so the pass starts at the unit's
// position.
func (f *luFactor) btranUnitStep(pos int, y []float64) []float64 {
	clear(f.work)
	t := f.colStep[pos]
	f.work[t] = 1
	f.btranFrom(int(f.stepPos[t]))
	y, f.work = f.work, y
	return y
}

// btranFrom runs BTRAN in place on f.work, whose entries ordered before
// from are zero; the result is left there, in step space.
func (f *luFactor) btranFrom(from int) {
	m := f.m
	work := f.work
	// Uᵀ forward (scatter) in elimination order.
	for q := from; q < m; q++ {
		k := f.order[q]
		v := work[k]
		// Tested before the division: 0/d is ±0, a zero either way, and
		// no comparison, math.Abs, product or sum downstream tells +0
		// from −0.
		if v == 0 {
			continue
		}
		v /= f.uDiag[k]
		work[k] = v
		idx := f.uIdx[k]
		val := f.uVal[k]
		for ki, c := range idx {
			work[c] -= val[ki] * v
		}
	}
	// Row-eta transposes, newest first.
	for ei := len(f.retas) - 1; ei >= 0; ei-- {
		e := &f.retas[ei]
		vt := work[e.t]
		if vt == 0 {
			continue
		}
		val := f.etaVal[e.lo:e.hi]
		for ki, k := range f.etaIdx[e.lo:e.hi] {
			work[k] -= val[ki] * vt
		}
	}
	// Lᵀ backward (gather), over the non-empty columns only.
	for j := len(f.lStep) - 1; j >= 0; j-- {
		k := f.lStep[j]
		v := work[k]
		lo, hi := f.lStart[j], f.lStart[j+1]
		val := f.lVal[lo:hi]
		for ki, tgt := range f.lIdx[lo:hi] {
			v -= val[ki] * work[tgt]
		}
		work[k] = v
	}
}

// update applies a Forrest–Tomlin update for a pivot that replaced basis
// position leavePos with the column whose FTRAN ran last (its spike was
// saved by ftran). wLeave is the FTRAN result at the leaving position,
// used for the FT diagonal cross-check d = wLeave·u_tt. Returns false —
// leaving the factorization untouched — when the update would be
// numerically unsafe (singular spike or excessive drift); the caller
// must then refactorize the (already pivoted) basis.
func (f *luFactor) update(leavePos int32, wLeave float64) bool {
	if f.stale {
		return false
	}
	m := f.m
	t := f.colStep[leavePos]
	posT := int(f.stepPos[t])
	spike := f.spike

	// Re-triangularize: move step t to the end of the order and eliminate
	// the old row t against the rows ordered after it. The elimination
	// runs on a scratch accumulator (acc, kept all-zero between calls) so
	// a rejected update leaves the U rows untouched; the order rotation
	// is fused into the same pass — rejection makes the factorization
	// stale, and the caller refactorizes (resetting the order) before
	// any further solve.
	acc := f.acc
	for ki, c := range f.uIdx[t] {
		acc[c] = f.uVal[t][ki]
	}
	if f.testPanic > 0 && f.statUpdates+1 >= f.testPanic && len(f.uIdx[t]) > 0 {
		panic("lp: test panic inside a Forrest–Tomlin update")
	}
	d := spike[t]
	// The row eta's entries go straight onto the arenas; a rejected update
	// truncates them back to eLo.
	eLo := len(f.etaIdx)
	for q := posT; q < m-1; q++ {
		k := f.order[q+1]
		f.order[q] = k
		f.stepPos[k] = int32(q)
		a := acc[k]
		if a == 0 {
			continue
		}
		acc[k] = 0
		if math.Abs(a) <= dropTol {
			continue
		}
		mult := a / f.uDiag[k]
		if math.Abs(mult) <= dropTol {
			continue
		}
		f.etaIdx = append(f.etaIdx, k)
		f.etaVal = append(f.etaVal, mult)
		// Row k's (pending) column-t entry is the spike value.
		d -= mult * spike[k]
		for ki, c := range f.uIdx[k] {
			acc[c] -= mult * f.uVal[k][ki]
		}
	}
	f.order[m-1] = t
	f.stepPos[t] = int32(m - 1)

	// Acceptance: the new diagonal must be solidly nonzero relative to
	// the spike, and must agree with the FT identity d = wLeave·u_tt
	// (both sides computed independently, so their disagreement measures
	// accumulated factorization drift).
	amax := 0.0
	for _, i := range f.spikeNnz {
		if a := math.Abs(spike[i]); a > amax {
			amax = a
		}
	}
	expect := wLeave * f.uDiag[t]
	scale := math.Max(1, math.Max(math.Abs(d), math.Abs(expect)))
	relErr := math.Abs(d-expect) / scale
	if math.Abs(d) < pivotTol || math.Abs(d) < ftRejectRel*amax || relErr > ftDriftReject {
		// U still describes the pre-pivot basis while the caller's
		// bookkeeping has moved on; mark it unusable until the caller's
		// mandatory refactorization.
		f.etaIdx = f.etaIdx[:eLo]
		f.etaVal = f.etaVal[:eLo]
		f.stale = true
		return false
	}
	if relErr > f.drift {
		f.drift = relErr
	}

	// Commit. Splice the old column t out of the rows that carry it...
	for _, i32 := range f.uColRows[t] {
		i := int(i32)
		if i == int(t) {
			continue
		}
		row := f.uIdx[i]
		for ki, c := range row {
			if c == t {
				last := len(row) - 1
				row[ki] = row[last]
				f.uVal[i][ki] = f.uVal[i][last]
				f.uIdx[i] = row[:last]
				f.uVal[i] = f.uVal[i][:last]
				f.uNnz--
				break
			}
		}
	}
	f.uColRows[t] = f.uColRows[t][:0]
	// ...retire the old row t (its columns' uColRows entries go stale;
	// consumers re-verify against the rows)...
	f.uNnz -= len(f.uIdx[t])
	f.uIdx[t] = f.uIdx[t][:0]
	f.uVal[t] = f.uVal[t][:0]
	// ...splice the spike in as the new column t...
	added := 0
	for _, i32 := range f.spikeNnz {
		i := int(i32)
		if i == int(t) {
			continue
		}
		v := spike[i]
		if math.Abs(v) <= dropTol {
			continue
		}
		f.uIdx[i] = append(f.uIdx[i], t)
		f.uVal[i] = append(f.uVal[i], v)
		f.uColRows[t] = append(f.uColRows[t], i32)
		added++
	}
	f.uNnz += added
	f.uDiag[t] = d
	// ...and record the row eta (the order was already rotated above).
	eNnz := len(f.etaIdx) - eLo
	if eNnz > 0 {
		f.retas = append(f.retas, rEta{t: t, lo: int32(eLo), hi: int32(len(f.etaIdx))})
	}

	f.updates++
	f.statUpdates++
	f.statUpdNnz += added + eNnz
	// Cost balance: every subsequent FTRAN/BTRAN pays for the update
	// fill, so charge the current extra nonzeros once per update (one
	// update ≈ one simplex iteration ≈ a constant number of solves).
	f.extraCost += float64(f.uNnz - f.baseUNnz + f.rNnz())
	return true
}

// shouldRefactor reports whether the update state has grown (in measured
// fill-induced solve cost, absolute fill, or numeric drift) to the point
// where a fresh factorization is cheaper and safer than continuing to
// update.
func (f *luFactor) shouldRefactor() bool {
	if f.stale || f.updates >= ftMaxUpdates {
		return true
	}
	if f.drift > ftDriftRefactor {
		return true
	}
	// Cost balance: extraCost is the cumulative per-iteration solve work
	// (in nonzero visits) the update fill has added since the last
	// refactorization; once it rivals the refactorization's own cost
	// (approximately a small multiple of the factor nonzeros plus the
	// O(m) bookkeeping passes), refactorizing is the cheaper path
	// forward. Sparse update streams (dual reoptimization chains) thus
	// run hundreds of updates per refactorization, while dense-spike
	// streams refactorize early instead of dragging the fill through
	// every FTRAN/BTRAN.
	if f.updates >= ftMinUpdates && f.extraCost > ftCostBalance*float64(f.luNnz+8*f.m) {
		return true
	}
	// Absolute fill bound, independent of amortization: never let the
	// update file outgrow the factorization itself by more than the
	// growth factor (memory, and the per-solve floor).
	return f.uNnz+f.rNnz() > ftGrowthFactor*f.luNnz+8*f.m
}
