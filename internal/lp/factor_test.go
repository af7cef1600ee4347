package lp

// factor_test.go exercises the Forrest–Tomlin update machinery directly:
// long random pivot sequences must leave FTRAN/BTRAN agreeing with the
// true basis matrix (the property a fresh factorization would give),
// dense spikes must trip the fill-aware refactorization trigger instead
// of ballooning the update file, and numerically singular spikes must be
// rejected without corrupting the factorization.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// newLUFactor is a factor of its own, sized for bases of m columns.
func newLUFactor(m int) *luFactor {
	f := new(luFactor)
	f.bind(m, 0)
	return f
}

// randBasisCols draws a random sparse nonsingular-ish m×m column set:
// a shuffled diagonal plus random off-diagonal entries.
func randBasisCols(rng *rand.Rand, m int, density float64) ([][]int32, [][]float64) {
	colIdx := make([][]int32, m)
	colVal := make([][]float64, m)
	perm := rng.Perm(m)
	for pos := 0; pos < m; pos++ {
		seen := map[int32]bool{}
		// Guaranteed structural nonsingularity via the permuted diagonal.
		d := int32(perm[pos])
		colIdx[pos] = append(colIdx[pos], d)
		colVal[pos] = append(colVal[pos], 1+rng.Float64()*4)
		seen[d] = true
		for i := 0; i < m; i++ {
			if rng.Float64() >= density || seen[int32(i)] {
				continue
			}
			colIdx[pos] = append(colIdx[pos], int32(i))
			colVal[pos] = append(colVal[pos], rng.NormFloat64())
			seen[int32(i)] = true
		}
	}
	return colIdx, colVal
}

// randSparseCol draws one random column with a strong anchor entry.
func randSparseCol(rng *rand.Rand, m int, density float64) ([]int32, []float64) {
	var idx []int32
	var val []float64
	seen := map[int32]bool{}
	a := int32(rng.Intn(m))
	idx = append(idx, a)
	val = append(val, 1+rng.Float64()*4)
	seen[a] = true
	for i := 0; i < m; i++ {
		if rng.Float64() >= density || seen[int32(i)] {
			continue
		}
		idx = append(idx, int32(i))
		val = append(val, rng.NormFloat64())
		seen[int32(i)] = true
	}
	return idx, val
}

// ftranRows is ftranStep of a column given by row, mapped into step space
// the way the simplex maps its columns (through rowStep); it returns the
// positions ftranStep listed.
func ftranRows(f *luFactor, idx []int32, val []float64, x []float64) []int32 {
	steps := make([]int32, len(idx))
	for k, i := range idx {
		steps[k] = f.rowStep[i]
	}
	return f.ftranStep(steps, val, x, make([]int32, 0, f.m))
}

// btranRows solves Bᵀ·y = c for c by basis position into y by row,
// through btranStep: c scattered to steps, y gathered back from them.
func btranRows(f *luFactor, c, y []float64) {
	cs := make([]float64, f.m)
	for pos, v := range c {
		cs[f.colStep[pos]] = v
	}
	stepsToRows(f, f.btranStep(cs, make([]float64, f.m)), y)
}

// stepsToRows copies a step-space solve result into y by row.
func stepsToRows(f *luFactor, ys, y []float64) {
	for i, k := range f.rowStep {
		y[i] = ys[k]
	}
}

// residFtran checks B·w = a for w = ftran(a) against the raw columns.
func residFtran(t *testing.T, colIdx [][]int32, colVal [][]float64, f *luFactor, rng *rand.Rand, tag string) {
	t.Helper()
	m := f.m
	a := make([]float64, m)
	for i := range a {
		a[i] = rng.NormFloat64()
	}
	w := append([]float64(nil), a...)
	f.ftran(w)
	resid := append([]float64(nil), a...)
	for pos := 0; pos < m; pos++ {
		if w[pos] == 0 {
			continue
		}
		for k, i := range colIdx[pos] {
			resid[i] -= colVal[pos][k] * w[pos]
		}
	}
	wmax := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > wmax {
			wmax = a
		}
	}
	for i, r := range resid {
		if math.Abs(r) > 1e-7*(10+wmax) {
			t.Fatalf("%s: FTRAN residual %g at row %d (wmax %g)", tag, r, i, wmax)
		}
	}
}

// residBtran checks Bᵀ·y = c for y = btranStep(c) against the raw
// columns.
func residBtran(t *testing.T, colIdx [][]int32, colVal [][]float64, f *luFactor, rng *rand.Rand, tag string) {
	t.Helper()
	m := f.m
	c := make([]float64, m)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	y := make([]float64, m)
	btranRows(f, c, y)
	ymax := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > ymax {
			ymax = a
		}
	}
	for pos := 0; pos < m; pos++ {
		var dot float64
		for k, i := range colIdx[pos] {
			dot += colVal[pos][k] * y[i]
		}
		if math.Abs(dot-c[pos]) > 1e-7*(10+ymax) {
			t.Fatalf("%s: BTRAN residual %g at position %d (ymax %g)", tag, dot-c[pos], pos, ymax)
		}
	}
}

// TestFTUpdateMatchesFreshFactorization drives long random pivot
// sequences through the Forrest–Tomlin update path and asserts, after
// every pivot, that FTRAN/BTRAN still solve against the true (mutated)
// basis — exactly what a fresh full factorization would give.
func TestFTUpdateMatchesFreshFactorization(t *testing.T) {
	for _, m := range []int{5, 17, 60} {
		rng := rand.New(rand.NewSource(int64(m) * 7919))
		colIdx, colVal := randBasisCols(rng, m, 3.0/float64(m))
		f := newLUFactor(m)
		if fr, _ := f.factorize(colIdx, colVal); fr != nil {
			t.Fatalf("m=%d: initial factorization failed", m)
		}
		refactors := 0
		for step := 0; step < 40*m; step++ {
			pos := rng.Intn(m)
			nIdx, nVal := randSparseCol(rng, m, 2.0/float64(m))
			// FTRAN the candidate column (saves the spike), as the
			// simplex drivers do before a pivot.
			w := make([]float64, m)
			ftranRows(f, nIdx, nVal, w)
			if math.Abs(w[pos]) < 1e-4 {
				// Too close to singular; the drivers' ratio tests prefer
				// large pivots, so only healthy replacements are realistic.
				continue
			}
			colIdx[pos], colVal[pos] = nIdx, nVal
			if !f.update(int32(pos), w[pos]) || f.shouldRefactor() {
				if fr, _ := f.factorize(colIdx, colVal); fr != nil {
					t.Fatalf("m=%d step=%d: refactorization failed", m, step)
				}
				refactors++
			}
			residFtran(t, colIdx, colVal, f, rng, "after update")
			residBtran(t, colIdx, colVal, f, rng, "after update")
		}
		if f.statUpdates == 0 {
			t.Fatalf("m=%d: no FT updates exercised", m)
		}
		t.Logf("m=%d: %d updates, %d refactorizations", m, f.statUpdates, refactors)
	}
}

// TestFTDenseSpikeTriggersRefactor is the regression test for the old
// count-only trigger: a dense instance whose FTRAN spikes splice large
// columns into U must trip shouldRefactor through the measured fill
// long before the update-count safety cap, keeping the update file
// bounded relative to the factorization.
func TestFTDenseSpikeTriggersRefactor(t *testing.T) {
	const m = 40
	rng := rand.New(rand.NewSource(99))
	colIdx, colVal := randBasisCols(rng, m, 0.9)
	f := newLUFactor(m)
	if fr, _ := f.factorize(colIdx, colVal); fr != nil {
		t.Fatal("initial factorization failed")
	}
	tripped := 0
	for step := 0; step < 30*m; step++ {
		pos := rng.Intn(m)
		nIdx, nVal := randSparseCol(rng, m, 0.9)
		w := make([]float64, m)
		ftranRows(f, nIdx, nVal, w)
		if math.Abs(w[pos]) < pivotTol {
			continue
		}
		colIdx[pos], colVal[pos] = nIdx, nVal
		if !f.update(int32(pos), w[pos]) || f.shouldRefactor() {
			if f.updates >= ftMaxUpdates {
				t.Fatalf("step %d: dense spikes reached the count cap before the fill trigger", step)
			}
			// The trigger must fire while the update file is still
			// bounded by the growth factor (plus the small-m allowance).
			if f.uNnz+f.rNnz() > 2*(ftGrowthFactor*f.luNnz+8*m) {
				t.Fatalf("step %d: update file grew to %d nnz (factor %d) before refactorizing",
					step, f.uNnz+f.rNnz(), f.luNnz)
			}
			if fr, _ := f.factorize(colIdx, colVal); fr != nil {
				t.Fatalf("step %d: refactorization failed", step)
			}
			tripped++
		}
	}
	if tripped == 0 {
		t.Fatal("dense-spike stream never triggered a refactorization")
	}
	residFtran(t, colIdx, colVal, f, rng, "final")
}

// TestFTSingularSpikeRejected replaces a column so the basis becomes
// singular: the FT update must refuse (leaving the caller to repair and
// refactorize) rather than install a near-zero diagonal.
func TestFTSingularSpikeRejected(t *testing.T) {
	const m = 8
	// Identity basis.
	colIdx := make([][]int32, m)
	colVal := make([][]float64, m)
	for pos := 0; pos < m; pos++ {
		colIdx[pos] = []int32{int32(pos)}
		colVal[pos] = []float64{1}
	}
	f := newLUFactor(m)
	if fr, _ := f.factorize(colIdx, colVal); fr != nil {
		t.Fatal("identity factorization failed")
	}
	// Replace column 3 with a copy of column 5's unit vector: the new
	// basis is singular (two identical columns).
	w := make([]float64, m)
	ftranRows(f, []int32{5}, []float64{1}, w)
	if ok := f.update(3, w[3]); ok {
		t.Fatal("singular spike accepted")
	}
	if !f.shouldRefactor() {
		t.Fatal("rejected update must force a refactorization")
	}
}

// refFactor is the reference FTRAN/BTRAN: the loop bodies these solves had
// before they learnt to skip empty rows and zero entries, kept verbatim —
// every row swept, every row divided — over the same luFactor fields
// (the flat L arena expanded back into one slice per step, empty for
// most). The production solves must agree with it bit for bit.
type refFactor struct {
	f        *luFactor
	lIdx     [][]int32
	lVal     [][]float64
	work     []float64
	spike    []float64
	spikeNnz []int32
}

func newRefFactor(f *luFactor) *refFactor {
	r := &refFactor{f: f, lIdx: make([][]int32, f.m), lVal: make([][]float64, f.m),
		work: make([]float64, f.m), spike: make([]float64, f.m)}
	for j, k := range f.lStep {
		r.lIdx[k] = f.lIdx[f.lStart[j]:f.lStart[j+1]]
		r.lVal[k] = f.lVal[f.lStart[j]:f.lStart[j+1]]
	}
	return r
}

func (r *refFactor) ftranInto(x []float64, save bool) {
	f := r.f
	m := f.m
	work := r.work
	for k := 0; k < m; k++ {
		work[k] = x[f.pivRow[k]]
	}
	// L forward (scatter).
	for k := 0; k < m; k++ {
		v := work[k]
		if v == 0 {
			continue
		}
		idx := r.lIdx[k]
		val := r.lVal[k]
		for ki, tgt := range idx {
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
	if save {
		r.spikeNnz = r.spikeNnz[:0]
		for k := 0; k < m; k++ {
			v := work[k]
			r.spike[k] = v
			if v != 0 {
				r.spikeNnz = append(r.spikeNnz, int32(k))
			}
		}
	}
	// U backward (gather) in elimination order.
	for q := m - 1; q >= 0; q-- {
		k := f.order[q]
		v := work[k]
		idx := f.uIdx[k]
		val := f.uVal[k]
		for ki, c := range idx {
			v -= val[ki] * work[c]
		}
		work[k] = v / f.uDiag[k]
	}
	for k := 0; k < m; k++ {
		x[f.pivCol[k]] = work[k]
	}
}

func (r *refFactor) btran(x []float64) {
	f := r.f
	m := f.m
	work := r.work
	for k := 0; k < m; k++ {
		work[k] = x[f.pivCol[k]]
	}
	// Uᵀ forward (scatter) in elimination order.
	for q := 0; q < m; q++ {
		k := f.order[q]
		v := work[k] / f.uDiag[k]
		work[k] = v
		if v == 0 {
			continue
		}
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
	// Lᵀ backward (gather).
	for k := m - 1; k >= 0; k-- {
		v := work[k]
		idx := r.lIdx[k]
		val := r.lVal[k]
		for ki, tgt := range idx {
			v -= val[ki] * work[tgt]
		}
		work[k] = v
	}
	for k := 0; k < m; k++ {
		x[f.pivRow[k]] = work[k]
	}
}

// sameBits requires got to be want component by component, to the bit,
// except that a zero may carry either sign (the reference produces some
// of its zeros as 0/d). The zero patterns must agree: a component the
// reference computes nonzero that got left zero is a row the FTRAN's U
// pass skipped although one of its columns came out nonzero.
func sameBits(t *testing.T, tag string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] == 0 && want[i] == 0 {
			continue
		}
		if got[i] == 0 {
			t.Fatalf("%s: component %d is zero, reference %v: a row that can be nonzero was skipped", tag, i, want[i])
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: component %d is %v (%#x), reference %v (%#x)",
				tag, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkAgainstReference solves one right-hand side of each kind both ways
// against f's current state, the step-space solves read back by position
// or by row: a sparse column and a unit vector through ftranStep (spike,
// spikeNnz and the listed positions included), a dense vector through
// ftran and btranStep, a unit vector through btranUnitStep.
func checkAgainstReference(t *testing.T, f *luFactor, rng *rand.Rand, tag string) {
	t.Helper()
	m := f.m
	ref := newRefFactor(f)
	got, want := make([]float64, m), make([]float64, m)

	column := func(kind string, idx []int32, val []float64) {
		t.Helper()
		for i := range got {
			got[i] = rng.NormFloat64() // ftranStep ignores what x held
			want[i] = 0
		}
		for k, i := range idx {
			want[i] += val[k]
		}
		nz := ftranRows(f, idx, val, got)
		ref.ftranInto(want, true)
		sameBits(t, tag+": ftranStep("+kind+")", got, want)
		var kept []int32
		for pos, v := range got {
			if math.Abs(v) > dropTol {
				kept = append(kept, int32(pos))
			}
		}
		if !slices.Equal(nz, kept) {
			t.Fatalf("%s: ftranStep(%s) listed positions %v, want %v", tag, kind, nz, kept)
		}
		sameBits(t, tag+": spike("+kind+")", f.spike, ref.spike)
		for i := 1; i < len(f.spikeNnz); i++ {
			if f.stepPos[f.spikeNnz[i-1]] <= f.stepPos[f.spikeNnz[i]] {
				t.Fatalf("%s: spikeNnz(%s) = %v is not in reverse elimination order", tag, kind, f.spikeNnz)
			}
		}
		a := append([]int32(nil), f.spikeNnz...)
		b := append([]int32(nil), ref.spikeNnz...)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("%s: spikeNnz(%s) as a set is %v, reference %v", tag, kind, a, b)
		}
	}
	idx, val := randSparseCol(rng, m, 2.0/float64(m))
	column("sparse", idx, val)
	checkMarksClear(t, f, tag+": ftranStep(sparse)")
	unit := int32(rng.Intn(m))
	column("unit", []int32{unit}, []float64{1})
	checkMarksClear(t, f, tag+": ftranStep(unit)")

	for i := range got {
		got[i] = rng.NormFloat64()
		if rng.Intn(4) == 0 {
			got[i] = 0
		}
	}
	dense := append([]float64(nil), got...)
	copy(want, dense)
	f.ftran(got)
	ref.ftranInto(want, false)
	sameBits(t, tag+": ftran(dense)", got, want)
	checkMarksClear(t, f, tag+": ftran(dense)")

	copy(want, dense)
	btranRows(f, dense, got)
	ref.btran(want)
	sameBits(t, tag+": btranStep(dense)", got, want)

	y := make([]float64, m)
	for i := range want {
		y[i] = rng.NormFloat64() // btranUnitStep ignores what y held
		want[i] = 0
	}
	want[unit] = 1
	stepsToRows(f, f.btranUnitStep(int(unit), y), got)
	ref.btran(want)
	sameBits(t, tag+": btranUnitStep", got, want)
}

// checkMarksClear requires the FTRAN's mark array to be all-false over its
// whole capacity, as every U pass must leave it.
func checkMarksClear(t *testing.T, f *luFactor, tag string) {
	t.Helper()
	if i := slices.Index(f.mark[:cap(f.mark)], true); i >= 0 {
		t.Fatalf("%s: mark[%d] left set", tag, i)
	}
}

// checkColRows requires uColRows to list the row of every off-diagonal U
// entry under its column. The FTRAN's U pass marks the rows to gather
// through these lists, so a missing row is a wrong answer, not a wrong
// bit; stale entries are allowed.
func checkColRows(t *testing.T, f *luFactor, tag string) {
	t.Helper()
	for k := 0; k < f.m; k++ {
		for _, c := range f.uIdx[k] {
			if !slices.Contains(f.uColRows[c], int32(k)) {
				t.Fatalf("%s: U entry (%d, %d) is missing from uColRows[%d] = %v", tag, k, c, c, f.uColRows[c])
			}
		}
	}
}

// TestUColRowsComplete drives random Forrest–Tomlin update streams
// through refactorizations and checks, after every update and every
// factorize, that uColRows covers every off-diagonal entry of U.
func TestUColRowsComplete(t *testing.T) {
	for _, m := range []int{12, 60, 250} {
		rng := rand.New(rand.NewSource(int64(m) * 6151))
		colIdx, colVal := randBasisCols(rng, m, 3.0/float64(m))
		f := newLUFactor(m)
		if fr, _ := f.factorize(colIdx, colVal); fr != nil {
			t.Fatalf("m=%d: initial factorization failed", m)
		}
		checkColRows(t, f, fmt.Sprintf("m=%d fresh", m))
		w := make([]float64, m)
		refactors := 0
		for step := 0; step < 20*m && f.statUpdates < 300; step++ {
			pos := rng.Intn(m)
			nIdx, nVal := randSparseCol(rng, m, 2.0/float64(m))
			ftranRows(f, nIdx, nVal, w)
			if math.Abs(w[pos]) < 1e-4 {
				continue
			}
			colIdx[pos], colVal[pos] = nIdx, nVal
			tag := fmt.Sprintf("m=%d step=%d", m, step)
			if f.update(int32(pos), w[pos]) && !f.shouldRefactor() {
				checkColRows(t, f, tag+" updated")
				continue
			}
			if fr, _ := f.factorize(colIdx, colVal); fr != nil {
				t.Fatalf("%s: refactorization failed", tag)
			}
			refactors++
			checkColRows(t, f, tag+" refactorized")
		}
		if f.statUpdates < 100 || refactors == 0 {
			t.Fatalf("m=%d: %d updates, %d refactorizations; the stream exercised too little", m, f.statUpdates, refactors)
		}
	}
}

// TestSolvesMatchReferenceBitForBit is the kernel's arithmetic oracle:
// over random bases and long Forrest–Tomlin update streams — through
// refactorizations, and through a rejected update and the
// refactorization it forces — every solve agrees with the reference
// loops to the bit, so the zero-skipping solves make the pivots the
// sweeping ones made.
func TestSolvesMatchReferenceBitForBit(t *testing.T) {
	for _, m := range []int{12, 60, 250} {
		rng := rand.New(rand.NewSource(int64(m) * 104729))
		colIdx, colVal := randBasisCols(rng, m, 3.0/float64(m))
		f := newLUFactor(m)
		if fr, _ := f.factorize(colIdx, colVal); fr != nil {
			t.Fatalf("m=%d: initial factorization failed", m)
		}
		checkAgainstReference(t, f, rng, fmt.Sprintf("m=%d fresh", m))
		w := make([]float64, m)
		rejected := 0
		for step := 0; f.statUpdates < 220; step++ {
			pos := rng.Intn(m)
			nIdx, nVal := randSparseCol(rng, m, 2.0/float64(m))
			singular := step%40 == 39
			if singular {
				// A copy of another basis column: the update must refuse it.
				other := (pos + 1) % m
				nIdx, nVal = colIdx[other], colVal[other]
			}
			ftranRows(f, nIdx, nVal, w)
			if !singular && math.Abs(w[pos]) < 1e-4 {
				continue
			}
			tag := fmt.Sprintf("m=%d step=%d", m, step)
			if f.update(int32(pos), w[pos]) {
				if singular {
					t.Fatalf("%s: singular replacement accepted", tag)
				}
				colIdx[pos], colVal[pos] = nIdx, nVal
				if !f.shouldRefactor() {
					checkAgainstReference(t, f, rng, tag+" updated")
					continue
				}
			} else if singular {
				rejected++ // the basis keeps its old column
			} else {
				colIdx[pos], colVal[pos] = nIdx, nVal
			}
			if fr, _ := f.factorize(colIdx, colVal); fr != nil {
				t.Fatalf("%s: refactorization failed", tag)
			}
			checkAgainstReference(t, f, rng, tag+" refactorized")
		}
		if rejected == 0 {
			t.Fatalf("m=%d: no update was rejected; the stale path went untested", m)
		}
		t.Logf("m=%d: %d updates, %d rejected", m, f.statUpdates, rejected)
	}
}

// TestKernelSteadyStateAllocs: once a luFactor has been through one
// refactorization and update stream, repeating it — factorize included —
// allocates nothing: the L arena and its step list, the row-eta arenas,
// the spike index and the elimination workspace are truncated and
// refilled, never rebuilt.
func TestKernelSteadyStateAllocs(t *testing.T) {
	const m = 120
	rng := rand.New(rand.NewSource(4242))
	baseIdx, baseVal := randBasisCols(rng, m, 3.0/float64(m))
	type repl struct {
		pos int
		idx []int32
		val []float64
	}
	var stream []repl
	for len(stream) < 60 {
		idx, val := randSparseCol(rng, m, 2.0/float64(m))
		stream = append(stream, repl{rng.Intn(m), idx, val})
	}
	f := newLUFactor(m)
	colIdx, colVal := make([][]int32, m), make([][]float64, m)
	w, c, y := make([]float64, m), make([]float64, m), make([]float64, m)
	steps, nz := make([]int32, 0, m), make([]int32, 0, m)
	for i := range c {
		c[i] = float64(i%3) - 1
	}
	updates := 0
	run := func() {
		copy(colIdx, baseIdx)
		copy(colVal, baseVal)
		if fr, _ := f.factorize(colIdx, colVal); fr != nil {
			t.Fatal("factorization failed")
		}
		for _, r := range stream {
			steps = steps[:0]
			for _, i := range r.idx {
				steps = append(steps, f.rowStep[i])
			}
			nz = f.ftranStep(steps, r.val, w, nz)
			if math.Abs(w[r.pos]) < 1e-4 {
				continue
			}
			y = f.btranStep(c, y)
			y = f.btranUnitStep(r.pos, y)
			colIdx[r.pos], colVal[r.pos] = r.idx, r.val
			if !f.update(int32(r.pos), w[r.pos]) || f.shouldRefactor() {
				if fr, _ := f.factorize(colIdx, colVal); fr != nil {
					t.Fatal("refactorization failed")
				}
			}
			updates++
		}
	}
	run() // grows every retained buffer to its steady-state size
	updates = 0
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("a repeated factorize + %d-pivot stream allocates %.0f times, want 0", len(stream), allocs)
	}
	if updates == 0 {
		t.Fatal("no pivot was exercised; the fixture measures nothing")
	}
}

// BenchmarkFtranBtran times the three solves of a simplex iteration on a
// time-expanded DGX1 ALLTOALL basis (the K=10 model, 1000 rows) that has
// absorbed about fifty Forrest–Tomlin updates since its last
// refactorization: column is the entering-column FTRAN (spike saved),
// unit the pivot-row BTRAN, dense an FTRAN plus a BTRAN of a dense
// vector. column-fresh is column again once the same basis has been
// refactorized, the other end of the update file. None allocates.
func BenchmarkFtranBtran(b *testing.B) {
	p, _, _ := dgx1AllToAllLP(10)
	var sv Solver
	// The pivot path is deterministic, so a longer iteration budget
	// replays the shorter one and carries on: extend it until the factor
	// holds 45–60 updates.
	iters := 400
	for tries := 0; ; tries++ {
		if _, err := sv.Solve(p, Options{NoPresolve: true, testMethod: forcePrimal, MaxIter: iters}); err != nil {
			b.Fatal(err)
		}
		u := sv.s.lu.updates
		if u >= 45 && u <= 60 {
			break
		}
		if tries > 50 {
			b.Fatalf("no budget near %d iterations leaves 45-60 updates on the factor (%d now)", iters, u)
		}
		if u < 45 {
			iters += 45 - u
		} else {
			iters += 10
		}
	}
	s := &sv.s
	f, m := &s.lu, s.m
	enter := slices.IndexFunc(s.status[:s.n], func(st varStatus) bool { return st != basic })
	x, src := make([]float64, m), make([]float64, m)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	b.Run("column", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ftranEntering(enter)
		}
	})
	b.Run("unit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x = f.btranUnitStep(i%m, x)
		}
	})
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(x, src)
			f.ftran(x)
			x = f.btranStep(src, x)
		}
	})
	if !s.factorizeBasis() {
		b.Fatal("refactorization failed")
	}
	b.Run("column-fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.ftranEntering(enter)
		}
	})
}
