package lp

// factor_test.go exercises the Forrest–Tomlin update machinery directly:
// long random pivot sequences must leave FTRAN/BTRAN agreeing with the
// true basis matrix (the property a fresh factorization would give),
// dense spikes must trip the fill-aware refactorization trigger instead
// of ballooning the update file, and numerically singular spikes must be
// rejected without corrupting the factorization.

import (
	"math"
	"math/rand"
	"testing"
)

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

// residBtran checks Bᵀ·y = c for y = btran(c) against the raw columns.
func residBtran(t *testing.T, colIdx [][]int32, colVal [][]float64, f *luFactor, rng *rand.Rand, tag string) {
	t.Helper()
	m := f.m
	c := make([]float64, m)
	for i := range c {
		c[i] = rng.NormFloat64()
	}
	y := append([]float64(nil), c...)
	f.btran(y)
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
			for k, i := range nIdx {
				w[i] += nVal[k]
			}
			f.ftranPivot(w)
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
		for k, i := range nIdx {
			w[i] += nVal[k]
		}
		f.ftranPivot(w)
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
	w[5] = 1
	f.ftranPivot(w)
	if ok := f.update(3, w[3]); ok {
		t.Fatal("singular spike accepted")
	}
	if !f.shouldRefactor() {
		t.Fatal("rejected update must force a refactorization")
	}
}
