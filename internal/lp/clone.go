package lp

// clone.go provides the copy and identity primitives the concurrent
// layers build on. Solve itself never mutates a Problem (the simplex and
// presolver copy what they edit), so any number of goroutines may solve
// the SAME Problem concurrently as long as none of them mutates it
// through SetBounds/SetObj/AddVar/AddRow. Callers that do need private
// mutable bounds — branch-and-bound workers applying per-node bound
// chains — take a Clone and edit that.

import (
	"hash/maphash"
	"math"
)

// Clone returns a deep copy of the basis, for callers that go on to edit
// the copy. Sharing needs none: a Basis is immutable once returned, and
// Solve never writes through Options.WarmStart or Options.Crash, so any
// number of concurrent solves may resume from the same snapshot (the
// branch-and-bound workers do). Clone of nil is nil.
func (b *Basis) Clone() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{
		Vars: append([]BasisStatus(nil), b.Vars...),
		Rows: append([]BasisStatus(nil), b.Rows...),
	}
}

// Extended returns a copy of b padded to numVars variables and numRows
// rows: appended variables enter nonbasic at their lower bound and
// appended rows enter with their slack basic, so the padded basis keeps
// the original basis matrix nonsingular — exactly the invariant a warm
// start across a column/row append (AddVar + AppendToRow + AddRow on a
// solved model) relies on. Slacks of appended equality rows start
// primal-infeasible when the new right-hand side is nonzero; the dual
// simplex (or the warm-start repair's composite phase 1) drives them
// out. Returns nil if b is nil or already larger than the target shape.
func (b *Basis) Extended(numVars, numRows int) *Basis {
	if b == nil || len(b.Vars) > numVars || len(b.Rows) > numRows {
		return nil
	}
	out := &Basis{
		Vars: make([]BasisStatus, numVars),
		Rows: make([]BasisStatus, numRows),
	}
	copy(out.Vars, b.Vars) // appended vars default to BasisAtLower (zero value)
	copy(out.Rows, b.Rows)
	for i := len(b.Rows); i < numRows; i++ {
		out.Rows[i] = BasisBasic
	}
	return out
}

// Clone returns an independent copy of the problem: bound, objective,
// sense, and right-hand-side storage is owned by the copy, so SetBounds/
// SetObj/AddVar/AddRow on either side never touch the other. The per-row
// term slices are shared — they are write-once (AddRow stores a fresh
// merged slice and nothing mutates it afterwards) — which keeps a clone
// O(vars + rows) instead of O(nonzeros).
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Dir:    p.Dir,
		names:  append([]string(nil), p.names...),
		lo:     append([]float64(nil), p.lo...),
		hi:     append([]float64(nil), p.hi...),
		obj:    append([]float64(nil), p.obj...),
		rows:   append([][]Term(nil), p.rows...),
		senses: append([]Sense(nil), p.senses...),
		rhs:    append([]float64(nil), p.rhs...),
	}
	return q
}

// fpSeed is the process-wide seed for Fingerprint, so fingerprints are
// comparable across problems within one process (which is all the batch
// cache needs).
var fpSeed = maphash.MakeSeed()

// Fingerprint returns a hash of the problem's full content — dimensions,
// direction, bounds, objective, rows (terms, senses, right-hand sides).
// Two problems with equal fingerprints are almost certainly structurally
// identical; confirm with EqualTo before treating them as the same model
// (the schedule-batching layer uses the pair as a presolve/solve cache
// key for sweep points that reduce to the same chunk-unit LP).
func (p *Problem) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fpSeed)
	writeInt := func(v int) {
		var b [8]byte
		u := uint64(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	writeF := func(v float64) {
		// Hash the bit pattern: fingerprint equality must mean bit
		// equality, including negative zero and NaN payloads.
		writeInt(int(math.Float64bits(v)))
	}
	writeInt(int(p.Dir))
	writeInt(len(p.lo))
	writeInt(len(p.rows))
	for j := range p.lo {
		writeF(p.lo[j])
		writeF(p.hi[j])
		writeF(p.obj[j])
	}
	for i, row := range p.rows {
		writeInt(int(p.senses[i]))
		writeF(p.rhs[i])
		writeInt(len(row))
		for _, t := range row {
			writeInt(int(t.Var))
			writeF(t.Coeff)
		}
	}
	return h.Sum64()
}

// EqualTo reports whether q states bit-for-bit the same program as p:
// same direction, variable bounds and objective, and identical rows.
// Variable names are ignored — they are diagnostics, not semantics.
func (p *Problem) EqualTo(q *Problem) bool {
	if p.Dir != q.Dir || len(p.lo) != len(q.lo) || len(p.rows) != len(q.rows) {
		return false
	}
	for j := range p.lo {
		if math.Float64bits(p.lo[j]) != math.Float64bits(q.lo[j]) ||
			math.Float64bits(p.hi[j]) != math.Float64bits(q.hi[j]) ||
			math.Float64bits(p.obj[j]) != math.Float64bits(q.obj[j]) {
			return false
		}
	}
	for i := range p.rows {
		if p.senses[i] != q.senses[i] || math.Float64bits(p.rhs[i]) != math.Float64bits(q.rhs[i]) {
			return false
		}
		a, b := p.rows[i], q.rows[i]
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if a[k].Var != b[k].Var || math.Float64bits(a[k].Coeff) != math.Float64bits(b[k].Coeff) {
				return false
			}
		}
	}
	return true
}
