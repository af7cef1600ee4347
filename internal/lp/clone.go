package lp

// clone.go provides the copy and identity primitives the concurrent
// layers build on. Solve itself never mutates a Problem (the simplex and
// presolver copy what they edit), so any number of goroutines may solve
// the SAME Problem concurrently as long as none of them mutates it
// through SetBounds/SetObj/AddVar/AddRow. Callers that do need private
// mutable bounds — branch-and-bound workers applying per-node bound
// chains — take a Clone and edit that.

import (
	"math"
	"math/bits"
	"math/rand/v2"
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
// term slices and the column keys are shared — both are write-once
// (AddRow and AppendToRow store a fresh merged slice and nothing mutates
// it afterwards; a key is set by the AddKeyedVar that creates its column)
// and capacity-clamped, so an append on either side reallocates instead of
// writing into storage the other can see — which keeps a clone O(vars +
// rows) instead of O(nonzeros) and a cloned model's identities free.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Dir:    p.Dir,
		keys:   p.keys[:len(p.keys):len(p.keys)],
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
// cache needs) and unpredictable across processes.
var fpSeed = rand.Uint64()

// fpMix folds one 64-bit word into a running hash: the two halves of the
// 128-bit product of the mixed-in state with an odd constant, folded —
// every bit of the word reaches every bit of the state in one step.
func fpMix(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, 0x9e3779b97f4a7c15)
	return hi ^ lo
}

// Fingerprint returns a hash of the problem's full content — dimensions,
// direction, bounds, objective, rows (terms, senses, right-hand sides) —
// mixed a 64-bit word at a time; floats enter as their bit patterns, so
// fingerprint equality means bit equality, negative zero and NaN
// payloads included. Keys and names are left out, like in EqualTo. Two
// problems with equal fingerprints are almost certainly structurally
// identical; confirm with EqualTo before treating them as the same model
// (the schedule-batching layer uses the pair as a presolve/solve cache
// key for sweep points that reduce to the same chunk-unit LP).
func (p *Problem) Fingerprint() uint64 {
	h := fpMix(fpSeed, uint64(p.Dir))
	h = fpMix(h, uint64(len(p.lo)))
	h = fpMix(h, uint64(len(p.rows)))
	for j := range p.lo {
		h = fpMix(h, math.Float64bits(p.lo[j]))
		h = fpMix(h, math.Float64bits(p.hi[j]))
		h = fpMix(h, math.Float64bits(p.obj[j]))
	}
	for i, row := range p.rows {
		h = fpMix(h, uint64(p.senses[i])<<32|uint64(len(row)))
		h = fpMix(h, math.Float64bits(p.rhs[i]))
		for _, t := range row {
			h = fpMix(h, uint64(t.Var))
			h = fpMix(h, math.Float64bits(t.Coeff))
		}
	}
	return h
}

// EqualTo reports whether q states bit-for-bit the same program as p:
// same direction, variable bounds and objective, and identical rows.
// Variable keys and names are ignored — they identify, they do not state.
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
