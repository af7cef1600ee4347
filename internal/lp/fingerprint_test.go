package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestFingerprintProperties pins what the word-wise Fingerprint must keep
// of the byte-wise one it replaced: a clone fingerprints like its
// original, and any difference EqualTo sees — one bit of any bound, cost,
// right-hand side or coefficient, a sense, a term's variable, the
// direction, the sign of a zero, the payload of a NaN, where one row ends
// and the next begins — changes it.
func TestFingerprintProperties(t *testing.T) {
	// Two programs whose rows spell the same word sequence — sense, rhs,
	// (var, coeff)... — cut at different places: LE 2 | x0·3 || LE 4 and
	// LE 2 || LE 3 | x0·4. Only the row lengths tell them apart.
	cut := func(first, second []Term, rhs2 float64) *Problem {
		return &Problem{lo: []float64{0}, hi: []float64{1}, obj: []float64{1},
			rows: [][]Term{first, second}, senses: []Sense{LE, LE}, rhs: []float64{2, rhs2}}
	}
	a, b := cut([]Term{{Var: 0, Coeff: 3}}, nil, 4), cut(nil, []Term{{Var: 0, Coeff: 4}}, 3)
	if a.EqualTo(b) || a.Fingerprint() == b.Fingerprint() {
		t.Fatal("a row boundary: equal fingerprints")
	}

	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		p, _ := randFeasibleLP(rng)
		if q := p.Clone(); q.Fingerprint() != p.Fingerprint() || !q.EqualTo(p) {
			t.Fatalf("trial %d: a clone fingerprints differently", trial)
		}
		// variant is p with one edit applied to a fully private copy (a
		// clone shares its rows).
		variant := func(edit func(q *Problem)) *Problem {
			q := p.Clone()
			for i, row := range q.rows {
				q.rows[i] = append([]Term(nil), row...)
			}
			edit(q)
			return q
		}
		differ := func(what string, a, b *Problem) {
			t.Helper()
			if a.EqualTo(b) {
				t.Fatalf("trial %d: %s: EqualTo sees no difference", trial, what)
			}
			if a.Fingerprint() == b.Fingerprint() {
				t.Fatalf("trial %d: %s: equal fingerprints", trial, what)
			}
		}

		j, i := rng.Intn(p.NumVars()), rng.Intn(p.NumRows())
		for len(p.rows[i]) == 0 {
			i = rng.Intn(p.NumRows())
		}
		k := rng.Intn(len(p.rows[i]))
		for bit := 0; bit < 64; bit++ {
			flip := func(f *float64) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1<<bit) }
			differ("one bit of a lower bound", p, variant(func(q *Problem) { flip(&q.lo[j]) }))
			differ("one bit of an upper bound", p, variant(func(q *Problem) { flip(&q.hi[j]) }))
			differ("one bit of a cost", p, variant(func(q *Problem) { flip(&q.obj[j]) }))
			differ("one bit of a right-hand side", p, variant(func(q *Problem) { flip(&q.rhs[i]) }))
			differ("one bit of a coefficient", p, variant(func(q *Problem) { flip(&q.rows[i][k].Coeff) }))
		}
		differ("a sense", p, variant(func(q *Problem) { q.senses[i] = (q.senses[i] + 1) % 3 }))
		differ("a term's variable", p, variant(func(q *Problem) { q.rows[i][k].Var++ }))
		differ("the direction", p, variant(func(q *Problem) { q.Dir = Minimize }))
		differ("the sign of a zero",
			variant(func(q *Problem) { q.rhs[i] = 0 }),
			variant(func(q *Problem) { q.rhs[i] = math.Copysign(0, -1) }))
		differ("the payload of a NaN",
			variant(func(q *Problem) { q.obj[j] = math.Float64frombits(0x7ff8000000000001) }),
			variant(func(q *Problem) { q.obj[j] = math.Float64frombits(0x7ff8000000000002) }))
	}
}
