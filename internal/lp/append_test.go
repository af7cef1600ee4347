package lp

// Tests for the warm column-append API: AppendToRow's merge semantics
// (including the write-once contract clones rely on), Basis.Extended's
// padding rules, and the end-to-end property the replanning layer
// depends on — appending columns/rows to a solved model and resuming
// from the padded basis reaches the same optimum as building the grown
// model from scratch.

import (
	"math"
	"math/rand"
	"testing"
)

func TestAppendToRowMergesAndPreservesClones(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	y := p.AddVar("y", 0, 10, 1)
	r := p.AddRow([]Term{{x, 2}, {y, 1}}, LE, 8)

	// Clones share row term slices write-once; an append on the original
	// must not be visible through the clone.
	c := p.Clone()

	// Empty append is a no-op.
	p.AppendToRow(r, nil)
	if got := len(p.rows[r]); got != 2 {
		t.Fatalf("empty append changed row: %d terms", got)
	}

	z := p.AddVar("z", 0, 10, 1)
	p.AppendToRow(r, []Term{{z, 3}, {x, 1}}) // new column + merge with existing
	row := p.rows[r]
	want := map[VarID]float64{x: 3, y: 1, z: 3}
	if len(row) != len(want) {
		t.Fatalf("merged row has %d terms, want %d", len(row), len(want))
	}
	for _, tm := range row {
		if want[tm.Var] != tm.Coeff {
			t.Fatalf("term %v coeff %g, want %g", tm.Var, tm.Coeff, want[tm.Var])
		}
	}
	if len(c.rows[r]) != 2 {
		t.Fatalf("append mutated a clone's shared row: %d terms", len(c.rows[r]))
	}

	// A zero-sum merge drops the term entirely.
	p.AppendToRow(r, []Term{{y, -1}})
	for _, tm := range p.rows[r] {
		if tm.Var == y {
			t.Fatalf("cancelled term survived with coeff %g", tm.Coeff)
		}
	}
}

func TestBasisExtendedPadding(t *testing.T) {
	b := &Basis{
		Vars: []BasisStatus{BasisBasic, BasisAtUpper},
		Rows: []BasisStatus{BasisAtLower},
	}
	ext := b.Extended(4, 3)
	if ext == nil {
		t.Fatal("valid extension returned nil")
	}
	if ext.Vars[0] != BasisBasic || ext.Vars[1] != BasisAtUpper {
		t.Fatal("existing variable statuses not preserved")
	}
	if ext.Vars[2] != BasisAtLower || ext.Vars[3] != BasisAtLower {
		t.Fatal("appended variables must enter nonbasic at lower bound")
	}
	if ext.Rows[0] != BasisAtLower {
		t.Fatal("existing row status not preserved")
	}
	if ext.Rows[1] != BasisBasic || ext.Rows[2] != BasisBasic {
		t.Fatal("appended rows must enter slack-basic")
	}
	// Same shape is a legal (pure copy) extension.
	if same := b.Extended(2, 1); same == nil {
		t.Fatal("same-shape extension returned nil")
	}
	// Shrinking or a nil receiver is not.
	if b.Extended(1, 1) != nil || b.Extended(2, 0) != nil {
		t.Fatal("shrinking extension must return nil")
	}
	var nb *Basis
	if nb.Extended(3, 3) != nil {
		t.Fatal("nil basis extension must return nil")
	}
}

// TestAppendThenWarmSolveMatchesFresh is the end-to-end contract of the
// append API: solve, append a column wired into an existing row plus a
// new row, pad the basis, re-solve warm — the optimum must match a
// from-scratch build of the grown model, cheaply.
func TestAppendThenWarmSolveMatchesFresh(t *testing.T) {
	build := func() (*Problem, VarID, VarID, int) {
		p := NewProblem(Maximize)
		x := p.AddVar("x", 0, 10, 3)
		y := p.AddVar("y", 0, 10, 2)
		r0 := p.AddRow([]Term{{x, 1}, {y, 1}}, LE, 12)
		p.AddRow([]Term{{x, 2}, {y, 1}}, LE, 16)
		return p, x, y, r0
	}

	p, x, y, r0 := build()
	sol, err := Solve(p, Options{})
	if err != nil || sol.Status != StatusOptimal {
		t.Fatalf("base solve: %v / %v", err, sol.Status)
	}

	// Grow: a new column z in the shared resource row plus its own row.
	z := p.AddVar("z", 0, 10, 4)
	p.AppendToRow(r0, []Term{{z, 1}})
	p.AddRow([]Term{{z, 1}, {x, 1}}, LE, 9)

	ext := sol.Basis.Extended(p.NumVars(), p.NumRows())
	if ext == nil {
		t.Fatal("basis extension failed")
	}
	warm, err := Solve(p, Options{WarmStart: ext})
	if err != nil || warm.Status != StatusOptimal {
		t.Fatalf("warm grown solve: %v / %v", err, warm.Status)
	}

	fresh := NewProblem(Maximize)
	fx := fresh.AddVar("x", 0, 10, 3)
	fy := fresh.AddVar("y", 0, 10, 2)
	fz := fresh.AddVar("z", 0, 10, 4)
	fresh.AddRow([]Term{{fx, 1}, {fy, 1}, {fz, 1}}, LE, 12)
	fresh.AddRow([]Term{{fx, 2}, {fy, 1}}, LE, 16)
	fresh.AddRow([]Term{{fz, 1}, {fx, 1}}, LE, 9)
	ref, err := Solve(fresh, Options{})
	if err != nil || ref.Status != StatusOptimal {
		t.Fatalf("fresh grown solve: %v / %v", err, ref.Status)
	}
	if math.Abs(warm.Objective-ref.Objective) > 1e-7*(1+math.Abs(ref.Objective)) {
		t.Fatalf("warm grown objective %g != fresh %g", warm.Objective, ref.Objective)
	}
	_ = x
	_ = y
}

// TestAppendWarmProperty: randomized grown models — append several
// columns and rows (including EQ rows whose slack starts infeasible) to
// a solved random LP and check the padded-basis warm solve agrees with
// a cold solve of the grown model.
func TestAppendWarmProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		p := NewProblem(Maximize)
		nV := 3 + rng.Intn(4)
		for v := 0; v < nV; v++ {
			p.AddVar("", 0, 5+10*rng.Float64(), rng.Float64()*4)
		}
		nR := 2 + rng.Intn(3)
		for r := 0; r < nR; r++ {
			var terms []Term
			for v := 0; v < nV; v++ {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{VarID(v), 0.5 + rng.Float64()})
				}
			}
			if len(terms) == 0 {
				terms = []Term{{VarID(rng.Intn(nV)), 1}}
			}
			p.AddRow(terms, LE, 2+8*rng.Float64())
		}
		base, err := Solve(p, Options{})
		if err != nil || base.Status != StatusOptimal {
			t.Fatalf("trial %d: base solve %v / %v", trial, err, base.Status)
		}

		// Grow: new columns wired into existing rows, a fresh LE row over
		// a mix of old and new columns, and an EQ row pinning one new
		// column away from zero (its padded slack starts infeasible).
		nAdd := 1 + rng.Intn(2)
		var added []VarID
		for a := 0; a < nAdd; a++ {
			v := p.AddVar("", 0, 5+5*rng.Float64(), 1+4*rng.Float64())
			added = append(added, v)
			p.AppendToRow(rng.Intn(nR), []Term{{v, 0.5 + rng.Float64()}})
		}
		newRow := []Term{{added[0], 1}, {VarID(rng.Intn(nV)), 0.5 + rng.Float64()}}
		p.AddRow(newRow, LE, 1+6*rng.Float64())
		if rng.Intn(2) == 0 {
			p.AddRow([]Term{{added[len(added)-1], 1}}, EQ, 0.5+rng.Float64())
		}

		ext := base.Basis.Extended(p.NumVars(), p.NumRows())
		if ext == nil {
			t.Fatalf("trial %d: basis extension failed", trial)
		}
		warm, err := Solve(p, Options{WarmStart: ext})
		if err != nil || warm.Status != StatusOptimal {
			t.Fatalf("trial %d: warm grown solve %v / %v", trial, err, warm.Status)
		}
		cold, err := Solve(p, Options{})
		if err != nil || cold.Status != StatusOptimal {
			t.Fatalf("trial %d: cold grown solve %v / %v", trial, err, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
			t.Fatalf("trial %d: warm grown objective %g != cold %g", trial, warm.Objective, cold.Objective)
		}
	}
}
