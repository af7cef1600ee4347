package lp

// reopt_test.go pins the advanced-start rule of Solve: a complete
// WarmStart basis reoptimizes the problem as stated, so resuming from a
// solve's own basis costs a factorization and a pricing pass, and a
// single bound/RHS edit costs pivots in proportion to the edit; every
// other basis keeps the presolve path unchanged.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// dgx1AllToAllLP builds the time-expanded multi-commodity flow LP of an
// ALLTOALL on one DGX1 chassis (8 GPUs, 16 duplex NVLinks: quad rings
// carry 2 chunks per epoch, diagonals and cross-quad links 1) over K
// epochs, one commodity per source GPU, the way core's LP form states
// it: link flows f, inventories b (what remains to forward after an
// epoch's departures), time-discounted reads r, and no variable before
// the epoch its node is reachable from the source. It returns the
// capacity rows and the flow columns for perturbation tests.
func dgx1AllToAllLP(K int) (p *Problem, capRows []int, flows []VarID) {
	const nN = 8
	type link struct {
		src, dst int
		cap      float64
	}
	var links []link
	for _, d := range []struct {
		a, b int
		cap  float64
	}{
		{0, 1, 2}, {1, 3, 2}, {3, 2, 2}, {2, 0, 2}, {0, 3, 1}, {1, 2, 1},
		{4, 5, 2}, {5, 7, 2}, {7, 6, 2}, {6, 4, 2}, {4, 7, 1}, {5, 6, 1},
		{0, 4, 1}, {1, 5, 1}, {2, 6, 1}, {3, 7, 1},
	} {
		links = append(links, link{d.a, d.b, d.cap}, link{d.b, d.a, d.cap})
	}
	const none = VarID(-1)

	p = NewProblem(Maximize)
	capTerms := make([][]Term, len(links)*K)
	for s := 0; s < nN; s++ {
		// dist[n]: the first epoch n can forward the source's chunks.
		dist := make([]int, nN)
		for n := range dist {
			dist[n] = K + 1
		}
		dist[s] = 0
		for hop := 0; hop < nN; hop++ {
			for _, lk := range links {
				if dist[lk.src] == hop && dist[lk.dst] > hop+1 {
					dist[lk.dst] = hop + 1
				}
			}
		}
		f := make([][]VarID, len(links)) // [link][epoch], none where absent
		for l, lk := range links {
			f[l] = make([]VarID, K+1)
			for k := range f[l] {
				f[l][k] = none
				if lk.dst != s && k >= dist[lk.src] && k < K {
					f[l][k] = p.AddVar(fmt.Sprintf("f[s%d,l%d,k%d]", s, l, k), 0, Inf, 0)
					flows = append(flows, f[l][k])
					capTerms[l*K+k] = append(capTerms[l*K+k], Term{f[l][k], 1})
				}
			}
		}
		add := func(terms []Term, v VarID, c float64) []Term {
			if v != none {
				terms = append(terms, Term{v, c})
			}
			return terms
		}
		for n := 0; n < nN; n++ {
			b := make([]VarID, K+1)
			for k := range b {
				b[k] = none
				if k >= dist[n] {
					b[k] = p.AddVar(fmt.Sprintf("b[s%d,n%d,k%d]", s, n, k), 0, Inf, 0)
				}
			}
			first := dist[n] - 1 // the epoch the first arrival lands
			if n == s {
				// The source's inventory plus its epoch-0 sends is its supply.
				init := []Term{{b[0], 1}}
				for l, lk := range links {
					if lk.src == s {
						init = add(init, f[l][0], 1)
					}
				}
				p.AddRow(init, EQ, nN-1)
				first = 0
			}
			var reads []Term
			for k := first; k < K; k++ {
				// b_k + in(k) = b_{k+1} + r_k + out(k+1)
				cons := add(add(nil, b[k], 1), b[k+1], -1)
				for l, lk := range links {
					if lk.dst == n {
						cons = add(cons, f[l][k], 1)
					}
					if lk.src == n {
						cons = add(cons, f[l][k+1], -1)
					}
				}
				if n != s {
					r := p.AddVar(fmt.Sprintf("r[s%d,d%d,k%d]", s, n, k), 0, 1, 1/float64(k+1))
					cons = append(cons, Term{r, -1})
					reads = append(reads, Term{r, 1})
				}
				p.AddRow(cons, EQ, 0)
			}
			if n != s {
				p.AddRow(reads, EQ, 1)
			}
		}
	}
	for i, terms := range capTerms {
		capRows = append(capRows, p.AddRow(terms, LE, links[i/K].cap))
	}
	return p, capRows, flows
}

// warmCorpus is warm_test.go's instances plus the time-expanded model.
func warmCorpus() map[string]*Problem {
	c := map[string]*Problem{
		"classic":      classicLP(),
		"degenerate":   degenerateLP(),
		"upperBounded": upperBoundedLP(),
		"beale":        bealeLP(),
		"big200x150":   bigLP(rand.New(rand.NewSource(7)), 200, 150),
	}
	rng := rand.New(rand.NewSource(321))
	for i := 0; i < 8; i++ {
		c[fmt.Sprintf("randFeasible%d", i)], _ = randFeasibleLP(rng)
	}
	c["dgx1AllToAll"], _, _ = dgx1AllToAllLP(5)
	return c
}

// TestResolveFromOwnBasisIsFree: every Solution.Basis is a complete
// basis of its problem, and re-solving from it is one factorization plus
// a pricing pass — not a projection through presolve that re-runs phase 1.
func TestResolveFromOwnBasisIsFree(t *testing.T) {
	for name, p := range warmCorpus() {
		t.Run(name, func(t *testing.T) {
			cold := solveOK(t, p)
			if !cold.Basis.completeFor(p) {
				t.Fatal("the returned basis is not complete for its own problem")
			}
			warm := solveOptimal(t, p, Options{WarmStart: cold.Basis})
			if math.Abs(warm.Objective-cold.Objective) > 1e-6*(1+math.Abs(cold.Objective)) {
				t.Fatalf("warm objective %g != cold %g", warm.Objective, cold.Objective)
			}
			if warm.Iterations > 5 || warm.Refactorizations != 1 {
				t.Fatalf("re-solve from the optimal basis took %d iterations and %d refactorizations (cold %d/%d); want <= 5 and exactly 1",
					warm.Iterations, warm.Refactorizations, cold.Iterations, cold.Refactorizations)
			}
		})
	}
}

// TestDualReoptCostsInProportionToTheEdit: one RHS or bound edit on a
// solved model, reoptimized by the dual simplex from the optimal basis,
// takes at most a tenth of the cold pivots. Only the corpus members with
// enough cold pivots for a tenth to mean anything take part.
func TestDualReoptCostsInProportionToTheEdit(t *testing.T) {
	dgx, capRows, flows := dgx1AllToAllLP(5)
	big := bigLP(rand.New(rand.NewSource(7)), 200, 150)
	for _, tc := range []struct {
		name string
		p    *Problem
		edit func(p *Problem, cold *Solution)
	}{
		{"dgx1AllToAll/rhs", dgx, func(p *Problem, cold *Solution) {
			// Halve the first saturated link-epoch.
			for _, r := range capRows {
				if cold.Basis.Rows[r] != BasisBasic {
					p.SetRHS(r, p.RHS(r)/2)
					return
				}
			}
			t.Fatal("no saturated capacity row")
		}},
		{"dgx1AllToAll/bound", dgx, func(p *Problem, cold *Solution) {
			// Drop the first flow column the optimum uses.
			for _, v := range flows {
				if cold.X[v] > 0.5 {
					p.SetBounds(v, 0, 0)
					return
				}
			}
			t.Fatal("no used flow column")
		}},
		{"big200x150/rhs", big, func(p *Problem, cold *Solution) {
			for r := 0; r < p.NumRows(); r++ {
				if cold.Basis.Rows[r] != BasisBasic {
					p.SetRHS(r, 0.9*p.RHS(r))
					return
				}
			}
			t.Fatal("no binding row")
		}},
		{"big200x150/bound", big, func(p *Problem, cold *Solution) {
			for j := 0; j < p.NumVars(); j++ {
				if cold.Basis.Vars[j] == BasisBasic {
					lo, _ := p.Bounds(VarID(j))
					p.SetBounds(VarID(j), lo, cold.X[j]/2)
					return
				}
			}
			t.Fatal("no basic structural")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold := solveOK(t, tc.p)
			q := tc.p.Clone()
			tc.edit(q, cold)
			want := solveOK(t, q)
			got := solveOptimal(t, q, Options{WarmStart: cold.Basis, Method: MethodDual})
			if math.Abs(got.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
				t.Fatalf("reoptimized objective %g != cold %g", got.Objective, want.Objective)
			}
			if 10*got.Iterations > cold.Iterations {
				t.Fatalf("reoptimization took %d iterations, cold %d; want <= 10%%", got.Iterations, cold.Iterations)
			}
		})
	}
}

// TestCompleteBasisPredicate: only a dimension-matched basis with exactly
// NumRows basics reoptimizes the problem as stated; nil, mismatched,
// short and over-full bases are hints and take the presolve path with
// the iteration counts they always had.
func TestCompleteBasisPredicate(t *testing.T) {
	p, _, _ := dgx1AllToAllLP(5)
	exact := solveOK(t, p).Basis

	short := exact.Clone()
	for j, st := range short.Vars {
		if st == BasisBasic {
			short.Vars[j] = BasisAtLower
			break
		}
	}
	overFull := exact.Clone()
	for j, st := range overFull.Vars {
		if st != BasisBasic {
			overFull.Vars[j] = BasisBasic
			break
		}
	}
	nameTransfer := exact.Clone() // what core's basisHint.basisFor hands over
	for i := range nameTransfer.Rows {
		nameTransfer.Rows[i] = BasisAtLower
	}
	other := solveOK(t, classicLP()).Basis

	for _, tc := range []struct {
		name     string
		b        *Basis
		complete bool
	}{
		{"nil", nil, false},
		{"wrongDimensions", other, false},
		{"short", short, false},
		{"overFull", overFull, false},
		{"nameTransfer", nameTransfer, false},
		{"exact", exact, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.completeFor(p); got != tc.complete {
				t.Fatalf("completeFor = %v, want %v", got, tc.complete)
			}
			opt := Options{WarmStart: tc.b, Method: MethodDual}
			got := solveOptimal(t, p, opt)
			var want *Solution
			var err error
			if tc.complete {
				opt.NoPresolve = true
				want, err = Solve(p, opt)
			} else {
				want, err = new(Solver).solvePresolved(p, opt)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Iterations != want.Iterations || got.Refactorizations != want.Refactorizations ||
				math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
				t.Fatalf("Solve took %d iterations / %d refactorizations (objective %v), the expected path %d / %d (%v)",
					got.Iterations, got.Refactorizations, got.Objective,
					want.Iterations, want.Refactorizations, want.Objective)
			}
		})
	}
}
