package milp

// Concurrency coverage for the worker-pool branch and bound: the
// deterministic-mode property (any Workers count returns bit-identical
// results), opportunistic-mode optimality, and -race stress tests that
// hammer Solve from many goroutines — including over one shared Problem,
// which the clone-based node evaluation must keep read-only.

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"teccl/internal/lp"
)

// corpusProblem builds one instance of the MILP regression corpus:
// even seeds draw a correlated 0/1 knapsack (weak LP bounds, deep
// trees), odd seeds an assignment system with equality rows (phase-1
// pressure under branching). Both families are the ones the serial
// regression tests cross-check against brute force.
func corpusProblem(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(lp.Maximize)
	var ints []lp.VarID
	if seed%2 == 0 {
		n := 10 + rng.Intn(10)
		var terms []lp.Term
		var total float64
		for i := 0; i < n; i++ {
			w := float64(1 + rng.Intn(10))
			// Correlated values make the LP relaxation tight and the
			// tree deep — and produce frequent equal-objective ties,
			// exactly what the deterministic tie-break must survive.
			v := w + float64(rng.Intn(3))
			terms = append(terms, lp.Term{Var: p.AddVar("", 0, 1, v), Coeff: w})
			ints = append(ints, terms[len(terms)-1].Var)
			total += w
		}
		p.AddRow(terms, lp.LE, math.Floor(total/2))
		return &Problem{LP: p, Integer: ints}
	}
	n := 3 + rng.Intn(3)
	vars := make([][]lp.VarID, n)
	for i := 0; i < n; i++ {
		vars[i] = make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			vars[i][j] = p.AddVar("", 0, 1, float64(rng.Intn(12)))
			ints = append(ints, vars[i][j])
		}
	}
	for i := 0; i < n; i++ {
		var rowT, colT []lp.Term
		for j := 0; j < n; j++ {
			rowT = append(rowT, lp.Term{Var: vars[i][j], Coeff: 1})
			colT = append(colT, lp.Term{Var: vars[j][i], Coeff: 1})
		}
		p.AddRow(rowT, lp.EQ, 1)
		p.AddRow(colT, lp.EQ, 1)
	}
	return &Problem{LP: p, Integer: ints}
}

// effort totals the counters that describe the tree a search explored
// and the pivot paths its node re-solves took. Serial and deterministic
// searches repeat them exactly, so the tests below pin them to the values
// recorded before workers kept one lp.Solver each (PR 13's commit): a
// retained solve context may only move the allocator, never a pivot.
type effort struct{ nodes, nodeIters, refactors int }

func (e *effort) add(s *Solution) {
	e.nodes += s.Nodes
	e.nodeIters += s.NodeIterations
	e.refactors += s.Refactorizations
}

func (e effort) check(t *testing.T, what string, want effort) {
	t.Helper()
	if e != want {
		t.Errorf("%s: nodes/node iterations/refactorizations %+v, recorded %+v", what, e, want)
	}
}

// TestWorkersDeterministic is the reproducibility property: in
// deterministic mode, Workers=1 and Workers=8 must return bit-identical
// objectives and points across the corpus.
func TestWorkersDeterministic(t *testing.T) {
	var ea, eb effort
	for seed := int64(0); seed < 40; seed++ {
		prob := corpusProblem(seed)
		a := Solve(prob, Options{Workers: 1, Deterministic: true})
		b := Solve(prob, Options{Workers: 8, Deterministic: true})
		ea.add(a)
		eb.add(b)
		if a.Status != b.Status {
			t.Fatalf("seed %d: status %v (W=1) vs %v (W=8)", seed, a.Status, b.Status)
		}
		if a.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v, want optimal", seed, a.Status)
		}
		if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
			t.Fatalf("seed %d: objective %v (W=1) vs %v (W=8) not bit-identical",
				seed, a.Objective, b.Objective)
		}
		if len(a.X) != len(b.X) {
			t.Fatalf("seed %d: point lengths differ", seed)
		}
		for j := range a.X {
			if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
				t.Fatalf("seed %d: x[%d] = %v (W=1) vs %v (W=8)", seed, j, a.X[j], b.X[j])
			}
		}
	}
	ea.check(t, "Workers=1", effort{1272, 5130, 1354})
	eb.check(t, "Workers=8", effort{1302, 5254, 1384})
}

// TestDeterministicMatchesSerialObjective checks that deterministic mode
// (exact pruning, tie-broken incumbents) still lands on the same optimal
// value as the classic serial search.
func TestDeterministicMatchesSerialObjective(t *testing.T) {
	var es, ed effort
	for seed := int64(0); seed < 20; seed++ {
		prob := corpusProblem(seed)
		serial := Solve(prob, Options{})
		det := Solve(prob, Options{Workers: 4, Deterministic: true})
		es.add(serial)
		ed.add(det)
		if serial.Status != StatusOptimal || det.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v / %v", seed, serial.Status, det.Status)
		}
		if math.Abs(serial.Objective-det.Objective) > 1e-9 {
			t.Fatalf("seed %d: serial %v vs deterministic %v", seed, serial.Objective, det.Objective)
		}
	}
	es.check(t, "serial", effort{361, 1442, 392})
	ed.check(t, "deterministic", effort{786, 3166, 821})
}

// TestOpportunisticOptimal checks the throughput mode proves the same
// optimum as the serial search on the corpus.
func TestOpportunisticOptimal(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		prob := corpusProblem(seed)
		serial := Solve(prob, Options{})
		opp := Solve(prob, Options{Workers: 4})
		if serial.Status != StatusOptimal || opp.Status != StatusOptimal {
			t.Fatalf("seed %d: status %v / %v", seed, serial.Status, opp.Status)
		}
		if math.Abs(serial.Objective-opp.Objective) > 1e-6 {
			t.Fatalf("seed %d: serial %v vs opportunistic %v", seed, serial.Objective, opp.Objective)
		}
	}
}

// TestSolveConcurrentStress hammers Solve from many goroutines on
// independent problems, each itself running an opportunistic pool of up
// to four workers — every one with its own clone and lp.Solver, resuming
// from parent bases shared across the pool — so the race detector sees
// nested concurrency and would see a solve context or a basis written
// from two goroutines.
func TestSolveConcurrentStress(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for seed := int64(g * 10); seed < int64(g*10+6); seed++ {
				prob := corpusProblem(seed)
				want := Solve(prob, Options{})
				got := Solve(prob, Options{Workers: 1 + int(seed%4)})
				if got.Status != StatusOptimal || math.Abs(got.Objective-want.Objective) > 1e-6 {
					t.Errorf("goroutine %d seed %d: %v obj %v, want optimal %v",
						g, seed, got.Status, got.Objective, want.Objective)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSolveSharedProblemRace solves ONE shared Problem from many
// goroutines concurrently. Node bound changes land on private clones, so
// the shared problem must stay bit-for-bit untouched throughout.
func TestSolveSharedProblemRace(t *testing.T) {
	prob := corpusProblem(2)
	want := Solve(prob, Options{})
	if want.Status != StatusOptimal {
		t.Fatalf("status %v", want.Status)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got := Solve(prob, Options{Workers: 1 + g%3, Deterministic: g%2 == 0})
			if got.Status != StatusOptimal || math.Abs(got.Objective-want.Objective) > 1e-6 {
				t.Errorf("goroutine %d: %v obj %v, want %v", g, got.Status, got.Objective, want.Objective)
			}
		}(g)
	}
	wg.Wait()
	for _, v := range prob.Integer {
		lo, hi := prob.LP.Bounds(v)
		if lo != 0 || hi != 1 {
			t.Fatalf("shared problem bounds mutated: var %d [%g, %g]", v, lo, hi)
		}
	}
}

// benchProblem builds a branch-and-bound-heavy instance whose node LPs
// are substantial enough for parallel evaluation to pay: a correlated
// multi-knapsack over shared capacity rows.
func benchProblem(rows, vars int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem(lp.Maximize)
	ints := make([]lp.VarID, vars)
	weights := make([][]float64, rows)
	for r := range weights {
		weights[r] = make([]float64, vars)
	}
	for j := 0; j < vars; j++ {
		var wsum float64
		for r := 0; r < rows; r++ {
			w := 1 + rng.Float64()*9
			weights[r][j] = w
			wsum += w
		}
		ints[j] = p.AddVar("", 0, 1, wsum/float64(rows)+rng.Float64())
	}
	for r := 0; r < rows; r++ {
		terms := make([]lp.Term, vars)
		var total float64
		for j := 0; j < vars; j++ {
			terms[j] = lp.Term{Var: ints[j], Coeff: weights[r][j]}
			total += weights[r][j]
		}
		p.AddRow(terms, lp.LE, total*0.4)
	}
	return &Problem{LP: p, Integer: ints}
}

// BenchmarkMILPWorkers measures branch-and-bound node-evaluation
// throughput at growing worker counts: the same correlated multi-
// knapsack explored to a fixed node budget (its full tree is huge, so a
// budget keeps the denominator identical across worker counts). On a
// multi-core host the 4-worker run should finish the budget well over
// 1.5x faster than the serial one; on a single-core host it doubles as
// an overhead check (the pool should cost roughly nothing).
func BenchmarkMILPWorkers(b *testing.B) {
	const nodeBudget = 2000
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			var nodes, iters int
			for i := 0; i < b.N; i++ {
				sol := Solve(benchProblem(16, 50, 5), Options{Workers: w, MaxNodes: nodeBudget})
				nodes += sol.Nodes
				iters += sol.NodeIterations
			}
			b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
		})
	}
}

// clones totals the problem clones the Solver's workers have made.
func (ms *Solver) clones() (n int) {
	for _, w := range ms.workers {
		n += w.clones
	}
	return n
}

// TestWorkersCloneOnFirstNode: a worker clones the problem when a round
// first hands it a node, not when the search starts — eight workers on a
// tree that is the root alone make one clone, and none when the root
// relaxation already ends the search.
func TestWorkersCloneOnFirstNode(t *testing.T) {
	opt := Options{Workers: 8, Deterministic: true}
	// max x, 2x <= 6, x integer: the root relaxation is integral.
	p := lp.NewProblem(lp.Maximize)
	x := p.AddVar("x", 0, lp.Inf, 1)
	p.AddRow([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 6)
	var ms Solver
	if sol := ms.Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, opt); sol.Status != StatusOptimal || sol.Nodes != 1 {
		t.Fatalf("status %v after %d nodes, want optimal at the root", sol.Status, sol.Nodes)
	}
	if n := ms.clones(); n > 1 {
		t.Fatalf("a search of one node cloned the problem %d times, want at most 1", n)
	}

	// An infeasible root ends the search before any node is evaluated.
	p.AddRow([]lp.Term{{Var: x, Coeff: 1}}, lp.GE, 4)
	ms = Solver{}
	if sol := ms.Solve(&Problem{LP: p, Integer: []lp.VarID{x}}, opt); sol.Status != StatusInfeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if n := ms.clones(); n != 0 {
		t.Fatalf("a search that ended at the root relaxation cloned the problem %d times", n)
	}

	// A deep tree fills every slot, once each however many rounds follow.
	ms = Solver{}
	if sol := ms.Solve(corpusProblem(0), opt); sol.Nodes < 16 {
		t.Fatalf("only %d nodes; the fixture measures nothing", sol.Nodes)
	}
	if n := ms.clones(); n < 2 || n > 8 {
		t.Fatalf("eight workers over a deep tree made %d clones, want 2..8", n)
	}
}

// TestResultsOutliveWorkspace: one Solver taken through the corpus —
// knapsacks and assignment systems of different sizes, serial and with
// deterministic rounds of four — returns on every model what a fresh
// Solve returns, to the bit and the pivot, and no Solution it returned
// earlier (X, RootBasis) changes while it solves the later ones.
func TestResultsOutliveWorkspace(t *testing.T) {
	var ms Solver
	type kept struct {
		sol   *Solution
		x     []float64
		basis *lp.Basis
	}
	var keep []kept
	for seed := int64(0); seed < 16; seed++ {
		prob := corpusProblem(seed)
		opt := Options{Workers: 1 + 3*int(seed/2%2), Deterministic: true}
		got, want := ms.Solve(prob, opt), Solve(prob, opt)
		if got.Status != want.Status || got.Nodes != want.Nodes ||
			got.RootIterations != want.RootIterations || got.NodeIterations != want.NodeIterations ||
			got.Refactorizations != want.Refactorizations || got.FTUpdates != want.FTUpdates || got.UpdateNnz != want.UpdateNnz ||
			math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || math.Float64bits(got.Bound) != math.Float64bits(want.Bound) {
			t.Fatalf("seed %d: workspace %+v, fresh %+v", seed, got, want)
		}
		sameX := func(what string, a, b []float64) {
			if len(a) != len(b) {
				t.Fatalf("seed %d: %s: %d entries vs %d", seed, what, len(a), len(b))
			}
			for j := range a {
				if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
					t.Fatalf("seed %d: %s: x[%d] = %v vs %v", seed, what, j, a[j], b[j])
				}
			}
		}
		sameX("workspace vs fresh", got.X, want.X)
		for _, k := range keep {
			sameX("an earlier solve's X, re-read", k.sol.X, k.x)
			if !slices.Equal(k.sol.RootBasis.Vars, k.basis.Vars) || !slices.Equal(k.sol.RootBasis.Rows, k.basis.Rows) {
				t.Fatalf("seed %d: an earlier solve's RootBasis changed", seed)
			}
		}
		keep = append(keep, kept{got, slices.Clone(got.X), got.RootBasis.Clone()})
	}
}
