package core

// kernel_bits_test.go pins the simplex kernel's arithmetic, not only its
// pivot counts: a fixed set of LPs — a random transportation problem, the
// crash-started DGX1 fastest-link ALLTOALL, a warm dual re-solve of it
// after a right-hand-side edit, and a branch-and-bound style node
// re-solve after a bound edit — must reproduce their effort counters and
// the bit patterns of X, Duals and the final Basis exactly. A kernel edit
// that only makes solves cheaper (a permutation pass removed, a buffer
// reused) leaves every hash alone; one that reorders a sum, divides by a
// stored reciprocal or breaks a tie differently moves at least one. When
// a change moves them on purpose, re-record the goldens and say so in
// CHANGES.md.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// kernelBits is the exact outcome of one solve: its effort counters and an
// FNV-64a hash over the bit patterns of X, Duals and the Basis statuses.
type kernelBits struct {
	Iterations, Refactorizations, FTUpdates, UpdateNnz int
	Hash                                               uint64
}

func bitsOf(sol *lp.Solution) kernelBits {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	vec := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	put(uint64(sol.Status))
	vec(sol.X)
	vec(sol.Duals)
	for _, sts := range [][]lp.BasisStatus{sol.Basis.Vars, sol.Basis.Rows} {
		put(uint64(len(sts)))
		for _, st := range sts {
			put(uint64(st))
		}
	}
	return kernelBits{sol.Iterations, sol.Refactorizations, sol.FTUpdates, sol.UpdateNnz, h.Sum64()}
}

// transportLP is BenchmarkSimplexTransport's LP (bench_support_test.go in
// the root package): a 20×30 random transportation problem, seed 42.
func transportLP() *lp.Problem {
	rng := rand.New(rand.NewSource(42))
	const m, n = 20, 30
	p := lp.NewProblem(lp.Minimize)
	vars := make([][]lp.VarID, m)
	supply := make([]float64, m)
	demand := make([]float64, n)
	for j := 0; j < n; j++ {
		demand[j] = float64(1 + rng.Intn(9))
	}
	total := 0.0
	for _, v := range demand {
		total += v
	}
	for i := 0; i < m; i++ {
		supply[i] = total / m
	}
	for i := 0; i < m; i++ {
		vars[i] = make([]lp.VarID, n)
		for j := 0; j < n; j++ {
			vars[i][j] = p.AddVar("", 0, lp.Inf, float64(1+rng.Intn(20)))
		}
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, n)
		for j := 0; j < n; j++ {
			terms[j] = lp.Term{Var: vars[i][j], Coeff: 1}
		}
		p.AddRow(terms, lp.LE, supply[i])
	}
	for j := 0; j < n; j++ {
		terms := make([]lp.Term, m)
		for i := 0; i < m; i++ {
			terms[i] = lp.Term{Var: vars[i][j], Coeff: 1}
		}
		p.AddRow(terms, lp.EQ, demand[j])
	}
	return p
}

// kernelBitsSolves runs the pinned solves in order and returns their
// outcomes by name.
func kernelBitsSolves(t *testing.T) map[string]kernelBits {
	t.Helper()
	solve := func(name string, p *lp.Problem, opt lp.Options) *lp.Solution {
		t.Helper()
		sol, err := lp.Solve(p, opt)
		if err != nil || sol.Status != lp.StatusOptimal {
			t.Fatalf("%s: %v %v", name, sol.Status, err)
		}
		return sol
	}
	out := map[string]kernelBits{}
	out["transport"] = bitsOf(solve("transport", transportLP(), lp.Options{}))

	tt := topo.DGX1()
	pr := prepLP(tt, collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3), Options{})
	m := pr.m
	crash := crashBasisLP(m, pr.greedy)
	if crash == nil {
		t.Fatal("no crash basis for the DGX1 ALLTOALL LP")
	}
	cold := solve("dgx1-alltoall-crash", m.p, lp.Options{Crash: crash})
	out["dgx1-alltoall-crash"] = bitsOf(cold)

	// Warm dual re-solve: halve a saturated link-epoch (link 9, epoch 1),
	// one whose cut costs the dual simplex a score of pivots.
	r := int(m.capRow[9][1])
	if r == int(noVar) || cold.Basis.Rows[r] == lp.BasisBasic {
		t.Fatal("capacity row (9, 1) is not saturated at the optimum")
	}
	rhsEdit := m.p.Clone()
	rhsEdit.SetRHS(r, rhsEdit.RHS(r)/2)
	out["dgx1-rhs-warm-dual"] = bitsOf(solve("dgx1-rhs-warm-dual", rhsEdit,
		lp.Options{WarmStart: cold.Basis, Method: lp.MethodDual}))

	// Node re-solve: close a flow column the optimum uses (source 0,
	// link 24, epoch 0) and reoptimize from the parent's basis the way
	// branch-and-bound re-solves a child: dual simplex, no presolve.
	v := m.fvar[0][24][0]
	if v == noVar || cold.X[v] < 0.5 {
		t.Fatal("flow column (0, 24, 0) is unused at the optimum")
	}
	node := m.p.Clone()
	node.SetBounds(lp.VarID(v), 0, 0)
	out["dgx1-node-resolve"] = bitsOf(solve("dgx1-node-resolve", node,
		lp.Options{WarmStart: cold.Basis, Method: lp.MethodDual, NoPresolve: true}))
	return out
}

// TestKernelBitsPinned holds the solves to goldens recorded at the commit
// before the simplex kept its duals and pivot rows in step space, under
// GOMAXPROCS 1 and 2 (the kernel is single-threaded; a result that
// depended on scheduling would show here).
func TestKernelBitsPinned(t *testing.T) {
	want := map[string]kernelBits{
		"transport":           {179, 10, 177, 1493, 5829197159272764749},
		"dgx1-alltoall-crash": {2100, 44, 2069, 39620, 799884657422719447},
		"dgx1-rhs-warm-dual":  {20, 1, 17, 290, 7731755957150595058},
		"dgx1-node-resolve":   {69, 2, 66, 1107, 4455878445653520471},
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got := kernelBitsSolves(t)
			for name, w := range want {
				if got[name] != w {
					t.Errorf("%s: %+v, pinned %+v", name, got[name], w)
				}
			}
		})
	}
}
