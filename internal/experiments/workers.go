package experiments

// workers.go is the concurrency scoreboard: it records, per commit (the
// CI smoke job uploads benchtables -json output as an artifact), what
// the worker-pool branch and bound and the batched sweep solver buy over
// their serial counterparts. Two workloads are measured:
//
//   - bb-multiknapsack: a correlated multi-knapsack explored to a fixed
//     node budget at growing worker counts. The TE-CCL MILPs in this
//     corpus mostly solve at the root (the greedy incumbent plus the
//     paper's 30% gap leave nothing to branch on), so the scoreboard
//     uses an instance with a real tree; wall clock per fixed budget is
//     the node-evaluation throughput.
//   - sweep-rebuilt / sweep-batched: the Fig 5-style ALLTOALL size sweep
//     solved by rebuilding every point versus one BatchSolveLP call
//     (structure reuse + basis chaining + worker fan-out).
//
// On a single-core host the bb rows degenerate to an overhead check
// (ratios ~1.0x); the sweep-batched row wins regardless of core count
// because model replay and basis chaining save work, not just time.

import (
	"fmt"
	"math/rand"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/topo"
)

// scoreKnapsack builds the branch-and-bound-heavy instance of the
// scoreboard: a correlated multi-knapsack over shared capacity rows
// (mirrors internal/milp's BenchmarkMILPWorkers).
func scoreKnapsack(rows, vars int, seed int64) *milp.Problem {
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
	return &milp.Problem{LP: p, Integer: ints}
}

// WorkersSweep regenerates the concurrency scoreboard (see the file
// comment). Row order is stable: bb rows by worker count, then the
// rebuilt sweep, then the batched sweep.
func WorkersSweep(short bool) *Table {
	tab := &Table{
		ID:     "workers",
		Title:  "solver concurrency: parallel branch-and-bound and batched sweeps",
		Header: []string{"benchmark", "workers", "time", "nodes", "reused", "vs_serial"},
		Notes:  "bb rows: fixed-budget (by nodes) multi-knapsack, wall clock = node throughput; sweep rows: alpha-free DGX1 ALLTOALL size sweep, batched vs rebuilt",
	}

	workerCounts := []int{1, 2, 4, 8}
	nodeBudget := 1200
	if short {
		workerCounts = []int{1, 4}
		nodeBudget = 600
	}
	var serialBB time.Duration
	for _, w := range workerCounts {
		start := time.Now()
		sol := milp.Solve(scoreKnapsack(16, 50, 5), milp.Options{Workers: w, MaxNodes: nodeBudget})
		elapsed := time.Since(start)
		solveCounters.iters.Add(int64(sol.RootIterations + sol.NodeIterations))
		solveCounters.refactors.Add(int64(sol.Refactorizations))
		solveCounters.ftUpdates.Add(int64(sol.FTUpdates))
		solveCounters.updateNnz.Add(int64(sol.UpdateNnz))
		if w == workerCounts[0] {
			serialBB = elapsed
		}
		tab.Rows = append(tab.Rows, []string{
			"bb-multiknapsack", fmt.Sprint(w),
			elapsed.Round(time.Millisecond).String(), fmt.Sprint(sol.Nodes), "-",
			speedup(serialBB, elapsed),
		})
	}

	// Power-of-two size steps keep the chunk-unit ratios bit-exact in
	// floating point, so every point of the alpha-free sweep reduces to
	// one LP and replays from the first solve.
	t := topo.ZeroAlpha(topo.DGX1())
	gpus := gpuInts(t)
	sizes := []float64{64e3, 256e3, 1024e3, 4096e3, 16384e3}
	if short {
		sizes = []float64{64e3, 1024e3, 16384e3}
	}
	demands := make([]*collective.Demand, len(sizes))
	for i, size := range sizes {
		demands[i] = collective.AllToAll(t.NumNodes(), gpus, 1, size/float64(len(gpus)))
	}
	opt := core.Options{EpochMode: core.FastestLink, TimeLimit: solveLimit}

	start := time.Now()
	for _, d := range demands {
		res, err := core.SolveLP(Context(), t, d, opt)
		account(res, err)
	}
	rebuilt := time.Since(start)
	tab.Rows = append(tab.Rows, []string{
		"sweep-rebuilt", "1", rebuilt.Round(time.Millisecond).String(),
		"-", "0", speedup(rebuilt, rebuilt),
	})

	start = time.Now()
	rs, errs := core.BatchSolveLP(Context(), t, demands, opt, core.BatchOptions{Workers: maxInt(1, Workers())})
	batched := time.Since(start)
	reused := 0
	for i := range rs {
		account(rs[i], errs[i])
		if errs[i] == nil && rs[i].Reused {
			reused++
		}
	}
	tab.Rows = append(tab.Rows, []string{
		"sweep-batched", fmt.Sprint(maxInt(1, Workers())),
		batched.Round(time.Millisecond).String(),
		"-", fmt.Sprint(reused), speedup(rebuilt, batched),
	})

	// The same sweep through one Planner session (the serving-shaped
	// request stream): structurally identical points replay, the rest
	// warm-start from session bases. "reused" counts replays + warm hits.
	session := newSession(t)
	start = time.Now()
	for _, d := range demands {
		res, err := planVia(session, d, opt, core.SolverLP)
		account(res, err)
	}
	viaPlanner := time.Since(start)
	st := session.Stats()
	tab.Rows = append(tab.Rows, []string{
		"sweep-planner", "1", viaPlanner.Round(time.Millisecond).String(),
		"-", fmt.Sprint(st.ScheduleReplays + st.WarmStartHits), speedup(rebuilt, viaPlanner),
	})
	return tab
}

// speedup renders base/other as a ratio string.
func speedup(base, other time.Duration) string {
	if other <= 0 {
		return "X"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(other))
}
