// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) at laptop scale. Each experiment returns a Table whose
// rows mirror the series the paper plots. Where an experiment runs below
// the paper's scale — the mini topologies of internal/topo, trimmed
// sweeps, the early-stop gap — its Table.Notes and the comment at the
// substitution say so: the shapes (who wins, by what factor, where the
// crossovers fall) are the reproduction target, not the absolute numbers
// from the authors' 80-core Gurobi testbed.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"teccl/internal/baseline"
	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/schedule"
	"teccl/internal/sim"
	"teccl/internal/topo"
)

// Table is one regenerated paper artifact.
type Table struct {
	ID     string // e.g. "fig4", "table3"
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
	// Metrics carries solver-effort counters accumulated while the
	// experiment ran (simplex iterations, basis refactorizations), for
	// machine-readable bench output; best-effort — only solves routed
	// through the run helper are counted.
	Metrics map[string]float64
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// gpuInts lists a topology's GPUs as ints.
func gpuInts(t *topo.Topology) []int {
	var out []int
	for _, g := range t.GPUs() {
		out = append(out, int(g))
	}
	return out
}

// solveCounters accumulates solver-effort counters while an experiment
// regenerates; ByID snapshots them into the returned Table.Metrics.
// Atomics keep concurrent solves race-free, though concurrent ByID calls
// would still interleave their counts (experiments run serially today).
var solveCounters struct{ iters, refactors, ftUpdates, updateNnz atomic.Int64 }

// workersKnob is the harness-wide solver concurrency setting: the worker
// count experiments pass into core.Options.Workers (branch-and-bound
// node evaluation) and BatchSolveLP fan-outs. Zero means serial.
var workersKnob atomic.Int32

// SetWorkers sets the harness worker-pool size (cmd/benchtables
// -workers); 0 restores serial solves.
func SetWorkers(n int) { workersKnob.Store(int32(n)) }

// Workers reports the configured harness worker count.
func Workers() int { return int(workersKnob.Load()) }

// harnessCtx is the context every solve in the harness runs under
// (cmd/benchtables installs a signal-aware one, so Ctrl-C cancels a
// regeneration mid-simplex instead of killing the process). The
// interface is boxed in ctxHolder so atomic.Value sees one concrete
// type regardless of which context implementation callers pass.
var harnessCtx atomic.Value // of ctxHolder

type ctxHolder struct{ ctx context.Context }

// SetContext installs the harness-wide solve context; nil restores
// context.Background().
func SetContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	harnessCtx.Store(ctxHolder{ctx})
}

// Context reports the harness-wide solve context.
func Context() context.Context {
	if v := harnessCtx.Load(); v != nil {
		return v.(ctxHolder).ctx
	}
	return context.Background()
}

// newSession opens a Planner session for one experiment's topology, so
// the experiment's sweep points share cached epoch estimates, tau
// derivations, and warm bases across solves.
func newSession(t *topo.Topology) *core.Planner {
	return core.NewPlanner(t, core.PlannerOptions{})
}

// planVia solves one demand through a session under the harness context
// with a forced formulation, returning the plain Result the run/account
// bookkeeping consumes.
func planVia(pl *core.Planner, d *collective.Demand, opt core.Options, s core.Solver) (*core.Result, error) {
	plan, err := pl.Plan(Context(), core.Request{Demand: d, Options: &opt, Solver: s})
	if plan == nil {
		return nil, err
	}
	return plan.Result, err
}

// run solves and simulates, returning (transferTime, solveTime). A failed
// solve returns +Inf transfer time.
func run(solve func() (*core.Result, error)) (float64, time.Duration) {
	res, err := solve()
	return account(res, err)
}

// account folds one solve into the harness bookkeeping and simulates
// its schedule; shared by run and the batched sweep paths.
func account(res *core.Result, err error) (float64, time.Duration) {
	if err != nil {
		return math.Inf(1), 0
	}
	solveCounters.iters.Add(int64(res.RootIterations + res.NodeIterations))
	solveCounters.refactors.Add(int64(res.Refactorizations))
	solveCounters.ftUpdates.Add(int64(res.FTUpdates))
	solveCounters.updateNnz.Add(int64(res.UpdateNnz))
	r, err := sim.Run(res.Schedule)
	if err != nil {
		return math.Inf(1), res.SolveTime
	}
	return r.FinishTime, res.SolveTime
}

func us(sec float64) string {
	if math.IsInf(sec, 1) {
		return "X"
	}
	return fmt.Sprintf("%.2f", sec*1e6)
}

func pct(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "X"
	}
	return fmt.Sprintf("%+.1f%%", v)
}

func gbps(bytesPerSec float64) string {
	if bytesPerSec <= 0 || math.IsInf(bytesPerSec, 0) {
		return "X"
	}
	return fmt.Sprintf("%.3f", bytesPerSec/1e9)
}

func sizeLabel(bytes float64) string {
	switch {
	case bytes >= 1e9:
		return fmt.Sprintf("%.0fGB", bytes/1e9)
	case bytes >= 1e6:
		return fmt.Sprintf("%.0fMB", bytes/1e6)
	case bytes >= 1e3:
		return fmt.Sprintf("%.0fKB", bytes/1e3)
	default:
		return fmt.Sprintf("%.0fB", bytes)
	}
}

// algoBW computes output-buffer / transfer-time for a demand.
func algoBW(d *collective.Demand, transfer float64) float64 {
	if transfer <= 0 || math.IsInf(transfer, 1) {
		return 0
	}
	return d.MaxOutputBufferBytes() / transfer
}

// tacclRun solves with the TACCL-like baseline and simulates.
func tacclRun(t *topo.Topology, d *collective.Demand, seed int64, restarts int) (float64, time.Duration) {
	r := baseline.SolveTACCL(t, d, baseline.TACCLOptions{Seed: seed, Restarts: restarts})
	if !r.Feasible {
		return math.Inf(1), r.SolveTime
	}
	res, err := sim.Run(r.Schedule)
	if err != nil {
		return math.Inf(1), r.SolveTime
	}
	return res.FinishTime, r.SolveTime
}

// validateOrInf simulates a schedule, returning +Inf on any failure.
func validateOrInf(s *schedule.Schedule) float64 {
	if s == nil {
		return math.Inf(1)
	}
	r, err := sim.Run(s)
	if err != nil {
		return math.Inf(1)
	}
	return r.FinishTime
}

// All runs every experiment (in paper order) and returns the tables.
// short trims sweeps for quick runs.
func All(short bool) []*Table {
	return []*Table{
		Fig2(short),
		Table3(short),
		Fig4and5(short),
		Fig6(short),
		Table4(short),
		Fig7(short),
		Fig8(short),
		Fig9(short),
		AStarVsOpt(short),
		Table7(short),
		Table8(short),
		Churn(short),
		ChurnStream(short),
		Horizon(short),
	}
}

// ByID returns the experiment with the given ID, or nil. The returned
// table's Metrics snapshot the solver-effort counters of the run.
func ByID(id string, short bool) *Table {
	solveCounters.iters.Store(0)
	solveCounters.refactors.Store(0)
	solveCounters.ftUpdates.Store(0)
	solveCounters.updateNnz.Store(0)
	tab := byID(id, short)
	if tab != nil {
		// Merge rather than assign: experiments may pre-populate Metrics
		// with their own counters (e.g. churn's replan pivots).
		if tab.Metrics == nil {
			tab.Metrics = map[string]float64{}
		}
		tab.Metrics["iterations"] = float64(solveCounters.iters.Load())
		tab.Metrics["refactorizations"] = float64(solveCounters.refactors.Load())
		tab.Metrics["ft_updates"] = float64(solveCounters.ftUpdates.Load())
		tab.Metrics["update_nnz"] = float64(solveCounters.updateNnz.Load())
	}
	return tab
}

func byID(id string, short bool) *Table {
	switch strings.ToLower(id) {
	case "fig2":
		return Fig2(short)
	case "table3":
		return Table3(short)
	case "fig4", "fig5", "fig4and5":
		return Fig4and5(short)
	case "fig6":
		return Fig6(short)
	case "table4":
		return Table4(short)
	case "fig7":
		return Fig7(short)
	case "fig8":
		return Fig8(short)
	case "fig9":
		return Fig9(short)
	case "astar":
		return AStarVsOpt(short)
	case "table7":
		return Table7(short)
	case "table8":
		return Table8(short)
	case "churn":
		return Churn(short)
	case "churnstream":
		return ChurnStream(short)
	case "horizon":
		return Horizon(short)
	}
	return nil
}

// IDs lists the available experiment identifiers.
func IDs() []string {
	return []string{"fig2", "table3", "fig4and5", "fig6", "table4",
		"fig7", "fig8", "fig9", "astar", "table7", "table8", "churn",
		"churnstream", "horizon"}
}
