package experiments

// churn.go is the fault-injection scenario family: it measures what
// Planner.Replan buys when a live session absorbs churn, against the
// operational alternative of re-solving the churned world from scratch.
// Each scenario plans a steady-state collective, injects one fault —
// a link failure, a straggler (α inflation), or bandwidth degradation —
// and reports the incremental reoptimization's simplex pivots and wall
// clock next to the cold re-solve's, plus whether the replan stayed
// incremental or degraded gracefully to a cold crash-started solve.
// The CI smoke job uploads the -json rows per commit, pinning the
// headline robustness number: a single-link-down replan on the NDv2
// ALLTOALL reoptimizes in a small fraction of the cold solve's pivots.

import (
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

// churnScenario is one fault-injection point: a platform, steady-state
// solve options, and the fault to inject once the session is warm.
type churnScenario struct {
	name  string
	topo  string
	build func() *topo.Topology
	opts  core.Options
	delta func(t *topo.Topology) core.Delta
}

// removableLink returns a link whose individual loss keeps the topology
// valid (every GPU pair still mutually reachable), or -1.
func removableLink(t *topo.Topology) topo.LinkID {
	for l := 0; l < t.NumLinks(); l++ {
		probe, err := t.ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{topo.LinkID(l)}})
		if err == nil && probe.Validate() == nil {
			return topo.LinkID(l)
		}
	}
	return -1
}

// fastestLink returns the highest-capacity link (degradation target: at
// slowest-link τ its headroom keeps a mild downscale non-structural).
func fastestLink(t *topo.Topology) topo.LinkID {
	best, bestCap := topo.LinkID(0), 0.0
	for l := 0; l < t.NumLinks(); l++ {
		if c := t.Link(topo.LinkID(l)).Capacity; c > bestCap {
			best, bestCap = topo.LinkID(l), c
		}
	}
	return best
}

func churnScenarios(short bool) []churnScenario {
	linkDown := func(t *topo.Topology) core.Delta {
		return core.Delta{LinksDown: []topo.LinkID{removableLink(t)}}
	}
	// The headline NDv2 failure is deterministic: one intra-chassis
	// NVLink ring link (gpu2→gpu3 of chassis 0). Its flows reroute over
	// the quad's surviving ring and diagonal links, which is exactly the
	// local repair the incumbent basis pays few pivots for.
	nvlinkDown := func(t *topo.Topology) core.Delta {
		g := t.GPUs()
		return core.Delta{LinksDown: []topo.LinkID{t.FindLink(g[2], g[3])}}
	}
	// An IB uplink loss halves cross-chassis bandwidth: the incumbent
	// horizon becomes infeasible and the replan degrades gracefully to a
	// cold solve at a re-derived horizon.
	ibDown := func(t *topo.Topology) core.Delta {
		g, sw := t.GPUs(), t.Switches()
		return core.Delta{LinksDown: []topo.LinkID{t.FindLink(g[0], sw[0])}}
	}
	// NDv2Mini and DGX2Mini run at slowest-link τ: their fastest-link
	// horizons (tens of epochs, set by the slow cross-chassis hop) make
	// cold reference solves needlessly slow for a scoreboard, and the
	// κ=1 discretization keeps mild degradation non-structural.
	slowest := core.Options{EpochMode: core.SlowestLink, TimeLimit: solveLimit}
	fastest := core.Options{TimeLimit: solveLimit}
	scenarios := []churnScenario{
		{name: "link-down", topo: "NDv2", delta: nvlinkDown, opts: slowest,
			build: func() *topo.Topology { return topo.NDv2Mini(2) }},
		{name: "link-down", topo: "DGX1", delta: linkDown, opts: fastest,
			build: topo.DGX1},
		{name: "degradation", topo: "DGX2", opts: slowest,
			build: func() *topo.Topology { return topo.DGX2Mini(2) },
			delta: func(t *topo.Topology) core.Delta {
				return core.Delta{Scale: []topo.LinkScale{{Link: fastestLink(t), Capacity: 0.9}}}
			}},
		{name: "straggler", topo: "DGX1", opts: fastest,
			build: topo.DGX1,
			delta: func(t *topo.Topology) core.Delta {
				// A 3x α inflation changes the link's pipeline depth δ —
				// structural churn exercising the graceful cold fallback.
				return core.Delta{Scale: []topo.LinkScale{{Link: 0, Alpha: 3}}}
			}},
		{name: "degradation", topo: "NDv2", opts: slowest,
			build: func() *topo.Topology { return topo.NDv2Mini(2) },
			delta: func(t *topo.Topology) core.Delta {
				return core.Delta{Scale: []topo.LinkScale{{Link: fastestLink(t), Capacity: 0.9}}}
			}},
		// Losing an IB uplink leaves the incumbent horizon infeasible:
		// the row documents the graceful degradation path under churn
		// the incremental model cannot absorb.
		{name: "ib-uplink-down", topo: "NDv2", delta: ibDown, opts: slowest,
			build: func() *topo.Topology { return topo.NDv2Mini(2) }},
	}
	if short {
		// Keep the headline NDv2 link-down row plus one of each fault
		// kind; -short is what CI pins per commit.
		scenarios = scenarios[:4]
	}
	return scenarios
}

// Churn regenerates the fault-injection scoreboard (see the file
// comment). Row order is stable; the NDv2 link-down row leads because
// its pivot ratio is the acceptance criterion CI tracks.
func Churn(short bool) *Table {
	tab := &Table{
		ID:     "churn",
		Title:  "online replanning under churn: incremental reoptimization vs cold re-solve",
		Header: []string{"fault", "topo", "mode", "replan_pivots", "cold_iters", "pivot_ratio", "replan_wall", "cold_wall"},
		Notes: "each row: warm ALLTOALL session absorbs one fault via Planner.Replan; " +
			"cold columns re-solve the churned world from scratch (crash-started); " +
			"mode is incremental (dual-simplex reoptimization from the incumbent basis) or fallback (graceful cold re-solve)",
		Metrics: map[string]float64{},
	}

	var pivots, fallbacks, replanWall float64
	for _, sc := range churnScenarios(short) {
		t := sc.build()
		d := collective.AllToAll(t.NumNodes(), gpuInts(t), 1, 25e3)
		pl := core.NewPlanner(t, core.PlannerOptions{Defaults: sc.opts})
		if _, err := pl.Plan(Context(), core.Request{Demand: d, Solver: core.SolverLP}); err != nil {
			tab.Rows = append(tab.Rows, []string{sc.name, sc.topo, "base-failed", "X", "X", "X", "X", "X"})
			continue
		}
		delta := sc.delta(t)

		start := time.Now()
		rp, err := pl.Replan(Context(), delta)
		rpElapsed := time.Since(start)
		if err != nil {
			tab.Rows = append(tab.Rows, []string{sc.name, sc.topo, "replan-failed", "X", "X", "X", "X", "X"})
			continue
		}
		account(rp.Result, nil)

		churned, err := t.ApplyDelta(topo.Delta{
			LinksDown: delta.LinksDown, NodesDown: delta.NodesDown, Scale: delta.Scale,
		})
		if err != nil {
			tab.Rows = append(tab.Rows, []string{sc.name, sc.topo, "delta-failed", "X", "X", "X", "X", "X"})
			continue
		}
		start = time.Now()
		cold, coldErr := core.SolveLP(Context(), churned, d, sc.opts)
		coldElapsed := time.Since(start)
		account(cold, coldErr)

		mode := "incremental"
		if rp.ReplanFallback {
			mode = "fallback"
			fallbacks++
		}
		coldIters := math.Inf(1)
		ratio := "X"
		if coldErr == nil {
			coldIters = float64(cold.RootIterations)
			if coldIters > 0 {
				ratio = fmt.Sprintf("%.2f", float64(rp.RootIterations)/coldIters)
			}
		}
		pivots += float64(rp.RootIterations)
		replanWall += rpElapsed.Seconds() * 1e3
		tab.Rows = append(tab.Rows, []string{
			sc.name, sc.topo, mode,
			fmt.Sprint(rp.RootIterations), fmtIters(coldIters), ratio,
			rpElapsed.Round(time.Millisecond).String(),
			coldElapsed.Round(time.Millisecond).String(),
		})
		if sc.name == "link-down" && sc.topo == "NDv2" && coldErr == nil && coldIters > 0 {
			tab.Metrics["ndv2_linkdown_pivot_ratio"] = float64(rp.RootIterations) / coldIters
		}
	}
	tab.Metrics["replan_pivots"] = pivots
	tab.Metrics["replan_wall_ms"] = replanWall
	tab.Metrics["replan_fallbacks"] = fallbacks
	return tab
}

func fmtIters(v float64) string {
	if math.IsInf(v, 1) {
		return "X"
	}
	return fmt.Sprintf("%.0f", v)
}
