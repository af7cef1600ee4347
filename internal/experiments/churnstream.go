package experiments

// churnstream.go is the long-lived churn-stream scenario family: where
// churn.go injects ONE fault into a warm session, churnstream drives an
// adversarial 100-delta sequence through a single session and measures
// how the replanning layer holds up over time — the fraction of deltas
// absorbed incrementally, fallbacks by kind (structural / budget /
// sour), pivots-per-replan drift between the stream's halves, and
// regret: the most expensive single replan relative to the measured
// cold-solve cost of the same churned problem (a fallback pays its
// incremental attempt on top of the cold solve, so it lands a little
// above 1), next to the median of the same ratio — what a typical delta
// costs.
//
// The delta script rotates six adversarial kinds, per the degradation
// ladder: κ-preserving capacity degradation (×0.8) and restoration
// (×1.25) on the fastest link, demand pair drops and their AddDemand
// re-adds (exercising the incremental column-append path), permanent
// link failures, and a structural straggler whose α inflation changes δ
// (forced cold fallback), later recovered. CI pins the NDv2 rows per
// commit; the full run adds DGX1 and DGX2 minis.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
)

// streamScenario is one churn-stream platform configuration.
type streamScenario struct {
	name    string
	build   func() *topo.Topology
	opts    core.Options
	slowest bool // EpochMode: τ derived from the slowest vs fastest link
}

const streamDeltas = 100

func streamScenarios(short bool) []streamScenario {
	slowest := core.Options{EpochMode: core.SlowestLink, TimeLimit: solveLimit}
	fastest := core.Options{TimeLimit: solveLimit}
	scenarios := []streamScenario{
		{name: "NDv2", slowest: true, opts: slowest,
			build: func() *topo.Topology { return topo.NDv2Mini(2) }},
	}
	if !short {
		scenarios = append(scenarios,
			streamScenario{name: "DGX1", opts: fastest, build: topo.DGX1},
			streamScenario{name: "DGX2", slowest: true, opts: slowest,
				build: func() *topo.Topology { return topo.DGX2Mini(2) }},
		)
	}
	return scenarios
}

// droppedPair remembers a dropped demand pair's chunks so a later
// AddDemand delta can resurrect exactly that demand.
type droppedPair struct {
	src, dst int
	chunks   []int
}

// streamTau mirrors the session's epoch derivation closely enough to
// aim the structural straggler: the α inflation targets 3τ, which
// changes the link's pipeline depth δ no matter how small α started.
func streamTau(t *topo.Topology, chunkBytes float64, slowest bool) float64 {
	best := 0.0
	for l := 0; l < t.NumLinks(); l++ {
		if t.LinkDown(topo.LinkID(l)) {
			continue
		}
		c := t.Link(topo.LinkID(l)).Capacity
		if best == 0 || (slowest && c < best) || (!slowest && c > best) {
			best = c
		}
	}
	if best == 0 {
		return 1
	}
	return chunkBytes / best
}

// median returns the middle value of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// ChurnStream regenerates the churn-stream resilience scoreboard (see
// the file comment). One row per platform; metrics carry the headline
// acceptance numbers: fallbacks strictly below the always-fallback
// baseline (= deltas), and the median regret.
func ChurnStream(short bool) *Table {
	tab := &Table{
		ID:    "churnstream",
		Title: "churn-stream resilience: 100 adversarial deltas through one session",
		Header: []string{"topo", "deltas", "incremental", "fallbacks",
			"fb_structural", "fb_budget", "fb_sour",
			"pivots_per_replan", "pivot_drift", "max_regret"},
		Notes: "each row: one warm ALLTOALL session absorbs a scripted adversarial delta stream " +
			"(degrade x0.8 / restore x1.25 / drop-pair / re-add via AddDemand / permanent link-down / structural straggler); " +
			"incremental = deltas absorbed by warm reoptimization; pivot_drift compares mean incremental pivots " +
			"between the stream's halves; max_regret is the most expensive single replan relative to a " +
			"from-scratch cold plan of the same churned problem (a fallback pays its incremental attempt " +
			"on top of the cold solve)",
		Metrics: map[string]float64{},
	}

	const chunkBytes = 25e3
	for _, sc := range streamScenarios(short) {
		t := sc.build()
		d := collective.AllToAll(t.NumNodes(), gpuInts(t), 1, chunkBytes)
		pl := core.NewPlanner(t, core.PlannerOptions{Defaults: sc.opts})
		if _, err := pl.Plan(Context(), core.Request{Demand: d, Solver: core.SolverLP}); err != nil {
			tab.Rows = append(tab.Rows, []string{sc.name, "base-failed", "X", "X", "X", "X", "X", "X", "X", "X"})
			continue
		}

		world := t.Clone()
		demand := d.Clone()
		degradeLink := fastestLink(world)
		stragglerLink := topo.LinkID(1)
		tau := streamTau(world, chunkBytes, sc.slowest)
		stragglerUp := true
		gpus := gpuInts(world)
		var pending []droppedPair
		nextPair := 0

		applied, failed := 0, 0
		maxRegret := 0.0
		var regrets []float64 // replan wall / cold wall, one per delta
		midPivots, midIncrementals := 0, 0
		for i := 0; i < streamDeltas; i++ {
			var delta core.Delta
			switch i % 6 {
			case 0: // κ-preserving degradation
				delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 0.8}}
			case 1: // exact restoration
				delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 1.25}}
			case 2: // drop a rotating demand pair
				src := gpus[nextPair%len(gpus)]
				dst := gpus[(nextPair+1)%len(gpus)]
				nextPair++
				chunks := demand.DestWantsFromSource(src, dst)
				if len(chunks) == 0 {
					delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 1}}
					break
				}
				delta.DropPairs = []core.DemandPair{{Src: src, Dst: dst}}
				pending = append(pending, droppedPair{src: src, dst: dst, chunks: chunks})
			case 3: // resurrect the oldest dropped pair via AddDemand
				if len(pending) == 0 {
					delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 1}}
					break
				}
				p := pending[0]
				pending = pending[1:]
				add := collective.New(demand.NumNodes(), demand.NumChunks(), demand.ChunkBytes)
				for _, c := range p.chunks {
					add.Set(p.src, c, p.dst)
				}
				delta.AddDemand = add
			case 4: // permanent link failure (keep the world connected)
				if l := removableLink(world); l >= 0 {
					delta.LinksDown = []topo.LinkID{l}
				} else {
					delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 0.8}}
				}
			case 5: // structural straggler: α jumps past 3τ, then recovers
				alpha := world.Link(stragglerLink).Alpha
				if alpha <= 0 {
					delta.Scale = []topo.LinkScale{{Link: degradeLink, Capacity: 1.25}}
					break
				}
				factor := 3 * tau / alpha
				if !stragglerUp {
					factor = 1 / factor
				}
				if factor == 1 || math.IsInf(factor, 0) {
					factor = 3
				}
				stragglerUp = !stragglerUp
				delta.Scale = []topo.LinkScale{{Link: stragglerLink, Alpha: factor}}
			}

			rStart := time.Now()
			rp, err := pl.Replan(Context(), delta)
			wall := time.Since(rStart).Seconds()
			if err != nil {
				failed++
				continue
			}
			applied++
			account(rp.Result, nil)

			// Mirror the churn for delta-script bookkeeping.
			world, err = world.ApplyDelta(topo.Delta{
				LinksDown: delta.LinksDown, Scale: delta.Scale,
			})
			if err != nil {
				failed++
				continue
			}
			for _, pr := range delta.DropPairs {
				demand.DropPair(pr.Src, pr.Dst)
			}
			if delta.AddDemand != nil {
				demand.Or(delta.AddDemand)
			}

			// Measure the regret denominator directly: a from-scratch cold
			// plan of the same churned problem through the same pipeline
			// (fresh session, horizon re-derivation included) — what the
			// operator would pay by discarding the session entirely.
			// Incremental replans land well below 1; a fallback a little
			// above it — its incremental attempt stacked on the
			// unavoidable cold re-solve.
			cold := core.NewPlanner(world, core.PlannerOptions{Defaults: sc.opts})
			cStart := time.Now()
			if _, err := cold.Plan(Context(), core.Request{Demand: demand, Solver: core.SolverLP}); err == nil {
				if cs := time.Since(cStart).Seconds(); cs > 0 {
					r := wall / cs
					regrets = append(regrets, r)
					if r > maxRegret {
						maxRegret = r
					}
				}
			}
			if i == streamDeltas/2 {
				st := pl.Stats()
				midPivots = st.ReplanPivots
				midIncrementals = st.Replans - st.ReplanFallbacks
			}
		}

		st := pl.Stats()
		incremental := st.Replans - st.ReplanFallbacks
		pivotsPer := 0.0
		if incremental > 0 {
			pivotsPer = float64(st.ReplanPivots) / float64(incremental)
		}
		drift := 1.0
		if h2 := incremental - midIncrementals; h2 > 0 && midIncrementals > 0 {
			firstHalf := float64(midPivots) / float64(midIncrementals)
			secondHalf := float64(st.ReplanPivots-midPivots) / float64(h2)
			drift = (secondHalf + 1) / (firstHalf + 1)
		}

		tab.Rows = append(tab.Rows, []string{
			sc.name,
			fmt.Sprint(applied),
			fmt.Sprint(incremental),
			fmt.Sprint(st.ReplanFallbacks),
			fmt.Sprint(st.ReplanFallbackStructural),
			fmt.Sprint(st.ReplanFallbackBudget),
			fmt.Sprint(st.ReplanFallbackSour),
			fmt.Sprintf("%.0f", pivotsPer),
			fmt.Sprintf("%.2f", drift),
			fmt.Sprintf("%.2f", maxRegret),
		})

		key := func(s string) string { return sc.name + "_" + s }
		tab.Metrics[key("deltas")] = float64(applied)
		tab.Metrics[key("incremental")] = float64(incremental)
		tab.Metrics[key("fallbacks")] = float64(st.ReplanFallbacks)
		tab.Metrics[key("max_regret")] = maxRegret
		medRegret := median(regrets)
		tab.Metrics[key("median_regret")] = medRegret
		tab.Metrics[key("pivot_drift")] = drift
		if sc.name == "NDv2" {
			// Headline acceptance numbers: incrementals must exist (the
			// stream beats always-fallback) and regret stays bounded.
			tab.Metrics["ndv2_fallback_rate"] = float64(st.ReplanFallbacks) / math.Max(1, float64(applied))
			tab.Metrics["ndv2_max_regret"] = maxRegret
			tab.Metrics["ndv2_median_regret"] = medRegret
		}
		if failed > 0 {
			tab.Metrics[key("replan_errors")] = float64(failed)
		}
	}
	return tab
}
