// Command churnstream demonstrates long-lived replanning under a churn
// stream: one Planner session absorbs a sequence of topology and demand
// deltas — capacity wobble, a permanent link failure, structural growth
// (a new node joining mid-stream), and demand churn via AddDemand — and
// reports, per delta, whether the session reoptimized its incumbent
// basis incrementally or degraded to a cold crash-started solve. See the "Replanning under churn" section of the
// package docs for the degradation ladder this walks.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"teccl"
)

func main() {
	t := teccl.NDv2Mini(2)
	planner := teccl.NewPlanner(t, teccl.PlannerOptions{
		Defaults: teccl.Options{EpochMode: teccl.SlowestLink},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Steady state: a sparse custom exchange — every GPU ships chunk 0 to
	// its ring neighbor — leaving chunk 1 free for demand churn later.
	gpus := t.GPUs()
	base := teccl.NewDemand(t, 2, 25e3)
	for i := range gpus {
		base.Set(int(gpus[i]), 0, int(gpus[(i+1)%len(gpus)]))
	}
	plan, err := planner.Plan(ctx, teccl.Request{Demand: base})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steady state: %v, finish %.2f us, %d simplex iterations\n",
		plan.Solver, plan.Schedule.FinishTime()*1e6, plan.RootIterations)

	fast := t.FindLink(gpus[0], gpus[1])
	spare := t.Link(fast)

	// AddDemand appends fresh traffic to the incumbent: gpu0 additionally
	// ships its second chunk to gpu5. The new columns are priced into the
	// live LP and the padded basis is reoptimized — no rebuild.
	extra := teccl.NewDemand(t, 2, 25e3)
	extra.Set(int(gpus[0]), 1, int(gpus[5]))

	stream := []struct {
		name  string
		delta teccl.Delta
	}{
		{"degrade fastest link to 80%",
			teccl.Delta{Scale: []teccl.LinkScale{{Link: fast, Capacity: 0.8}}}},
		{"restore it",
			teccl.Delta{Scale: []teccl.LinkScale{{Link: fast, Capacity: 1.25}}}},
		{"append demand gpu0 -> gpu5 (chunk 1)",
			teccl.Delta{AddDemand: extra}},
		{"permanent NVLink failure",
			teccl.Delta{LinksDown: []teccl.LinkID{t.FindLink(gpus[2], gpus[3])}}},
		{"node joins with two links (structural growth)",
			teccl.Delta{
				AddNodes: []teccl.Node{{Name: "joiner"}},
				AddLinks: []teccl.Link{
					{Src: teccl.NodeID(t.NumNodes()), Dst: gpus[0], Capacity: spare.Capacity, Alpha: spare.Alpha},
					{Src: gpus[0], Dst: teccl.NodeID(t.NumNodes()), Capacity: spare.Capacity, Alpha: spare.Alpha},
				}}},
		{"degrade fastest link again",
			teccl.Delta{Scale: []teccl.LinkScale{{Link: fast, Capacity: 0.8}}}},
	}

	for _, step := range stream {
		rp, err := planner.Replan(ctx, step.delta)
		if err != nil {
			log.Fatalf("%s: %v", step.name, err)
		}
		mode := "incremental"
		if rp.ReplanFallback {
			mode = "cold fallback"
		}
		fmt.Printf("%-45s %-13s %5d pivots, finish %.2f us\n",
			step.name, mode, rp.RootIterations, rp.Schedule.FinishTime()*1e6)
	}

	st := planner.Stats()
	fmt.Printf("\nsession: %d replans — %d incremental pivots, %d resumes, %d fallbacks "+
		"(%d structural, %d budget, %d sour)\n",
		st.Replans, st.ReplanPivots, st.ReplanResumes, st.ReplanFallbacks,
		st.ReplanFallbackStructural, st.ReplanFallbackBudget, st.ReplanFallbackSour)
}
