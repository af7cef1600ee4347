// Command benchtables regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the rows the paper plots and,
// in its notes line, where it runs below the paper's scale.
//
// Usage:
//
//	benchtables            # run everything (slow)
//	benchtables -short     # trimmed sweeps
//	benchtables fig4and5   # one experiment
//	benchtables -json      # machine-readable BENCH_*.json-style output
//	benchtables -workers 4 # evaluate B&B nodes and sweep points concurrently
//	benchtables -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"teccl/internal/experiments"
)

// benchRecord is one experiment in -json mode: the benchmark identity,
// its wall clock, the solver-effort counters, and the regenerated rows.
type benchRecord struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	NsPerOp int64  `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of the regeneration (one
	// experiment = one op), measured as the runtime's Mallocs delta.
	AllocsPerOp      uint64  `json:"allocs_per_op"`
	Iterations       float64 `json:"iterations"`
	Refactorizations float64 `json:"refactorizations"`
	FTUpdates        float64 `json:"ft_updates"`
	UpdateNnz        float64 `json:"update_nnz"`
	// Replan fields are populated by the churn experiment only: the
	// incremental-reoptimization pivots, their wall clock, and how many
	// replans degraded to cold solves.
	ReplanPivots    float64 `json:"replan_pivots,omitempty"`
	ReplanWallMs    float64 `json:"replan_wall_ms,omitempty"`
	ReplanFallbacks float64 `json:"replan_fallbacks,omitempty"`
	// Serving fields are populated by the loadgen experiment only: the
	// daemon saturation benchmark's throughput and client-side latency
	// percentiles over the wire API.
	PlansPerSec float64    `json:"plans_per_sec,omitempty"`
	P50Ms       float64    `json:"p50_ms,omitempty"`
	P99Ms       float64    `json:"p99_ms,omitempty"`
	P99BudgetMs float64    `json:"p99_budget_ms,omitempty"`
	Header      []string   `json:"header,omitempty"`
	Rows        [][]string `json:"rows,omitempty"`
	Notes       string     `json:"notes,omitempty"`
	// Metrics carries every experiment-specific counter not hoisted into
	// a dedicated field above (e.g. churnstream's per-platform
	// incremental/fallback counts and max replan regret).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// hoisted are the Table.Metrics keys benchRecord promotes to dedicated
// JSON fields; everything else flows through the generic metrics map.
var hoisted = map[string]bool{
	"iterations": true, "refactorizations": true, "ft_updates": true,
	"update_nnz": true, "replan_pivots": true, "replan_wall_ms": true,
	"replan_fallbacks": true, "plans_per_sec": true, "p50_ms": true,
	"p99_ms": true, "p99_budget_ms": true,
}

func extraMetrics(m map[string]float64) map[string]float64 {
	var out map[string]float64
	for k, v := range m {
		if hoisted[k] {
			continue
		}
		if out == nil {
			out = map[string]float64{}
		}
		out[k] = v
	}
	return out
}

func main() {
	short := flag.Bool("short", false, "trim sweeps for a quick run")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of formatted tables")
	workers := flag.Int("workers", 0, "solver worker-pool size (branch-and-bound nodes and batched sweep points evaluated concurrently; 0 = serial)")
	flag.Parse()

	experiments.SetWorkers(*workers)

	// Regenerations run under a signal-aware context: Ctrl-C cancels the
	// in-flight solve (mid-simplex, mid-branch, or between A* rounds)
	// instead of killing the process with a table half-printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	experiments.SetContext(ctx)

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	var records []benchRecord
	overBudget := false
	var ms runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&ms)
		mallocs0 := ms.Mallocs
		start := time.Now()
		tab := experiments.ByID(id, *short)
		if tab == nil {
			fmt.Fprintf(os.Stderr, "benchtables: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		allocs := ms.Mallocs - mallocs0

		// The serving-latency budget is a CI gate: a p99 regression in the
		// wire path fails the whole regeneration, not just a row.
		if budget := tab.Metrics["p99_budget_ms"]; budget > 0 && tab.Metrics["p99_ms"] > budget {
			fmt.Fprintf(os.Stderr, "benchtables: %s p99 %.2fms exceeds the %.0fms budget\n",
				tab.ID, tab.Metrics["p99_ms"], budget)
			overBudget = true
		}

		if *jsonOut {
			records = append(records, benchRecord{
				Name:             tab.ID,
				Title:            tab.Title,
				NsPerOp:          elapsed.Nanoseconds(),
				AllocsPerOp:      allocs,
				Iterations:       tab.Metrics["iterations"],
				Refactorizations: tab.Metrics["refactorizations"],
				FTUpdates:        tab.Metrics["ft_updates"],
				UpdateNnz:        tab.Metrics["update_nnz"],
				ReplanPivots:     tab.Metrics["replan_pivots"],
				ReplanWallMs:     tab.Metrics["replan_wall_ms"],
				ReplanFallbacks:  tab.Metrics["replan_fallbacks"],
				PlansPerSec:      tab.Metrics["plans_per_sec"],
				P50Ms:            tab.Metrics["p50_ms"],
				P99Ms:            tab.Metrics["p99_ms"],
				P99BudgetMs:      tab.Metrics["p99_budget_ms"],
				Metrics:          extraMetrics(tab.Metrics),
				Header:           tab.Header,
				Rows:             tab.Rows,
				Notes:            tab.Notes,
			})
			continue
		}
		fmt.Println(tab.String())
		fmt.Printf("(%s regenerated in %v, %d allocs)\n\n", tab.ID, elapsed.Round(time.Millisecond), allocs)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintf(os.Stderr, "benchtables: %v\n", err)
			os.Exit(1)
		}
	}
	if overBudget {
		os.Exit(1)
	}
}
