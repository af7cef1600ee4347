// Command benchtables regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints the rows the paper plots and,
// in its notes line, where it runs below the paper's scale.
//
// Usage:
//
//	benchtables            # run everything (slow)
//	benchtables -short     # trimmed sweeps
//	benchtables fig4and5   # one experiment
//	benchtables -json      # the rows, wall clock, allocations and metrics as JSON
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

// benchRecord is one experiment in -json mode: its identity, its wall
// clock and allocation count, the regenerated rows, and every
// Table.Metrics key under its own name.
type benchRecord struct {
	Name    string `json:"name"`
	Title   string `json:"title"`
	NsPerOp int64  `json:"ns_per_op"`
	// AllocsPerOp is the heap allocation count of the regeneration (one
	// experiment = one op), measured as the runtime's Mallocs delta.
	AllocsPerOp uint64             `json:"allocs_per_op"`
	Header      []string           `json:"header,omitempty"`
	Rows        [][]string         `json:"rows,omitempty"`
	Notes       string             `json:"notes,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
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

		if *jsonOut {
			records = append(records, benchRecord{
				Name:        tab.ID,
				Title:       tab.Title,
				NsPerOp:     elapsed.Nanoseconds(),
				AllocsPerOp: allocs,
				Header:      tab.Header,
				Rows:        tab.Rows,
				Notes:       tab.Notes,
				Metrics:     tab.Metrics,
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
}
