// Command bench is the repository's benchmark: four closed-loop
// workloads over the TE-CCL planner, eight end-to-end metrics per
// workload, and an outside-in per-layer trace. BENCHMARK.json at the
// repository root declares the workloads, metrics and bounds; README.md
// in this directory explains each choice.
//
//	bash bench/run.sh --workload cold_lp --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload cold_lp --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh --selfcheck 5
//	bash bench/run.sh --verify
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
)

// endToEndDef declares one end-to-end metric. bound is the share of the
// parent's median by which it may worsen before a change is rejected;
// each is at least three times the widest quartile spread NOISE.md saw
// for the metric on any workload. Times are at the reference speed
// (hostclock.go).
type endToEndDef struct {
	name, unit, better string
	bound              float64
}

var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"op_ms_geomean", "ms", "lower", 0.15},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"alloc_kb_per_op", "KB", "lower", 0.03},
	{"retained_heap_mb", "MB", "lower", 0.10},
	{"algbw_gbps_geomean", "GB/s", "higher", 0.005},
}

// runSeconds is the run length BENCHMARK.json asks the driver for.
const runSeconds = 20

// pinEnvironment makes two runs of one commit execute alike whatever
// the caller's environment says: two procs at most, the default GC
// pace (GOGC is overridden), no race detector.
func pinEnvironment() error {
	if raceEnabled {
		return fmt.Errorf("refusing to measure a -race build")
	}
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	debug.SetGCPercent(100)
	return nil
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is everything one run produced, for printing and for the
// determinism gate.
type runOutput struct {
	result  result
	records map[string]*classRecord
	exact   map[string]float64 // the per-layer counts that must repeat exactly (traced runs)
	algbw   float64
}

// runWorkload executes one workload for about the given time and
// prints its header and metric table to w.
func runWorkload(w io.Writer, name string, seed int64, seconds float64, traced bool, setups int, outDir string) (*runOutput, error) {
	r := newRunner(name, seed, traced)
	r.loadStart = loadAverage()
	setupS, err := r.setup(setups)
	if err != nil {
		return nil, err
	}
	defer r.w.teardown()

	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	r.measure(seconds)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	r.gcCycles = gc1.NumGC - gc0.NumGC

	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%v go=%s nproc=%d gomaxprocs=%d gc_percent=100\n",
		name, seed, seconds, traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "# loadavg_start=%.2f loadavg_end=%.2f ops_timed=%d ops_traced=%d setup_repeats=%d\n",
		r.loadStart, loadAverage(), len(r.samples), r.tracedOps, setups)
	if r.loadStart > float64(runtime.NumCPU()) {
		fmt.Fprintf(w, "# WARNING: 1-minute load average %.2f exceeds nproc=%d at start; this run competed for CPU and its times are inflated\n",
			r.loadStart, runtime.NumCPU())
	}
	fmt.Fprintf(w, "# op samples=%d; highest percentile with >=10 samples beyond it: p%g\n",
		len(r.samples), highestSupportedPercentile(len(r.samples))*100)

	fmt.Fprintf(w, "# host: %d readings of the reference kernel, slowdown min=%.3f p50=%.3f max=%.3f; every time below is wall clock / slowdown\n",
		len(r.host.slow), percentile(r.host.slow, 0), median(r.host.slow), percentile(r.host.slow, 1))

	out := &runOutput{records: r.rec, exact: map[string]float64{}}
	metrics := map[string]metricValue{}
	e2e := r.endToEnd(setupS)
	out.algbw = e2e["algbw_gbps_geomean"]
	if traced {
		r.tr.finish()
		values := r.perLayer()
		for _, d := range layerDefs {
			metrics[d.name] = metricValue{values[d.name], d.unit}
			mark := ""
			if d.exact {
				mark = " ="
				out.exact[d.name] = values[d.name]
			}
			fmt.Fprintf(w, "%-34s %14.6g %s%s\n", d.name, values[d.name], d.unit, mark)
		}
		path := tracePath(outDir, name)
		header := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "go": runtime.Version()}
		if err := r.tr.write(path, header); err != nil {
			return nil, fmt.Errorf("writing the span file: %w", err)
		}
		fmt.Fprintf(w, "# %d spans written to %s\n", len(r.tr.spans), path)
	} else {
		for _, d := range endToEndDefs {
			metrics[d.name] = metricValue{e2e[d.name], d.unit}
			fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, e2e[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d incorrect=%d\n", r.attempted, r.failed, r.incorrect)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	out.result = result{Correct: r.failed == 0 && r.incorrect == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}
	return out, nil
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// declaration cannot drift from what the program prints.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadWhy {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEndDefs {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range layerDefs {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	return append(raw, '\n'), err
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: cold_lp, cold_milp, churn_replan or serve_replay")
		seed         = flag.Int64("seed", 1, "input-generation seed")
		seconds      = flag.Float64("seconds", runSeconds, "how long the timed phase measures")
		trace        = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		outDir       = flag.String("out", "bench/out", "directory for the span files")
		selfcheck    = flag.Int("selfcheck", 0, "run every workload in two interleaved sets of N fresh processes and compare them")
		verify       = flag.Bool("verify", false, "run every workload's lap twice and fail on any count that does not repeat")
		writeExpect  = flag.String("write-expected", "", "with -verify: write the seed-1 record to this file")
		printJSON    = flag.Bool("print-benchmark-json", false, "print BENCHMARK.json as the program's tables define it and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	if *printJSON {
		raw, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(raw)
		return
	}
	if err := pinEnvironment(); err != nil {
		fatal(err)
	}
	switch {
	case *selfcheck > 0:
		if err := runSelfcheck(*selfcheck, *seconds); err != nil {
			fatal(err)
		}
	case *verify:
		if err := runVerify(*writeExpect, *outDir); err != nil {
			fatal(err)
		}
	default:
		if *trace != 0 && *trace != 1 {
			fatal(fmt.Errorf("-trace takes 0 or 1, not %d", *trace))
		}
		out, err := runWorkload(os.Stdout, *workloadName, *seed, *seconds, *trace == 1, setupRepeats, *outDir)
		if err != nil {
			fatal(err)
		}
		if *seed == 1 {
			printExpectedDiff(os.Stdout, *workloadName, out.records)
		}
		line, err := json.Marshal(out.result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
