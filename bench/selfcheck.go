package main

// selfcheck.go holds the benchmark's checks on itself: -selfcheck asks
// whether two sets of runs of the same code agree within the declared
// bounds, and -verify asks whether every count, quality number and
// finish epoch repeats exactly.

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
)

// expectedSeed1 is the committed record of what seed 1 did: per class
// pivots, nodes, windows, rounds, outcomes and finish epochs.
//
//go:embed expected/seed1.json
var expectedSeed1 []byte

type expectedDoc map[string]map[string]*classRecord

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printExpectedDiff compares a seed-1 run with the committed record.
// Effort counts may legitimately change with the solver and are listed
// for information; a changed finish epoch is a changed answer.
func printExpectedDiff(w io.Writer, workload string, got map[string]*classRecord) {
	var doc expectedDoc
	if err := json.Unmarshal(expectedSeed1, &doc); err != nil {
		fmt.Fprintf(w, "# expected/seed1.json is unreadable: %v\n", err)
		return
	}
	want := doc[workload]
	if want == nil {
		fmt.Fprintf(w, "# expected/seed1.json has no record of %s\n", workload)
		return
	}
	diffs := 0
	for _, class := range sortedKeys(want) {
		a, b := want[class], got[class]
		if b == nil {
			fmt.Fprintf(w, "# expected: class %s did not run\n", class)
			diffs++
			continue
		}
		if !reflect.DeepEqual(a.FinishEpochs, b.FinishEpochs) {
			fmt.Fprintf(w, "# expected: *** FINISH EPOCH CHANGED *** %s: %v -> %v\n",
				class, a.FinishEpochs, b.FinishEpochs)
			diffs++
		}
		if a.Pivots != b.Pivots || a.Nodes != b.Nodes || a.Windows != b.Windows || a.Rounds != b.Rounds ||
			!reflect.DeepEqual(a.Outcomes, b.Outcomes) {
			fmt.Fprintf(w, "# expected (informational): %s pivots %d->%d nodes %d->%d windows %d->%d rounds %d->%d outcomes %v->%v\n",
				class, a.Pivots, b.Pivots, a.Nodes, b.Nodes, a.Windows, b.Windows, a.Rounds, b.Rounds, a.Outcomes, b.Outcomes)
			diffs++
		}
	}
	if diffs == 0 {
		fmt.Fprintf(w, "# expected: all %d classes match expected/seed1.json\n", len(want))
	}
}

// runVerify is the determinism gate: each workload's operation list is
// executed twice in this process, traced, and every count marked "=",
// the quality number and every per-class record must be identical.
func runVerify(writePath, outDir string) error {
	doc := expectedDoc{}
	bad := 0
	for _, wl := range workloadWhy {
		var runs [2]*runOutput
		for i := range runs {
			out, err := runWorkload(io.Discard, wl.name, 1, 0, true, 1, outDir)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.name, err)
			}
			if !out.result.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", wl.name, out.result.Failed, out.result.Attempted)
			}
			runs[i] = out
		}
		a, b := runs[0], runs[1]
		mismatches := 0
		for _, name := range sortedKeys(a.exact) {
			if a.exact[name] != b.exact[name] {
				fmt.Printf("MISMATCH %s %s: %v vs %v\n", wl.name, name, a.exact[name], b.exact[name])
				mismatches++
			}
		}
		if a.algbw != b.algbw {
			fmt.Printf("MISMATCH %s algbw_gbps_geomean: %v vs %v\n", wl.name, a.algbw, b.algbw)
			mismatches++
		}
		for _, class := range sortedKeys(a.records) {
			if !reflect.DeepEqual(a.records[class], b.records[class]) {
				fmt.Printf("MISMATCH %s class %s: %+v vs %+v\n", wl.name, class, *a.records[class], b.records[class])
				mismatches++
			}
		}
		fmt.Printf("verify %-13s %d exact counts, %d classes, algbw_gbps_geomean=%v: %d mismatches\n",
			wl.name, len(a.exact), len(a.records), a.algbw, mismatches)
		printExpectedDiff(os.Stdout, wl.name, a.records)
		doc[wl.name] = a.records
		bad += mismatches
	}
	if writePath != "" {
		raw, err := json.MarshalIndent(doc, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(writePath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", writePath)
	}
	if bad > 0 {
		return fmt.Errorf("%d values did not repeat", bad)
	}
	return nil
}

// childRun runs one workload in a fresh process of this binary and
// parses its last output line.
func childRun(exe, workload string, seed int, seconds float64) (*result, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return ratio(q3-q1, q2)
}

// runSelfcheck runs every workload in two interleaved sets of n fresh
// processes, each run on a seed of its own, and prints per metric the
// two set medians, how far they disagree, the quartile spread inside
// each set and over all 2n runs, and the declared bound. It fails when
// two sets of the same code disagree by more than half a bound, or when
// the spread over all runs (set-up time aside) exceeds the bound or a
// tenth of the median: such a metric cannot carry the bound it declares.
// A spread above a third of the bound is marked, not failed.
func runSelfcheck(n int, seconds float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Printf("selfcheck: 2 sets x %d runs x %g s per workload, seeds 1..%d interleaved (A odd, B even)\n\n", n, seconds, 2*n)
	fmt.Println("| workload | metric | median A | median B | disagreement | IQR/median A | IQR/median B | IQR/median all | min..max | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, wl := range workloadWhy {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				res, err := childRun(exe, wl.name, 2*i+set+1, seconds)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		for _, d := range endToEndDefs {
			a, b := sets[0][d.name], sets[1][d.name]
			_, medA, _ := quartiles(a)
			_, medB, _ := quartiles(b)
			disagree := ratio(math.Abs(medA-medB), medA)
			all := append(append([]float64(nil), a...), b...)
			lo, hi := percentile(all, 0), percentile(all, 1)
			verdict := "ok"
			if disagree > d.bound/2 {
				verdict = "FAIL: sets disagree by more than half the bound"
				bad++
			} else if d.name != "setup_s" && spread(all) > math.Min(d.bound, 0.10) {
				verdict = "FAIL: spread above the bound or 10%"
				bad++
			} else if d.name != "setup_s" && spread(all) > d.bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %.2f%% | %.2f%% | %.2f%% | %.2f%% | %.6g..%.6g | %.1f%% | %s |\n",
				wl.name, d.name, medA, medB, disagree*100, spread(a)*100, spread(b)*100, spread(all)*100,
				lo, hi, d.bound*100, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs cannot carry their bound", bad)
	}
	fmt.Println("\nselfcheck: every metric agrees between the two sets within half its bound and spreads less than its bound and 10%")
	return nil
}
