package teccl

// The paired-run records a change commits at the repository root
// (BENCH_*.json, written by `make pair RECORD=<file>`): every row of a
// record must follow from the runs it keeps, under BENCHMARK.json's
// metrics, directions and bounds.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// benchRecord is the file scripts/pair.sh --record writes.
type benchRecord struct {
	ParentCommit string      `json:"parent_commit"`
	ChangeCommit string      `json:"change_commit"`
	Pairs        int         `json:"pairs"`
	Runs         []recordRun `json:"runs"`
	Rows         []recordRow `json:"rows"`
}

type recordRun struct {
	Workload     string `json:"workload"`
	Pair         int    `json:"pair"`
	Side         string `json:"side"`
	First        string `json:"first"`
	ParentCommit string `json:"parent_commit"`
	ChangeCommit string `json:"change_commit"`
	StatBefore   string `json:"stat_before"`
	StatAfter    string `json:"stat_after"`
	Summary      struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"summary"`
}

type recordQuartiles struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

type recordRow struct {
	Workload string          `json:"workload"`
	Metric   string          `json:"metric"`
	Parent   recordQuartiles `json:"parent"`
	Change   recordQuartiles `json:"change"`
	Delta    float64         `json:"delta"`
	Wins     int             `json:"wins"`
	Ties     int             `json:"ties"`
	Pairs    int             `json:"pairs"`
	Bound    float64         `json:"bound"`
	Verdict  string          `json:"verdict"`
}

// recordQuantile is pair.sh's quantile of sorted xs: linear
// interpolation between the two order statistics around q·(n−1).
func recordQuantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// TestBenchRecords recomputes every summary row of every BENCH_*.json at
// the repository root from the runs it keeps: each side's median and
// quartiles, the relative Δ of the medians, the pairs the change won
// (strictly better in BENCHMARK.json's direction) and tied, the bound and
// the verdict (OUTSIDE when the change's median is worse than the
// parent's by more than the bound). Every pair must hold one run per side
// started by the side pair.sh alternates to, both naming the record's
// commits and carrying their /proc/stat readings, and every end-to-end
// metric of every workload recorded must have its row.
func TestBenchRecords(t *testing.T) {
	var spec struct {
		EndToEnd []struct {
			Name   string  `json:"name"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		t.Run(file, func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var rec benchRecord
			if err := json.Unmarshal(raw, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.Pairs < 1 || rec.ParentCommit == "" || rec.ChangeCommit == "" {
				t.Fatalf("a record of %d pairs between %q and %q", rec.Pairs, rec.ParentCommit, rec.ChangeCommit)
			}
			// runs[workload][side][pair-1]
			runs := map[string]map[string][]*recordRun{}
			for i := range rec.Runs {
				r := &rec.Runs[i]
				if r.ParentCommit != rec.ParentCommit || r.ChangeCommit != rec.ChangeCommit || r.StatBefore == "" || r.StatAfter == "" {
					t.Errorf("%s pair %d %s: commits %q/%q or /proc/stat readings differ from the record's", r.Workload, r.Pair, r.Side, r.ParentCommit, r.ChangeCommit)
				}
				if r.Pair < 1 || r.Pair > rec.Pairs || r.Side != "parent" && r.Side != "change" {
					t.Fatalf("%s: a run of pair %d on side %q", r.Workload, r.Pair, r.Side)
				}
				if want := map[bool]string{true: "parent", false: "change"}[r.Pair%2 == 1]; r.First != want {
					t.Errorf("%s pair %d: started by %s, want %s", r.Workload, r.Pair, r.First, want)
				}
				if runs[r.Workload] == nil {
					runs[r.Workload] = map[string][]*recordRun{"parent": make([]*recordRun, rec.Pairs), "change": make([]*recordRun, rec.Pairs)}
				}
				if runs[r.Workload][r.Side][r.Pair-1] != nil {
					t.Fatalf("%s pair %d: two %s runs", r.Workload, r.Pair, r.Side)
				}
				runs[r.Workload][r.Side][r.Pair-1] = r
			}
			rows := map[[2]string]recordRow{}
			for _, row := range rec.Rows {
				rows[[2]string{row.Workload, row.Metric}] = row
			}
			var workloads []string
			for w := range runs {
				workloads = append(workloads, w)
			}
			sort.Strings(workloads)
			near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b))) }
			for _, w := range workloads {
				for _, m := range spec.EndToEnd {
					row, ok := rows[[2]string{w, m.Name}]
					if !ok {
						t.Errorf("%s: no row for %s", w, m.Name)
						continue
					}
					vals := map[string][]float64{}
					q := map[string]recordQuartiles{}
					for _, side := range []string{"parent", "change"} {
						for i, r := range runs[w][side] {
							if r == nil {
								t.Fatalf("%s pair %d: no %s run", w, i+1, side)
							}
							v, ok := r.Summary.Metrics[m.Name]
							if !ok {
								t.Fatalf("%s pair %d %s: no %s reading", w, i+1, side, m.Name)
							}
							vals[side] = append(vals[side], v.Value)
						}
						s := append([]float64(nil), vals[side]...)
						sort.Float64s(s)
						q[side] = recordQuartiles{recordQuantile(s, 0.5), recordQuantile(s, 0.25), recordQuantile(s, 0.75)}
					}
					wins, ties := 0, 0
					for i := range vals["parent"] {
						d := vals["change"][i] - vals["parent"][i]
						if m.Better == "higher" {
							d = -d
						}
						switch {
						case d < 0:
							wins++
						case d == 0:
							ties++
						}
					}
					delta := 0.0
					if p := q["parent"].Median; p != 0 {
						delta = (q["change"].Median - p) / p
					}
					worse := delta
					if m.Better == "higher" {
						worse = -delta
					}
					verdict := "inside"
					if worse > m.Bound {
						verdict = "OUTSIDE"
					}
					for _, side := range []string{"parent", "change"} {
						got := map[string]recordQuartiles{"parent": row.Parent, "change": row.Change}[side]
						if !near(got.Median, q[side].Median) || !near(got.Q1, q[side].Q1) || !near(got.Q3, q[side].Q3) {
							t.Errorf("%s %s: %s median [q1, q3] recorded %v, the runs give %v", w, m.Name, side, got, q[side])
						}
					}
					if !near(row.Delta, delta) || row.Wins != wins || row.Ties != ties || row.Pairs != rec.Pairs ||
						!near(row.Bound, m.Bound) || row.Verdict != verdict {
						t.Errorf("%s %s: recorded Δ %.6g, %d wins, %d ties of %d, bound %g, %s; the runs give Δ %.6g, %d wins, %d ties of %d, bound %g, %s",
							w, m.Name, row.Delta, row.Wins, row.Ties, row.Pairs, row.Bound, row.Verdict,
							delta, wins, ties, rec.Pairs, m.Bound, verdict)
					}
				}
			}
		})
	}
}
