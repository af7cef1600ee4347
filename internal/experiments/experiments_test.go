package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// These tests run the -short variants of the cheaper experiments and
// assert on the paper's qualitative claims (the "shape" the reproduction
// targets), not exact numbers.

func parseFloat(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(s, "+"), "%"), "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig2ErrorShrinksWithSize(t *testing.T) {
	tab := Fig2(true)
	if len(tab.Rows) < 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	first := parseFloat(t, tab.Rows[0][3])              // smallest transfer
	last := parseFloat(t, tab.Rows[len(tab.Rows)-1][3]) // largest transfer
	if first <= last {
		t.Fatalf("alpha-blind error should shrink with size: %.3f -> %.3f", first, last)
	}
	if first <= 0 {
		t.Fatalf("small transfers must show positive error, got %.3f", first)
	}
}

func TestFig6LPBeatsOrMatchesTACCL(t *testing.T) {
	tab := Fig6(true)
	for _, row := range tab.Rows {
		if row[3] == "X" {
			continue
		}
		if gain := parseFloat(t, row[3]); gain < -5 {
			t.Fatalf("TE-CCL LP should not lose to TACCL on AtoA: %v", row)
		}
	}
}

func TestAStarVsOptShape(t *testing.T) {
	tab := AStarVsOpt(true)
	for _, row := range tab.Rows {
		if row[2] == "X" || row[3] == "X" {
			t.Fatalf("solves failed: %v", row)
		}
		// A* can never beat the optimum.
		if gap := parseFloat(t, row[4]); gap < -1 {
			t.Fatalf("A* beat OPT, impossible: %v", row)
		}
	}
}

func TestTableString(t *testing.T) {
	tab := &Table{
		ID: "x", Title: "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  "n",
	}
	s := tab.String()
	for _, want := range []string{"== x: t ==", "333", "note: n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestByIDAndIDs(t *testing.T) {
	for _, id := range IDs() {
		// Existence only; running all would be slow. fig2 runs in the
		// dedicated test above.
		if id == "" {
			t.Fatal("empty id")
		}
	}
	if ByID("nope", true) != nil {
		t.Fatal("unknown id should return nil")
	}
}

func TestHelpers(t *testing.T) {
	if us(1e-6) != "1.00" {
		t.Fatalf("us: %s", us(1e-6))
	}
	if sizeLabel(2e9) != "2GB" || sizeLabel(5e6) != "5MB" ||
		sizeLabel(64e3) != "64KB" || sizeLabel(100) != "100B" {
		t.Fatal("size labels wrong")
	}
	if pct(12.34) != "+12.3%" {
		t.Fatalf("pct: %s", pct(12.34))
	}
	if gbps(2.5e9) != "2.500" {
		t.Fatalf("gbps: %s", gbps(2.5e9))
	}
}

func TestChurnHeadlineRatio(t *testing.T) {
	tab := ByID("churn", true)
	if tab == nil {
		t.Fatal("churn experiment missing")
	}
	// The acceptance criterion CI pins: a single-NVLink-down replan on
	// the NDv2 ALLTOALL reoptimizes in at most 5% of the cold solve's
	// simplex iterations (the incumbent's complete basis reoptimizes the
	// edited model directly; projected through presolve it took 14%).
	ratio, ok := tab.Metrics["ndv2_linkdown_pivot_ratio"]
	if !ok {
		t.Fatalf("ndv2 link-down ratio missing from metrics: %v", tab.Metrics)
	}
	if ratio > 0.05 {
		t.Fatalf("NDv2 link-down replan used %.1f%% of cold pivots, want <= 5%%", ratio*100)
	}
	// ByID must merge the shared solver counters without clobbering the
	// experiment's own metrics.
	for _, key := range []string{"iterations", "replan_pivots", "replan_wall_ms", "replan_fallbacks"} {
		if _, ok := tab.Metrics[key]; !ok {
			t.Fatalf("metric %q missing after merge: %v", key, tab.Metrics)
		}
	}
	for _, row := range tab.Rows {
		if len(row) > 2 && (row[2] == "replan-failed" || row[2] == "base-failed" || row[2] == "delta-failed") {
			t.Fatalf("churn scenario failed: %v", row)
		}
	}
}

// TestChurnStreamMedianRegret pins the replan-economics number (one of
// the pinned acceptance tests ROADMAP item 4f keeps this package for):
// over the 100-delta adversarial NDv2 stream, the median replan
// costs under a quarter of a from-scratch plan of the same churned
// problem. A ratio of two wall clocks measured back to back, so host
// speed cancels; the stream's 100 cold reference solves make it the
// slowest test of the package.
func TestChurnStreamMedianRegret(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs 100 replans and 100 cold reference solves")
	}
	tab := ByID("churnstream", true)
	if tab == nil {
		t.Fatal("churnstream experiment missing")
	}
	if got := tab.Metrics["NDv2_deltas"]; got != streamDeltas {
		t.Fatalf("%v of %d deltas applied: %v", got, streamDeltas, tab.Rows)
	}
	med, ok := tab.Metrics["ndv2_median_regret"]
	if !ok || !(med > 0) {
		t.Fatalf("median regret not measured: %v", tab.Metrics)
	}
	if med >= 0.25 {
		t.Fatalf("median replan cost %.2fx a cold plan, want < 0.25x", med)
	}
	if got := tab.Metrics["NDv2_rebases"]; got != 0 {
		t.Errorf("%v proactive re-bases; the incremental advantage should not decay on this stream", got)
	}
}

func TestLoadGenP99Budget(t *testing.T) {
	tab := ByID("loadgen", true)
	if tab == nil {
		t.Fatal("loadgen experiment missing")
	}
	if tab.Metrics["failed"] > 0 {
		t.Fatalf("%v requests failed: %s", tab.Metrics["failed"], tab.Notes)
	}
	if got := tab.Metrics["p99_budget_ms"]; got != P99BudgetMs {
		t.Fatalf("budget metric %v, want %v (benchtables gates CI on this key)", got, P99BudgetMs)
	}
	p99 := tab.Metrics["p99_ms"]
	if !(p99 > 0) {
		t.Fatalf("p99 not measured: %v", p99)
	}
	if raceEnabled {
		t.Logf("race detector on; skipping the %dms budget check (p99 %.2fms)", P99BudgetMs, p99)
		return
	}
	// The CI regression gate, asserted here too so a serving-path
	// regression fails `go test` as well as the bench-smoke job.
	if p99 > P99BudgetMs {
		t.Fatalf("p99 %.2fms over the %dms budget", p99, P99BudgetMs)
	}
}

func TestHorizonExperimentShort(t *testing.T) {
	tab := ByID("horizon", true)
	if tab == nil {
		t.Fatal("horizon experiment missing")
	}
	// Two instances in short mode, a horizon row and a monolithic row each.
	if len(tab.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d: %v", len(tab.Rows), tab.Rows)
	}
	for _, row := range tab.Rows {
		for i, cell := range row {
			if cell == "?" || cell == "X" {
				t.Fatalf("row %v: column %d unsolved", row, i)
			}
		}
	}
	if w := tab.Metrics["horizon_windows"]; w < 2 {
		t.Fatalf("last instance used %v windows, want >= 2 (decomposition not exercised)", w)
	}
	if gap := tab.Metrics["gap_pct"]; gap > 5 {
		t.Fatalf("objective gap %.2f%% over the 5%% acceptance bound", gap)
	}
}
