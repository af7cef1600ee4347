package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30}
	for _, tc := range []struct{ p, want float64 }{
		{0, 10}, {0.2, 10}, {0.5, 30}, {0.9, 50}, {1, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	// An even count takes the lower middle sample and never interpolates.
	if got := median([]float64{1, 2, 100, 200}); got != 2 {
		t.Errorf("median of four = %v, want 2", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 50 {
		t.Error("percentile sorted its argument in place")
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-12 {
		t.Errorf("geomean(1,100) = %v, want 10", got)
	}
	if got := geomean([]float64{2, 8, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean skips zeros: got %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean of nothing = %v, want 0", got)
	}
	got := classGeomean(map[string][]float64{"a": {1, 2, 3}, "b": {8, 8, 50}})
	if math.Abs(got-4) > 1e-12 {
		t.Errorf("classGeomean = %v, want 4 (medians 2 and 8)", got)
	}
}

func TestHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {20, 0.5}, {40, 0.75}, {72, 0.75}, {100, 0.9}, {144, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestSupportedPercentile(tc.n); got != tc.want {
			t.Errorf("highestSupportedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which is how run-to-run spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{7, 1, 3, 9, 5})
	if q1 != 2 || q2 != 5 || q3 != 8 {
		t.Errorf("quartiles(1,3,5,7,9) = %v %v %v, want 2 5 8", q1, q2, q3)
	}
}

// TestHostClockQuiet checks the division by the host's slowdown on a
// hand-made record: readings of 1× at 0 ms and 2× at 10 ms.
func TestHostClockQuiet(t *testing.T) {
	t0 := time.Now()
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	h := &hostClock{at: []time.Time{at(0), at(10)}, slow: []float64{1, 2}}
	for _, tc := range []struct{ from, to, wantMs float64 }{
		{-5, 0, 5},                // before the first reading: its factor
		{0, 10, 10 / 1.5},         // between two readings: their mean
		{12, 20, 4},               // after the last reading: its factor
		{5, 20, 5/1.5 + 10.0/2.0}, // across a reading: piece by piece
		{3, 3, 0},
	} {
		got := float64(h.quiet(at(tc.from), at(tc.to))) / float64(time.Millisecond)
		if math.Abs(got-tc.wantMs) > 1e-3 {
			t.Errorf("quiet(%v ms, %v ms) = %v ms, want %v", tc.from, tc.to, got, tc.wantMs)
		}
	}
	if got := (&hostClock{}).quiet(at(0), at(7)); got != 7*time.Millisecond {
		t.Errorf("with no reading quiet changes the duration: %v", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, wl := range workloadWhy {
		hash := func(seed int64) uint64 {
			w, err := newWorkload(wl.name, seed)
			if err != nil {
				t.Fatal(err)
			}
			return scriptHash(w)
		}
		if hash(1) != hash(1) {
			t.Errorf("%s: the same seed gave two operation lists", wl.name)
		}
		if hash(1) == hash(2) {
			t.Errorf("%s: seeds 1 and 2 gave the same operation list", wl.name)
		}
	}
}

// TestBenchmarkJSONInSync keeps the committed BENCHMARK.json equal to
// what the program's tables define, and inside the contract's limits.
func TestBenchmarkJSONInSync(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `bench -print-benchmark-json`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q (unit %q) breaks the naming contract", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, d := range endToEndDefs {
		check(d.name, d.unit)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range layerDefs {
		check(d.name, d.unit)
	}
	if len(layerDefs) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(layerDefs))
	}
	for _, w := range workloadWhy {
		check(w.name, "x")
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, at most 200 allowed", w.name, len(w.why))
		}
	}
}

// TestSmoke runs set-up and one lap of every workload: no operation may
// fail and every serve_replay operation after set-up must be a replay.
// One traced unit of the quickest workload checks that every per-layer
// metric is reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke runs real solves")
	}
	if err := pinEnvironment(); err != nil {
		t.Skip(err)
	}
	run := func(name string, traced bool) *runOutput {
		out, err := runWorkload(io.Discard, name, 2, 0, traced, 1, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res := out.result; !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		return out
	}
	for _, wl := range workloadWhy {
		out := run(wl.name, false)
		if len(out.result.Metrics) != len(endToEndDefs) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", wl.name, len(out.result.Metrics), len(endToEndDefs))
		}
		for name, m := range out.result.Metrics {
			if !(m.Value > 0) {
				t.Errorf("%s: %s = %v, want a positive value", wl.name, name, m.Value)
			}
		}
		if wl.name != "serve_replay" {
			continue
		}
		for class, rec := range out.records {
			for _, o := range rec.Outcomes {
				if o != "replay" {
					t.Errorf("serve_replay %s: outcome %q after set-up, want replay", class, o)
				}
			}
		}
	}
	if out := run("cold_milp", true); len(out.result.Metrics) != len(layerDefs) {
		t.Errorf("traced cold_milp: %d per-layer metrics reported, want %d", len(out.result.Metrics), len(layerDefs))
	}
}
