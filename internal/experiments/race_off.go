//go:build !race

package experiments

// raceEnabled reports whether the race detector is compiled in; the
// churn-stream test (100 replans, 100 cold solves) skips under -race,
// whose instrumentation multiplies its run time.
const raceEnabled = false
