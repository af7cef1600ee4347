package daemon

// metrics.go aggregates the daemon's observable state and renders it in
// Prometheus text exposition format for GET /metrics. Per-session solver
// counters come from the existing Planner.Stats plumbing: live sessions
// are summed on scrape, and the pool folds a session's final counters in
// here when it evicts, so totals are monotone across evictions.

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"teccl/internal/core"
)

// latencyBuckets are the fixed histogram bucket bounds, in seconds, for
// solve-request latency. Plans on cached sessions replay in well under a
// millisecond; cold MILP solves run seconds — the buckets span both.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics is the daemon-wide counter set. All methods are safe for
// concurrent use.
type metrics struct {
	mu sync.Mutex

	// requests[endpoint][status] counts finished HTTP requests.
	requests map[string]map[int]int64

	// Solve-latency histogram over /v1/plan and /v1/replan.
	bucketCounts []int64
	latencySum   float64
	latencyCount int64

	rejected429 int64
	rejected503 int64

	// solverPanics counts solves that panicked and were contained
	// (Server.solve).
	solverPanics int64

	// evicted accumulates the final counters of sessions the pool has
	// closed; scrapes add the live sessions on top.
	evicted core.PlannerStats
}

func newMetrics() *metrics {
	return &metrics{
		requests:     make(map[string]map[int]int64),
		bucketCounts: make([]int64, len(latencyBuckets)),
	}
}

// observe records one finished HTTP request.
func (m *metrics) observe(endpoint string, status int, d time.Duration, solve bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus, ok := m.requests[endpoint]
	if !ok {
		byStatus = make(map[int]int64)
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	switch status {
	case 429:
		m.rejected429++
	case 503:
		m.rejected503++
	}
	if !solve || status != 200 {
		return
	}
	sec := d.Seconds()
	m.latencySum += sec
	m.latencyCount++
	for i, b := range latencyBuckets {
		if sec <= b {
			m.bucketCounts[i]++
		}
	}
}

// solverPanicked records one contained solver panic.
func (m *metrics) solverPanicked() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.solverPanics++
}

// foldEvicted absorbs a closed session's final counters.
func (m *metrics) foldEvicted(st core.PlannerStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evicted = addStats(m.evicted, st)
}

func addStats(a, b core.PlannerStats) core.PlannerStats {
	a.Requests += b.Requests
	a.ScheduleReplays += b.ScheduleReplays
	a.WarmStartHits += b.WarmStartHits
	a.CrashStarts += b.CrashStarts
	a.ExactBasisHits += b.ExactBasisHits
	a.TauCacheHits += b.TauCacheHits
	a.EpochCacheHits += b.EpochCacheHits
	a.Replans += b.Replans
	a.ReplanPivots += b.ReplanPivots
	a.ReplanFallbacks += b.ReplanFallbacks
	a.ReplanFallbackStructural += b.ReplanFallbackStructural
	a.ReplanFallbackBudget += b.ReplanFallbackBudget
	a.ReplanFallbackSour += b.ReplanFallbackSour
	a.ReplanFallbackNoModel += b.ReplanFallbackNoModel
	a.ReBases += b.ReBases
	return a
}

// render writes the Prometheus text exposition. live is the sum of the
// still-open sessions' counters; sessions/evictions/inflight/queued are
// point-in-time gauges supplied by the server.
func (m *metrics) render(w io.Writer, live core.PlannerStats, sessions int, evictions, inflight, queued int64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP teccld_sessions Live planner sessions in the pool.\n")
	fmt.Fprintf(w, "# TYPE teccld_sessions gauge\n")
	fmt.Fprintf(w, "teccld_sessions %d\n", sessions)
	fmt.Fprintf(w, "# HELP teccld_sessions_evicted_total Sessions closed by LRU eviction or DELETE.\n")
	fmt.Fprintf(w, "# TYPE teccld_sessions_evicted_total counter\n")
	fmt.Fprintf(w, "teccld_sessions_evicted_total %d\n", evictions)
	fmt.Fprintf(w, "# HELP teccld_inflight_solves Solve requests currently holding a concurrency slot.\n")
	fmt.Fprintf(w, "# TYPE teccld_inflight_solves gauge\n")
	fmt.Fprintf(w, "teccld_inflight_solves %d\n", inflight)
	fmt.Fprintf(w, "# HELP teccld_queued_solves Solve requests admitted but waiting for a slot.\n")
	fmt.Fprintf(w, "# TYPE teccld_queued_solves gauge\n")
	fmt.Fprintf(w, "teccld_queued_solves %d\n", queued)

	fmt.Fprintf(w, "# HELP teccld_requests_total Finished HTTP requests by endpoint and status.\n")
	fmt.Fprintf(w, "# TYPE teccld_requests_total counter\n")
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(m.requests[ep]))
		for st := range m.requests[ep] {
			statuses = append(statuses, st)
		}
		sort.Ints(statuses)
		for _, st := range statuses {
			fmt.Fprintf(w, "teccld_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, st, m.requests[ep][st])
		}
	}
	fmt.Fprintf(w, "# HELP teccld_rejected_total Requests rejected by admission control.\n")
	fmt.Fprintf(w, "# TYPE teccld_rejected_total counter\n")
	fmt.Fprintf(w, "teccld_rejected_total{reason=\"saturated\"} %d\n", m.rejected429)
	fmt.Fprintf(w, "teccld_rejected_total{reason=\"draining\"} %d\n", m.rejected503)
	fmt.Fprintf(w, "# HELP teccld_solver_panics_total Solves that panicked; each answered 500 and closed its session.\n")
	fmt.Fprintf(w, "# TYPE teccld_solver_panics_total counter\n")
	fmt.Fprintf(w, "teccld_solver_panics_total %d\n", m.solverPanics)

	fmt.Fprintf(w, "# HELP teccld_solve_seconds Latency of successful plan/replan requests.\n")
	fmt.Fprintf(w, "# TYPE teccld_solve_seconds histogram\n")
	for i, b := range latencyBuckets {
		fmt.Fprintf(w, "teccld_solve_seconds_bucket{le=\"%g\"} %d\n", b, m.bucketCounts[i])
	}
	fmt.Fprintf(w, "teccld_solve_seconds_bucket{le=\"+Inf\"} %d\n", m.latencyCount)
	fmt.Fprintf(w, "teccld_solve_seconds_sum %g\n", m.latencySum)
	fmt.Fprintf(w, "teccld_solve_seconds_count %d\n", m.latencyCount)

	total := addStats(m.evicted, live)
	fmt.Fprintf(w, "# HELP teccld_planner_counters_total Aggregated Planner session counters (live + evicted).\n")
	fmt.Fprintf(w, "# TYPE teccld_planner_counters_total counter\n")
	for _, c := range []struct {
		name string
		v    int
	}{
		{"requests", total.Requests},
		{"schedule_replays", total.ScheduleReplays},
		{"warm_start_hits", total.WarmStartHits},
		{"crash_starts", total.CrashStarts},
		{"exact_basis_hits", total.ExactBasisHits},
		{"tau_cache_hits", total.TauCacheHits},
		{"epoch_cache_hits", total.EpochCacheHits},
		{"replans", total.Replans},
		{"replan_pivots", total.ReplanPivots},
		{"replan_fallbacks", total.ReplanFallbacks},
		{"rebases", total.ReBases},
	} {
		fmt.Fprintf(w, "teccld_planner_counters_total{counter=%q} %d\n", c.name, c.v)
	}
}
