package teccl

// Public-facade tests and the reuse benchmark for the Planner session
// API. BenchmarkPlannerReuse measures the satellite claim directly: N
// sequential sweep points through one Planner versus fresh free-function
// calls; TestPlannerSweepReuseCounters asserts the reuse counters the
// benchmark reports are really nonzero.

import (
	"context"
	"math"
	"testing"
	"time"
)

// sweepPoint is one request of the reuse workload.
type sweepPoint struct {
	d   *Demand
	opt *Options
}

// sweepPoints builds the reuse workload: a chunk-size sweep (power-of-
// two steps, so structurally identical chunk-unit models replay) plus
// two-chunk variants at different horizons (different models, so bases
// chain by variable name instead).
func sweepPoints(t *Topology) []sweepPoint {
	var ps []sweepPoint
	for _, bytes := range []float64{64e3, 256e3, 1024e3, 4096e3} {
		ps = append(ps, sweepPoint{d: AllToAll(t, 1, bytes/float64(len(t.GPUs())))})
	}
	ps = append(ps, sweepPoint{d: AllToAll(t, 2, 25e3)})
	ps = append(ps, sweepPoint{d: AllToAll(t, 2, 25e3), opt: &Options{Epochs: 18}})
	return ps
}

func TestPlannerSweepReuseCounters(t *testing.T) {
	tt := ZeroAlpha(DGX1())
	planner := NewPlanner(tt, PlannerOptions{})
	ctx := context.Background()
	var replays, warm int
	for i, p := range sweepPoints(tt) {
		plan, err := planner.Plan(ctx, Request{Demand: p.d, Options: p.opt})
		if err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		if plan.CacheHit {
			replays++
		}
		if plan.WarmStart {
			warm++
		}
	}
	st := planner.Stats()
	if st.ScheduleReplays == 0 || replays == 0 {
		t.Fatalf("sweep through one Planner produced no schedule replays (stats %+v)", st)
	}
	if st.WarmStartHits == 0 || warm == 0 {
		t.Fatalf("sweep through one Planner produced no warm-basis hits (stats %+v)", st)
	}
	// Every sweep point is a distinct demand, so the epoch cache cannot
	// hit here (TestPlannerCloseKeepsCacheHitCounters covers it); the tau
	// cache serves repeated derivations within and across requests.
	if st.TauCacheHits == 0 {
		t.Fatalf("sweep through one Planner produced no tau cache hits (stats %+v)", st)
	}
}

func TestPlannerSweepMatchesFreeFunctions(t *testing.T) {
	tt := ZeroAlpha(DGX1())
	planner := NewPlanner(tt, PlannerOptions{})
	ctx := context.Background()
	for i, p := range sweepPoints(tt) {
		plan, err := planner.Plan(ctx, Request{Demand: p.d, Options: p.opt})
		if err != nil {
			t.Fatalf("point %d planner: %v", i, err)
		}
		var fopt Options
		if p.opt != nil {
			fopt = *p.opt
		}
		free, err := SolveLP(tt, p.d, fopt)
		if err != nil {
			t.Fatalf("point %d free: %v", i, err)
		}
		// Warm-started solves walk a different pivot path, so objectives
		// agree to rounding, not bit-exactly; feasibility is exact.
		if diff := math.Abs(plan.Objective - free.Objective); diff > 1e-9*(1+math.Abs(free.Objective)) {
			t.Fatalf("point %d: planner objective %g, free %g", i, plan.Objective, free.Objective)
		}
		if err := plan.Schedule.Validate(); err != nil {
			t.Fatalf("point %d: planner schedule invalid: %v", i, err)
		}
	}
}

// BenchmarkPlannerReuse solves N sequential sweep points through one
// long-lived Planner session versus fresh free-function calls. The
// "sizes" pair is the replay-dominated chunk-size sweep (the session
// solves once and replays the rest); the "mixed" pair adds the
// chunk-count variants whose models differ, so the session's win there
// is warm-started bases rather than replay. The replays/warm metrics
// are the session's reuse counters per iteration.
func BenchmarkPlannerReuse(b *testing.B) {
	tt := ZeroAlpha(DGX1())
	all := sweepPoints(tt)
	sizesOnly := all[:4]
	ctx := context.Background()

	session := func(points []sweepPoint) func(*testing.B) {
		return func(b *testing.B) {
			var replays, warm float64
			for i := 0; i < b.N; i++ {
				planner := NewPlanner(tt, PlannerOptions{})
				for _, p := range points {
					if _, err := planner.Plan(ctx, Request{Demand: p.d, Options: p.opt}); err != nil {
						b.Fatal(err)
					}
				}
				st := planner.Stats()
				replays += float64(st.ScheduleReplays)
				warm += float64(st.WarmStartHits)
			}
			b.ReportMetric(replays/float64(b.N), "replays/op")
			b.ReportMetric(warm/float64(b.N), "warmhits/op")
		}
	}
	fresh := func(points []sweepPoint) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range points {
					var opt Options
					if p.opt != nil {
						opt = *p.opt
					}
					if _, err := SolveLP(tt, p.d, opt); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("sizes-session", session(sizesOnly))
	b.Run("sizes-fresh", fresh(sizesOnly))
	b.Run("mixed-session", session(all))
	b.Run("mixed-fresh", fresh(all))
}

func TestPlannerHonorsRequestTimeout(t *testing.T) {
	// Facade-level regression for the uniform deadline: an NDv2-scale LP
	// request through the Planner returns promptly under a caller
	// deadline (DeadlineExceeded, not a minutes-long grind).
	tt := NDv2Mini(2)
	d := AllToAll(tt, 1, 25e3)
	planner := NewPlanner(tt, PlannerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := planner.Plan(ctx, Request{Demand: d})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline ignored: %v", elapsed)
	}
	if err == nil {
		t.Skip("machine solved the instance inside the deadline")
	}
}

// TestHorizonPlanProvenanceMatchesResult: the provenance flags and their
// session counters are read off the Result for every solver. A
// SolverHorizon request with MinimizeMakespan is served by one
// monolithic crash-started LP solve (makespan refinement re-solves whole
// horizons), and must say so.
func TestHorizonPlanProvenanceMatchesResult(t *testing.T) {
	tt := DGX1()
	planner := NewPlanner(tt, PlannerOptions{})
	defer planner.Close()
	plan, err := planner.Plan(context.Background(), Request{
		Demand:  AllToAll(tt, 1, 25e3),
		Options: &Options{MinimizeMakespan: true},
		Solver:  SolverHorizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Windows != 0 || !plan.CrashStarted {
		t.Fatalf("windows = %d, crash-started = %v; want one monolithic crash-started solve", plan.Windows, plan.CrashStarted)
	}
	if plan.CrashStart != plan.CrashStarted || plan.WarmStart != plan.WarmStarted || plan.CacheHit != plan.Reused {
		t.Fatalf("plan flags crash/warm/replay = %v/%v/%v, result says %v/%v/%v",
			plan.CrashStart, plan.WarmStart, plan.CacheHit, plan.CrashStarted, plan.WarmStarted, plan.Reused)
	}
	if st := planner.Stats(); st.CrashStarts != 1 || st.WarmStartHits != 0 || st.ScheduleReplays != 0 {
		t.Fatalf("stats = %+v, want exactly one crash start", st)
	}
}
