package main

// harness.go is the closed loop: one caller, one workload per process.
// It times every operation, checks every returned schedule with code
// that shares nothing with the simplex kernel (Schedule.Validate and the
// continuous-time simulator), and turns the samples into the end-to-end
// metrics. CPU time and allocation are charged per operation, so the
// checks between operations never count.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"teccl"
)

// setupRepeats is how often a run sets the workload up; setup_s is the
// median, so one slow first-touch pass does not decide it.
const setupRepeats = 3

// opResult is what one operation hands back to the harness.
type opResult struct {
	plan *teccl.Plan
	// world, when set, is the topology the schedule must simulate on
	// (the churned fabric after a replan); nil means the schedule's own.
	world *teccl.Topology
	// outcome overrides the provenance read off the plan.
	outcome string
	err     error
}

// classRecord is what one lap did for one class, kept for the
// determinism gate: everything here must repeat exactly.
type classRecord struct {
	Ops          int      `json:"ops"`
	Pivots       int      `json:"pivots"`
	Nodes        int      `json:"nodes"`
	Windows      int      `json:"windows"`
	Rounds       int      `json:"rounds"`
	Outcomes     []string `json:"outcomes"`
	FinishEpochs []int    `json:"finish_epochs"`
}

// opSample is one successful operation of a plain lap: its wall and CPU
// time at the reference speed (hostclock.go), and the wall time as the
// clock read it.
type opSample struct {
	class                string
	wallMs, cpuMs, rawMs float64
}

type runner struct {
	name string
	seed int64
	w    workload

	host *hostClock
	tr   *tracer   // non-nil in a traced run
	lay  *layerAcc // non-nil in a traced run
	// tracing marks the current lap as traced: a traced run alternates
	// plain and traced laps, so its own untraced median gives the
	// tracing overhead.
	tracing bool
	// recording is false during warm-up laps: operations run and must
	// succeed, but nothing is measured.
	recording bool
	// firstLap marks the first measured lap, whose counts and finish
	// epochs are the run's determinism record.
	firstLap bool

	samples []opSample           // every plain-lap operation
	algbw   map[string][]float64 // per class, GB/s of the simulated schedule
	last    map[string]*teccl.Plan
	rec     map[string]*classRecord

	attempted, failed, incorrect, rejected int
	problems                               []string
	alloc                                  uint64
	tracedOps, tracedLaps                  int
	// What the run itself looked like, for the harness.* metrics.
	loadStart float64
	gcCycles  uint32
}

func newRunner(name string, seed int64, traced bool) *runner {
	r := &runner{
		name: name, seed: seed, host: newHostClock(),
		algbw: map[string][]float64{}, last: map[string]*teccl.Plan{},
		rec: map[string]*classRecord{},
	}
	if traced {
		r.tr = newTracer()
		r.lay = newLayerAcc()
	}
	return r
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocNow is the cumulative bytes allocated on the heap, read without
// stopping the world.
func allocNow() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// fail records a failed operation (or a failed untimed step of a lap).
func (r *runner) fail(class string, err error) {
	r.attempted++
	r.failed++
	r.problem(class, err)
}

func (r *runner) problem(class string, err error) {
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf("%s: %v", class, err))
	}
}

// outcomeOf names how a plan was produced.
func outcomeOf(p *teccl.Plan) string {
	switch {
	case p.CacheHit:
		return "replay"
	case p.WarmStart:
		return "warm"
	case p.CrashStart:
		return "crash"
	}
	return "cold"
}

// op runs and times one operation of a class, then checks its schedule.
// A failed operation — an error, a solve that reached the time limit, a
// daemon refusal, a schedule that does not validate or simulate — counts
// against attempted and contributes no latency sample. It returns the
// plan of a successful operation and nil otherwise.
func (r *runner) op(class string, f func(hook teccl.ProgressFunc) opResult) *teccl.Plan {
	var ev *opEvents
	var hook teccl.ProgressFunc
	if r.tracing {
		ev = &opEvents{}
		hook = ev.hook
		r.tr.nextOp()
	}
	r.host.tick()
	a0, c0, t0 := allocNow(), cpuNow(), time.Now()
	res := f(hook)
	t1, c1, a1 := time.Now(), cpuNow(), allocNow()
	r.host.tick()
	wall := t1.Sub(t0)

	r.attempted++
	if res.err == nil && (res.plan == nil || res.plan.Result == nil || res.plan.Schedule == nil) {
		res.err = fmt.Errorf("no schedule returned")
	}
	if res.err == nil && wall >= solveLimit {
		res.err = fmt.Errorf("reached the %v time limit", solveLimit)
	}
	if res.err != nil {
		r.failed++
		if isRejection(res.err) {
			r.rejected++
		}
		r.problem(class, res.err)
		return nil
	}
	sim, err := r.check(class, res)
	if err != nil {
		r.failed++
		r.incorrect++
		r.problem(class, err)
		return nil
	}
	if !r.recording {
		return res.plan
	}

	r.algbw[class] = append(r.algbw[class], sim.AlgoBandwidth/1e9)
	r.last[class] = res.plan
	if r.tracing {
		r.traceOp(class, res, ev, t0, t1)
	} else {
		quiet := r.host.quiet(t0, t1)
		cpu := float64(c1-c0) * float64(quiet) / float64(wall)
		r.samples = append(r.samples, opSample{class, ms(quiet), cpu / 1e6, ms(wall)})
		r.alloc += a1 - a0
	}
	if r.firstLap {
		rec := r.rec[class]
		if rec == nil {
			rec = &classRecord{}
			r.rec[class] = rec
		}
		outcome := res.outcome
		if outcome == "" {
			outcome = outcomeOf(res.plan)
		}
		rec.Ops++
		rec.Pivots += res.plan.RootIterations + res.plan.NodeIterations
		rec.Nodes += res.plan.Nodes
		rec.Windows += res.plan.Windows
		rec.Rounds += res.plan.Rounds
		rec.Outcomes = append(rec.Outcomes, outcome)
		rec.FinishEpochs = append(rec.FinishEpochs, res.plan.Schedule.FinishEpoch())
	}
	return res.plan
}

// check validates and simulates a returned schedule; in a traced lap the
// two calls are spans and layer samples of their own.
func (r *runner) check(class string, res opResult) (*teccl.SimResult, error) {
	s := res.plan.Schedule
	t0 := time.Now()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("schedule does not validate: %w", err)
	}
	t1 := time.Now()
	var sim *teccl.SimResult
	var err error
	if res.world != nil {
		sim, err = teccl.SimulateOn(s, res.world)
	} else {
		sim, err = teccl.Simulate(s)
	}
	t2 := time.Now()
	if err != nil {
		return nil, fmt.Errorf("schedule does not simulate: %w", err)
	}
	if !(sim.FinishTime > 0) || !(sim.AlgoBandwidth > 0) {
		return nil, fmt.Errorf("simulated finish time %g is not positive", sim.FinishTime)
	}
	if r.tracing && r.recording {
		root := r.tr.add(0, "check:"+class, t0, t2)
		r.tr.add(root, "schedule.validate", t0, t1)
		r.tr.add(root, "sim.run", t1, t2)
		r.lay.obs("schedule.validate_us", class, us(r.host.quiet(t0, t1)))
		r.lay.obs("sim.run_us", class, us(r.host.quiet(t1, t2)))
	}
	return sim, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// noteStats folds the replan counters of one session that has finished
// its script into the traced run's totals.
func (r *runner) noteStats(st teccl.PlannerStats) {
	if !r.tracing || !r.recording {
		return
	}
	a := r.lay
	a.add("core.replans", float64(st.Replans))
	a.add("core.replans_incremental", float64(st.Replans-st.ReplanFallbacks-st.ReBases))
	a.add("core.replan_pivots", float64(st.ReplanPivots))
	a.add("core.replan_fallback_structural", float64(st.ReplanFallbackStructural))
	a.add("core.replan_fallback_budget", float64(st.ReplanFallbackBudget))
	a.add("core.replan_fallback_sour", float64(st.ReplanFallbackSour))
	a.add("core.replan_rebases", float64(st.ReBases))
}

// warmup sets the workload up and runs one unmeasured lap; it is the
// whole of what setup_s times.
func (r *runner) warmup() error {
	w, err := newWorkload(r.name, r.seed)
	if err != nil {
		return err
	}
	r.w = w
	r.host.tick()
	if err := w.setup(); err != nil {
		w.teardown()
		return fmt.Errorf("set-up: %w", err)
	}
	r.recording, r.tracing = false, false
	r.host.tick()
	w.lap(r, -1)
	if r.failed > 0 {
		w.teardown()
		return fmt.Errorf("warm-up lap: %d of %d operations failed: %s",
			r.failed, r.attempted, strings.Join(r.problems, "; "))
	}
	r.attempted = 0
	return nil
}

// setup runs the set-up the given number of times, keeps the last one
// alive for the timed phase and returns the median duration in seconds,
// at the reference speed like every other time.
func (r *runner) setup(repeats int) (float64, error) {
	var took []float64
	for i := 0; i < repeats; i++ {
		if r.w != nil {
			r.w.teardown()
		}
		t0 := time.Now()
		if err := r.warmup(); err != nil {
			return 0, err
		}
		r.host.tick()
		took = append(took, r.host.quiet(t0, time.Now()).Seconds())
	}
	return median(took), nil
}

// measure runs laps for about the given time. A lap is the unit: every
// lap holds the same work, so per-operation and per-lap counts do not
// depend on how many laps fit. A traced run's unit is a plain lap, a
// traced lap and the layer probes after it. The loop stops at the unit
// boundary nearest to the requested time, and always runs one unit.
func (r *runner) measure(seconds float64) {
	r.recording = true
	start := time.Now()
	for unit := 0; ; unit++ {
		lap := unit
		if r.tr != nil {
			lap = 2 * unit
		}
		r.firstLap = unit == 0
		r.tracing = false
		r.w.lap(r, lap)
		r.firstLap = false
		if r.tr != nil {
			r.tracing = true
			r.w.lap(r, lap+1)
			r.probeInputs()
			r.w.probe(r)
			r.tracedLaps++
			r.tracing = false
		}
		elapsed := time.Since(start).Seconds()
		perUnit := elapsed / float64(unit+1)
		if elapsed+perUnit/2 >= seconds {
			return
		}
	}
}

// retainedHeapMB is the live heap after two forced collections, with
// the workload's sessions, daemon and most recent plans still held, less
// what the host clock holds.
func (r *runner) retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (float64(m.HeapAlloc) - float64(r.host.heapBytes())) / (1 << 20)
}

// wallByClass is the plain laps' wall times per class.
func (r *runner) wallByClass() map[string][]float64 {
	out := map[string][]float64{}
	for _, o := range r.samples {
		out[o.class] = append(out[o.class], o.wallMs)
	}
	return out
}

// wallPooled is every plain-lap operation's wall time.
func (r *runner) wallPooled() []float64 {
	out := make([]float64, len(r.samples))
	for i, o := range r.samples {
		out[i] = o.wallMs
	}
	return out
}

// endToEnd computes the eight end-to-end metrics from the plain laps.
func (r *runner) endToEnd(setupS float64) map[string]float64 {
	pooled := r.wallPooled()
	cpu := 0.0
	for _, o := range r.samples {
		cpu += o.cpuMs
	}
	ops := float64(max(len(r.samples), 1))
	return map[string]float64{
		"setup_s":            setupS,
		"op_ms_p50":          percentile(pooled, 0.5),
		"op_ms_p90":          percentile(pooled, 0.9),
		"op_ms_geomean":      classGeomean(r.wallByClass()),
		"cpu_ms_per_op":      cpu / ops,
		"alloc_kb_per_op":    float64(r.alloc) / 1024 / ops,
		"retained_heap_mb":   r.retainedHeapMB(),
		"algbw_gbps_geomean": classGeomean(r.algbw),
	}
}

// loadAverage reads the 1-minute load average (0 where /proc is absent).
func loadAverage() float64 {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // a malformed file reads as 0, like a missing one
	return v
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64) // malformed reads as 0
				return kb / 1024
			}
		}
	}
	return 0
}
