package main

// layers.go is the per-layer half of a traced run: what is recorded
// about each real operation, the probes that drive the same inputs
// through the layers one public call at a time, and the table that
// turns the samples into the per-layer metrics. Names are
// <module>.<metric>; a metric a workload never reaches reports 0.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"

	"teccl"
	"teccl/internal/core"
	"teccl/internal/lp"
	"teccl/internal/msccl"
	"teccl/internal/wireconv"
	"teccl/wire"
)

// traceOp records one traced operation: its root span with the
// Result's effort counters, the phase spans cut at its Progress
// samples, and the matching layer samples and totals.
func (r *runner) traceOp(class string, res opResult, ev *opEvents, t0, t1 time.Time) {
	p := res.plan
	root := r.tr.add(0, "op:"+class, t0, t1)
	r.tr.setCounts(root, map[string]float64{
		"pivots": float64(p.RootIterations + p.NodeIterations), "nodes": float64(p.Nodes),
		"windows": float64(p.Windows), "rounds": float64(p.Rounds),
		"refactorizations": float64(p.Refactorizations),
		"ft_updates":       float64(p.FTUpdates), "update_nnz": float64(p.UpdateNnz),
		// Spans keep the wall clock; this is what the layer samples were
		// divided by.
		"host_slowdown": float64(t1.Sub(t0)) / float64(max(r.host.quiet(t0, t1), 1)),
	})
	a := r.lay
	wall := r.host.quiet(t0, t1)
	a.obs("op_ms", class, ms(wall))
	a.obs("op_wall_ms", class, ms(t1.Sub(t0)))
	for _, ph := range ev.phases(t0, t1) {
		r.tr.add(root, ph.name, ph.start, ph.end)
		took := r.host.quiet(ph.start, ph.end)
		a.obs(ph.name+"_ms", class, ms(took))
		if ph.name == "lp.solve" && p.RootIterations > 0 {
			a.obs("lp.us_per_pivot", class, us(took)/float64(p.RootIterations))
		}
	}
	r.tracedOps++
	a.add("lp.pivots", float64(p.RootIterations+p.NodeIterations))
	a.add("lp.refactorizations", float64(p.Refactorizations))
	a.add("lp.ft_updates", float64(p.FTUpdates))
	a.add("lp.update_nnz", float64(p.UpdateNnz))
	a.add("milp.nodes", float64(p.Nodes))
	a.add("milp.node_iters", float64(p.NodeIterations))
	a.add("horizon.windows", float64(p.Windows))
	a.add("core.astar_rounds", float64(p.Rounds))
	if p.CrashStart {
		a.add("core.crash_starts", 1)
	}
	switch {
	case res.outcome == "incremental":
		a.obs("core.replan_incremental_ms", class, ms(wall))
	case res.outcome == "rebase":
		a.obs("core.replan_rebase_ms", class, ms(wall))
	case strings.HasPrefix(res.outcome, "fallback"):
		a.obs("core.replan_fallback_ms", class, ms(wall))
	}
}

// timed runs one layer call as a child span of parent and records its
// duration at the reference speed under key, in the unit the key ends in
// ("_us" or "_ms").
func (r *runner) timed(parent int, key, class string, f func() error) error {
	r.host.tick()
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	r.host.tick()
	r.tr.add(parent, strings.TrimSuffix(strings.TrimSuffix(key, "_us"), "_ms"), t0, t1)
	took := r.host.quiet(t0, t1)
	if strings.HasSuffix(key, "_ms") {
		r.lay.obs(key, class, ms(took))
	} else {
		r.lay.obs(key, class, us(took))
	}
	if err != nil {
		r.incorrect++
		r.problem("probe "+key+" "+class, err)
	}
	return err
}

// planFor finds the most recent plan of an input shape: the class of
// that name, or the first class (in name order) below it.
func (r *runner) planFor(input string) *teccl.Plan {
	if p := r.last[input]; p != nil {
		return p
	}
	var names []string
	for name := range r.last {
		if strings.HasPrefix(name, input+"/") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil
	}
	sort.Strings(names)
	return r.last[names[0]]
}

// probeInputs drives every input shape of the workload through the
// layers one public call at a time, each call a span of its own.
func (r *runner) probeInputs() {
	for _, c := range r.w.inputs() {
		r.probeInput(c)
	}
}

func (r *runner) probeInput(c class) {
	r.tr.nextOp()
	begin := time.Now()
	root := r.tr.add(0, "probe:"+c.name, begin, begin)
	defer func() { r.tr.spans[root-1].End = time.Since(r.tr.t0).Nanoseconds() }()
	a := r.lay
	a.add("probe.inputs", 1)

	var t *teccl.Topology
	var d *teccl.Demand
	r.timed(root, "topo.build_us", c.name, func() error { t = c.topo(); return nil })
	r.timed(root, "collective.build_us", c.name, func() error { d = c.demand(t); return nil })
	r.timed(root, "topo.json_roundtrip_us", c.name, func() error {
		raw, err := json.Marshal(t)
		if err != nil {
			return err
		}
		return json.Unmarshal(raw, new(teccl.Topology))
	})
	r.timed(root, "topo.floyd_warshall_us", c.name, func() error { t.AlphaDistances(); return nil })
	r.timed(root, "collective.fingerprint_us", c.name, func() error { d.Fingerprint(); return nil })
	r.timed(root, "core.estimate_us", c.name, func() error {
		tau := teccl.DeriveTau(t, d.ChunkBytes, c.opt.EpochMode, c.opt.EpochMultiplier)
		teccl.EstimateEpochs(t, d, tau)
		return nil
	})
	r.timed(root, "lp.small_solve_us", c.name, func() error {
		sol, err := lp.Solve(transportLP, lp.Options{})
		if err == nil && sol.Status != lp.StatusOptimal {
			err = fmt.Errorf("transport LP: %v", sol.Status)
		}
		return err
	})
	if c.solver == teccl.SolverLP || c.solver == teccl.SolverHorizon {
		r.probeLPForm(root, c, t, d)
	}

	plan := r.planFor(c.name)
	if plan == nil {
		return
	}
	s := plan.Schedule
	a.add("schedule.sends", float64(len(s.Sends)))
	r.timed(root, "schedule.prune_us", c.name, func() error { s.Prune(); return nil })
	// The MSCCL exporter takes whole-chunk schedules only; a fractional
	// LP schedule is a refusal, not a defect, and records no sample.
	t0 := time.Now()
	if xml, err := msccl.Export(s, "bench"); err == nil {
		t1 := time.Now()
		r.tr.add(root, "msccl.export", t0, t1)
		a.obs("msccl.export_us", c.name, us(r.host.quiet(t0, t1)))
		a.add("msccl.bytes", float64(len(xml)))
		a.add("msccl.exports", 1)
	}

	// The wire path, one conversion at a time.
	var wreq wire.PlanRequest
	r.timed(root, "wireconv.request_encode_us", c.name, func() error {
		wt, err := wireconv.FromTopology(t)
		wopt := wireconv.FromOptions(c.opt)
		wreq = wire.PlanRequest{Topology: wt, Demand: wireconv.FromDemand(d), Options: &wopt,
			Solver: wireconv.SolverName(c.solver)}
		return err
	})
	if raw, err := json.Marshal(wreq); err == nil {
		a.add("wire.request_bytes", float64(len(raw)))
	}
	var resp wire.PlanResponse
	r.timed(root, "wireconv.from_plan_us", c.name, func() error {
		resp = wire.PlanResponse{API: wire.Version, Plan: wireconv.FromPlan(plan)}
		return nil
	})
	var raw []byte
	r.timed(root, "wire.plan_marshal_us", c.name, func() (err error) { raw, err = json.Marshal(resp); return err })
	a.add("wire.response_bytes", float64(len(raw)))
	var back wire.PlanResponse
	r.timed(root, "wire.plan_unmarshal_us", c.name, func() error { return json.Unmarshal(raw, &back) })
	r.timed(root, "wireconv.to_plan_us", c.name, func() error {
		_, err := wireconv.ToPlan(back.Plan, s.Topo, s.Demand)
		return err
	})
}

// probeLPForm builds the class's full-span LP through the windowed
// formulation API (term for term the monolithic model) and solves it
// cold, without presolve and warm from its own optimal basis, then
// decomposes the optimum into a schedule.
func (r *runner) probeLPForm(root int, c class, t *teccl.Topology, d *teccl.Demand) {
	a := r.lay
	var w *core.WindowLP
	var wi *core.WindowInstance
	if r.timed(root, "core.build_ms", c.name, func() (err error) {
		wi = core.NewWindowInstance(t, d, c.opt)
		w, err = wi.BuildWindow(0, wi.Epochs(), true, wi.InitialBoundary())
		return err
	}) != nil {
		return
	}
	a.add("core.model_rows", float64(w.P.NumRows()))
	a.add("core.model_cols", float64(w.P.NumVars()))
	solve := func(key string, opt lp.Options) *lp.Solution {
		var sol *lp.Solution
		r.timed(root, key, c.name, func() (err error) {
			sol, err = lp.Solve(w.P, opt)
			if err == nil && sol.Status != lp.StatusOptimal {
				err = fmt.Errorf("full-span LP: %v", sol.Status)
			}
			return err
		})
		return sol
	}
	cold := solve("lp.slack_start_ms", lp.Options{})
	solve("lp.nopresolve_ms", lp.Options{NoPresolve: true})
	if cold == nil || cold.Status != lp.StatusOptimal {
		return
	}
	solve("lp.warm_resolve_ms", lp.Options{WarmStart: cold.Basis})
	r.timed(root, "core.decompose_ms", c.name, func() error {
		flows, reads := w.Flows(cold.X)
		_, err := wi.Decompose(flows, reads)
		return err
	})
}

// transportLP is the 20×30 transportation problem of the repository's
// BenchmarkSimplexTransport: the small-LP fixed cost every
// branch-and-bound node pays.
var transportLP = func() *lp.Problem {
	rng := rand.New(rand.NewSource(42))
	const m, n = 20, 30
	p := lp.NewProblem(lp.Minimize)
	demand := make([]float64, n)
	total := 0.0
	for j := range demand {
		demand[j] = float64(1 + rng.Intn(9))
		total += demand[j]
	}
	vars := make([][]lp.VarID, m)
	for i := range vars {
		vars[i] = make([]lp.VarID, n)
		for j := range vars[i] {
			vars[i][j] = p.AddVar("", 0, lp.Inf, float64(1+rng.Intn(20)))
		}
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, n)
		for j := range terms {
			terms[j] = lp.Term{Var: vars[i][j], Coeff: 1}
		}
		p.AddRow(terms, lp.LE, total/m)
	}
	for j := 0; j < n; j++ {
		terms := make([]lp.Term, m)
		for i := range terms {
			terms[i] = lp.Term{Var: vars[i][j], Coeff: 1}
		}
		p.AddRow(terms, lp.EQ, demand[j])
	}
	return p
}()

// probeApplyDelta times topo.ApplyDelta alone, before the replan that
// applies the same delta inside the session.
func (r *runner) probeApplyDelta(class string, world *teccl.Topology, d teccl.Delta) {
	if !r.tracing || !r.recording {
		return
	}
	r.tr.nextOp()
	r.timed(0, "topo.apply_delta_us", class, func() error {
		_, err := world.ApplyDelta(teccl.TopologyDelta{LinksDown: d.LinksDown, NodesDown: d.NodesDown,
			Scale: d.Scale, AddNodes: d.AddNodes, AddLinks: d.AddLinks})
		return err
	})
}

// probeColdTwin plans the session's churned problem from scratch in a
// fresh session and records the replan's cost relative to it: what the
// operator would pay by discarding the session.
func (r *runner) probeColdTwin(class string, s *churnSession) {
	if !r.tracing || !r.recording {
		return
	}
	replan := r.lay.byClass["op_ms"][class]
	if len(replan) == 0 {
		return
	}
	var cold time.Duration
	r.timed(0, "core.cold_twin_ms", class, func() error {
		pl := teccl.NewPlanner(s.pl.Topology(), teccl.PlannerOptions{Defaults: s.c.opt})
		defer pl.Close()
		t0 := time.Now()
		_, err := pl.Plan(context.Background(), teccl.Request{Demand: s.demand, Solver: s.c.solver})
		t1 := time.Now()
		r.host.tick()
		cold = r.host.quiet(t0, t1)
		return err
	})
	if cold > 0 {
		r.lay.obs("core.replan_vs_cold_ratio", class, replan[len(replan)-1]/ms(cold))
	}
}

// serveProbeRepeats is how many samples of each probed call one traced
// lap takes per shape.
const serveProbeRepeats = 5

// probe times, beside each wire operation class, the three things a
// replayed request is made of: the in-process replay, the daemon's
// handler with no socket, and a raw POST of the pre-marshalled body.
func (w *serveWorkload) probe(r *runner) {
	ctx := context.Background()
	if w.local == nil {
		w.local = map[string]*teccl.Planner{}
		for _, s := range w.shapes {
			if w.local[s.t.Name] == nil {
				w.local[s.t.Name] = teccl.NewPlanner(s.t, teccl.PlannerOptions{})
			}
			if _, err := w.local[s.t.Name].Plan(ctx, w.request(s)); err != nil {
				r.incorrect++
				r.problem("probe local plan "+s.name, err)
			}
		}
	}
	hc := &http.Client{Transport: w.tr}
	for _, s := range w.shapes {
		w.probeShape(r, hc, s)
	}
	if sessions, err := w.client.Sessions(ctx); err == nil {
		r.lay.total["daemon.sessions_open"] = float64(len(sessions))
	}
}

// probeShape takes serveProbeRepeats samples of each of the three
// calls for one shape.
func (w *serveWorkload) probeShape(r *runner, hc *http.Client, s *serveShape) {
	ctx := context.Background()
	wopt := wireconv.FromOptions(s.opt)
	body, err := json.Marshal(wire.PlanRequest{SessionID: s.remote.SessionID(),
		Demand: wireconv.FromDemand(s.d), Options: &wopt, Solver: wireconv.SolverName(s.solver)})
	if err != nil {
		r.incorrect++
		r.problem("probe request body "+s.name, err)
		return
	}
	for i := 0; i < serveProbeRepeats; i++ {
		r.tr.nextOp()
		r.timed(0, "core.replay_us", s.name, func() error {
			plan, err := w.local[s.t.Name].Plan(ctx, w.request(s))
			r.lay.add("core.replay_probes", 1)
			if err == nil && plan.CacheHit {
				r.lay.add("core.replay_hits", 1)
			}
			return err
		})
		r.timed(0, "daemon.handler_us", s.name, func() error {
			rec := httptest.NewRecorder()
			w.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
			}
			return nil
		})
		r.timed(0, "client.raw_post_us", s.name, func() error {
			resp, err := hc.Post(w.hs.URL+"/v1/plan", "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if _, err := io.Copy(io.Discard, resp.Body); err != nil {
				return err
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("raw POST answered %d", resp.StatusCode)
			}
			return nil
		})
	}
}

// ---- the per-layer metric table ----

// layerDef is one per-layer metric: its declaration for BENCHMARK.json
// and how a traced run computes it. exact marks a count that must
// repeat exactly from run to run of one commit.
type layerDef struct {
	name, unit, better string
	exact              bool
	value              func(r *runner) float64
}

func p50(key string) func(*runner) float64 {
	return func(r *runner) float64 { return median(r.lay.pooled[key]) }
}

func geo(key string) func(*runner) float64 {
	return func(r *runner) float64 { return classGeomean(r.lay.byClass[key]) }
}

// over divides a running total by another; both grow by the same whole
// number of identical laps, so the quotient does not depend on how many
// laps a run held.
func over(key, den string) func(*runner) float64 {
	return func(r *runner) float64 { return ratio(r.lay.total[key], r.lay.total[den]) }
}

func perOp(key string) func(*runner) float64 {
	return func(r *runner) float64 { return ratio(r.lay.total[key], float64(r.tracedOps)) }
}

func perLap(key string) func(*runner) float64 {
	return func(r *runner) float64 { return ratio(r.lay.total[key], float64(r.tracedLaps)) }
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// share is the part of a lap's typical operation time spent in a layer.
func share(key string) func(*runner) float64 {
	return func(r *runner) float64 { return ratio(r.lay.classMedianSum(key), r.lay.classMedianSum("op_ms")) }
}

// unattributed is, per LP-form class, the operation's median minus the
// medians of model build, simplex, decompose and validate: crash basis,
// greedy bound, session bookkeeping and Close.
func unattributed(r *runner) float64 {
	a := r.lay
	var rest []float64
	for class, solve := range a.byClass["lp.solve_ms"] {
		v := median(a.byClass["op_ms"][class]) - median(solve) -
			median(a.byClass["core.build_ms"][class]) - median(a.byClass["core.decompose_ms"][class]) -
			median(a.byClass["schedule.validate_us"][class])/1e3
		rest = append(rest, math.Max(v, 1e-3))
	}
	sort.Float64s(rest)
	return geomean(rest)
}

// horizonVsMonolithic compares each rolling-horizon class with the
// monolithic class solving the same instance.
func horizonVsMonolithic(r *runner) float64 {
	var ratios []float64
	for hz, mono := range horizonTwin {
		if m := median(r.lay.byClass["op_ms"][mono]); m > 0 {
			ratios = append(ratios, median(r.lay.byClass["op_ms"][hz])/m)
		}
	}
	sort.Float64s(ratios)
	return geomean(ratios)
}

func horizonFinishGap(r *runner) float64 {
	gap := 0
	for hz, mono := range horizonTwin {
		if a, b := r.last[hz], r.last[mono]; a != nil && b != nil {
			gap += a.Schedule.FinishEpoch() - b.Schedule.FinishEpoch()
		}
	}
	return float64(gap)
}

func traceOverheadPct(r *runner) float64 {
	plain := classGeomean(r.wallByClass())
	if plain == 0 {
		return 0
	}
	return (classGeomean(r.lay.byClass["op_ms"])/plain - 1) * 100
}

func opsPerSecond(r *runner) float64 {
	sum := 0.0
	for _, o := range r.samples {
		sum += o.rawMs
	}
	return ratio(float64(len(r.samples)), sum/1e3)
}

// serveOpUs is the median wire operation of the traced laps, in µs.
func serveOpUs(r *runner) float64 { return median(r.lay.pooled["op_ms"]) * 1e3 }

var layerDefs = []layerDef{
	{"topo.build_us_p50", "us", "lower", false, p50("topo.build_us")},
	{"topo.json_roundtrip_us_p50", "us", "lower", false, p50("topo.json_roundtrip_us")},
	{"topo.apply_delta_us_p50", "us", "lower", false, p50("topo.apply_delta_us")},
	{"topo.floyd_warshall_us_p50", "us", "lower", false, p50("topo.floyd_warshall_us")},
	{"collective.build_us_p50", "us", "lower", false, p50("collective.build_us")},
	{"collective.fingerprint_us_p50", "us", "lower", false, p50("collective.fingerprint_us")},

	{"core.estimate_us_p50", "us", "lower", false, p50("core.estimate_us")},
	{"core.build_ms_geomean", "ms", "lower", false, geo("core.build_ms")},
	{"core.build_share", "ratio", "lower", false, share("core.build_ms")},
	{"core.model_rows_total", "count", "lower", true, perLap("core.model_rows")},
	{"core.model_cols_total", "count", "lower", true, perLap("core.model_cols")},
	{"core.decompose_ms_geomean", "ms", "lower", false, geo("core.decompose_ms")},
	{"core.unattributed_ms_geomean", "ms", "lower", false, unattributed},
	{"core.crash_start_ratio", "ratio", "higher", true, perOp("core.crash_starts")},
	{"core.astar_ms_geomean", "ms", "lower", false, geo("core.astar_ms")},
	{"core.astar_rounds_per_op", "count", "lower", true, perOp("core.astar_rounds")},

	{"lp.solve_ms_geomean", "ms", "lower", false, geo("lp.solve_ms")},
	{"lp.solve_share", "ratio", "lower", false, share("lp.solve_ms")},
	{"lp.us_per_pivot_geomean", "us", "lower", false, geo("lp.us_per_pivot")},
	{"lp.pivots_per_op", "count", "lower", true, perOp("lp.pivots")},
	{"lp.refactorizations_per_op", "count", "lower", true, perOp("lp.refactorizations")},
	{"lp.ft_updates_per_op", "count", "lower", true, perOp("lp.ft_updates")},
	{"lp.update_nnz_per_op", "count", "lower", true, perOp("lp.update_nnz")},
	{"lp.nopresolve_ms_geomean", "ms", "lower", false, geo("lp.nopresolve_ms")},
	{"lp.warm_resolve_ms_geomean", "ms", "lower", false, geo("lp.warm_resolve_ms")},
	{"lp.small_solve_us_p50", "us", "lower", false, p50("lp.small_solve_us")},

	{"milp.solve_ms_geomean", "ms", "lower", false, geo("milp.solve_ms")},
	{"milp.nodes_per_op", "count", "lower", true, perOp("milp.nodes")},
	{"milp.node_iters_per_node", "count", "lower", true, over("milp.node_iters", "milp.nodes")},

	{"horizon.solve_ms_geomean", "ms", "lower", false, geo("horizon.solve_ms")},
	{"horizon.windows_per_op", "count", "lower", true, perOp("horizon.windows")},
	{"horizon.vs_monolithic_ratio", "ratio", "lower", false, horizonVsMonolithic},
	{"horizon.finish_gap_epochs", "epochs", "lower", true, horizonFinishGap},

	{"core.replan_incremental_ratio", "ratio", "higher", true, over("core.replans_incremental", "core.replans")},
	{"core.replan_fallback_structural", "count", "lower", true, perLap("core.replan_fallback_structural")},
	{"core.replan_fallback_budget", "count", "lower", true, perLap("core.replan_fallback_budget")},
	{"core.replan_fallback_sour", "count", "lower", true, perLap("core.replan_fallback_sour")},
	{"core.replan_rebases", "count", "lower", true, perLap("core.replan_rebases")},
	{"core.replan_pivots_per_op", "count", "lower", true, over("core.replan_pivots", "core.replans")},
	{"core.replan_incremental_ms_p50", "ms", "lower", false, p50("core.replan_incremental_ms")},
	{"core.replan_fallback_ms_p50", "ms", "lower", false, p50("core.replan_fallback_ms")},
	{"core.replan_rebase_ms_p50", "ms", "lower", false, p50("core.replan_rebase_ms")},
	{"core.replan_vs_cold_ratio_p50", "ratio", "lower", false, p50("core.replan_vs_cold_ratio")},
	{"core.replay_us_p50", "us", "lower", false, p50("core.replay_us")},
	{"core.replay_ratio", "ratio", "higher", true, over("core.replay_hits", "core.replay_probes")},

	{"schedule.validate_us_p50", "us", "lower", false, p50("schedule.validate_us")},
	{"schedule.prune_us_p50", "us", "lower", false, p50("schedule.prune_us")},
	{"schedule.sends_per_plan", "count", "lower", true, over("schedule.sends", "probe.inputs")},
	{"msccl.export_us_p50", "us", "lower", false, p50("msccl.export_us")},
	{"msccl.bytes_per_plan", "bytes", "lower", true, over("msccl.bytes", "msccl.exports")},
	{"sim.run_us_p50", "us", "lower", false, p50("sim.run_us")},

	{"wireconv.request_encode_us_p50", "us", "lower", false, p50("wireconv.request_encode_us")},
	{"wireconv.from_plan_us_p50", "us", "lower", false, p50("wireconv.from_plan_us")},
	{"wireconv.to_plan_us_p50", "us", "lower", false, p50("wireconv.to_plan_us")},
	{"wire.plan_marshal_us_p50", "us", "lower", false, p50("wire.plan_marshal_us")},
	{"wire.plan_unmarshal_us_p50", "us", "lower", false, p50("wire.plan_unmarshal_us")},
	{"wire.request_bytes", "bytes", "lower", true, over("wire.request_bytes", "probe.inputs")},
	// Not exact: the response carries solve_time_ms, whose digits vary.
	{"wire.response_bytes", "bytes", "lower", false, over("wire.response_bytes", "probe.inputs")},
	{"client.codec_us_p50", "us", "lower", false, func(r *runner) float64 {
		if raw := median(r.lay.pooled["client.raw_post_us"]); raw > 0 {
			return serveOpUs(r) - raw
		}
		return 0
	}},
	{"daemon.handler_us_p50", "us", "lower", false, p50("daemon.handler_us")},
	{"daemon.http_overhead_us_p50", "us", "lower", false, func(r *runner) float64 {
		if h := median(r.lay.pooled["daemon.handler_us"]); h > 0 {
			return median(r.lay.pooled["client.raw_post_us"]) - h
		}
		return 0
	}},
	{"daemon.plan_ms_p99", "ms", "lower", false, func(r *runner) float64 {
		if len(r.lay.pooled["daemon.handler_us"]) == 0 {
			return 0
		}
		return percentile(append(r.wallPooled(), r.lay.pooled["op_ms"]...), 0.99)
	}},
	{"daemon.rejected", "count", "lower", true, func(r *runner) float64 { return float64(r.rejected) }},
	{"daemon.sessions_open", "count", "lower", true, func(r *runner) float64 { return r.lay.total["daemon.sessions_open"] }},

	{"harness.trace_overhead_pct", "%", "lower", false, traceOverheadPct},
	{"harness.ops_per_s", "1/s", "higher", false, opsPerSecond},
	{"harness.peak_rss_mb", "MB", "lower", false, func(*runner) float64 { return peakRSSMB() }},
	{"harness.gc_cycles_per_op", "count", "lower", false, func(r *runner) float64 { return ratio(float64(r.gcCycles), float64(r.attempted)) }},
	{"harness.loadavg_start", "load", "lower", false, func(r *runner) float64 { return r.loadStart }},
	{"harness.loadavg_end", "load", "lower", false, func(*runner) float64 { return loadAverage() }},
	// What hostclock.go divided by, and the headline time without it.
	{"harness.host_slowdown_p50", "ratio", "lower", false, func(r *runner) float64 { return median(r.host.slow) }},
	{"harness.host_slowdown_p90", "ratio", "lower", false, func(r *runner) float64 { return percentile(r.host.slow, 0.9) }},
	{"harness.wall_op_ms_geomean", "ms", "lower", false, geo("op_wall_ms")},
}

// perLayer computes every per-layer metric of a traced run.
func (r *runner) perLayer() map[string]float64 {
	out := make(map[string]float64, len(layerDefs))
	for _, d := range layerDefs {
		v := d.value(r)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = v
	}
	return out
}
