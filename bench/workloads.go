package main

// workloads.go defines the four workloads: their input classes, how the
// seed turns into an operation list, and what one operation is. The
// seed only orders the work — it never changes how much work a lap
// holds or what the schedules look like, because the benchmark is
// judged on how little its numbers move from seed to seed on unchanged
// code.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"teccl"
)

// solveLimit is far above every operation here (the slowest is under a
// second), so no solve is ever cut short by the wall clock; an operation
// that does reach it is counted as failed.
const solveLimit = 60 * time.Second

const chunkBytes = 25e3

// class is one input shape: a topology, a demand over it, the solve
// options and the forced formulation.
type class struct {
	name   string
	topo   func() *teccl.Topology
	demand func(*teccl.Topology) *teccl.Demand
	opt    teccl.Options
	solver teccl.Solver
}

// workload is one closed-loop traffic mix driven by a single caller.
type workload interface {
	// inputs lists the distinct input shapes, for the per-layer probes.
	inputs() []class
	// script describes the operations of one lap in the order they run;
	// it is what the generator-determinism test hashes.
	script(lap int) []string
	// setup does everything that precedes the first operation except the
	// warm-up lap: input generation, daemon boot, first cold solves.
	setup() error
	// lap runs one lap of operations through r.op.
	lap(r *runner, lap int)
	// probe drives the layers only this workload reaches, one call at a
	// time, after a traced lap.
	probe(r *runner)
	teardown()
}

var workloadWhy = []struct{ name, why string }{
	{"cold_lp", "fresh session per LP/horizon ALLTOALL solve: the simplex kernel and model build do the work, sessions/wire/daemon none"},
	{"cold_milp", "fresh session per MILP/A* copy-capable solve: many small LPs, so per-solve overhead dominates and per-pivot cost matters little"},
	{"churn_replan", "warm LP sessions absorb scripted deltas: dual simplex from a live basis, and the session state that serve_replay only reads is written"},
	{"serve_replay", "replayed plans through RemotePlanner and an embedded daemon on loopback: wire, client, daemon and replay cache work, no simplex runs"},
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "cold_lp":
		return &coldWorkload{seed: seed, classes: coldLPClasses(), twice: coldLPTwice}, nil
	case "cold_milp":
		return &coldWorkload{seed: seed, classes: coldMILPClasses()}, nil
	case "churn_replan":
		return &churnWorkload{seed: seed}, nil
	case "serve_replay":
		return &serveWorkload{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold_lp, cold_milp, churn_replan or serve_replay)", name)
}

// scriptHash fingerprints the first three laps of a workload's
// operation list.
func scriptHash(w workload) uint64 {
	h := fnv.New64a()
	for lap := 0; lap < 3; lap++ {
		for _, s := range w.script(lap) {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// lapRand is the random stream of one lap of one seed.
func lapRand(seed int64, lap int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(lap)))
}

func slowest() teccl.Options {
	return teccl.Options{EpochMode: teccl.SlowestLink, TimeLimit: solveLimit}
}

func fastest() teccl.Options { return teccl.Options{TimeLimit: solveLimit} }

func allToAll(perPair int, bytes float64) func(*teccl.Topology) *teccl.Demand {
	return func(t *teccl.Topology) *teccl.Demand { return teccl.AllToAll(t, perPair, bytes) }
}

func allGather(t *teccl.Topology) *teccl.Demand { return teccl.AllGather(t, 1, chunkBytes) }

func broadcast(t *teccl.Topology) *teccl.Demand {
	return teccl.Broadcast(t, t.GPUs()[0], 1, chunkBytes)
}

func ndv2Mini2() *teccl.Topology   { return teccl.NDv2Mini(2) }
func ndv2Mini3() *teccl.Topology   { return teccl.NDv2Mini(3) }
func dgx2Mini2() *teccl.Topology   { return teccl.DGX2Mini(2) }
func dgx2Mini3() *teccl.Topology   { return teccl.DGX2Mini(3) }
func internal1x2() *teccl.Topology { return teccl.Internal1(2) }
func internal1x4() *teccl.Topology { return teccl.Internal1(4) }
func internal2x4() *teccl.Topology { return teccl.Internal2(4) }
func internal2x6() *teccl.Topology { return teccl.Internal2(6) }

// coldLPClasses is the paper's Table 4 case at laptop scale.
func coldLPClasses() []class {
	return []class{
		{"dgx1-x1", teccl.DGX1, allToAll(1, chunkBytes), fastest(), teccl.SolverLP},
		{"dgx1-x2", teccl.DGX1, allToAll(2, chunkBytes), fastest(), teccl.SolverLP},
		{"ndv2m2-x1", ndv2Mini2, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"ndv2m2-x2", ndv2Mini2, allToAll(2, chunkBytes), slowest(), teccl.SolverLP},
		{"dgx2m3-x1", dgx2Mini3, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"internal2x4-x1", internal2x4, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"internal1x2-x1", internal1x2, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"horizon-ndv2m2-x2", ndv2Mini2, allToAll(2, chunkBytes), slowest(), teccl.SolverHorizon},
		{"horizon-dgx1-x2", teccl.DGX1, allToAll(2, chunkBytes), fastest(), teccl.SolverHorizon},
	}
}

// coldLPTwice lists the cold_lp classes a lap visits twice: the five
// that solve in under 0.2 s. Small requests then outnumber large ones,
// as in any real mix, and — what decides it — the pooled median lands
// inside a dense cluster of 0.1 s solves with four samples per lap
// instead of on one class with a single sample per lap, which moved
// 15–23 % from run to run. It costs 0.5 s of a 2.7 s lap.
var coldLPTwice = map[string]bool{
	"internal1x2-x1": true, "dgx1-x1": true, "internal2x4-x1": true, "ndv2m2-x1": true, "horizon-dgx1-x2": true,
}

// horizonTwin names the monolithic class that solves the same instance
// as a rolling-horizon class.
var horizonTwin = map[string]string{
	"horizon-ndv2m2-x2": "ndv2m2-x2",
	"horizon-dgx1-x2":   "dgx1-x2",
}

// coldMILPClasses is the paper's ALLGATHER/copy case. The class count
// is odd on purpose: with equally frequent classes the pooled median
// then falls in the middle of one class's samples, not on the border
// between two classes of very different cost.
func coldMILPClasses() []class {
	return []class{
		{"milp-dgx1-allgather", teccl.DGX1, allGather, fastest(), teccl.SolverMILP},
		{"milp-dgx1-broadcast", teccl.DGX1, broadcast, fastest(), teccl.SolverMILP},
		{"milp-ndv2m2-allgather", ndv2Mini2, allGather, slowest(), teccl.SolverMILP},
		{"milp-dgx2m2-allgather", dgx2Mini2, allGather, slowest(), teccl.SolverMILP},
		{"milp-internal1x2-allgather", internal1x2, allGather, slowest(), teccl.SolverMILP},
		{"astar-internal1x4-allgather", internal1x4, allGather, slowest(), teccl.SolverAStar},
		{"astar-internal2x6-allgather", internal2x6, allGather, slowest(), teccl.SolverAStar},
		{"astar-ndv2m3-allgather", ndv2Mini3, allGather, slowest(), teccl.SolverAStar},
		{"auto-dgx1-allgather", teccl.DGX1, allGather, fastest(), teccl.SolverAuto},
	}
}

// ---- cold_lp and cold_milp ----

// coldWorkload times NewPlanner → Plan → Close on a fresh session per
// operation; a lap visits every class once (those in twice, twice), in
// seeded order.
type coldWorkload struct {
	seed    int64
	classes []class
	twice   map[string]bool
	topos   []*teccl.Topology
	demands []*teccl.Demand
}

func (w *coldWorkload) inputs() []class { return w.classes }

func (w *coldWorkload) order(lap int) []int {
	var order []int
	for i, c := range w.classes {
		order = append(order, i)
		if w.twice[c.name] {
			order = append(order, i)
		}
	}
	lapRand(w.seed, lap).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (w *coldWorkload) script(lap int) []string {
	var out []string
	for _, i := range w.order(lap) {
		out = append(out, w.classes[i].name)
	}
	return out
}

func (w *coldWorkload) setup() error {
	w.topos = make([]*teccl.Topology, len(w.classes))
	w.demands = make([]*teccl.Demand, len(w.classes))
	for i, c := range w.classes {
		w.topos[i] = c.topo()
		w.demands[i] = c.demand(w.topos[i])
	}
	return nil
}

func (w *coldWorkload) lap(r *runner, lap int) {
	for _, i := range w.order(lap) {
		c, t, d := w.classes[i], w.topos[i], w.demands[i]
		r.op(c.name, func(hook teccl.ProgressFunc) opResult {
			pl := teccl.NewPlanner(t, teccl.PlannerOptions{Defaults: c.opt})
			plan, err := pl.Plan(context.Background(), teccl.Request{Demand: d, Solver: c.solver, Progress: hook})
			pl.Close()
			return opResult{plan: plan, err: err}
		})
	}
}

func (w *coldWorkload) probe(*runner) {}
func (w *coldWorkload) teardown()     {}

// ---- churn_replan ----

// churnKinds is the delta script every session absorbs in a lap, in
// order. The permanent link failure comes first, so the other six
// deltas replan an already-churned fabric, as most of a long churn
// stream does.
var churnKinds = []string{"linkdown", "degrade", "restore", "drop", "readd", "straggler", "recover"}

func churnSessions() []class {
	return []class{
		{"ndv2m2", ndv2Mini2, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"dgx2m2", dgx2Mini2, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"internal2x4", internal2x4, allToAll(1, chunkBytes), slowest(), teccl.SolverLP},
		{"dgx1", teccl.DGX1, allToAll(1, chunkBytes), fastest(), teccl.SolverLP},
	}
}

// churnWorkload times one in-process Planner.Replan. Every lap opens the
// four sessions afresh, plans their base request (untimed) and feeds
// each the same scripted delta stream, so laps are identical and a run
// may hold any number of them. Only LP-form sessions take part: their
// replans run under a pivot budget and are reproducible, where MILP and
// A* incumbents replan under a wall-clock budget.
type churnWorkload struct {
	seed     int64
	sessions []class
	topos    []*teccl.Topology
	demands  []*teccl.Demand
	// live holds the sessions of the most recent lap, left open until
	// the next lap or teardown so retained_heap_mb sees what they pin.
	live []*teccl.Planner
}

func (w *churnWorkload) inputs() []class { return churnSessions() }

// sessionOrder is the seeded order in which a lap visits the sessions.
// It is all the seed decides here: which link fails and which pair is
// dropped are fixed, because they change the schedule's quality, and
// algbw_gbps_geomean has to read the same on every seed to carry a
// bound of half a percent.
func (w *churnWorkload) sessionOrder(lap int) []int {
	return lapRand(w.seed, lap).Perm(len(churnSessions()))
}

func (w *churnWorkload) script(lap int) []string {
	sessions := churnSessions()
	var out []string
	for _, s := range w.sessionOrder(lap) {
		for _, kind := range churnKinds {
			out = append(out, sessions[s].name+"/"+kind)
		}
	}
	return out
}

func (w *churnWorkload) setup() error {
	w.sessions = churnSessions()
	w.topos = make([]*teccl.Topology, len(w.sessions))
	w.demands = make([]*teccl.Demand, len(w.sessions))
	for i, c := range w.sessions {
		w.topos[i] = c.topo()
		w.demands[i] = c.demand(w.topos[i])
	}
	return nil
}

// droppedPair is the demand pair the script drops and re-adds: the
// first GPU's chunks for the last GPU.
func droppedPair(t *teccl.Topology) (src, dst int) {
	g := t.GPUs()
	return int(g[0]), int(g[len(g)-1])
}

// fastestLink is the degradation target: the highest-capacity link.
func fastestLink(t *teccl.Topology) teccl.LinkID {
	best, bestCap := teccl.LinkID(0), 0.0
	for l := 0; l < t.NumLinks(); l++ {
		if c := t.Link(teccl.LinkID(l)).Capacity; c > bestCap {
			best, bestCap = teccl.LinkID(l), c
		}
	}
	return best
}

// removableLink returns the first live link, other than keep, whose
// loss leaves the topology valid, or -1.
func removableLink(t *teccl.Topology, keep ...teccl.LinkID) teccl.LinkID {
next:
	for i := 0; i < t.NumLinks(); i++ {
		l := teccl.LinkID(i)
		if t.LinkDown(l) {
			continue
		}
		for _, k := range keep {
			if l == k {
				continue next
			}
		}
		probe, err := t.ApplyDelta(teccl.TopologyDelta{LinksDown: []teccl.LinkID{l}})
		if err == nil && probe.Validate() == nil {
			return l
		}
	}
	return -1
}

// stragglerLink is the link whose α the straggler deltas inflate.
const stragglerLink = teccl.LinkID(1)

// churnSession is the harness's mirror of one live session: the world
// and demand the session should now hold, so deltas can be aimed and
// the cold comparison can plan the same churned problem.
type churnSession struct {
	c          class
	base       *teccl.Topology
	baseDemand *teccl.Demand
	pl         *teccl.Planner
	demand     *teccl.Demand
	tau        float64
	degrad     teccl.LinkID
}

// delta builds the concrete delta for one script step from the
// session's current state.
func (s *churnSession) delta(kind string) teccl.Delta {
	world := s.pl.Topology()
	var d teccl.Delta
	switch kind {
	case "degrade": // κ-preserving at slowest-link τ, structural at fastest-link τ
		d.Scale = []teccl.LinkScale{{Link: s.degrad, Capacity: 0.8}}
	case "restore":
		d.Scale = []teccl.LinkScale{{Link: s.degrad, Capacity: 1.25}}
	case "drop":
		src, dst := droppedPair(s.base)
		d.DropPairs = []teccl.DemandPair{{Src: src, Dst: dst}}
	case "readd": // resurrect the dropped pair through the column-append path
		src, dst := droppedPair(s.base)
		add := teccl.NewDemand(s.base, s.demand.NumChunks(), s.demand.ChunkBytes)
		for _, c := range s.baseDemand.DestWantsFromSource(src, dst) {
			add.Set(src, c, dst)
		}
		d.AddDemand = add
	case "linkdown": // permanent failure while the fabric stays connected
		d.LinksDown = []teccl.LinkID{removableLink(world, s.degrad, stragglerLink)}
	case "straggler": // α jumps to 3τ: δ changes, so the model's shape does
		d.Scale = []teccl.LinkScale{{Link: stragglerLink, Alpha: 3 * s.tau / world.Link(stragglerLink).Alpha}}
	case "recover":
		d.Scale = []teccl.LinkScale{{Link: stragglerLink,
			Alpha: s.base.Link(stragglerLink).Alpha / world.Link(stragglerLink).Alpha}}
	}
	return d
}

// apply mirrors an accepted delta into the harness's demand copy.
func (s *churnSession) apply(d teccl.Delta) {
	for _, p := range d.DropPairs {
		s.demand.DropPair(p.Src, p.Dst)
	}
	if d.AddDemand != nil {
		s.demand.Or(d.AddDemand)
	}
}

// replanOutcome names how a replan was served, reading the fallback
// kind off the session counters.
func replanOutcome(p *teccl.Plan, before, after teccl.PlannerStats) string {
	switch {
	case p.ReBased:
		return "rebase"
	case !p.ReplanFallback:
		return "incremental"
	case after.ReplanFallbackStructural > before.ReplanFallbackStructural:
		return "fallback-structural"
	case after.ReplanFallbackBudget > before.ReplanFallbackBudget:
		return "fallback-budget"
	case after.ReplanFallbackSour > before.ReplanFallbackSour:
		return "fallback-sour"
	}
	return "fallback-nomodel"
}

func (w *churnWorkload) closeLive() {
	for _, pl := range w.live {
		pl.Close()
	}
	w.live = nil
}

func (w *churnWorkload) lap(r *runner, lap int) {
	w.closeLive()
	ctx := context.Background()
	for _, si := range w.sessionOrder(lap) {
		c := w.sessions[si]
		s := &churnSession{c: c, base: w.topos[si], baseDemand: w.demands[si],
			demand: w.demands[si].Clone(), degrad: fastestLink(w.topos[si])}
		s.pl = teccl.NewPlanner(s.base, teccl.PlannerOptions{
			Defaults: c.opt,
			// Re-base eagerly, as the churn-stream scenarios do: at this
			// scale a decayed basis is cheaper to replace than to repair.
			Replan: teccl.ReplanOptions{RebaseThreshold: 0.5},
		})
		w.live = append(w.live, s.pl)
		basePlan, err := s.pl.Plan(ctx, teccl.Request{Demand: s.demand, Solver: c.solver})
		if err != nil {
			r.fail(c.name+"/base", err)
			continue
		}
		s.tau = basePlan.Tau
		for _, kind := range churnKinds {
			d := s.delta(kind)
			name := c.name + "/" + kind
			r.probeApplyDelta(name, s.pl.Topology(), d)
			plan := r.op(name, func(teccl.ProgressFunc) opResult {
				before := s.pl.Stats()
				plan, err := s.pl.Replan(ctx, d)
				if err != nil {
					return opResult{err: err}
				}
				return opResult{plan: plan, world: s.pl.Topology(), outcome: replanOutcome(plan, before, s.pl.Stats())}
			})
			if plan == nil {
				continue
			}
			s.apply(d)
			r.probeColdTwin(name, s)
		}
		r.noteStats(s.pl.Stats())
	}
}

func (w *churnWorkload) probe(*runner) {}
func (w *churnWorkload) teardown()     { w.closeLive() }

// ---- serve_replay ----

// serveRepeats is how often one lap requests each of the eight shapes.
const serveRepeats = 50

var errNotReplayed = errors.New("plan was solved, not replayed from the session cache")

type serveShape struct {
	class
	t      *teccl.Topology
	d      *teccl.Demand
	remote *teccl.RemotePlanner
}

// serveWorkload times RemotePlanner.Plan against an embedded daemon on a
// loopback listener. Set-up solves every shape once through the wire,
// so every timed request must be a replay; MILP-form plans are never
// replayed by a session and are kept out, so the workload stays pure
// dispatch.
type serveWorkload struct {
	seed   int64
	shapes []*serveShape
	srv    *teccl.Server
	hs     *httptest.Server
	tr     *http.Transport
	client *teccl.Client
	// local are in-process sessions holding the same cached shapes, for
	// the traced run's replay probe (one per topology).
	local map[string]*teccl.Planner
}

func serveClasses() []class {
	var out []class
	for _, bytes := range []float64{25e3, 50e3, 100e3, 200e3} {
		kb := int(bytes / 1e3)
		out = append(out,
			class{fmt.Sprintf("dgx1-%dkb", kb), teccl.DGX1, allToAll(1, bytes), fastest(), teccl.SolverLP},
			class{fmt.Sprintf("ndv2m2-%dkb", kb), ndv2Mini2, allToAll(1, bytes), slowest(), teccl.SolverLP})
	}
	return out
}

func (w *serveWorkload) inputs() []class { return serveClasses() }

func (w *serveWorkload) order(lap int) []int {
	classes := len(serveClasses())
	order := make([]int, 0, classes*serveRepeats)
	for i := 0; i < classes*serveRepeats; i++ {
		order = append(order, i%classes)
	}
	lapRand(w.seed, lap).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (w *serveWorkload) script(lap int) []string {
	classes := serveClasses()
	var out []string
	for _, i := range w.order(lap) {
		out = append(out, classes[i].name)
	}
	return out
}

func (w *serveWorkload) request(s *serveShape) teccl.Request {
	opt := s.opt
	return teccl.Request{Demand: s.d, Options: &opt, Solver: s.solver}
}

func (w *serveWorkload) setup() error {
	w.srv = teccl.NewServer(teccl.ServerOptions{})
	w.hs = httptest.NewServer(w.srv)
	w.tr = &http.Transport{MaxIdleConnsPerHost: 4}
	var err error
	w.client, err = teccl.Dial(w.hs.URL, teccl.ClientOptions{HTTPClient: &http.Client{Transport: w.tr}})
	if err != nil {
		return err
	}
	byTopo := map[string]*teccl.RemotePlanner{}
	for _, c := range serveClasses() {
		s := &serveShape{class: c, t: c.topo()}
		s.d = c.demand(s.t)
		if byTopo[s.t.Name] == nil {
			byTopo[s.t.Name] = w.client.Planner(s.t)
		}
		s.remote = byTopo[s.t.Name]
		w.shapes = append(w.shapes, s)
	}
	// The cold lap: every shape once through the wire.
	for _, s := range w.shapes {
		if _, err := s.remote.Plan(context.Background(), w.request(s)); err != nil {
			return fmt.Errorf("cold lap, %s: %w", s.name, err)
		}
	}
	return nil
}

// isRejection reports whether a client error is daemon admission control
// (HTTP 429/503) rather than a solve failure.
func isRejection(err error) bool {
	s := err.Error()
	return strings.Contains(s, "http 429") || strings.Contains(s, "http 503")
}

func (w *serveWorkload) lap(r *runner, lap int) {
	for _, i := range w.order(lap) {
		s := w.shapes[i]
		req := w.request(s)
		r.op(s.name, func(teccl.ProgressFunc) opResult {
			plan, err := s.remote.Plan(context.Background(), req)
			if err == nil && !plan.CacheHit {
				err = errNotReplayed
			}
			return opResult{plan: plan, err: err}
		})
	}
}

func (w *serveWorkload) teardown() {
	for _, pl := range w.local {
		pl.Close()
	}
	seen := map[*teccl.RemotePlanner]bool{}
	for _, s := range w.shapes {
		if !seen[s.remote] {
			seen[s.remote] = true
			s.remote.Close()
		}
	}
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	if w.hs != nil {
		w.hs.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}
