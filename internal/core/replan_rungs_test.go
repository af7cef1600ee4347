package core

// A seeded stream of mixed churn — link loss, capacity cuts and
// restorations, stragglers and their recovery, demand drops and re-adds,
// node loss, growth — replanned over LP, MILP and A* sessions, with the
// rung every delta lands on counted and pinned.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

var rungStreamDeltas = flag.Int("rungs.deltas", 0,
	"deltas TestReplanStreamRungs replans (0: the pinned stream; any other count logs its rung table instead of pinning it)")

var rungShadow = flag.Bool("rungs.shadow", false,
	"TestReplanStreamRungs also plans each MILP/A* delta cold in a fresh session and logs incremental vs cold per form and delta kind")

// rungStreamPinned is the committed stream's length.
const rungStreamPinned = 175

// rungSessionLife is how many deltas a session absorbs before the stream
// opens a fresh one on the unchurned fabric, so the worlds stay near the
// ones a serving session sees instead of eroding to nothing.
const rungSessionLife = 16

// rungFabric is one session shape of the stream.
type rungFabric struct {
	name   string
	build  func() *topo.Topology
	solver Solver
	demand func(*topo.Topology) *collective.Demand
	opt    Options
}

func rungAllToAll(t *topo.Topology) *collective.Demand {
	return collective.AllToAll(t.NumNodes(), testGPUs(t), 1, 25e3)
}

func rungAllGather(t *topo.Topology) *collective.Demand {
	return collective.AllGather(t.NumNodes(), testGPUs(t), 1, 25e3)
}

var rungFabrics = []rungFabric{
	{"ndv2m2-lp", func() *topo.Topology { return topo.NDv2Mini(2) }, SolverLP, rungAllToAll, Options{EpochMode: SlowestLink}},
	{"dgx1-lp", topo.DGX1, SolverLP, rungAllToAll, Options{}},
	{"dgx2m2-lp", func() *topo.Topology { return topo.DGX2Mini(2) }, SolverLP, rungAllToAll, Options{EpochMode: SlowestLink}},
	{"ring6-lp", func() *topo.Topology { return topo.Ring(6, 25e9, 0.7e-6) }, SolverLP, rungAllToAll, Options{}},
	{"mesh4-lp", func() *topo.Topology { return topo.FullMesh(4, 25e9, 0.7e-6) }, SolverLP, rungAllToAll, Options{}},
	{"ring4-milp", func() *topo.Topology { return topo.Ring(4, 25e9, 0.7e-6) }, SolverMILP, rungAllGather, Options{}},
	{"ring4-astar", func() *topo.Topology { return topo.Ring(4, 25e9, 0.7e-6) }, SolverAStar, rungAllGather, Options{}},
}

// rungSession is one live session of the stream with the harness's
// mirror of the request it should now hold.
type rungSession struct {
	f          rungFabric
	pl         *Planner
	base       *topo.Topology
	baseDemand *collective.Demand
	demand     *collective.Demand
	dropped    []DemandPair
	age        int
	lpReplans  int
	shadow     *[]shadowRow // nil unless -rungs.shadow
}

// shadowRow is one MILP/A* replan beside a fresh session's cold plan of
// the same churned request.
type shadowRow struct {
	form, kind, rung string
	replanMs, coldMs float64
	finishGap        float64 // replan's FinishTime minus the cold plan's, seconds
	tauDiff, objDiff bool
}

// deltaKind names the draw of rungSession.next a delta came from.
func deltaKind(d Delta) string {
	switch {
	case len(d.LinksDown) > 0 && len(d.Scale) > 0:
		return "loss+cut"
	case len(d.LinksDown) > 0:
		return "link-loss"
	case len(d.NodesDown) > 0:
		return "gpu-loss"
	case len(d.AddNodes) > 0:
		return "join"
	case len(d.DropPairs) > 0:
		return "pair-drop"
	case d.AddDemand != nil:
		return "pair-readd"
	case d.Scale[0].Capacity > 1:
		return "cap-up"
	case d.Scale[0].Capacity > 0:
		return "cap-cut"
	case d.Scale[0].Alpha > 1:
		return "straggler"
	}
	return "recover"
}

// open starts a fresh session on the unchurned fabric and plans its
// base request.
func (s *rungSession) open(t *testing.T) {
	t.Helper()
	if s.pl != nil {
		s.pl.Close()
	}
	s.base = s.f.build()
	s.baseDemand = s.f.demand(s.base)
	s.demand = s.baseDemand.Clone()
	s.dropped, s.age = nil, 0
	s.pl = NewPlanner(s.base, PlannerOptions{Defaults: s.f.opt})
	if _, err := s.pl.Plan(context.Background(), Request{Demand: s.baseDemand, Solver: s.f.solver}); err != nil {
		t.Fatalf("%s: base plan: %v", s.f.name, err)
	}
	assertRecipesRestate(t, s.pl)
}

// next draws one delta against the session's current world. A link is
// cut or slowed only while it runs at its base capacity and α, so a
// world never compounds cuts into a κ or δ that no serving fabric has.
func (s *rungSession) next(rng *rand.Rand) Delta {
	world := s.pl.Topology()
	var live, nominal []topo.LinkID
	for l := 0; l < world.NumLinks(); l++ {
		lid := topo.LinkID(l)
		if world.LinkDown(lid) {
			continue
		}
		live = append(live, lid)
		if l < s.base.NumLinks() && world.Link(lid).Capacity >= s.base.Link(lid).Capacity &&
			world.Link(lid).Alpha <= s.base.Link(lid).Alpha {
			nominal = append(nominal, lid)
		}
	}
	anyLive := func() topo.LinkID { return live[rng.Intn(len(live))] }
	gpus := testGPUs(s.base)
	for {
		switch k := rng.Intn(100); {
		case k < 18: // a link fails, mostly one the fabric can lose
			if rng.Intn(5) == 0 {
				return Delta{LinksDown: []topo.LinkID{anyLive()}}
			}
			if cand := liveRemovableLinks(world); len(cand) > 0 {
				return Delta{LinksDown: []topo.LinkID{cand[rng.Intn(len(cand))]}}
			}
		case k < 34: // capacity cut
			if len(nominal) > 0 {
				f := []float64{0.5, 0.8, 0.9, 0.95}[rng.Intn(4)]
				return Delta{Scale: []topo.LinkScale{{Link: nominal[rng.Intn(len(nominal))], Capacity: f}}}
			}
		case k < 50: // a cut link restored, or a provisioned upgrade
			for _, l := range rng.Perm(len(live)) {
				lid := live[l]
				if int(lid) >= s.base.NumLinks() {
					continue // a joiner's link
				}
				if c, c0 := world.Link(lid).Capacity, s.base.Link(lid).Capacity; c < c0 {
					return Delta{Scale: []topo.LinkScale{{Link: lid, Capacity: c0 / c}}}
				}
			}
			return Delta{Scale: []topo.LinkScale{{Link: anyLive(), Capacity: 1.25}}}
		case k < 60: // a straggler
			if len(nominal) > 0 {
				f := []float64{1.5, 3, 10}[rng.Intn(3)]
				return Delta{Scale: []topo.LinkScale{{Link: nominal[rng.Intn(len(nominal))], Alpha: f}}}
			}
		case k < 70: // a straggler recovers
			for _, l := range rng.Perm(len(live)) {
				lid := live[l]
				if int(lid) >= s.base.NumLinks() {
					continue
				}
				if a, a0 := world.Link(lid).Alpha, s.base.Link(lid).Alpha; a > a0 {
					return Delta{Scale: []topo.LinkScale{{Link: lid, Alpha: a0 / a}}}
				}
			}
		case k < 80: // a demand pair leaves
			src, dst := gpus[rng.Intn(len(gpus))], gpus[rng.Intn(len(gpus))]
			if src != dst && len(s.demand.DestWantsFromSource(src, dst)) > 0 {
				s.dropped = append(s.dropped, DemandPair{Src: src, Dst: dst})
				return Delta{DropPairs: []DemandPair{{Src: src, Dst: dst}}}
			}
		case k < 90: // the last pair that left comes back
			if n := len(s.dropped); n > 0 {
				pr := s.dropped[n-1]
				s.dropped = s.dropped[:n-1]
				add := collective.New(s.demand.NumNodes(), s.demand.NumChunks(), s.demand.ChunkBytes)
				for _, c := range s.baseDemand.DestWantsFromSource(pr.Src, pr.Dst) {
					add.Set(pr.Src, c, pr.Dst)
				}
				return Delta{AddDemand: add}
			}
		case k < 94: // a link fails while another degrades
			if len(nominal) > 0 {
				a, b := anyLive(), nominal[rng.Intn(len(nominal))]
				if a != b {
					return Delta{LinksDown: []topo.LinkID{a}, Scale: []topo.LinkScale{{Link: b, Capacity: 0.8}}}
				}
			}
		case k < 97: // a GPU is lost, while a link elsewhere stays up
			n := topo.NodeID(gpus[rng.Intn(len(gpus))])
			for _, l := range live {
				if lk := world.Link(l); lk.Src != n && lk.Dst != n {
					return Delta{NodesDown: []topo.NodeID{n}}
				}
			}
		default: // a node joins, linked to node 0 both ways
			ref := world.Link(0)
			n := topo.NodeID(world.NumNodes())
			return Delta{
				AddNodes: []topo.Node{{Name: fmt.Sprintf("joiner%d", n)}},
				AddLinks: []topo.Link{
					{Src: n, Dst: 0, Capacity: ref.Capacity, Alpha: ref.Alpha},
					{Src: 0, Dst: n, Capacity: ref.Capacity, Alpha: ref.Alpha},
				},
			}
		}
	}
}

// churnDemand is the request a Replan of d holds afterwards.
func (s *rungSession) churnDemand(d Delta, nodes int) *collective.Demand {
	out := s.demand.Clone()
	if nodes > out.NumNodes() {
		out = out.WithNodes(nodes)
	}
	for _, pr := range d.DropPairs {
		out.DropPair(pr.Src, pr.Dst)
	}
	for _, n := range d.NodesDown {
		out.DropNode(int(n))
	}
	if d.AddDemand != nil {
		out.Or(d.AddDemand)
	}
	return out
}

// step replans one delta, checks the answer and the session's recipes
// (assertRecipesRestate), and names the rung that served it:
// "incremental", "resume", "structural", "budget", "sour", "no-model", or
// "error" when Replan errored (then the session is reopened). A fallback
// that replays fails the test: it plans in the churned session state,
// whose replay cache starts empty.
func (s *rungSession) step(t *testing.T, d Delta) string {
	t.Helper()
	ctx := context.Background()
	before := s.pl.Stats()
	start := time.Now()
	p, err := s.pl.Replan(ctx, d)
	replanMs := msSince(start)
	world := s.pl.Topology()
	demand := s.churnDemand(d, world.NumNodes())
	s.age++
	if err != nil {
		// A replan may fail only where a fresh session's cold plan of the
		// same churned request fails too.
		fresh := NewPlanner(world, PlannerOptions{Defaults: s.f.opt})
		_, cerr := fresh.Plan(ctx, Request{Demand: demand, Solver: s.f.solver})
		fresh.Close()
		if cerr == nil {
			t.Errorf("%s: replan of %+v failed (%v), a cold plan of the same request succeeds", s.f.name, d, err)
		}
		s.open(t)
		return "error"
	}
	s.demand = demand
	assertAvoidsDown(t, p)
	assertRecipesRestate(t, s.pl)
	after := s.pl.Stats()
	if p.ReplanFallback && p.CacheHit {
		t.Errorf("%s: the fallback of %+v replayed, but the churned state's cache starts empty", s.f.name, d)
	}
	rung := "incremental"
	switch {
	case after.ReplanResumes > before.ReplanResumes:
		rung = "resume"
	case after.ReplanFallbackBudget > before.ReplanFallbackBudget:
		rung = "budget"
	case after.ReplanFallbackSour > before.ReplanFallbackSour:
		rung = "sour"
	case after.ReplanFallbackNoModel > before.ReplanFallbackNoModel:
		rung = "no-model"
	case after.ReplanFallbackStructural > before.ReplanFallbackStructural:
		rung = "structural"
	}
	if s.shadow != nil && s.f.solver != SolverLP {
		fresh := NewPlanner(world, PlannerOptions{Defaults: s.f.opt})
		start := time.Now()
		cold, err := fresh.Plan(ctx, Request{Demand: demand, Solver: s.f.solver})
		coldMs := msSince(start)
		fresh.Close()
		if err != nil {
			t.Errorf("%s (%s): shadow cold plan of %+v: %v", s.f.name, rung, d, err)
		} else {
			*s.shadow = append(*s.shadow, shadowRow{
				form: s.f.solver.String(), kind: deltaKind(d), rung: rung,
				replanMs: replanMs, coldMs: coldMs,
				finishGap: p.Schedule.FinishTime() - cold.Schedule.FinishTime(),
				tauDiff:   p.Tau != cold.Tau,
				objDiff:   !objClose(p.Objective, cold.Objective),
			})
		}
	}
	if s.f.solver == SolverLP {
		// Every fourth LP replan is held to a cold solve of the churned
		// request at the replan's own discretization.
		if s.lpReplans++; s.lpReplans%4 == 0 {
			opt := s.f.opt
			opt.Epochs, opt.Tau = p.Epochs, p.Tau
			cold, err := SolveLP(ctx, world, demand, opt)
			if err != nil {
				t.Errorf("%s (%s): cold reference at K=%d: %v", s.f.name, rung, p.Epochs, err)
			} else if !objClose(p.Objective, cold.Objective) {
				t.Errorf("%s (%s): replan objective %.9g, cold %.9g (delta %+v)", s.f.name, rung, p.Objective, cold.Objective, d)
			}
		}
	}
	if s.age >= rungSessionLife {
		s.open(t)
	}
	return rung
}

func msSince(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1e3 }

// runRungStream replans n seeded deltas, dealt round-robin over one
// session per fabric, and returns the rung histogram per fabric; shadow,
// when non-nil, collects a shadowRow per MILP/A* replan.
func runRungStream(t *testing.T, n int, shadow *[]shadowRow) map[string]map[string]int {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	sessions := make([]*rungSession, len(rungFabrics))
	hist := map[string]map[string]int{}
	for i, f := range rungFabrics {
		sessions[i] = &rungSession{f: f, shadow: shadow}
		sessions[i].open(t)
		hist[f.name] = map[string]int{}
	}
	defer func() {
		for _, s := range sessions {
			s.pl.Close()
		}
	}()
	for i := 0; i < n && !t.Failed(); i++ {
		s := sessions[i%len(sessions)]
		hist[s.f.name][s.step(t, s.next(rng))]++
	}
	return hist
}

// rungTable renders a histogram one fabric a line, rungs sorted.
func rungTable(hist map[string]map[string]int) string {
	var b strings.Builder
	for _, f := range rungFabrics {
		var rungs []string
		for r, c := range hist[f.name] {
			rungs = append(rungs, fmt.Sprintf("%s=%d", r, c))
		}
		sort.Strings(rungs)
		fmt.Fprintf(&b, "%-12s %s\n", f.name, strings.Join(rungs, " "))
	}
	return b.String()
}

// TestReplanStreamRungs replans a seeded stream of mixed churn over five
// LP fabrics (NDv2Mini(2), DGX1, DGX2Mini(2), Ring(6), FullMesh(4), all
// ALLTOALL) and a Ring(4) ALLGATHER MILP and A* session. Every replan
// validates on its churned world and avoids its downed links, every
// recipe restates its incumbent (assertRecipesRestate); a replan
// errors only where a fresh session's cold plan of the same churned
// request errors too; every fourth LP replan equals a cold solve at its
// (Epochs, Tau). No rung reads a clock (the LP budget counts pivots), so
// the rung each delta lands on is pinned per fabric, and a change to which rung fires is a diff of
// this table. -rungs.deltas=N runs a stream of another length and logs
// its table.
func TestReplanStreamRungs(t *testing.T) {
	if testing.Short() {
		t.Skip("the replan stream takes seconds")
	}
	skipUnderRace(t)
	n := *rungStreamDeltas
	if n == 0 {
		n = rungStreamPinned
	}
	want := map[string]map[string]int{
		"ndv2m2-lp":   {"incremental": 22, "sour": 1, "structural": 2},
		"dgx1-lp":     {"incremental": 7, "resume": 5, "structural": 13},
		"dgx2m2-lp":   {"error": 1, "incremental": 20, "structural": 4},
		"ring6-lp":    {"error": 1, "incremental": 13, "resume": 3, "sour": 2, "structural": 6},
		"mesh4-lp":    {"incremental": 8, "resume": 2, "sour": 2, "structural": 13},
		"ring4-milp":  {"incremental": 4, "sour": 3, "structural": 18},
		"ring4-astar": {"error": 2, "incremental": 10, "structural": 13},
	}
	var shadow *[]shadowRow
	if *rungShadow {
		shadow = new([]shadowRow)
	}
	hist := runRungStream(t, n, shadow)
	t.Logf("%d deltas, rungs per fabric:\n%s", n, rungTable(hist))
	if shadow != nil {
		t.Logf("incremental replans vs a fresh session's cold plan (ms):\n%s", shadowTable(*shadow))
	}
	if n == rungStreamPinned && !reflect.DeepEqual(hist, want) {
		t.Errorf("rungs:\n%swant:\n%s", rungTable(hist), rungTable(want))
	}
}

// shadowTable renders shadow rows one form × delta kind a line: the
// deltas drawn, how many the incremental rung served, and over those the
// replan's and the cold plan's median and p90 wall time, how many
// replans complete later or earlier (FinishTime) than the cold plan, how
// many cold plans re-derived another τ (the replan keeps its own), and
// how many reached another objective (which also moves with K and τ).
func shadowTable(rows []shadowRow) string {
	type group struct {
		n                          int
		inc, cold                  []float64
		later, earlier, taus, objs int
	}
	groups := map[[2]string]*group{}
	var keys [][2]string
	for _, r := range rows {
		k := [2]string{r.form, r.kind}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
			keys = append(keys, k)
		}
		g.n++
		if r.rung != "incremental" {
			continue
		}
		g.inc = append(g.inc, r.replanMs)
		g.cold = append(g.cold, r.coldMs)
		switch {
		case r.finishGap > 1e-12:
			g.later++
		case r.finishGap < -1e-12:
			g.earlier++
		}
		if r.tauDiff {
			g.taus++
		}
		if r.objDiff {
			g.objs++
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	quantile := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[int(q*float64(len(s)-1)+0.5)]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-10s %5s %5s %9s %9s %9s %9s %5s %5s %5s %5s\n",
		"form", "kind", "n", "inc", "inc_p50", "inc_p90", "cold_p50", "cold_p90", "later", "early", "τ≠", "obj≠")
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(&b, "%-6s %-10s %5d %5d %9.2f %9.2f %9.2f %9.2f %5d %5d %5d %5d\n",
			k[0], k[1], g.n, len(g.inc), quantile(g.inc, 0.5), quantile(g.inc, 0.9),
			quantile(g.cold, 0.5), quantile(g.cold, 0.9), g.later, g.earlier, g.taus, g.objs)
	}
	return b.String()
}
