package core

// The churn_replan benchmark's delta script (bench/workloads.go) replayed
// in tier-1: replan against cold on every delta, and the rung each delta
// takes.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// churnScript is the benchmark's delta script, in order: a permanent
// link failure first, so the other six deltas replan an already-churned
// fabric.
var churnScript = []string{"linkdown", "degrade", "restore", "drop", "readd", "straggler", "recover"}

// scriptStraggler is the link whose α the straggler deltas inflate.
const scriptStraggler = topo.LinkID(1)

// scriptSession is one LP session fed the script, with the harness's
// mirror of the demand it should now hold.
type scriptSession struct {
	pl         *Planner
	opt        Options
	base       *topo.Topology
	baseDemand *collective.Demand
	demand     *collective.Demand
	tau        float64
	degrad     topo.LinkID // the fastest link, first of them
}

// newScriptSession opens a session on tt the way the benchmark does and
// plans its ALLTOALL base request.
func newScriptSession(t *testing.T, tt *topo.Topology, opt Options) *scriptSession {
	t.Helper()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	s := &scriptSession{
		pl:  NewPlanner(tt, PlannerOptions{Defaults: opt}),
		opt: opt, base: tt, baseDemand: d, demand: d.Clone(),
	}
	for l := 0; l < tt.NumLinks(); l++ {
		if tt.Link(topo.LinkID(l)).Capacity > tt.Link(s.degrad).Capacity {
			s.degrad = topo.LinkID(l)
		}
	}
	p, err := s.pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	s.tau = p.Tau
	return s
}

// delta builds one script step against the session's current world, as
// the benchmark's churnSession.delta does.
func (s *scriptSession) delta(t *testing.T, kind string) Delta {
	world := s.pl.Topology()
	gpus := testGPUs(s.base)
	src, dst := gpus[0], gpus[len(gpus)-1]
	switch kind {
	case "degrade":
		return Delta{Scale: []topo.LinkScale{{Link: s.degrad, Capacity: 0.8}}}
	case "restore":
		return Delta{Scale: []topo.LinkScale{{Link: s.degrad, Capacity: 1.25}}}
	case "drop":
		return Delta{DropPairs: []DemandPair{{Src: src, Dst: dst}}}
	case "readd":
		add := collective.New(s.base.NumNodes(), s.demand.NumChunks(), s.demand.ChunkBytes)
		for _, c := range s.baseDemand.DestWantsFromSource(src, dst) {
			add.Set(src, c, dst)
		}
		return Delta{AddDemand: add}
	case "linkdown":
		for _, l := range liveRemovableLinks(world) {
			if l != s.degrad && l != scriptStraggler {
				return Delta{LinksDown: []topo.LinkID{l}}
			}
		}
		t.Fatal("no removable link")
	case "straggler":
		return Delta{Scale: []topo.LinkScale{{Link: scriptStraggler, Alpha: 3 * s.tau / world.Link(scriptStraggler).Alpha}}}
	case "recover":
		return Delta{Scale: []topo.LinkScale{{Link: scriptStraggler, Alpha: s.base.Link(scriptStraggler).Alpha / world.Link(scriptStraggler).Alpha}}}
	}
	t.Fatalf("unknown delta %q", kind)
	return Delta{}
}

// replan applies d and names the rung that served it: "incremental",
// "resume" (the displaced incumbent swapped back in), "structural-cold",
// or "fallback-other" (budget, sour or no model), which the script should
// not reach. Every replan's recipes are held to what they derive
// (assertRecipesRestate), and a fallback that replays fails the test: the
// churned session state's replay cache starts empty.
func (s *scriptSession) replan(t *testing.T, d Delta) (*Plan, string) {
	t.Helper()
	before := s.pl.Stats()
	p, err := s.pl.Replan(context.Background(), d)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range d.DropPairs {
		s.demand.DropPair(pr.Src, pr.Dst)
	}
	if d.AddDemand != nil {
		s.demand.Or(d.AddDemand)
	}
	assertRecipesRestate(t, s.pl)
	if p.ReplanFallback && p.CacheHit {
		t.Fatalf("a fallback replayed, but the churned state's cache starts empty")
	}
	after := s.pl.Stats()
	switch {
	case after.ReplanResumes > before.ReplanResumes:
		if p.ReplanFallback || after.ReplanFallbacks != before.ReplanFallbacks {
			t.Errorf("a resume reported a fallback")
		}
		return p, "resume"
	case !p.ReplanFallback:
		return p, "incremental"
	case after.ReplanFallbackStructural == before.ReplanFallbackStructural:
		return p, "fallback-other"
	}
	return p, "structural-cold"
}

// cold plans the session's current request on its current world in a
// fresh session: what Replan must agree with.
func (s *scriptSession) cold(t *testing.T) *Plan {
	t.Helper()
	pl := NewPlanner(s.pl.Topology(), PlannerOptions{Defaults: s.opt})
	defer pl.Close()
	p, err := pl.Plan(context.Background(), Request{Demand: s.demand.Clone(), Solver: SolverLP})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestReplanScriptMatchesCold runs the benchmark's churn script on
// NDv2Mini(2) at the slowest-link τ and on DGX1 at the fastest-link τ.
// Every replan's objective equals a fresh session's cold plan of the same
// churned request, every recipe restates its incumbent
// (assertRecipesRestate), and each delta takes the rung pinned below, so
// a change to which rung fires is a diff of this table. A recover
// returns to the world before its straggler, and resumes the incumbent
// the straggler's cold plan displaced; DGX1's restore likewise resumes
// the incumbent its degrade displaced.
func TestReplanScriptMatchesCold(t *testing.T) {
	for _, w := range []struct {
		name  string
		build func() *topo.Topology
		opt   Options
		rungs []string
	}{
		{"ndv2m2", func() *topo.Topology { return topo.NDv2Mini(2) }, Options{EpochMode: SlowestLink},
			[]string{"incremental", "incremental", "incremental", "incremental", "incremental", "structural-cold", "resume"}},
		{"dgx1", topo.DGX1, Options{},
			[]string{"incremental", "structural-cold", "resume", "incremental", "incremental", "structural-cold", "resume"}},
	} {
		t.Run(w.name, func(t *testing.T) {
			s := newScriptSession(t, w.build(), w.opt)
			defer s.pl.Close()
			var rungs []string
			for _, kind := range churnScript {
				p, rung := s.replan(t, s.delta(t, kind))
				rungs = append(rungs, rung)
				assertAvoidsDown(t, p)
				cold := s.cold(t)
				if math.Abs(p.Objective-cold.Objective) > 1e-6*math.Abs(cold.Objective) {
					t.Errorf("%s (%s): replan objective %.9g, cold %.9g", kind, rung, p.Objective, cold.Objective)
				}
			}
			if !reflect.DeepEqual(rungs, w.rungs) {
				t.Errorf("rungs %q, want %q", rungs, w.rungs)
			}
		})
	}
}
