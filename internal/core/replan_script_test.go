package core

// The churn_replan benchmark's delta script (bench/workloads.go) replayed
// in tier-1: replan against cold on every delta, the rung each delta
// takes, and what a session that has already solved a world does when
// churn returns to it.

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/schedule"
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
	case "return": // restore and recover at once (not in the benchmark's script)
		return Delta{Scale: []topo.LinkScale{{Link: s.degrad, Capacity: 1.25},
			{Link: scriptStraggler, Alpha: s.base.Link(scriptStraggler).Alpha / world.Link(scriptStraggler).Alpha}}}
	}
	t.Fatalf("unknown delta %q", kind)
	return Delta{}
}

// replan applies d and names the rung that served it: "incremental",
// "resume" (the displaced incumbent swapped back in), "structural-cold",
// "structural-replay", or "fallback-other" (budget, sour or no model),
// which the script should not reach. Every replan's recipes are held to
// what they derive (assertRecipesRestate).
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
	case p.CacheHit:
		return p, "structural-replay"
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

// canonicalSends returns a copy of sends in one fixed order; a
// decomposition emits a schedule's sends in no particular order.
func canonicalSends(sends []schedule.Send) []schedule.Send {
	out := append([]schedule.Send(nil), sends...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Epoch != b.Epoch:
			return a.Epoch < b.Epoch
		case a.Link != b.Link:
			return a.Link < b.Link
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Chunk != b.Chunk:
			return a.Chunk < b.Chunk
		}
		return a.Fraction < b.Fraction
	})
	return out
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

// TestReplanReplaysASolvedWorld: a DGX1 session at the fastest-link τ
// plans, degrades the fastest link ×0.8, makes link 1 a straggler
// (α = 3τ), then restores the link ×1.25 and recovers the straggler in
// one delta ("return"). Degrade and straggler each change a live link's
// δ or κ and fall back cold, so the displaced incumbent at return is the
// degraded world's, whose κ the restored link no longer has: nothing
// resumes. The returned world's model is the base plan's, so return is a
// structural fallback served by the carried model index: a replay, no
// pivot, the sends a fresh session's cold plan finds. The incumbent it
// leaves holds the replayed entry only, and the next delta reoptimizes
// its restated model. The request index does not cross churn, a world
// the session has not solved replays nothing, and an entry answers only
// the model of its own world.
func TestReplanReplaysASolvedWorld(t *testing.T) {
	ctx := context.Background()
	script := func(extraDown bool) (*scriptSession, *Plan) {
		s := newScriptSession(t, topo.DGX1(), Options{})
		for _, kind := range []string{"degrade", "straggler"} {
			if _, rung := s.replan(t, s.delta(t, kind)); rung != "structural-cold" {
				t.Fatalf("%s: %s, want a cold structural fallback", kind, rung)
			}
		}
		if extraDown {
			if _, rung := s.replan(t, s.delta(t, "linkdown")); rung != "incremental" {
				t.Fatalf("link down after the straggler: %s, want incremental", rung)
			}
		}
		p, rung := s.replan(t, s.delta(t, "return"))
		if !strings.HasPrefix(rung, "structural-") {
			t.Fatalf("return: %s, want a structural fallback", rung)
		}
		return s, p
	}

	s, rec := script(false)
	defer s.pl.Close()
	if !rec.CacheHit || rec.RootIterations+rec.NodeIterations != 0 {
		t.Fatalf("return: cache hit %v after %d pivots, want a replay", rec.CacheHit, rec.RootIterations+rec.NodeIterations)
	}
	if cold := s.cold(t); cold.CacheHit || !reflect.DeepEqual(canonicalSends(rec.Schedule.Sends), canonicalSends(cold.Schedule.Sends)) {
		t.Fatalf("return replayed %d sends, a fresh session's cold plan finds %d (cache hit %v)",
			len(rec.Schedule.Sends), len(cold.Schedule.Sends), cold.CacheHit)
	}
	e := s.pl.incumbent.entry
	if s.pl.incumbent.model != nil || e == nil || e.basis == nil {
		t.Fatal("a replay-served incumbent must hold the replayed entry, with its basis, and no model")
	}

	// The next delta reoptimizes the restated model, on a world whose
	// request index starts empty: the same request there is solved.
	p, rung := s.replan(t, s.delta(t, "linkdown"))
	if rung != "incremental" || !p.WarmStart {
		t.Fatalf("link down after a replayed return: %s, want incremental", rung)
	}
	assertAvoidsDown(t, p)
	if n := len(s.pl.snapshot().lpCache.requests); n != 0 {
		t.Fatalf("the churned world's request index holds %d requests, want none", n)
	}
	if again, err := s.pl.Plan(ctx, Request{Demand: s.demand.Clone(), Solver: SolverLP}); err != nil || again.CacheHit {
		t.Fatalf("the returned request on a world with a link down: %v (cache hit %v), want a solve", err, again != nil && again.CacheHit)
	}

	// One more link down before return: a world never solved, so
	// nothing replays.
	s2, rec2 := script(true)
	defer s2.pl.Close()
	if rec2.CacheHit {
		t.Fatal("return onto a world with an extra link down replayed")
	}

	// An entry answers the model it was solved from, on its own topology:
	// planted under the fingerprint of another world's model (a
	// collision) it does not replay, though its schedule is valid there.
	wider, err := e.topo.ApplyDelta(topo.Delta{Scale: []topo.LinkScale{{Link: 8, Capacity: 1.5}}})
	if err != nil {
		t.Fatal(err)
	}
	other := must(prepLP(wider, e.demand, Options{})).m.p
	c := &batchCache{}
	c.store(other.Fingerprint(), e)
	if _, _, replayOf, err := c.solvePoint(ctx, wider, e.demand, Options{}, nil); err != nil || replayOf != nil {
		t.Fatalf("an entry planted under another world's fingerprint: %v (replayed %v)", err, replayOf != nil)
	}
}
