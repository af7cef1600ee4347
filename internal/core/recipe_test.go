package core

// The LP incumbent a session keeps without its model — a replay, a
// resume, a displaced incumbent — is its recipe: the cold request at its
// root and the replans since. These tests hold a recipe to the model it
// derives, and the resume rung to the incumbents it swaps.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"teccl/internal/lp"
	"teccl/internal/topo"
)

// assertRecipesRestate is the restatement oracle. Every LP incumbent of
// pl, and its displaced incumbent, keeps a recipe; the recipe restates a
// model EqualTo the incumbent's model (when it keeps one), and the kept
// basis is optimal for the restated model: a warm solve from it takes no
// pivot — it returns the basis it started from after its one
// factorization, no update and 0 iterations. The sessions it
// runs on never refine a makespan or outgrow maxRecipeSteps, so an LP
// incumbent without a recipe is a failure.
func assertRecipesRestate(t *testing.T, pl *Planner) {
	t.Helper()
	pl.mu.Lock()
	inc, dis := pl.incumbent, pl.displaced
	pl.mu.Unlock()
	for _, k := range []struct {
		role string
		s    *incumbentState
	}{{"incumbent", inc}, {"displaced", dis}} {
		s := k.s
		if s == nil || s.model == nil && s.recipe == nil {
			continue // no LP incumbent: another form, or an empty solve
		}
		if s.recipe == nil {
			t.Errorf("the LP %s keeps no recipe", k.role)
			continue
		}
		r := s.restated()
		if r == nil {
			t.Errorf("the %s's recipe (%d steps) restates nothing", k.role, len(s.recipe.steps))
			continue
		}
		if s.model != nil && !r.model.p.EqualTo(s.model.p) {
			t.Errorf("the %s's recipe (%d steps) restates a model other than the incumbent's", k.role, len(s.recipe.steps))
			continue
		}
		sol, err := lp.Solve(r.model.p, lp.Options{WarmStart: s.basis.Clone()})
		if err != nil || sol.Status != lp.StatusOptimal || sol.Iterations != 0 || sol.FTUpdates != 0 || sol.Refactorizations != 1 ||
			!reflect.DeepEqual(sol.Basis, s.basis) {
			t.Errorf("the %s's basis re-solves its restated model (%d steps): %v, status %v after %d iterations, %d updates and %d factorizations, want optimal from the same basis",
				k.role, len(s.recipe.steps), err, sol.Status, sol.Iterations, sol.FTUpdates, sol.Refactorizations)
		}
	}
}

// TestReplanResumesTheDisplacedIncumbent: a DGX1 session at the
// fastest-link τ degrades its fastest link ×0.8, which changes that
// link's κ and so falls back to a cold plan, then restores it ×1.25. The
// restored world is the base plan's at the base plan's discretization,
// so restore resumes the displaced base incumbent in a few pivots
// instead of solving cold: the same objective as a fresh cold plan, no
// fallback counted, and the two incumbents swap — the degraded world's
// incumbent is now the displaced recipe, and the resumed one keeps its
// recipe without a model. A second degrade resumes that one in turn, and
// the link loss after it reoptimizes a restated model. Every Replan
// starts the churned state's replay cache empty, so the session's request
// on the final world is solved, not replayed.
func TestReplanResumesTheDisplacedIncumbent(t *testing.T) {
	s := newScriptSession(t, topo.DGX1(), Options{})
	defer s.pl.Close()
	if _, rung := s.replan(t, s.delta(t, "degrade")); rung != "structural-cold" {
		t.Fatalf("degrade: %s, want a cold structural fallback", rung)
	}
	degraded := s.pl.Topology()
	if dis := s.pl.displaced; dis == nil || len(dis.recipe.steps) != 0 || dis.model != nil {
		t.Fatal("the cold fallback must keep the base incumbent as a recipe of no steps, without its model")
	}

	for i, kind := range []string{"restore", "degrade"} {
		p, rung := s.replan(t, s.delta(t, kind))
		if rung != "resume" || p.ReplanFallback || !p.WarmStart || p.CacheHit {
			t.Fatalf("%s: %s (fallback %v, warm %v), want a resume", kind, rung, p.ReplanFallback, p.WarmStart)
		}
		if n := p.RootIterations; n > 20 {
			t.Errorf("%s resumed in %d pivots, want a few", kind, n)
		}
		if cold := s.cold(t); math.Abs(p.Objective-cold.Objective) > 1e-6*math.Abs(cold.Objective) {
			t.Errorf("%s: resumed objective %.9g, cold %.9g", kind, p.Objective, cold.Objective)
		}
		st := s.pl.Stats()
		if st.ReplanResumes != i+1 || st.ReplanFallbacks != 1 {
			t.Errorf("%s: %d resumes, %d fallbacks, want %d and 1", kind, st.ReplanResumes, st.ReplanFallbacks, i+1)
		}
		inc, dis := s.pl.incumbent, s.pl.displaced
		if inc.model != nil || inc.recipe == nil || len(inc.recipe.steps) != 1 || inc.recipe.steps[0].world != s.pl.Topology() {
			t.Errorf("%s: the resumed incumbent must keep its recipe, one resume step onto the churned world, and no model", kind)
		}
		// The swap: restore displaces the degraded world's incumbent,
		// the second degrade the restored one.
		wantCap := degraded.Link(s.degrad).Capacity
		if kind == "degrade" {
			wantCap = s.base.Link(s.degrad).Capacity
		}
		if dis == nil || dis.model != nil || dis.at.topo.Link(s.degrad).Capacity != wantCap {
			t.Errorf("%s: the displaced slot must hold the replaced incumbent's recipe", kind)
		}
	}

	p, rung := s.replan(t, s.delta(t, "linkdown"))
	if rung != "incremental" || s.pl.incumbent.model == nil {
		t.Fatalf("link down after a resume: %s, want an incremental replan of the restated model", rung)
	}
	assertAvoidsDown(t, p)
	if n := len(s.pl.snapshot().lpCache.requests); n != 0 {
		t.Fatalf("the churned world's request index holds %d requests, want none", n)
	}
	if again, err := s.pl.Plan(context.Background(), Request{Demand: s.demand.Clone(), Solver: SolverLP}); err != nil || again.CacheHit {
		t.Fatalf("the session's request on the churned world: %v (cache hit %v), want a solve", err, again != nil && again.CacheHit)
	}
}
