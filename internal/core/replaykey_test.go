package core

// Tests of the replay cache's request index: the request key covers
// everything the LP model is built from, a keyed replay answers exactly
// what the model-built replay answers, and nothing but an equal request
// is answered by key.

import (
	"context"
	"reflect"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

// TestRequestKeyCoversModelInputs classifies every Options field: keyed
// (keyOf reads it), unread by the LP model (prepLP builds the same model
// whatever its value, so a cached schedule answers any of them, as a
// fingerprint hit always has), or a function (which cannot be keyed, so
// it disables the key). A field added to Options fails here until it is
// classified.
func TestRequestKeyCoversModelInputs(t *testing.T) {
	const (
		keyed = iota
		unread
		function
	)
	fields := map[string]struct {
		class int
		set   func(*Options)
	}{
		"Epochs":            {keyed, func(o *Options) { o.Epochs = 9 }},
		"EpochMode":         {keyed, func(o *Options) { o.EpochMode = SlowestLink }},
		"Tau":               {keyed, func(o *Options) { o.Tau = 1e-6 }},
		"EpochMultiplier":   {keyed, func(o *Options) { o.EpochMultiplier = 2 }},
		"SwitchMode":        {keyed, func(o *Options) { o.SwitchMode = SwitchNoCopy }},
		"NoBuffers":         {keyed, func(o *Options) { o.NoBuffers = true }},
		"BufferLimitChunks": {keyed, func(o *Options) { o.BufferLimitChunks = 2 }},
		"MinimizeMakespan":  {keyed, func(o *Options) { o.MinimizeMakespan = true }},

		"GapLimit":             {unread, func(o *Options) { o.GapLimit = 0.3 }},
		"TimeLimit":            {unread, func(o *Options) { o.TimeLimit = time.Hour }},
		"NoIncumbentHeuristic": {unread, func(o *Options) { o.NoIncumbentHeuristic = true }},
		"Crash":                {unread, func(o *Options) { o.Crash = CrashOff }},
		"Workers":              {unread, func(o *Options) { o.Workers = 4 }},
		"RoundEpochs":          {unread, func(o *Options) { o.RoundEpochs = 5 }},
		"MaxRounds":            {unread, func(o *Options) { o.MaxRounds = 3 }},
		"Progress":             {unread, func(o *Options) { o.Progress = func(Progress) {} }},
		"HorizonWindow":        {unread, func(o *Options) { o.HorizonWindow = 6 }},
		"HorizonOverlap":       {unread, func(o *Options) { o.HorizonOverlap = 2 }},
		"HorizonCertify":       {unread, func(o *Options) { o.HorizonCertify = time.Second }},
		"AutoEpochMultiplier":  {unread, func(o *Options) { o.AutoEpochMultiplier = true }},
		"HorizonCellBudget":    {unread, func(o *Options) { o.HorizonCellBudget = 1 << 10 }},
		"estimates":            {unread, func(o *Options) { o.estimates = newEstimateCache() }},

		"Priority":     {function, func(o *Options) { o.Priority = func(int, int, int) float64 { return 1 } }},
		"LinkCapacity": {function, func(o *Options) { o.LinkCapacity = func(topo.LinkID, int) float64 { return 1 } }},
	}
	tt := topo.DGX1()
	d := collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, 25e3)
	var base Options
	baseKey, ok := keyOf(d, &base)
	if !ok {
		t.Fatal("the zero Options have no request key")
	}
	baseModel := prepLP(tt, d, base).m.p
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := fields[name]
		if !ok {
			t.Errorf("Options.%s is not classified: key it in requestKey if prepLP reads it, else list it as unread", name)
			continue
		}
		opt := base
		f.set(&opt)
		if reflect.ValueOf(opt).Field(i).IsZero() {
			t.Fatalf("the setter of Options.%s leaves it zero", name)
		}
		key, hasKey := keyOf(d, &opt)
		switch f.class {
		case keyed:
			if !hasKey || key == baseKey {
				t.Errorf("setting keyed Options.%s leaves the request key unchanged", name)
			}
		case unread:
			if !hasKey || key != baseKey {
				t.Errorf("setting unread Options.%s changes the request key", name)
			}
			if !prepLP(tt, d, opt).m.p.EqualTo(baseModel) {
				t.Errorf("prepLP reads Options.%s: the model changed, so the request key must cover it", name)
			}
		case function:
			if hasKey {
				t.Errorf("a request carrying Options.%s has a request key", name)
			}
		}
	}
	if len(fields) != typ.NumField() {
		t.Errorf("%d fields classified, Options has %d", len(fields), typ.NumField())
	}
}

// TestKeyedReplayMatchesModelReplay: a repeat answered by the request
// index returns the Result — everything but SolveTime — that the same
// repeat returns through the model index (build, fingerprint, EqualTo
// against the entry's rebuilt recipe), across the serve shapes, a
// multicast ALLGATHER the LP schedules expanded per destination, and
// every keyed option that changes the model or the schedule.
func TestKeyedReplayMatchesModelReplay(t *testing.T) {
	dgx, ndv := topo.DGX1(), topo.NDv2Mini(2)
	a2a := func(tt *topo.Topology, bytes float64) *collective.Demand {
		return collective.AllToAll(tt.NumNodes(), testGPUs(tt), 1, bytes)
	}
	for _, c := range []struct {
		name string
		t    *topo.Topology
		d    *collective.Demand
		opt  Options
	}{
		{"dgx1-25kb", dgx, a2a(dgx, 25e3), Options{}},
		{"dgx1-200kb", dgx, a2a(dgx, 200e3), Options{}},
		{"ndv2m2-25kb-slowest", ndv, a2a(ndv, 25e3), Options{EpochMode: SlowestLink}},
		{"dgx1-allgather", dgx, collective.AllGather(dgx.NumNodes(), testGPUs(dgx), 1, 25e3), Options{}},
		{"makespan", dgx, a2a(dgx, 25e3), Options{MinimizeMakespan: true}},
		{"nobuffers", dgx, a2a(dgx, 25e3), Options{NoBuffers: true}},
		{"bufferlimit", dgx, a2a(dgx, 25e3), Options{BufferLimitChunks: 2}},
		{"tau-epochs", dgx, a2a(dgx, 25e3), Options{Tau: 2 * DeriveTau(dgx, 25e3, FastestLink, 0), Epochs: 12}},
		{"em2", dgx, a2a(dgx, 25e3), Options{EpochMultiplier: 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			pl := NewPlanner(c.t, PlannerOptions{})
			defer pl.Close()
			plan := func() *Plan {
				t.Helper()
				opt := c.opt
				p, err := pl.Plan(context.Background(), Request{Demand: c.d.Clone(), Options: &opt, Solver: SolverLP})
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			if plan().CacheHit {
				t.Fatal("the first request claims a cache hit")
			}
			// Without an explicit Tau, building a model derives τ through
			// the session's cache; a lookup derives nothing.
			cache := pl.snapshot().lpCache
			tau0 := pl.Stats().TauCacheHits
			byKey := plan()
			tau1 := pl.Stats().TauCacheHits
			cache.mu.Lock()
			cache.requests, cache.keys = nil, nil // forget the request: the next repeat builds its model
			cache.mu.Unlock()
			byModel := plan()
			if !byKey.CacheHit || !byModel.CacheHit {
				t.Fatalf("cache hits: by key %v, by model %v", byKey.CacheHit, byModel.CacheHit)
			}
			if c.opt.Tau == 0 && (tau1 != tau0 || pl.Stats().TauCacheHits == tau1) {
				t.Errorf("τ derivations: %d by the keyed repeat (want 0), %d by the model-index repeat (want some)",
					tau1-tau0, pl.Stats().TauCacheHits-tau1)
			}
			if len(cache.requests) != 1 {
				t.Errorf("the model-index replay left %d request keys, want its own", len(cache.requests))
			}
			a, b := *byKey.Result, *byModel.Result
			a.SolveTime, b.SolveTime = 0, 0
			if !reflect.DeepEqual(a, b) {
				t.Errorf("keyed replay %+v differs from the model-index replay %+v", a, b)
			}
		})
	}
}

// TestRequestIndexAnswersOnlyEqualRequests: a one-bit demand edit or a
// different chunk size misses the key — and is refused by the demand
// comparison even under the original key, so a fingerprint collision
// cannot replay — and a request carrying a Priority function is never
// keyed, replaying through the model its entry holds.
func TestRequestIndexAnswersOnlyEqualRequests(t *testing.T) {
	tt := topo.DGX1()
	gpus := testGPUs(tt)
	d := collective.AllToAll(tt.NumNodes(), gpus, 1, 25e3)
	pl := NewPlanner(tt, PlannerOptions{})
	defer pl.Close()
	if _, err := pl.Plan(context.Background(), Request{Demand: d, Solver: SolverLP}); err != nil {
		t.Fatal(err)
	}
	cache := pl.snapshot().lpCache
	k, _ := keyOf(d, &Options{})
	if e, _ := cache.lookupRequest(k, d.Clone()); e == nil {
		t.Fatal("an equal request misses the key")
	}
	oneBit := d.Clone()
	oneBit.DropPair(gpus[0], gpus[1]) // one chunk per pair: exactly one want
	if oneBit.Count() != d.Count()-1 {
		t.Fatalf("the edit dropped %d wants, want 1", d.Count()-oneBit.Count())
	}
	for what, other := range map[string]*collective.Demand{
		"one-bit demand edit": oneBit,
		"50 kB chunks":        collective.AllToAll(tt.NumNodes(), gpus, 1, 50e3),
	} {
		if ko, _ := keyOf(other, &Options{}); ko == k {
			t.Errorf("%s: same request key", what)
		}
		if e, _ := cache.lookupRequest(k, other); e != nil {
			t.Errorf("%s: answered under the original key", what)
		}
	}

	weighted := Options{Priority: func(src, chunk, dst int) float64 {
		if src == gpus[0] {
			return 2
		}
		return 1
	}}
	pri := NewPlanner(tt, PlannerOptions{})
	defer pri.Close()
	for i := 0; i < 2; i++ {
		p, err := pri.Plan(context.Background(), Request{Demand: d, Options: &weighted, Solver: SolverLP})
		if err != nil {
			t.Fatal(err)
		}
		if p.CacheHit != (i == 1) {
			t.Fatalf("Priority request %d: CacheHit = %v", i, p.CacheHit)
		}
	}
	pc := pri.snapshot().lpCache
	if len(pc.requests) != 0 || pc.size != 1 {
		t.Fatalf("Priority session: %d request keys, %d entries; want none and 1", len(pc.requests), pc.size)
	}
	for _, bucket := range pc.entries {
		if bucket[0].base == nil {
			t.Fatal("the Priority entry holds no model to replay through")
		}
	}
}
