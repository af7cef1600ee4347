package teccl

// Remote-vs-local equivalence tests: a RemotePlanner speaking to an
// embedded Server must answer every request a local Planner answers,
// with the same objectives — the daemon changes where the solve runs,
// never what it returns.

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// newRemote starts an embedded daemon and dials it, returning the
// client and the server for direct inspection.
func newRemote(t *testing.T, opt ServerOptions) (*Client, *Server) {
	t.Helper()
	srv := NewServer(opt)
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	c, err := Dial(hs.URL, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return c, srv
}

func TestRemotePlannerMatchesLocal(t *testing.T) {
	tp := DGX1()
	d := AllToAll(tp, 1, 25e3)
	ctx := context.Background()

	local := NewPlanner(tp, PlannerOptions{})
	defer local.Close()
	c, _ := newRemote(t, ServerOptions{})
	remote := c.Planner(tp)
	defer remote.Close()

	lp, err := local.Plan(ctx, Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := remote.Plan(ctx, Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Objective != lp.Objective {
		t.Fatalf("remote objective %g != local %g", rp.Objective, lp.Objective)
	}
	if rp.Solver != lp.Solver {
		t.Fatalf("remote solver %v != local %v", rp.Solver, lp.Solver)
	}
	if err := rp.Schedule.Validate(); err != nil {
		t.Fatalf("remote schedule invalid after rebinding: %v", err)
	}
	if rp.Schedule.FinishEpoch() != lp.Schedule.FinishEpoch() {
		t.Fatalf("remote finish %d != local %d", rp.Schedule.FinishEpoch(), lp.Schedule.FinishEpoch())
	}

	// Replan the same churn on both; the remote schedule must rebind to
	// the daemon's post-churn topology snapshot and stay valid.
	delta := Delta{LinksDown: []LinkID{0}}
	lrp, err := local.Replan(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	rrp, err := remote.Replan(ctx, delta)
	if err != nil {
		t.Fatal(err)
	}
	if rrp.Objective != lrp.Objective {
		t.Fatalf("remote replan objective %g != local %g", rrp.Objective, lrp.Objective)
	}
	if !rrp.Replanned {
		t.Fatal("remote replan not marked replanned")
	}
	if err := rrp.Schedule.Validate(); err != nil {
		t.Fatalf("remote replan schedule invalid: %v", err)
	}
	for _, snd := range rrp.Schedule.Sends {
		if snd.Link == 0 {
			t.Fatal("remote replan schedule uses the downed link")
		}
	}
	if remote.Topology().NumLinks() != local.Topology().NumLinks() {
		t.Fatalf("post-churn topologies diverge: remote %d links, local %d",
			remote.Topology().NumLinks(), local.Topology().NumLinks())
	}

	// Stats travel the wire: the remote session has served both solves.
	if st := remote.Stats(); st.Requests == 0 || st.Replans != 1 {
		t.Fatalf("remote stats = %+v, want ≥1 request and 1 replan", st)
	}
}

// TestRemotePlannersShareASession: eight RemotePlanners over one DGX1
// session each cycle four ALLTOALL chunk sizes, 96 requests in all,
// through a daemon that runs four solves at a time. The queue holds every
// client, so admission sheds nothing: each request succeeds with a valid
// schedule and the objective a local Planner gives its size, and each
// size is replayed from the session cache at least once.
func TestRemotePlannersShareASession(t *testing.T) {
	const clients, perClient = 8, 12
	tp := DGX1()
	sizes := []float64{25e3, 50e3, 100e3, 200e3}
	ctx := context.Background()

	local := NewPlanner(tp, PlannerOptions{})
	defer local.Close()
	want := make([]float64, len(sizes))
	for k, bytes := range sizes {
		p, err := local.Plan(ctx, Request{Demand: AllToAll(tp, 1, bytes)})
		if err != nil {
			t.Fatal(err)
		}
		want[k] = p.Objective
	}

	c, _ := newRemote(t, ServerOptions{MaxConcurrent: 4, QueueDepth: 16})
	hits := make([]atomic.Int32, len(sizes))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No Close: it would close the daemon session the other
			// clients still plan on; the server's cleanup drops it.
			remote := c.Planner(tp)
			for j := 0; j < perClient; j++ {
				k := (w + j) % len(sizes)
				p, err := remote.Plan(ctx, Request{Demand: AllToAll(tp, 1, sizes[k])})
				if err != nil {
					t.Errorf("client %d, %g B: %v", w, sizes[k], err)
					return
				}
				if err := p.Schedule.Validate(); err != nil {
					t.Errorf("client %d, %g B: invalid schedule: %v", w, sizes[k], err)
				}
				if p.Objective != want[k] {
					t.Errorf("client %d, %g B: objective %g, local %g", w, sizes[k], p.Objective, want[k])
				}
				if p.CacheHit {
					hits[k].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for k, bytes := range sizes {
		if hits[k].Load() == 0 {
			t.Errorf("%g B: no request replayed from the session cache", bytes)
		}
	}
}

func TestRemotePlannerPriorityParity(t *testing.T) {
	// A priority function crosses the wire as sampled weights and must
	// shift the objective exactly as it does locally.
	tp := DGX1()
	d := AllToAll(tp, 1, 25e3)
	ctx := context.Background()
	pri := func(src, chunk, dst int) float64 {
		if dst == 1 {
			return 10
		}
		return 1
	}
	opt := Options{Priority: pri}

	lres, err := NewPlanner(tp, PlannerOptions{}).Plan(ctx, Request{Demand: d, Options: &opt})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := newRemote(t, ServerOptions{})
	remote := c.Planner(tp)
	defer remote.Close()
	rres, err := remote.Plan(ctx, Request{Demand: d.Clone(), Options: &opt})
	if err != nil {
		t.Fatal(err)
	}
	if rres.Objective != lres.Objective {
		t.Fatalf("priority objective: remote %g != local %g", rres.Objective, lres.Objective)
	}
}

func TestRemotePlannerRejectsLinkCapacity(t *testing.T) {
	c, _ := newRemote(t, ServerOptions{})
	remote := c.Planner(DGX1())
	defer remote.Close()
	opt := Options{LinkCapacity: func(l LinkID, epoch int) float64 { return 1 }}
	_, err := remote.Plan(context.Background(), Request{Demand: AllToAll(DGX1(), 1, 25e3), Options: &opt})
	if err == nil {
		t.Fatal("LinkCapacity function silently crossed the wire")
	}
}

func TestRemotePlannerLifecycle(t *testing.T) {
	tp := DGX1()
	d := AllToAll(tp, 1, 25e3)
	ctx := context.Background()
	c, _ := newRemote(t, ServerOptions{})

	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health: %v", err)
	}
	remote := c.Planner(tp)
	if _, err := remote.Replan(ctx, Delta{}); err == nil {
		t.Fatal("Replan before any Plan succeeded")
	}
	if _, err := remote.Plan(ctx, Request{Demand: d}); err != nil {
		t.Fatal(err)
	}
	id := remote.SessionID()
	if id == "" {
		t.Fatal("no session ID after a successful Plan")
	}
	sessions, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].ID != id {
		t.Fatalf("sessions = %+v, want one with ID %q", sessions, id)
	}

	// Two planners over byte-identical topologies share one daemon
	// session — and its replay cache.
	other := c.Planner(DGX1())
	defer other.Close()
	op, err := other.Plan(ctx, Request{Demand: d.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	if other.SessionID() != id {
		t.Fatalf("identical topology got session %q, want shared %q", other.SessionID(), id)
	}
	if !op.CacheHit {
		t.Fatal("shared-session repeat was not replayed")
	}

	// Close drops the daemon session; the closed handle refuses work
	// and the sibling transparently reopens on its next Plan.
	if err := remote.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := remote.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
	if _, err := remote.Plan(ctx, Request{Demand: d}); !errors.Is(err, ErrPlannerClosed) {
		t.Fatalf("Plan after Close: %v, want ErrPlannerClosed", err)
	}
	if _, err := other.Plan(ctx, Request{Demand: d.Clone()}); err != nil {
		t.Fatalf("sibling did not survive session eviction: %v", err)
	}
	if other.SessionID() == "" {
		t.Fatal("sibling has no session after reopening")
	}
}
