package daemon

// End-to-end tests of the daemon over real HTTP (httptest): the v1
// endpoints, fingerprint-keyed session reuse, admission control under
// saturation, and the lame-duck drain path. The suite runs under the
// race detector in CI.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
	"teccl/internal/wireconv"
	"teccl/wire"
)

func testDemand(t *topo.Topology, chunks int) wire.Demand {
	var gpus []int
	for _, g := range t.GPUs() {
		gpus = append(gpus, int(g))
	}
	// All-to-all routes to the LP via the default policy, whose replay
	// cache makes identical repeats deterministic cache hits.
	return wireconv.FromDemand(collective.AllToAll(t.NumNodes(), gpus, chunks, 25e3))
}

// wireTopo snapshots a topology into its wire form for request bodies.
func wireTopo(t *testing.T, tt *topo.Topology) *wire.Topology {
	t.Helper()
	w, err := wireconv.FromTopology(tt)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs
}

// call POSTs (or GETs, for a nil body) and decodes the response into
// out, returning the status code.
func call(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		js, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.NewReader(js)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(raw) > 0 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

func TestDaemonPlanReplanStats(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	tt := topo.DGX1()

	// First plan opens a session and solves.
	var plan wire.PlanResponse
	req := wire.PlanRequest{Topology: wireTopo(t, tt), Demand: testDemand(tt, 1)}
	if st := call(t, "POST", hs.URL+"/v1/plan", req, &plan); st != 200 {
		t.Fatalf("plan status %d", st)
	}
	if plan.API != wire.Version || plan.SessionID == "" {
		t.Fatalf("bad plan envelope %+v", plan)
	}
	if plan.Plan.Schedule == nil || len(plan.Plan.Schedule.Sends) == 0 {
		t.Fatal("plan carries no schedule")
	}
	if plan.Plan.CacheHit {
		t.Fatal("first plan claims a cache hit")
	}

	// The identical request replays from the session cache.
	var again wire.PlanResponse
	if st := call(t, "POST", hs.URL+"/v1/plan", req, &again); st != 200 {
		t.Fatalf("second plan status %d", st)
	}
	if again.SessionID != plan.SessionID {
		t.Fatalf("identical topology split sessions: %q vs %q", again.SessionID, plan.SessionID)
	}
	if !again.Plan.CacheHit {
		t.Fatal("identical second request was not replayed")
	}
	if again.Plan.Objective != plan.Plan.Objective {
		t.Fatalf("replayed objective %g != %g", again.Plan.Objective, plan.Plan.Objective)
	}

	// Session-scoped churn: take a link down and reoptimize.
	var rp wire.ReplanResponse
	rreq := wire.ReplanRequest{SessionID: plan.SessionID, Delta: wire.Delta{LinksDown: []int{0}}}
	if st := call(t, "POST", hs.URL+"/v1/replan", rreq, &rp); st != 200 {
		t.Fatalf("replan status %d", st)
	}
	if !rp.Plan.Replanned {
		t.Fatal("replan response not marked replanned")
	}
	if rp.Topology == nil {
		t.Fatal("replan response carries no post-churn topology")
	}
	if rp.Plan.Schedule != nil && rp.Demand != nil {
		d, err := wireconv.ToDemand(*rp.Demand)
		if err != nil {
			t.Fatal(err)
		}
		nt, err := wireconv.ToTopology(rp.Topology)
		if err != nil {
			t.Fatal(err)
		}
		sched := wireconv.ToSchedule(rp.Plan.Schedule, nt, d)
		if err := sched.Validate(); err != nil {
			t.Fatalf("rebound replan schedule invalid: %v", err)
		}
		for _, snd := range sched.Sends {
			if int(snd.Link) == 0 {
				t.Fatal("replanned schedule uses the downed link")
			}
		}
	}

	// Stats over the wire reflect all three solves.
	var stats wire.StatsResponse
	if st := call(t, "GET", hs.URL+"/v1/sessions/"+plan.SessionID+"/stats", nil, &stats); st != 200 {
		t.Fatalf("stats status %d", st)
	}
	// A replan that falls back to a cold re-solve re-enters the plan
	// pipeline, so Requests may exceed the two wire-level plan calls.
	if stats.Stats.Requests < 2 || stats.Stats.ScheduleReplays != 1 || stats.Stats.Replans != 1 {
		t.Fatalf("stats = %+v, want ≥2 requests / 1 replay / 1 replan", stats.Stats)
	}

	var sessions wire.SessionsResponse
	if st := call(t, "GET", hs.URL+"/v1/sessions", nil, &sessions); st != 200 {
		t.Fatalf("sessions status %d", st)
	}
	if len(sessions.Sessions) != 1 || sessions.Sessions[0].Requests != 3 {
		t.Fatalf("sessions = %+v, want 1 session with 3 requests", sessions.Sessions)
	}

	var health map[string]any
	if st := call(t, "GET", hs.URL+"/healthz", nil, &health); st != 200 {
		t.Fatalf("healthz status %d", st)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"teccld_sessions 1",
		`teccld_requests_total{endpoint="plan",code="200"} 2`,
		`teccld_planner_counters_total{counter="replans"} 1`,
		"teccld_solve_seconds_count 3",
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReplanRefusesBadDeltaBeforeAdmission: a delta that does not apply
// to the session's topology, cuts a live GPU off, or names demand outside
// the churned nodes is a 400 that never reaches the planner; a node loss
// is not a cut, and replans.
func TestReplanRefusesBadDeltaBeforeAdmission(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	tt := topo.DGX1()
	var plan wire.PlanResponse
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, tt), Demand: testDemand(tt, 1)}, &plan); st != 200 {
		t.Fatalf("plan status %d", st)
	}
	var intoGPU0 []int
	for _, l := range tt.In(0) {
		intoGPU0 = append(intoGPU0, int(l))
	}
	otherNodes := wireconv.FromDemand(collective.New(tt.NumNodes()+1, 1, 25e3))
	for _, c := range []struct {
		what  string
		id    string
		delta wire.Delta
		want  int
	}{
		{"unknown session", "nope", wire.Delta{LinksDown: []int{0}}, 404},
		{"unknown link", plan.SessionID, wire.Delta{LinksDown: []int{tt.NumLinks()}}, 400},
		{"a live GPU cut off", plan.SessionID, wire.Delta{LinksDown: intoGPU0}, 400},
		{"a pair outside the topology", plan.SessionID, wire.Delta{DropPairs: []wire.Pair{{Src: 0, Dst: tt.NumNodes()}}}, 400},
		{"added demand over other nodes", plan.SessionID, wire.Delta{AddDemand: &otherNodes}, 400},
	} {
		var werr wire.Error
		if st := call(t, "POST", hs.URL+"/v1/replan", wire.ReplanRequest{SessionID: c.id, Delta: c.delta}, &werr); st != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.what, st, werr.Error, c.want)
		}
	}
	var sessions wire.SessionsResponse
	if st := call(t, "GET", hs.URL+"/v1/sessions", nil, &sessions); st != 200 || len(sessions.Sessions) != 1 || sessions.Sessions[0].Requests != 1 {
		t.Fatalf("sessions = %+v (status %d), want the plan's one request and no replan", sessions.Sessions, st)
	}
	var rp wire.ReplanResponse
	if st := call(t, "POST", hs.URL+"/v1/replan", wire.ReplanRequest{SessionID: plan.SessionID, Delta: wire.Delta{NodesDown: []int{3}}}, &rp); st != 200 || !rp.Plan.Replanned {
		t.Fatalf("node loss: status %d (replanned %v), want a replan", st, rp.Plan.Replanned)
	}
}

func TestDaemonSessionRouting(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	a := topo.DGX1()
	b := topo.Ring(4, 25e9, 0.6e-6) // different fabric → different fingerprint

	var pa, pb, pa2 wire.PlanResponse
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, a), Demand: testDemand(a, 1)}, &pa); st != 200 {
		t.Fatalf("plan A status %d", st)
	}
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, b), Demand: testDemand(b, 1)}, &pb); st != 200 {
		t.Fatalf("plan B status %d", st)
	}
	if pa.SessionID == pb.SessionID {
		t.Fatal("distinct topologies share a session")
	}
	// Planning by session ID reuses the session without a topology.
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{SessionID: pa.SessionID, Demand: testDemand(a, 2)}, &pa2); st != 200 {
		t.Fatalf("plan by session status %d", st)
	}
	if pa2.SessionID != pa.SessionID {
		t.Fatalf("session routing: got %q, want %q", pa2.SessionID, pa.SessionID)
	}

	var werr wire.Error
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{SessionID: "nope", Demand: testDemand(a, 1)}, &werr); st != 404 {
		t.Fatalf("unknown session: status %d, want 404", st)
	}
	if st := call(t, "GET", hs.URL+"/v1/sessions/nope/stats", nil, &werr); st != 404 {
		t.Fatalf("unknown session stats: status %d, want 404", st)
	}
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Demand: testDemand(a, 1)}, &werr); st != 400 {
		t.Fatalf("no topology, no session: status %d, want 400", st)
	}

	// DELETE closes the session; subsequent use is a 404.
	if st := call(t, "DELETE", hs.URL+"/v1/sessions/"+pb.SessionID, nil, nil); st != 204 {
		t.Fatalf("delete status %d", st)
	}
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{SessionID: pb.SessionID, Demand: testDemand(b, 1)}, &werr); st != 404 {
		t.Fatalf("deleted session: status %d, want 404", st)
	}
}

func TestDaemonLRUEviction(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxSessions: 1})
	a, b := topo.DGX1(), topo.Ring(4, 25e9, 0.6e-6)

	var pa, pb wire.PlanResponse
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, a), Demand: testDemand(a, 1)}, &pa); st != 200 {
		t.Fatalf("plan A status %d", st)
	}
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, b), Demand: testDemand(b, 1)}, &pb); st != 200 {
		t.Fatalf("plan B status %d", st)
	}
	var sessions wire.SessionsResponse
	call(t, "GET", hs.URL+"/v1/sessions", nil, &sessions)
	if len(sessions.Sessions) != 1 || sessions.Sessions[0].ID != pb.SessionID {
		t.Fatalf("sessions after eviction = %+v, want only %q", sessions.Sessions, pb.SessionID)
	}
	// The evicted session's counters survive in the /metrics aggregate.
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	met, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"teccld_sessions_evicted_total 1",
		`teccld_planner_counters_total{counter="requests"} 2`,
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDaemonSaturationReturns429(t *testing.T) {
	s, hs := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: 1})
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	s.testHookSolve = func() {
		entered <- struct{}{}
		<-gate
	}
	tt := topo.DGX1()
	req := wire.PlanRequest{Topology: wireTopo(t, tt), Demand: testDemand(tt, 1)}

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i] = call(t, "POST", hs.URL+"/v1/plan", req, nil)
		}()
		if i == 0 {
			<-entered // first solve holds the only slot before the next is fired
		} else {
			waitFor(t, func() bool { return s.queued.Load() == 2 })
		}
	}

	// Slot busy + queue full: the third request must be shed, not queued.
	var werr wire.Error
	if st := call(t, "POST", hs.URL+"/v1/plan", req, &werr); st != 429 {
		t.Fatalf("saturated status %d (%+v), want 429", st, werr)
	}
	close(gate)
	wg.Wait()
	for i, c := range codes {
		if c != 200 {
			t.Fatalf("admitted request %d finished with %d", i, c)
		}
	}
}

func TestDaemonDrain(t *testing.T) {
	s, hs := newTestServer(t, Options{MaxConcurrent: 2})
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.testHookSolve = func() {
		entered <- struct{}{}
		<-gate
	}
	tt := topo.DGX1()
	req := wire.PlanRequest{Topology: wireTopo(t, tt), Demand: testDemand(tt, 1)}

	inflightCode := make(chan int, 1)
	go func() { inflightCode <- call(t, "POST", hs.URL+"/v1/plan", req, nil) }()
	<-entered

	s.BeginDrain()

	// New solves are refused and the health check goes unhealthy, but the
	// in-flight solve keeps running.
	var werr wire.Error
	if st := call(t, "POST", hs.URL+"/v1/plan", req, &werr); st != 503 {
		t.Fatalf("draining plan status %d, want 503", st)
	}
	if st := call(t, "GET", hs.URL+"/healthz", nil, nil); st != 503 {
		t.Fatalf("draining healthz status %d, want 503", st)
	}

	// Drain blocks on the in-flight solve...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if err := s.Drain(ctx); err == nil {
		t.Fatal("Drain returned before the in-flight solve finished")
	}
	cancel()

	// ...and completes once it does, with the solve answered normally.
	close(gate)
	ctx, cancel = context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if code := <-inflightCode; code != 200 {
		t.Fatalf("in-flight solve finished with %d", code)
	}
}

// TestDaemonContainsSolverPanic: a panic where a solver would run is
// answered 500 with a wire.Error, costs exactly the session it ran on,
// gives its admission slot back and shows in /metrics; the daemon and
// its other sessions keep serving.
func TestDaemonContainsSolverPanic(t *testing.T) {
	s, hs := newTestServer(t, Options{MaxConcurrent: 1, QueueDepth: 1})
	fabrics := []*topo.Topology{topo.DGX1(), topo.Ring(4, 25e9, 0.6e-6), topo.Ring(6, 25e9, 0.6e-6)}
	plans := make([]wire.PlanResponse, len(fabrics))
	for i, tt := range fabrics {
		if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, tt), Demand: testDemand(tt, 1)}, &plans[i]); st != 200 {
			t.Fatalf("plan %d: status %d", i, st)
		}
	}
	planned, replanned, bystander := plans[0].SessionID, plans[1].SessionID, plans[2].SessionID

	s.testHookSolve = func() { panic("injected solver fault") }
	for _, hit := range []struct {
		path string
		body any
	}{
		{"/v1/plan", wire.PlanRequest{SessionID: planned, Demand: testDemand(fabrics[0], 1)}},
		{"/v1/replan", wire.ReplanRequest{SessionID: replanned, Delta: wire.Delta{LinksDown: []int{0}}}},
	} {
		var werr wire.Error
		if st := call(t, "POST", hs.URL+hit.path, hit.body, &werr); st != 500 || werr.Code != 500 || !strings.Contains(werr.Error, "solver panic") {
			t.Fatalf("%s through a panicking solve: status %d, body %+v; want a 500 wire.Error", hit.path, st, werr)
		}
		if q, in := s.queued.Load(), s.inflight.Load(); q != 0 || in != 0 {
			t.Fatalf("%s: admission leaked: queued %d, inflight %d", hit.path, q, in)
		}
	}
	s.testHookSolve = nil

	for _, id := range []string{planned, replanned} {
		if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{SessionID: id, Demand: testDemand(fabrics[0], 1)}, nil); st != 404 {
			t.Fatalf("session %s, closed by a panic, answers %d, want 404", id, st)
		}
	}
	var kept, fresh wire.PlanResponse
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{SessionID: bystander, Demand: testDemand(fabrics[2], 1)}, &kept); st != 200 || !kept.Plan.CacheHit {
		t.Fatalf("bystander session after the panics: status %d, cache hit %v; want its replay cache intact", st, kept.Plan.CacheHit)
	}
	if st := call(t, "POST", hs.URL+"/v1/plan", wire.PlanRequest{Topology: wireTopo(t, fabrics[0]), Demand: testDemand(fabrics[0], 1)}, &fresh); st != 200 || fresh.SessionID == planned || fresh.Plan.CacheHit {
		t.Fatalf("same fabric after the panic: status %d, session %s (closed: %s), cache hit %v; want a fresh session", st, fresh.SessionID, planned, fresh.Plan.CacheHit)
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"teccld_solver_panics_total 2\n", "teccld_sessions 2\n", "teccld_inflight_solves 0\n", "teccld_queued_solves 0\n"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, text)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}
