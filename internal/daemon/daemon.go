// Package daemon implements the teccld planning service: a long-lived
// HTTP server owning a pool of Planner sessions keyed by topology
// fingerprint, so repeated requests over the same fabric reuse one
// session's replay cache, warm-basis store, and estimate caches across
// clients and connections.
//
// The management plane is versioned JSON over HTTP (the v1 schema lives
// in package wire):
//
//	POST   /v1/plan                solve one collective (topology or session_id)
//	POST   /v1/replan              apply session-scoped churn and reoptimize
//	GET    /v1/sessions            list live sessions
//	GET    /v1/sessions/{id}/stats one session's cumulative counters
//	DELETE /v1/sessions/{id}       close and drop a session
//	GET    /healthz                liveness (503 while draining)
//	GET    /metrics                Prometheus text exposition
//
// Solve endpoints are admission-controlled: at most MaxConcurrent solves
// run at once, at most QueueDepth more wait; beyond that the daemon
// answers 429 so callers shed load instead of stacking goroutines on a
// saturated solver. BeginDrain flips the daemon into lame-duck mode (new
// solves get 503, /healthz goes unhealthy for load balancers) and
// Drain waits for the in-flight solves to finish — the SIGTERM path of
// cmd/teccld. A panic inside a solve is contained to its request: the
// caller gets a 500, the session the solve ran on is closed and dropped
// (whatever state the panic left in it is not served again), the solve's
// admission slot is released like any other, and /metrics counts it.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
	"teccl/internal/wireconv"
	"teccl/wire"
)

// maxBodyBytes bounds request bodies; topologies and demands for
// fabric-scale instances are well under this.
const maxBodyBytes = 16 << 20

// maxTopologyNodes bounds the nodes of a topology a request may send or
// grow a session's to. Validation runs Floyd–Warshall, whose distance
// matrix is n² floats: a body under maxBodyBytes can list millions of
// nodes, which would ask for terabytes. 1 024 nodes keep the matrix at
// 8 MiB, well above every topology the experiments and wire goldens
// build.
const maxTopologyNodes = 1024

// nodesFit refuses a topology of n nodes above maxTopologyNodes.
func nodesFit(n int) error {
	if n > maxTopologyNodes {
		return fmt.Errorf("topology of %d nodes exceeds the %d-node limit", n, maxTopologyNodes)
	}
	return nil
}

// Options configures a Server. Zero values mean the documented defaults.
type Options struct {
	// MaxSessions bounds the session pool; past it the least-recently
	// used session is closed and evicted. Default 64.
	MaxSessions int
	// MaxConcurrent bounds simultaneously running solves. Default 4.
	MaxConcurrent int
	// QueueDepth bounds solves waiting for a slot beyond MaxConcurrent;
	// past it new solves get 429. Default 16.
	QueueDepth int
	// Workers is the default branch-and-bound worker count per solve
	// (core.Options.Workers) when the request does not set one. A
	// request's own count is capped at max(Workers, GOMAXPROCS): each
	// worker is a goroutine with its own LP workspace.
	Workers int
	// DefaultTimeLimit applies when a request carries no time limit.
	// Zero means unlimited.
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps every request's time limit (and replaces an
	// unlimited one), so one client cannot hold a solver slot forever.
	// Zero means no cap.
	MaxTimeLimit time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	return o
}

// Server is the teccld planning service. Create with New, serve via
// http.Server (it implements http.Handler), stop with BeginDrain +
// Drain + Close.
type Server struct {
	opts Options
	pool *pool
	met  *metrics
	mux  *http.ServeMux

	sem      chan struct{} // MaxConcurrent slots
	queued   atomic.Int64  // admitted solves: waiting + running
	inflight atomic.Int64  // solves holding a slot
	draining atomic.Bool
	wg       sync.WaitGroup // solve requests between admission and response

	// testHookSolve, when set, runs in place of nothing while a solve
	// holds its concurrency slot — the seam the saturation and drain
	// tests use to keep solves in flight deterministically, and the
	// containment test to panic where a solver would.
	testHookSolve func()
}

// New creates a Server. It is ready to serve immediately.
func New(opts Options) *Server {
	s := &Server{
		opts: opts.withDefaults(),
		met:  newMetrics(),
		mux:  http.NewServeMux(),
	}
	s.pool = newPool(s.opts.MaxSessions, s.met.foldEvicted)
	s.sem = make(chan struct{}, s.opts.MaxConcurrent)

	s.mux.HandleFunc("POST /v1/plan", s.instrument("plan", true, s.handlePlan))
	s.mux.HandleFunc("POST /v1/replan", s.instrument("replan", true, s.handleReplan))
	s.mux.HandleFunc("GET /v1/sessions", s.instrument("sessions", false, s.handleSessions))
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.instrument("stats", false, s.handleSessionStats))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete", false, s.handleSessionDelete))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain puts the server into lame-duck mode: subsequent solve
// requests are refused with 503 and /healthz reports draining, while
// already-admitted solves run to completion.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight solve has finished or ctx expires.
// Call BeginDrain first.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("daemon: drain interrupted with %d solve(s) in flight: %w",
			s.queued.Load(), ctx.Err())
	}
}

// Close releases every session in the pool. Call after Drain.
func (s *Server) Close() { s.pool.closeAll() }

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with request metrics; solve marks the
// endpoints whose 200-latency feeds the solve histogram.
func (s *Server) instrument(endpoint string, solve bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		s.met.observe(endpoint, rec.status, time.Since(start), solve)
	}
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes a wire.Error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wire.Error{Error: fmt.Sprintf(format, args...), Code: status})
}

// admit performs admission control for one solve request. On success it
// returns a release function the caller must run when the solve
// finishes; otherwise it returns the HTTP status to answer with.
func (s *Server) admit(ctx context.Context) (release func(), status int, err error) {
	if s.draining.Load() {
		return nil, http.StatusServiceUnavailable, errors.New("daemon is draining")
	}
	s.wg.Add(1)
	if s.draining.Load() {
		// BeginDrain raced in between the check and the Add; refuse so
		// Drain's Wait cannot miss us.
		s.wg.Done()
		return nil, http.StatusServiceUnavailable, errors.New("daemon is draining")
	}
	if q := s.queued.Add(1); q > int64(s.opts.MaxConcurrent+s.opts.QueueDepth) {
		s.queued.Add(-1)
		s.wg.Done()
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("solver saturated: %d solves admitted (cap %d running + %d queued)",
				q-1, s.opts.MaxConcurrent, s.opts.QueueDepth)
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.queued.Add(-1)
		s.wg.Done()
		return nil, 499, fmt.Errorf("canceled while queued: %w", ctx.Err())
	}
	s.inflight.Add(1)
	return func() {
		<-s.sem
		s.inflight.Add(-1)
		s.queued.Add(-1)
		s.wg.Done()
	}, 0, nil
}

// resolveOptions converts wire options (possibly absent) to core
// options, applying the daemon's worker and time-limit policy.
func (s *Server) resolveOptions(wopts *wire.Options) (core.Options, error) {
	var opt core.Options
	if wopts != nil {
		var err error
		opt, err = wireconv.ToOptions(*wopts)
		if err != nil {
			return opt, err
		}
	}
	if opt.Workers == 0 {
		opt.Workers = s.opts.Workers
	}
	opt.Workers = min(opt.Workers, max(s.opts.Workers, runtime.GOMAXPROCS(0)))
	if opt.TimeLimit == 0 {
		opt.TimeLimit = s.opts.DefaultTimeLimit
	}
	if s.opts.MaxTimeLimit > 0 && (opt.TimeLimit == 0 || opt.TimeLimit > s.opts.MaxTimeLimit) {
		opt.TimeLimit = s.opts.MaxTimeLimit
	}
	return opt, nil
}

// errSolverPanic is what solve reports for a solve that panicked.
var errSolverPanic = errors.New("solver panic")

// solve runs one admitted Plan or Replan of sess. A panic inside it
// closes and drops that session — and no other — and comes back as an
// error wrapping errSolverPanic for the handler to answer 500 with; the
// handler's deferred release then frees the admission slot as on any
// other return.
func (s *Server) solve(sess *session, run func() (*core.Plan, error)) (plan *core.Plan, err error) {
	defer func() {
		if r := recover(); r != nil {
			// The stack net/http's own recovery would have logged.
			log.Printf("daemon: solver panic on session %s: %v\n%s", sess.id, r, debug.Stack())
			s.pool.remove(sess.id)
			s.met.solverPanicked()
			plan, err = nil, fmt.Errorf("%w: %v; session %s closed", errSolverPanic, r, sess.id)
		}
	}()
	if s.testHookSolve != nil {
		s.testHookSolve()
	}
	sess.requests.Add(1)
	return run()
}

// solveStatus maps a Plan/Replan error to an HTTP status.
func solveStatus(err error) int {
	switch {
	case errors.Is(err, errSolverPanic):
		return http.StatusInternalServerError
	case errors.Is(err, core.ErrPlannerClosed):
		return http.StatusGone
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusUnprocessableEntity
	}
}

// planInput is a decoded plan request, validated as far as it can be
// before a session is involved.
type planInput struct {
	sessionID string
	topo      *topo.Topology // nil when sessionID is set
	demand    *collective.Demand
	opt       core.Options
	solver    core.Solver
}

// decodePlan decodes a plan request body and validates it: a topology
// must come through wireconv, hold at most maxTopologyNodes nodes (checked
// first: topo.Validate is quadratic in them) and pass topo.Validate, the
// demand must be over the topology's nodes, the options and solver must
// parse. Every error is the caller's (a 400). It runs no solve, so it is
// what FuzzPlanRequest drives.
func (s *Server) decodePlan(body io.Reader) (*planInput, error) {
	var req wire.PlanRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding plan request: %w", err)
	}
	switch {
	case req.SessionID != "" && req.Topology != nil:
		return nil, errors.New("plan request sets both topology and session_id")
	case req.SessionID == "" && req.Topology == nil:
		return nil, errors.New("plan request needs a topology or a session_id")
	}
	in := &planInput{sessionID: req.SessionID}
	var err error
	if in.demand, err = wireconv.ToDemand(req.Demand); err != nil {
		return nil, err
	}
	if req.Topology != nil {
		if in.topo, err = wireconv.ToTopology(req.Topology); err != nil {
			return nil, fmt.Errorf("invalid topology: %w", err)
		}
		if err := nodesFit(in.topo.NumNodes()); err != nil {
			return nil, err
		}
		if err := demandFits(in.demand, in.topo); err != nil {
			return nil, err
		}
		if err := in.topo.Validate(); err != nil {
			return nil, fmt.Errorf("invalid topology: %w", err)
		}
	}
	if in.opt, err = s.resolveOptions(req.Options); err != nil {
		return nil, err
	}
	if in.solver, err = wireconv.ParseSolver(req.Solver); err != nil {
		return nil, err
	}
	return in, nil
}

// demandFits refuses a demand over another node count than the topology's,
// which the solvers would index out of range.
func demandFits(d *collective.Demand, t *topo.Topology) error {
	if d.NumNodes() != t.NumNodes() {
		return fmt.Errorf("demand over %d nodes, topology has %d", d.NumNodes(), t.NumNodes())
	}
	return nil
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	in, err := s.decodePlan(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var sess *session
	if in.sessionID != "" {
		if sess = s.pool.byId(in.sessionID); sess == nil {
			writeError(w, http.StatusNotFound, "no session %q", in.sessionID)
			return
		}
		if err := demandFits(in.demand, sess.planner.Topology()); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	} else if sess, err = s.pool.get(in.topo); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	release, status, err := s.admit(r.Context())
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer release()
	plan, err := s.solve(sess, func() (*core.Plan, error) {
		return sess.planner.Plan(r.Context(), core.Request{Demand: in.demand, Options: &in.opt, Solver: in.solver})
	})
	if err != nil {
		writeError(w, solveStatus(err), "plan: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, wire.PlanResponse{
		API:       wire.Version,
		SessionID: sess.id,
		Plan:      wireconv.FromPlan(plan),
	})
}

// replanInput is a decoded replan request, checked against the session
// it names.
type replanInput struct {
	sess  *session
	delta core.Delta
}

// errNoSession marks a request naming a session the pool does not hold.
var errNoSession = errors.New("no session")

// decodeReplan decodes a replan request body and checks its delta against
// the topology of the session it names: the delta must come through
// wireconv, grow that topology to at most maxTopologyNodes nodes (checked
// before anything runs on the grown topology) and apply to it
// (topo.ApplyDelta), the churned topology must pass topo.ValidateLive (a
// GPU the delta takes down is lost, not cut off), and dropped pairs and
// added demand must lie over its nodes. Every error but an unknown
// session (errNoSession, a 404) is the caller's (a 400), returned before
// admission. It runs no solve, so it is what FuzzReplanRequest drives.
func (s *Server) decodeReplan(body io.Reader) (*replanInput, error) {
	var req wire.ReplanRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		return nil, fmt.Errorf("decoding replan request: %w", err)
	}
	if req.SessionID == "" {
		return nil, errors.New("replan request needs a session_id")
	}
	in := &replanInput{sess: s.pool.byId(req.SessionID)}
	if in.sess == nil {
		return nil, fmt.Errorf("%w %q", errNoSession, req.SessionID)
	}
	var err error
	if in.delta, err = wireconv.ToDelta(req.Delta); err != nil {
		return nil, err
	}
	cur := in.sess.planner.Topology()
	if err := nodesFit(cur.NumNodes() + len(in.delta.AddNodes)); err != nil {
		return nil, fmt.Errorf("delta grows the topology: %w", err)
	}
	churned, err := cur.ApplyDelta(in.delta.TopoDelta())
	if err != nil {
		return nil, err
	}
	if err := churned.ValidateLive(); err != nil {
		return nil, fmt.Errorf("delta leaves an invalid topology: %w", err)
	}
	n := churned.NumNodes()
	for _, p := range in.delta.DropPairs {
		if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
			return nil, fmt.Errorf("delta drops unknown demand pair (%d,%d)", p.Src, p.Dst)
		}
	}
	if in.delta.AddDemand != nil {
		if err := demandFits(in.delta.AddDemand, churned); err != nil {
			return nil, fmt.Errorf("added demand: %w", err)
		}
	}
	return in, nil
}

func (s *Server) handleReplan(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	in, err := s.decodeReplan(r.Body)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errNoSession) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	sess, delta := in.sess, in.delta

	release, status, err := s.admit(r.Context())
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	defer release()
	plan, err := s.solve(sess, func() (*core.Plan, error) {
		return sess.planner.Replan(r.Context(), delta)
	})
	if err != nil {
		writeError(w, solveStatus(err), "replan: %v", err)
		return
	}
	// Churn rewrites the session topology, so re-key the pool entry and
	// ship the post-churn snapshots for the client to rebind against.
	newTopo := sess.planner.Topology()
	s.pool.refingerprint(sess, newTopo)
	wtopo, err := wireconv.FromTopology(newTopo)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "replan: snapshotting topology: %v", err)
		return
	}
	resp := wire.ReplanResponse{
		API:       wire.Version,
		SessionID: sess.id,
		Plan:      wireconv.FromPlan(plan),
		Topology:  wtopo,
	}
	if plan.Result != nil && plan.Schedule != nil && plan.Schedule.Demand != nil {
		d := wireconv.FromDemand(plan.Schedule.Demand)
		resp.Demand = &d
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	sessions := s.pool.list()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].created.Before(sessions[j].created) })
	resp := wire.SessionsResponse{API: wire.Version, Sessions: make([]wire.SessionInfo, 0, len(sessions))}
	for _, sess := range sessions {
		resp.Sessions = append(resp.Sessions, wire.SessionInfo{
			ID:          sess.id,
			Topology:    sess.topo.Name,
			Fingerprint: sess.fp,
			NumNodes:    sess.topo.NumNodes(),
			NumLinks:    sess.topo.NumLinks(),
			CreatedMs:   sess.created.UnixMilli(),
			LastUsedMs:  sess.lastUsed.Load(),
			Requests:    sess.requests.Load(),
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionStats(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.pool.byId(id)
	if sess == nil {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, wire.StatsResponse{
		API:       wire.Version,
		SessionID: sess.id,
		Stats:     wireconv.FromStats(sess.planner.Stats()),
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.pool.remove(id) {
		writeError(w, http.StatusNotFound, "no session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"api":      wire.Version,
		"sessions": s.pool.size(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var live core.PlannerStats
	for _, sess := range s.pool.list() {
		live = addStats(live, sess.planner.Stats())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, live, s.pool.size(), s.pool.evicted(), s.inflight.Load(), s.queued.Load()-s.inflight.Load())
}
