package daemon

// The v1 wire contract made executable: every PlanRequest golden of
// package wire (wire/testdata/v1) still decodes and plans, a repeat of it
// is answered by the session's request index, and the request decoder
// survives arbitrary bytes. Wire changes are additive only; these are
// the tests that say so.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"teccl/wire"
)

// v1PlanGoldens reads the PlanRequest goldens of package wire.
func v1PlanGoldens(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../../wire/testdata/v1/plan_request*.json")
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no v1 PlanRequest goldens (%v)", err)
	}
	out := map[string][]byte{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out[filepath.Base(p)] = raw
	}
	return out
}

// TestV1GoldenPlanRequestsPlan posts every v1 PlanRequest golden, byte
// for byte, to an embedded daemon twice: both answer 200, and the second
// is a replay by request key — it derives no τ, where a replay that built
// its model would (a policy choosing the solver of an unpinned request
// derives one, and is allowed for).
func TestV1GoldenPlanRequestsPlan(t *testing.T) {
	for name, raw := range v1PlanGoldens(t) {
		t.Run(name, func(t *testing.T) {
			var req wire.PlanRequest
			if err := json.Unmarshal(raw, &req); err != nil {
				t.Fatal(err)
			}
			_, hs := newTestServer(t, Options{})
			post := func() (wire.PlanResponse, wire.Stats) {
				t.Helper()
				resp, err := http.Post(hs.URL+"/v1/plan", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s (%v)", resp.StatusCode, body, err)
				}
				var plan wire.PlanResponse
				if err := json.Unmarshal(body, &plan); err != nil {
					t.Fatal(err)
				}
				var stats wire.StatsResponse
				if st := call(t, "GET", hs.URL+"/v1/sessions/"+plan.SessionID+"/stats", nil, &stats); st != http.StatusOK {
					t.Fatalf("stats status %d", st)
				}
				return plan, stats.Stats
			}
			first, before := post()
			second, after := post()
			if first.Plan.CacheHit || !second.Plan.CacheHit || second.SessionID != first.SessionID {
				t.Fatalf("cache hits %v then %v, sessions %q then %q; want a solve, then a replay on the same session",
					first.Plan.CacheHit, second.Plan.CacheHit, first.SessionID, second.SessionID)
			}
			derived := 0
			if req.Solver == "" || req.Solver == "auto" {
				derived = 1
			}
			if got := after.TauCacheHits - before.TauCacheHits; got != derived {
				t.Fatalf("the repeat derived τ %d times, want %d: it did not replay by request key", got, derived)
			}
		})
	}
}

// FuzzPlanRequest drives the plan request decoder — JSON, wireconv, the
// topology and demand checks, options, solver — with arbitrary bytes. It
// must never panic, and whatever it accepts is servable: a topology that
// passes topo.Validate with a demand over exactly its nodes, or a session
// ID.
func FuzzPlanRequest(f *testing.F) {
	for _, raw := range v1PlanGoldens(f) {
		f.Add(raw)
	}
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"src":0,"dst":0,"capacity":1}]},` +
		`"demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1}}`))
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"src":0,"dst":1,"capacity":0}]},` +
		`"demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1}}`))
	f.Add([]byte(`{"session_id":"s1","demand":{"num_nodes":100000,"num_chunks":100000,"chunk_bytes":1}}`))
	f.Add([]byte(`{"session_id":"s1","demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1},"options":{"epoch_mode":"x"}}`))
	s := New(Options{})
	defer s.Close()
	f.Fuzz(func(t *testing.T, data []byte) {
		// topo.Validate runs Floyd–Warshall over the nodes a request
		// lists: keep each input to a few hundred of them.
		if len(data) > 4<<10 {
			return
		}
		in, err := s.decodePlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		switch {
		case in.topo != nil:
			if err := in.topo.Validate(); err != nil {
				t.Fatalf("accepted a topology that fails Validate: %v", err)
			}
			if in.demand.NumNodes() != in.topo.NumNodes() {
				t.Fatalf("accepted a demand over %d nodes for a topology of %d", in.demand.NumNodes(), in.topo.NumNodes())
			}
		case in.sessionID == "":
			t.Fatal("accepted a request with neither a topology nor a session")
		}
	})
}
