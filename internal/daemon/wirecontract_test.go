package daemon

// The v1 wire contract made executable: every PlanRequest golden of
// package wire (wire/testdata/v1) still decodes and plans, a repeat of it
// is answered by the session's request index, and the plan and replan
// request decoders survive arbitrary bytes. Wire changes are additive
// only; these are the tests that say so.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"teccl/internal/topo"
	"teccl/wire"
)

// v1Goldens reads the request goldens of package wire whose file names
// match pattern.
func v1Goldens(tb testing.TB, pattern string) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob("../../wire/testdata/v1/" + pattern)
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no v1 goldens %s (%v)", pattern, err)
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
	for name, raw := range v1Goldens(t, "plan_request*.json") {
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

// nodesPlanRequest is a plan request for a topology of n unnamed,
// unlinked GPUs with a demand over them: 3 bytes a node, so a topology
// over maxTopologyNodes fits the fuzzers' 4 KiB inputs.
func nodesPlanRequest(n int) []byte {
	nodes := strings.TrimSuffix(strings.Repeat("{},", n), ",")
	return []byte(fmt.Sprintf(`{"topology":{"nodes":[%s]},"demand":{"num_nodes":%d,"num_chunks":1,"chunk_bytes":1}}`, nodes, n))
}

// addNodesReplanRequest is a replan request of session s1 adding n
// unnamed nodes.
func addNodesReplanRequest(n int) []byte {
	nodes := strings.TrimSuffix(strings.Repeat("{},", n), ",")
	return []byte(fmt.Sprintf(`{"session_id":"s1","delta":{"add_nodes":[%s]}}`, nodes))
}

// TestTopologyNodeCap: a plan request listing more than maxTopologyNodes
// nodes, and a replan growing a session's topology past it, are 400s
// refused by the cap — before topo.Validate or topo.ValidateLive runs
// Floyd–Warshall over them.
func TestTopologyNodeCap(t *testing.T) {
	if nodesFit(maxTopologyNodes) != nil || nodesFit(maxTopologyNodes+1) == nil {
		t.Fatalf("nodesFit does not put the limit at %d nodes", maxTopologyNodes)
	}
	s, hs := newTestServer(t, Options{})
	if sess, err := s.pool.get(topo.DGX1()); err != nil || sess.id != "s1" {
		t.Fatalf("session %v (%v), want s1", sess, err)
	}
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/plan", nodesPlanRequest(maxTopologyNodes + 1)},
		{"/v1/replan", addNodesReplanRequest(maxTopologyNodes + 1 - topo.DGX1().NumNodes())},
	} {
		if len(c.body) > 4<<10 {
			t.Fatalf("%s: a %d-byte body does not fit the fuzzers' inputs", c.path, len(c.body))
		}
		resp, err := http.Post(hs.URL+c.path, "application/json", bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var werr wire.Error
		err = json.NewDecoder(resp.Body).Decode(&werr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(werr.Error, "node limit") {
			t.Errorf("%s: status %d, error %q (%v); want a 400 from the node limit", c.path, resp.StatusCode, werr.Error, err)
		}
	}
}

// FuzzPlanRequest drives the plan request decoder — JSON, wireconv, the
// topology and demand checks, options, solver — with arbitrary bytes. It
// must never panic, and whatever it accepts is servable: a topology of at
// most maxTopologyNodes nodes that passes topo.Validate with a demand over
// exactly its nodes, or a session ID.
func FuzzPlanRequest(f *testing.F) {
	for _, raw := range v1Goldens(f, "plan_request*.json") {
		f.Add(raw)
	}
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"src":0,"dst":0,"capacity":1}]},` +
		`"demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1}}`))
	f.Add([]byte(`{"topology":{"nodes":[{"name":"a"},{"name":"b"}],"links":[{"src":0,"dst":1,"capacity":0}]},` +
		`"demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1}}`))
	f.Add([]byte(`{"session_id":"s1","demand":{"num_nodes":100000,"num_chunks":100000,"chunk_bytes":1}}`))
	f.Add([]byte(`{"session_id":"s1","demand":{"num_nodes":2,"num_chunks":1,"chunk_bytes":1},"options":{"epoch_mode":"x"}}`))
	f.Add(nodesPlanRequest(maxTopologyNodes + 1))
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
			if n := in.topo.NumNodes(); n > maxTopologyNodes {
				t.Fatalf("accepted a topology of %d nodes", n)
			}
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

// FuzzReplanRequest drives the replan request decoder — JSON, wireconv,
// the delta applied to the named session's topology — with arbitrary
// bytes against a daemon holding one DGX1 session, s1. It must never
// panic, and whatever it accepts names that session and churns its
// topology into one of at most maxTopologyNodes nodes that passes
// topo.ValidateLive, with dropped pairs and added demand over the
// churned nodes.
func FuzzReplanRequest(f *testing.F) {
	for _, raw := range v1Goldens(f, "replan_request*.json") {
		f.Add(raw)
	}
	f.Add([]byte(`{"session_id":"s1","delta":{"links_down":[0]}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"nodes_down":[3],"drop_pairs":[{"src":3,"dst":0}]}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"scale":[{"link":1,"capacity":0.8,"alpha":3}]}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"scale":[{"link":1,"capacity":1e300},{"link":1,"capacity":1e300}]}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"add_nodes":[{"name":"x"}],"add_links":[{"src":0,"dst":8,"capacity":1e9},{"src":8,"dst":0,"capacity":1e9}]}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"add_demand":{"num_nodes":9,"num_chunks":1,"chunk_bytes":1}}}`))
	f.Add([]byte(`{"session_id":"s1","delta":{"drop_pairs":[{"src":0,"dst":99}]}}`))
	f.Add([]byte(`{"session_id":"s2","delta":{}}`))
	f.Add(addNodesReplanRequest(maxTopologyNodes + 1 - topo.DGX1().NumNodes()))
	// Duplicate links: twice within one delta, over a live link, and over
	// a live link the same delta downs (added links are checked against
	// the topology before the delta, so all three are 400s).
	l0 := topo.DGX1().Link(0)
	f.Add([]byte(`{"session_id":"s1","delta":{"add_nodes":[{"name":"x"}],"add_links":[{"src":8,"dst":0,"capacity":1e9},{"src":8,"dst":0,"capacity":2e9}]}}`))
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s1","delta":{"add_links":[{"src":%d,"dst":%d,"capacity":1e9}]}}`, l0.Src, l0.Dst)))
	f.Add([]byte(fmt.Sprintf(`{"session_id":"s1","delta":{"links_down":[0],"add_links":[{"src":%d,"dst":%d,"capacity":1e9}]}}`, l0.Src, l0.Dst)))
	s := New(Options{})
	defer s.Close()
	sess, err := s.pool.get(topo.DGX1())
	if err != nil || sess.id != "s1" {
		f.Fatalf("session %v (%v), want s1", sess, err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4<<10 {
			return
		}
		in, err := s.decodeReplan(bytes.NewReader(data))
		if err != nil {
			return
		}
		if in.sess != sess {
			t.Fatalf("accepted a replan of session %q", in.sess.id)
		}
		churned, err := sess.planner.Topology().ApplyDelta(in.delta.TopoDelta())
		if err != nil {
			t.Fatalf("accepted a delta that does not apply: %v", err)
		}
		if n := churned.NumNodes(); n > maxTopologyNodes {
			t.Fatalf("accepted a delta growing the topology to %d nodes", n)
		}
		if err := churned.ValidateLive(); err != nil {
			t.Fatalf("accepted a delta whose churned topology fails ValidateLive: %v", err)
		}
		n := churned.NumNodes()
		for _, p := range in.delta.DropPairs {
			if p.Src < 0 || p.Src >= n || p.Dst < 0 || p.Dst >= n {
				t.Fatalf("accepted a drop of pair (%d,%d) over %d nodes", p.Src, p.Dst, n)
			}
		}
		if d := in.delta.AddDemand; d != nil && d.NumNodes() != n {
			t.Fatalf("accepted added demand over %d nodes for a topology of %d", d.NumNodes(), n)
		}
	})
}
