package wire

// Golden tests pin the v1 wire schema: the JSON below, and the request
// goldens under testdata/v1, are the contract. If a test here fails
// because a field was renamed or dropped, that is an API break — revert
// the rename or bump the wire version, never update the golden to match.
// (The tecclvet wirelock analyzer enforces the same contract structurally
// against schema.lock.json.) The request goldens are files so that the
// packages serving them can replay them: internal/daemon plans every
// PlanRequest golden through an embedded daemon and seeds FuzzPlanRequest
// with them, and FuzzReplanRequest with the ReplanRequest golden.
//
// This package is stdlib-only by machine-enforced rule, so these tests
// exercise pure serialization; the conversion round-trips against the
// in-process types live in internal/wireconv.

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// mustJSON marshals compactly and fails the test on error.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestGoldenPlan(t *testing.T) {
	p := Plan{
		Solver: "milp", Optimal: true, Gap: 0.25, Objective: 12.5,
		Epochs: 7, Tau: 1e-6, Rounds: 2, Windows: 5, SolveTimeMs: 3.5,
		CacheHit: true, WarmStart: true, CrashStart: true,
		Replanned: true, ReplanFallback: true, ReBased: true,
		Nodes: 9, RootIterations: 40, NodeIterations: 11,
		Refactorizations: 3, FTUpdates: 17, UpdateNnz: 210,
		Schedule: &Schedule{
			Tau: 1e-6, NumEpochs: 8, AllowCopy: true, EpochsPerChunk: []int{1, 2},
			Sends: []Send{{Src: 0, Chunk: 1, Link: 2, Epoch: 3, Fraction: 0.5}},
		},
	}
	const golden = `{"solver":"milp","optimal":true,"gap":0.25,"objective":12.5,` +
		`"epochs":7,"tau":0.000001,"rounds":2,"windows":5,"solve_time_ms":3.5,` +
		`"cache_hit":true,"warm_start":true,"crash_start":true,` +
		`"replanned":true,"replan_fallback":true,"rebased":true,` +
		`"nodes":9,"root_iterations":40,"node_iterations":11,` +
		`"refactorizations":3,"ft_updates":17,"update_nnz":210,` +
		`"schedule":{"tau":0.000001,"num_epochs":8,"allow_copy":true,` +
		`"epochs_per_chunk":[1,2],` +
		`"sends":[{"src":0,"chunk":1,"link":2,"epoch":3,"fraction":0.5}]}}`
	if got := mustJSON(t, p); got != golden {
		t.Errorf("Plan JSON drifted from the v1 schema:\n got: %s\nwant: %s", got, golden)
	}
	var back Plan
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("Plan does not round-trip:\n got: %+v\nwant: %+v", back, p)
	}
}

func TestGoldenStats(t *testing.T) {
	s := Stats{
		Requests: 1, ScheduleReplays: 2, WarmStartHits: 3, CrashStarts: 4,
		ExactBasisHits: 5, TauCacheHits: 6, EpochCacheHits: 7, Replans: 8,
		ReplanPivots: 9, ReplanIncrementalPivots: 10, ColdEstimatePivots: 11,
		ReplanFallbacks: 12, ReplanFallbackStructural: 13,
		ReplanFallbackBudget: 14, ReplanFallbackSour: 15,
		ReplanFallbackNoModel: 16, ReBases: 17, ReplanResumes: 18,
	}
	const golden = `{"requests":1,"schedule_replays":2,"warm_start_hits":3,` +
		`"crash_starts":4,"exact_basis_hits":5,"tau_cache_hits":6,` +
		`"epoch_cache_hits":7,"replans":8,"replan_pivots":9,` +
		`"replan_incremental_pivots":10,"cold_estimate_pivots":11,` +
		`"replan_fallbacks":12,"replan_fallback_structural":13,` +
		`"replan_fallback_budget":14,"replan_fallback_sour":15,` +
		`"replan_fallback_no_model":16,"rebases":17,"replan_resumes":18}`
	if got := mustJSON(t, s); got != golden {
		t.Errorf("Stats JSON drifted from the v1 schema:\n got: %s\nwant: %s", got, golden)
	}
	var back Stats
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("Stats does not round-trip: %+v vs %+v", back, s)
	}
}

func TestGoldenPlanRequestAndDelta(t *testing.T) {
	req := PlanRequest{
		Topology: &Topology{
			Name:  "pair",
			Nodes: []Node{{Name: "a"}, {Name: "b"}},
			Links: []Link{{Src: 0, Dst: 1, Capacity: 1e9, Alpha: 1e-6}, {Src: 1, Dst: 0, Capacity: 1e9, Alpha: 1e-6}},
		},
		Demand: Demand{
			NumNodes: 2, NumChunks: 1, ChunkBytes: 1024,
			Wants: []Want{{Src: 0, Chunk: 0, Dst: 1}},
		},
		Options: &Options{Epochs: 4, EpochMode: "slowest", TimeLimitMs: 1500},
		Solver:  "lp",
	}
	raw, err := os.ReadFile("testdata/v1/plan_request.json")
	if err != nil {
		t.Fatal(err)
	}
	goldenReq := strings.TrimSpace(string(raw))
	if got := mustJSON(t, req); got != goldenReq {
		t.Errorf("PlanRequest JSON drifted:\n got: %s\nwant: %s", got, goldenReq)
	}

	delta := Delta{
		LinksDown: []int{0},
		NodesDown: []int{1},
		Scale:     []LinkScale{{Link: 2, Capacity: 0.5}},
		AddNodes:  []Node{{Name: "c", Switch: true}},
		AddLinks:  []Link{{Src: 0, Dst: 2, Capacity: 1e9, Alpha: 1e-6}},
		DropPairs: []Pair{{Src: 0, Dst: 1}},
	}
	raw, err = os.ReadFile("testdata/v1/replan_request.json")
	if err != nil {
		t.Fatal(err)
	}
	goldenReplan := strings.TrimSpace(string(raw))
	if got := mustJSON(t, ReplanRequest{SessionID: "s1", Delta: delta}); got != goldenReplan {
		t.Errorf("ReplanRequest JSON drifted:\n got: %s\nwant: %s", got, goldenReplan)
	}
}

func TestGoldenEnvelopes(t *testing.T) {
	sessions := SessionsResponse{API: Version, Sessions: []SessionInfo{{
		ID: "s1", Topology: "dgx1", Fingerprint: "deadbeefdeadbeef",
		NumNodes: 8, NumLinks: 16, CreatedMs: 100, LastUsedMs: 200, Requests: 3,
	}}}
	const goldenSessions = `{"api":"v1","sessions":[{"id":"s1","topology":"dgx1",` +
		`"fingerprint":"deadbeefdeadbeef","num_nodes":8,"num_links":16,` +
		`"created_unix_ms":100,"last_used_unix_ms":200,"requests":3}]}`
	if got := mustJSON(t, sessions); got != goldenSessions {
		t.Errorf("SessionsResponse JSON drifted:\n got: %s\nwant: %s", got, goldenSessions)
	}
	if got := mustJSON(t, Error{Error: "queue full", Code: 429}); got != `{"error":"queue full","code":429}` {
		t.Errorf("Error JSON drifted: %s", got)
	}
	if got := mustJSON(t, StatsResponse{API: Version, SessionID: "s1"}); !strings.HasPrefix(got, `{"api":"v1","session_id":"s1","stats":{`) {
		t.Errorf("StatsResponse envelope drifted: %s", got)
	}
}

func TestGoldenTopologyWithChurn(t *testing.T) {
	// The Down list carries churn state; its presence is part of the v1
	// contract (the in-process topo.Topology marshals the same shape —
	// wireconv's round-trip test pins the two against each other).
	tt := Topology{
		Name:  "tri",
		Nodes: []Node{{Name: "a"}, {Name: "b"}, {Name: "sw", Switch: true}},
		Links: []Link{
			{Src: 0, Dst: 1, Capacity: 5e8, Alpha: 2e-6},
			{Src: 1, Dst: 2, Capacity: 5e8, Alpha: 2e-6},
		},
		Down: []int{1},
	}
	const golden = `{"name":"tri",` +
		`"nodes":[{"name":"a"},{"name":"b"},{"name":"sw","switch":true}],` +
		`"links":[{"src":0,"dst":1,"capacity":500000000,"alpha":0.000002},` +
		`{"src":1,"dst":2,"capacity":500000000,"alpha":0.000002}],` +
		`"down":[1]}`
	if got := mustJSON(t, tt); got != golden {
		t.Errorf("Topology JSON drifted:\n got: %s\nwant: %s", got, golden)
	}
	var back Topology
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tt) {
		t.Errorf("Topology does not round-trip:\n got: %+v\nwant: %+v", back, tt)
	}
}
