package wireconv

// Conversion round-trips between the wire schema and the in-process
// types. The golden JSON itself is pinned in the wire package; here the
// contract under test is that nothing is lost or mangled crossing the
// boundary in either direction.

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/topo"
	"teccl/wire"
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

func TestStatsMirrorsPlannerStats(t *testing.T) {
	// wire.Stats must track PlannerStats field for field: a counter
	// added in core without a wire mapping would silently read zero at
	// every client. Round-trip a struct filled with distinct values and
	// require every field to survive. The one wire-only field is the
	// locked replan_incremental_pivots, a mirror of replan_pivots.
	var ps core.PlannerStats
	v := reflect.ValueOf(&ps).Elem()
	if v.NumField()+1 != reflect.TypeOf(wire.Stats{}).NumField() {
		t.Fatalf("PlannerStats has %d fields, wire.Stats %d (want one more) — extend the wire mapping (and the golden)",
			v.NumField(), reflect.TypeOf(wire.Stats{}).NumField())
	}
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	ws := FromStats(ps)
	if got := ToStats(ws); got != ps {
		t.Errorf("PlannerStats round-trip lost counters:\n got: %+v\nwant: %+v", got, ps)
	}
	if ws.ReplanIncrementalPivots != ps.ReplanPivots {
		t.Errorf("wire replan_incremental_pivots = %d, want the replan_pivots mirror %d",
			ws.ReplanIncrementalPivots, ps.ReplanPivots)
	}
}

func TestTopologyRoundTrip(t *testing.T) {
	// The wire.Topology mirror must serialize to exactly the bytes the
	// in-process topology produces, churn state included — that identity
	// is what lets the stdlib-only wire package carry topologies at all.
	tt, err := topo.DGX1().ApplyDelta(topo.Delta{LinksDown: []topo.LinkID{3}})
	if err != nil {
		t.Fatal(err)
	}
	w, werr := FromTopology(tt)
	if werr != nil {
		t.Fatal(werr)
	}
	if got, want := mustJSON(t, w), mustJSON(t, tt); got != want {
		t.Fatalf("wire.Topology bytes diverge from topo.Topology:\n got: %s\nwant: %s", got, want)
	}
	back, err := ToTopology(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != tt.NumNodes() || back.NumLinks() != tt.NumLinks() {
		t.Fatalf("round-trip changed dimensions: %d/%d vs %d/%d",
			back.NumNodes(), back.NumLinks(), tt.NumNodes(), tt.NumLinks())
	}
	if !back.LinkDown(3) {
		t.Fatal("round-trip lost churn state (link 3 down)")
	}
	if got, want := mustJSON(t, back), mustJSON(t, tt); got != want {
		t.Fatalf("re-marshalled topology diverges:\n got: %s\nwant: %s", got, want)
	}

	// Invalid topologies must fail on the way in, not inside a solver.
	if _, err := ToTopology(&wire.Topology{
		Name:  "bad",
		Nodes: []wire.Node{{Name: "a"}},
		Links: []wire.Link{{Src: 0, Dst: 7, Capacity: 1, Alpha: 0}},
	}); err == nil {
		t.Fatal("topology with out-of-range link endpoint accepted")
	}

	// nil passes through untouched in both directions.
	if w, err := FromTopology(nil); err != nil || w != nil {
		t.Fatalf("FromTopology(nil) = %v, %v", w, err)
	}
	if tt, err := ToTopology(nil); err != nil || tt != nil {
		t.Fatalf("ToTopology(nil) = %v, %v", tt, err)
	}
}

func TestDemandRoundTrip(t *testing.T) {
	tt := topo.DGX1()
	var gpus []int
	for _, g := range tt.GPUs() {
		gpus = append(gpus, int(g))
	}
	d := collective.AllToAll(tt.NumNodes(), gpus, 2, 25e3)
	js := mustJSON(t, FromDemand(d))
	var w wire.Demand
	if err := json.Unmarshal([]byte(js), &w); err != nil {
		t.Fatal(err)
	}
	back, err := ToDemand(w)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != d.Fingerprint() {
		t.Fatal("demand fingerprint changed across the wire")
	}
}

func TestDemandValidation(t *testing.T) {
	cases := []wire.Demand{
		{NumNodes: 0, NumChunks: 1, ChunkBytes: 1},
		{NumNodes: 2, NumChunks: 1, ChunkBytes: 0},
		{NumNodes: 2, NumChunks: 1, ChunkBytes: 1, Wants: []wire.Want{{Src: 2, Chunk: 0, Dst: 0}}},
		{NumNodes: 2, NumChunks: 1, ChunkBytes: 1, Wants: []wire.Want{{Src: 0, Chunk: 1, Dst: 1}}},
		{NumNodes: 2, NumChunks: 1, ChunkBytes: 1, Wants: []wire.Want{{Src: 0, Chunk: 0, Dst: -1}}},
		// Sizes that would allocate past the cell bound, or overflow it.
		{NumNodes: 1 << 13, NumChunks: 2, ChunkBytes: 1},
		{NumNodes: 1 << 14, NumChunks: 1, ChunkBytes: 1},
		{NumNodes: 1 << 40, NumChunks: 1 << 40, ChunkBytes: 1},
	}
	for i, c := range cases {
		if _, err := ToDemand(c); err == nil {
			t.Errorf("case %d: invalid demand accepted", i)
		}
	}
}

func TestOptionsRoundTrip(t *testing.T) {
	in := core.Options{
		Epochs: 5, EpochMode: core.SlowestLink, Tau: 2e-6, EpochMultiplier: 2,
		SwitchMode: core.SwitchNoCopy, NoBuffers: true, BufferLimitChunks: 3,
		GapLimit: 0.3, TimeLimit: 90 * time.Second, MinimizeMakespan: true,
		Crash: core.CrashAll, Workers: 4, RoundEpochs: 6, MaxRounds: 12,
		HorizonWindow: 16, HorizonOverlap: 12, HorizonCertify: 30 * time.Second,
		AutoEpochMultiplier: true, HorizonCellBudget: 50_000,
	}
	w := FromOptions(in)
	js := mustJSON(t, w)
	var back wire.Options
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatal(err)
	}
	out, err := ToOptions(back)
	if err != nil {
		t.Fatal(err)
	}
	// Function fields do not travel; compare the serializable rest.
	in.Priority, out.Priority = nil, nil
	if !reflect.DeepEqual(in, out) {
		t.Errorf("options round-trip:\n got: %+v\nwant: %+v", out, in)
	}

	for _, bad := range []wire.Options{
		{EpochMode: "medium"}, {SwitchMode: "maybe"}, {Crash: "sometimes"},
		{Priority: []wire.PriorityWeight{{Weight: 0}}},
	} {
		if _, err := ToOptions(bad); err == nil {
			t.Errorf("invalid options %+v accepted", bad)
		}
	}
}

func TestParseSolverNames(t *testing.T) {
	for name, want := range map[string]core.Solver{
		"": core.SolverAuto, "auto": core.SolverAuto, "lp": core.SolverLP,
		"milp": core.SolverMILP, "astar": core.SolverAStar, "horizon": core.SolverHorizon,
	} {
		got, err := ParseSolver(name)
		if err != nil || got != want {
			t.Errorf("ParseSolver(%q) = %v, %v; want %v", name, got, err, want)
		}
		if rt, err := ParseSolver(SolverName(want)); err != nil || rt != want {
			t.Errorf("solver %v does not round-trip through its wire name %q", want, SolverName(want))
		}
	}
	if _, err := ParseSolver("simplex"); err == nil {
		t.Error("unknown solver name accepted")
	}
}

func TestPrioritySampling(t *testing.T) {
	d := collective.New(3, 1, 1024)
	d.Set(0, 0, 1)
	d.Set(0, 0, 2)
	pri := func(src, chunk, dst int) float64 {
		if dst == 2 {
			return 10
		}
		return 1
	}
	sampled := SamplePriority(pri, d)
	if len(sampled) != 1 || sampled[0] != (wire.PriorityWeight{Src: 0, Chunk: 0, Dst: 2, Weight: 10}) {
		t.Fatalf("sampled = %+v, want the single non-neutral triple", sampled)
	}
	opt, err := ToOptions(wire.Options{Priority: sampled})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Priority(0, 0, 2) != 10 || opt.Priority(0, 0, 1) != 1 {
		t.Fatal("rebuilt priority function does not match the sample")
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	in := core.Delta{
		LinksDown: []topo.LinkID{0, 4},
		NodesDown: []topo.NodeID{2},
		Scale:     []topo.LinkScale{{Link: 1, Capacity: 0.5, Alpha: 2}},
		AddNodes:  []topo.Node{{Name: "c"}, {Name: "sw", Switch: true}},
		AddLinks:  []topo.Link{{Src: 0, Dst: 2, Capacity: 1e9, Alpha: 1e-6}},
		DropPairs: []core.DemandPair{{Src: 0, Dst: 1}},
	}
	back, err := ToDelta(FromDelta(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, back) {
		t.Fatalf("delta round-trip drifted:\n got: %+v\nwant: %+v", back, in)
	}
}

func TestPlanRoundTripThroughCore(t *testing.T) {
	tt := topo.DGX1()
	var gpus []int
	for _, g := range tt.GPUs() {
		gpus = append(gpus, int(g))
	}
	d := collective.AllToAll(tt.NumNodes(), gpus, 1, 25e3)
	pl := core.NewPlanner(tt, core.PlannerOptions{})
	defer pl.Close()
	plan, err := pl.Plan(t.Context(), core.Request{Demand: d})
	if err != nil {
		t.Fatal(err)
	}
	js := mustJSON(t, FromPlan(plan))
	var w wire.Plan
	if err := json.Unmarshal([]byte(js), &w); err != nil {
		t.Fatal(err)
	}
	back, err := ToPlan(w, tt, d)
	if err != nil {
		t.Fatal(err)
	}
	if back.Objective != plan.Objective || back.Solver != plan.Solver ||
		back.Optimal != plan.Optimal || back.Epochs != plan.Epochs {
		t.Fatalf("plan round-trip drifted: %+v vs %+v", back.Result, plan.Result)
	}
	if err := back.Schedule.Validate(); err != nil {
		t.Fatalf("rebound schedule invalid: %v", err)
	}
	if back.Schedule.FinishEpoch() != plan.Schedule.FinishEpoch() {
		t.Fatalf("finish epoch %d != %d", back.Schedule.FinishEpoch(), plan.Schedule.FinishEpoch())
	}
}
