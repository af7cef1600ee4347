package baseline

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"teccl/internal/collective"
	"teccl/internal/topo"
)

func TestSCCLGlobalBudget(t *testing.T) {
	// A contended instance with a microscopic budget must return fast,
	// feasible or not.
	tp := topo.DGX1()
	d := collective.AllToAll(tp.NumNodes(), gpuIDs(tp), 1, 25e3)
	start := time.Now()
	r := SolveSCCL(tp, d, SCCLOptions{MaxSteps: 6, TimeLimit: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("budget ignored: %v", elapsed)
	}
	_ = r // feasibility depends on how far the search got; both outcomes fine
}

func TestSCCLAlphaZeroCloneShape(t *testing.T) {
	tp := topo.NDv2(2)
	c := alphaZeroClone(tp)
	if c.NumNodes() != tp.NumNodes() || c.NumLinks() != tp.NumLinks() {
		t.Fatal("clone changed shape")
	}
	if c.MaxAlpha() != 0 {
		t.Fatal("clone kept alpha")
	}
	if len(c.Switches()) != len(tp.Switches()) {
		t.Fatal("clone lost switch flags")
	}
}

func TestSCCLSingleChunkBeatsPipelinesNothing(t *testing.T) {
	// Table 3's 1-chunk case: SCCL's barrier time for a diameter-1 hop is
	// exactly alpha + chunk/cap — there is nothing to pipeline.
	tp := topo.Line(2, 1e9, 1e-6)
	d := collective.New(2, 1, 1e6)
	d.Set(0, 0, 1)
	r := SolveSCCL(tp, d, SCCLOptions{MaxSteps: 2})
	if !r.Feasible || r.Steps != 1 {
		t.Fatalf("feasible=%v steps=%d", r.Feasible, r.Steps)
	}
	want := 1e6/1e9 + 1e-6
	if diff := r.TransferTime - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("transfer = %g, want %g", r.TransferTime, want)
	}
}

func TestSCCLEmptyDemand(t *testing.T) {
	tp := topo.Line(2, 1e9, 0)
	d := collective.New(2, 1, 1e6)
	r := SolveSCCL(tp, d, SCCLOptions{MaxSteps: 2})
	if !r.Feasible {
		t.Fatal("empty demand should be trivially feasible")
	}
	if r.TransferTime != 0 {
		t.Fatalf("transfer = %g, want 0", r.TransferTime)
	}
}

func TestTACCLRestartsNeverHurt(t *testing.T) {
	// Best-of-N restarts is monotonically no worse than best-of-1 with
	// the same seed stream prefix.
	tp := topo.Internal2(2)
	d := collective.AllGather(tp.NumNodes(), gpuIDs(tp), 1, 1e6)
	one := SolveTACCL(tp, d, TACCLOptions{Seed: 11, Restarts: 1})
	many := SolveTACCL(tp, d, TACCLOptions{Seed: 11, Restarts: 25})
	if !many.Feasible {
		t.Skip("instance infeasible for this heuristic")
	}
	if one.Feasible && many.Schedule.FinishTime() > one.Schedule.FinishTime()+1e-12 {
		t.Fatal("more restarts produced a worse best schedule")
	}
}

func TestSPFRespectsMaxEpochs(t *testing.T) {
	tp := topo.Line(3, 1e9, 0)
	d := collective.AllToAll(3, gpuIDs(tp), 4, 1e6)
	r := SolveSPF(tp, d, 1)
	if r.Feasible {
		t.Fatal("4 chunks per pair cannot fit one epoch")
	}
}

// TestSCCLModelCoefficientsUnit extends core's TestModelCoefficientsUnit
// to the SCCL baseline's barrier model: every row coefficient is ±1
// (buffer recurrence, send-requires-holding, per-step link multiplicity),
// so presolve hands it to the simplex unscaled too. lp exports no row
// accessor, so the rows are read by reflection.
func TestSCCLModelCoefficientsUnit(t *testing.T) {
	for _, tp := range []*topo.Topology{topo.Ring(4, 1e9, 1e-6), topo.Line(3, 1e9, 1e-6), topo.Star(3, 1e9, 1e-6), topo.DGX1()} {
		g := gpuIDs(tp)
		for dname, d := range map[string]*collective.Demand{
			"alltoall":  collective.AllToAll(tp.NumNodes(), g, 2, 1e6),
			"allgather": collective.AllGather(tp.NumNodes(), g, 2, 1e6),
		} {
			name := fmt.Sprintf("%s/%s", tp.Name, dname)
			rows := reflect.ValueOf(buildSCCL(tp, d, 3, 2).p).Elem().FieldByName("rows")
		scan:
			for i := 0; i < rows.Len(); i++ {
				for k := 0; k < rows.Index(i).Len(); k++ {
					if c := rows.Index(i).Index(k).FieldByName("Coeff").Float(); c != 1 && c != -1 {
						t.Errorf("%s: row %d has coefficient %g; every model row must be ±1", name, i, c)
						break scan
					}
				}
			}
		}
	}
}
