package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/topo"
)

// TestModelCoefficientsUnit holds the premise presolve is built on: every
// row coefficient of every model the planner builds is ±1 — conservation,
// capacity windows, demand and buffer limits, over link and buffer
// columns alike — so presolve hands the reduced matrix to the simplex
// unscaled. It walks the monolithic LP, the first, a middle and the final
// rolling-horizon window, a model grown by appendDemand, the whole-horizon
// MILP and the first two A* rounds on ROADMAP 3f's rings, lines and stars,
// under both epoch modes and each buffer model the builder accepts. A
// builder that writes any other coefficient fails here by name.
func TestModelCoefficientsUnit(t *testing.T) {
	const capacity, alpha = 25e9, 0.6e-6
	var fabrics []*topo.Topology
	for n := 3; n <= 5; n++ {
		if n >= 4 {
			fabrics = append(fabrics, topo.Ring(n, capacity, alpha))
		}
		fabrics = append(fabrics, topo.Line(n, capacity, alpha), topo.Star(n-1, capacity, alpha))
	}
	buffers := []struct {
		name string
		opt  Options
	}{{"buffered", Options{}}, {"nobuffers", Options{NoBuffers: true}}, {"limit12", Options{BufferLimitChunks: 12}}}
	for _, tp := range fabrics {
		g := testGPUs(tp)
		demands := map[string]*collective.Demand{
			"alltoall":  collective.AllToAll(tp.NumNodes(), g, 2, 25e3),
			"allgather": collective.AllGather(tp.NumNodes(), g, 2, 25e3),
		}
		for dname, d := range demands {
			for _, mode := range []EpochMode{FastestLink, SlowestLink} {
				for _, bm := range buffers {
					opt := bm.opt
					opt.EpochMode = mode
					name := fmt.Sprintf("%s/%s/mode%d/%s", tp.Name, dname, mode, bm.name)
					checkUnit(t, name+"/lp", must(prepLP(tp, d, opt)).m.p)
					checkWindowsUnit(t, name, tp, d, opt)
					in := must(newInstance(tp, d, opt))
					checkUnit(t, name+"/milp", must(buildMILP(in)).p)
					if bm.name == "buffered" {
						checkAStarUnit(t, name, in)
						if dname == "alltoall" {
							checkAppendUnit(t, name, tp, d, g, opt)
						}
					}
				}
			}
		}
	}
}

// checkWindowsUnit opens the first, a middle and the final window of
// (tp, d) from the initial boundary.
func checkWindowsUnit(t *testing.T, name string, tp *topo.Topology, d *collective.Demand, opt Options) {
	t.Helper()
	wi := NewWindowInstance(tp, d, opt)
	K := wi.Epochs()
	span := max(1, K/2)
	for _, w := range []struct {
		lo, hi int
		final  bool
	}{{0, span, false}, {K / 4, K/4 + span, false}, {K - span, K, true}} {
		wlp, err := wi.BuildWindow(w.lo, w.hi, w.final, wi.InitialBoundary())
		if err != nil {
			t.Fatal(err)
		}
		checkUnit(t, fmt.Sprintf("%s/window[%d,%d)", name, w.lo, w.hi), wlp.P)
	}
}

// checkAppendUnit grows the model of d without some of its pairs by
// appendDemand: every pair of gpus[0], a new source, and with three GPUs
// or more the pair (gpus[1], gpus[0]), a new pair on a source the model
// already has.
func checkAppendUnit(t *testing.T, name string, tp *topo.Topology, d *collective.Demand, gpus []int, opt Options) {
	t.Helper()
	opt.Epochs = must(prepLP(tp, d, opt)).in.K
	base, add := d.Clone(), collective.New(d.NumNodes(), d.NumChunks(), d.ChunkBytes)
	move := func(src, dst int) {
		for _, c := range d.DestWantsFromSource(src, dst) {
			add.Set(src, c, dst)
		}
		base.DropPair(src, dst)
	}
	for dst := 0; dst < d.NumNodes(); dst++ {
		move(gpus[0], dst)
	}
	if len(gpus) > 2 {
		move(gpus[1], gpus[0])
	}
	m := must(prepLP(tp, base, opt)).m
	if err := m.appendDemand(add, false); err != nil {
		t.Fatalf("%s: appending: %v", name, err)
	}
	checkUnit(t, name+"/append", m.p)
}

// checkAStarUnit builds round 1 from the initial state, solves it, and
// builds round 2 from the state round 1 leaves: pending arrivals and the
// link load charged against straddling capacity windows.
func checkAStarUnit(t *testing.T, name string, in *instance) {
	t.Helper()
	st, Kr, hop := newAStarState(in), astarRoundLength(in), in.hopDistances()
	for round := 0; round < 2 && st.remaining > 0; round++ {
		off := round * Kr
		m := &milpModel{in: in, hop: hop}
		if err := m.emit(off, off+Kr, false, st); err != nil {
			t.Fatal(err)
		}
		checkUnit(t, fmt.Sprintf("%s/astar-round%d", name, round+1), m.p)
		sends, _, _, err := solveRound(context.Background(), in, st, hop, Kr, off, nil)
		if err != nil {
			t.Fatal(err)
		}
		advanceState(in, st, sends, off, Kr)
	}
}

// checkUnit fails the test on the first row coefficient of p that is not
// ±1. lp exports no row accessor, so the rows are read by reflection, as
// problemsReachable walks a session.
func checkUnit(t *testing.T, name string, p *lp.Problem) {
	t.Helper()
	if i, c, ok := nonUnitCoeff(p); ok {
		t.Errorf("%s: row %d has coefficient %g; every model row must be ±1", name, i, c)
	}
}

// nonUnitCoeff returns the first row (by index) of p holding a
// coefficient other than ±1, and that coefficient.
func nonUnitCoeff(p *lp.Problem) (row int, coeff float64, found bool) {
	rows := reflect.ValueOf(p).Elem().FieldByName("rows")
	for i := 0; i < rows.Len(); i++ {
		r := rows.Index(i)
		for k := 0; k < r.Len(); k++ {
			if c := r.Index(k).FieldByName("Coeff").Float(); c != 1 && c != -1 {
				return i, c, true
			}
		}
	}
	return 0, 0, false
}
