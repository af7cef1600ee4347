package experiments

// horizon.go is the rolling-horizon experiment family: the same
// ALLTOALL instances solved twice — windowed (internal/horizon) and
// monolithic (one dual simplex over the full time-expanded model) — so
// the table reports the decomposition's wall-clock win next to its
// certified objective gap. Short mode keeps the corpus minis for CI
// bench-smoke; full mode adds the headline NDv2 two-chassis instance,
// where the monolithic simplex is the minutes-scale scaling wall.

import (
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/core"
	"teccl/internal/horizon"
	"teccl/internal/topo"
)

// Horizon regenerates the rolling-horizon comparison table.
func Horizon(short bool) *Table {
	tab := &Table{
		ID:     "horizon",
		Title:  "rolling-horizon decomposition vs monolithic LP (ALLTOALL)",
		Header: []string{"instance", "path", "windows", "epochs", "finish", "solver_time", "CT(us)", "gap_pct"},
		Notes:  "gap is (mono-horizon)/mono on the tail-weighted objective; full mode adds the NDv2 2-chassis headline",
	}

	type inst struct {
		name  string
		t     *topo.Topology
		chunk float64
		opt   core.Options
	}
	insts := []inst{
		// Corpus minis: forced-small windows with a one-epoch commit
		// stride, the regime the property suite pins to the monolithic
		// finish epoch.
		{"dgx1-atoa-50KB", topo.DGX1(), 50e3,
			core.Options{EpochMode: core.SlowestLink, HorizonWindow: 8, HorizonOverlap: 7}},
		{"ndv2mini2-atoa-25KB", topo.NDv2Mini(2), 25e3,
			core.Options{EpochMode: core.SlowestLink, HorizonWindow: 8, HorizonOverlap: 7}},
	}
	if !short {
		// The headline: auto-sized windows on the instance whose
		// monolithic solve is minutes of dual simplex on this substrate.
		insts = append(insts, inst{"ndv2x2-atoa-62KB", topo.NDv2(2), 1e6 / 16,
			core.Options{EpochMode: core.SlowestLink}})
	}

	for _, in := range insts {
		d := collective.AllToAll(in.t.NumNodes(), gpuInts(in.t), 1, in.chunk)

		hopt := in.opt
		hopt.Workers = Workers()
		t0 := time.Now()
		hres, herr := horizon.Solve(Context(), in.t, d, hopt)
		hwall := time.Since(t0)
		hct, _ := account(hres, herr)

		mopt := core.Options{EpochMode: in.opt.EpochMode, Workers: Workers()}
		t0 = time.Now()
		mres, merr := core.SolveLP(Context(), in.t, d, mopt)
		mwall := time.Since(t0)
		mct, _ := account(mres, merr)

		gap := math.NaN()
		if herr == nil && merr == nil && mres.Objective > 0 {
			gap = (mres.Objective - hres.Objective) / mres.Objective * 100
			if gap < 0 {
				gap = 0
			}
		}

		hrow := []string{in.name, "horizon", "?", "?", "?", "X", us(hct), pctOrX(gap)}
		if herr == nil {
			hrow[2] = fmt.Sprint(hres.Windows)
			hrow[3] = fmt.Sprint(hres.Epochs)
			hrow[4] = fmt.Sprint(hres.Schedule.FinishEpoch())
			hrow[5] = hwall.Round(time.Millisecond).String()
		}
		mrow := []string{in.name, "monolithic", "-", "?", "?", "X", us(mct), "-"}
		if merr == nil {
			mrow[3] = fmt.Sprint(mres.Epochs)
			mrow[4] = fmt.Sprint(mres.Schedule.FinishEpoch())
			mrow[5] = mwall.Round(time.Millisecond).String()
		}
		tab.Rows = append(tab.Rows, hrow, mrow)

		// Last instance wins (the headline in full mode): the machine-
		// readable comparison bench-smoke archives per PR.
		if tab.Metrics == nil {
			tab.Metrics = map[string]float64{}
		}
		tab.Metrics["horizon_wall_ms"] = float64(hwall) / float64(time.Millisecond)
		tab.Metrics["mono_wall_ms"] = float64(mwall) / float64(time.Millisecond)
		if herr == nil {
			tab.Metrics["horizon_windows"] = float64(hres.Windows)
		}
		if !math.IsNaN(gap) {
			tab.Metrics["gap_pct"] = gap
		}
	}
	return tab
}

func pctOrX(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "X"
	}
	return fmt.Sprintf("%.2f%%", v)
}
