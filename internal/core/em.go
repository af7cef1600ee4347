package core

// em.go is the epoch-multiplier auto-selection in front of the windowed
// solves (Table 4's EM column): before any model is built, probe how
// large the time-expanded formulation would be at coarse multiplier
// grid points, then refine only around the feasibility boundary — the
// smallest multiplier whose demands×links×epochs cell count fits the
// budget. Scaling tau by EM trades schedule granularity for model size
// exactly as §6's Table 4 does, where larger instances carry larger EMs
// to stay solvable.

import (
	"teccl/internal/collective"
	"teccl/internal/topo"
)

// defaultEMCellBudget is the demands×links×epochs budget the chosen
// multiplier must fit when Options.HorizonCellBudget is zero. Calibrated
// against Table 4: on the 16 MB SlowestLink instances of figures.go the
// prober must keep EM=1 for Internal1(2) and Internal2(4) (<= 28 672
// cells) yet pick EM=2 for Internal1(3) ALLTOALL (139 392 cells at EM 1,
// 101 376 at EM 2) and Internal2(6) (118 800 at EM 1, 80 784 at EM 2) —
// any budget in [101 376, 118 800) reproduces the paper's EM column.
const defaultEMCellBudget = 110_000

// emProbe is one prober evaluation: the multiplier, the estimated model
// cells at that multiplier, and whether it fits the budget.
type emProbe struct {
	EM    float64
	Cells int
	Fits  bool
}

// coarseEMs is the power-of-two grid probed first.
var coarseEMs = []float64{1, 2, 4, 8, 16, 32}

// probeEM picks the smallest epoch multiplier whose estimated model
// size fits the cell budget (0 means defaultEMCellBudget), or the
// largest coarse grid point when nothing fits, and returns the probe
// trace: the coarse power-of-two ascent and the integer refinement
// between the last miss and the first fit. Model cells are estimated
// without building anything — demand count × links × the Algorithm 1
// horizon estimate at the scaled tau.
func probeEM(t *topo.Topology, d *collective.Demand, opt Options, budget int) (float64, []emProbe) {
	if budget <= 0 {
		budget = defaultEMCellBudget
	}
	// The LP path expands multicast demands per destination before
	// estimating; size the model the same way.
	if d.HasMulticast() {
		d = d.ExpandPerDestination()
	}
	var probes []emProbe
	cells := func(em float64) int {
		tau := DeriveTau(t, d.ChunkBytes, opt.EpochMode, em)
		c := d.Count() * t.NumLinks() * EstimateEpochs(t, d, tau)
		probes = append(probes, emProbe{EM: em, Cells: c, Fits: c <= budget})
		return c
	}

	fit := -1
	for i, em := range coarseEMs {
		if cells(em) <= budget {
			fit = i
			break
		}
	}
	if fit < 0 {
		return coarseEMs[len(coarseEMs)-1], probes
	}
	if fit == 0 {
		return 1, probes
	}
	// Refine on integers strictly between the last miss and the fit.
	for em := coarseEMs[fit-1] + 1; em < coarseEMs[fit]; em++ {
		if cells(em) <= budget {
			return em, probes
		}
	}
	return coarseEMs[fit], probes
}
