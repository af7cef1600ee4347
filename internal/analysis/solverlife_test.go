package analysis_test

import (
	"testing"

	"teccl/internal/analysis"
	"teccl/internal/analysis/analysistest"
)

func TestSolverLife(t *testing.T) {
	analysistest.Run(t, analysis.SolverLife, "testdata/src/solverlife", "teccl/internal/core")
}

// TestSolverLifeIgnoresSolverPackages: lp and milp make their own
// workspaces (the pool, the branch-and-bound workers).
func TestSolverLifeIgnoresSolverPackages(t *testing.T) {
	for _, pkg := range []string{"teccl/internal/lp", "teccl/internal/milp"} {
		pass := analysistest.Load(t, "testdata/src/solverlife", pkg)
		diags, err := analysis.RunAnalyzer(analysis.SolverLife, pass)
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 0 {
			t.Fatalf("solverlife fired inside %s: %v", pkg, diags)
		}
	}
}
