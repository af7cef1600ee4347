package analysis_test

import (
	"testing"

	"teccl/internal/analysis"
	"teccl/internal/analysis/analysistest"
)

func TestCtxCheck(t *testing.T) {
	// The same testdata is valid for any of the three governed solver
	// subtrees; run it as each to pin the scope (a subpackage path
	// checks that a subtree is governed too).
	for _, pkg := range []string{
		"teccl/internal/lp",
		"teccl/internal/milp",
		"teccl/internal/core/windows",
	} {
		t.Run(pkg, func(t *testing.T) {
			analysistest.Run(t, analysis.CtxCheck, "testdata/src/ctxcheck", pkg)
		})
	}
}

func TestCtxCheckIgnoresOtherPackages(t *testing.T) {
	pass := analysistest.Load(t, "testdata/src/ctxcheck", "teccl/internal/topo")
	diags, err := analysis.RunAnalyzer(analysis.CtxCheck, pass)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("ctxcheck fired outside the solver packages: %v", diags)
	}
}
