package analysis_test

import (
	"testing"

	"teccl/internal/analysis"
	"teccl/internal/analysis/analysistest"
)

func TestImportRules(t *testing.T) {
	// Each testdata directory impersonates one governed package (plus
	// one ungoverned control).
	cases := []struct{ dir, pkg string }{
		{"experiments", "teccl/internal/experiments"},
		{"wire", "teccl/wire"},
		{"client", "teccl/client"},
		{"ok", "teccl/internal/ok"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			analysistest.Run(t, analysis.ImportRules, "testdata/src/importrules/"+c.dir, c.pkg)
		})
	}
}

func TestImportRulesSubpackage(t *testing.T) {
	// A rule governs the package's subtree too: experiments/helper
	// paths inherit experiments' bans.
	analysistest.Run(t, analysis.ImportRules, "testdata/src/importrules/experiments", "teccl/internal/experiments/figures")
}
