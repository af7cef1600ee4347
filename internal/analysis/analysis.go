package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant check. The zero framework mirrors
// golang.org/x/tools/go/analysis: Run inspects a fully parsed (and,
// when NeedTypes is set, type-checked) package through its Pass and
// reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in output and in the
	// //teccl:allow-<name> suppression directive.
	Name string
	// Doc is a one-paragraph description shown by `tecclvet -list`.
	Doc string
	// NeedTypes requests Pkg/TypesInfo on the Pass. Analyzers that only
	// look at syntax leave it false so the test harness can load
	// testdata packages whose imports do not resolve.
	NeedTypes bool
	// Run performs the check.
	Run func(*Pass) error
}

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, with comments.
	Files []*ast.File
	// PkgPath is the package's import path. Path-scoped analyzers key
	// off it; the test harness overrides it to stand testdata packages
	// in for the real ones.
	PkgPath string
	// Dir is the package directory on disk (wirelock reads the schema
	// lock that lives next to the sources).
	Dir string
	// Pkg and TypesInfo carry type information when the analyzer set
	// NeedTypes; nil otherwise.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report receives each diagnostic. The driver and the test harness
	// install it; suppression directives are filtered afterwards.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// All returns the tecclvet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{ImportRules, WireLock, CtxCheck, FloatCmp, SolverLife}
}

// allowPrefix is the suppression directive stem; the analyzer name and
// an optional justification follow.
const allowPrefix = "//teccl:allow-"

// suppressedLines maps filename -> set of line numbers covered by a
// //teccl:allow-<name> directive: the directive's own line and the line
// after it, so the directive can sit trailing on the offending line or
// on its own line directly above.
func suppressedLines(fset *token.FileSet, files []*ast.File, name string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix+name)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				pos := fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = make(map[int]bool)
					out[pos.Filename] = m
				}
				m[pos.Line] = true
				m[pos.Line+1] = true
			}
		}
	}
	return out
}

// RunAnalyzer runs one analyzer over one pass, returning its
// diagnostics with suppression directives applied, sorted by position.
// The caller fills in every Pass field except Report.
func RunAnalyzer(a *Analyzer, pass *Pass) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass.Analyzer = a
	pass.Report = func(d Diagnostic) { diags = append(diags, d) }
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	allowed := suppressedLines(pass.Fset, pass.Files, a.Name)
	kept := diags[:0]
	for _, d := range diags {
		if m := allowed[d.Pos.Filename]; m != nil && m[d.Pos.Line] {
			continue
		}
		kept = append(kept, d)
	}
	sortDiagnostics(kept)
	return kept, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// inModule reports whether path names the root module or one of its
// packages. The module path is fixed: this suite is repo-specific by
// design.
func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// modulePath is the import path of the module tecclvet polices.
const modulePath = "teccl"

// isStdlib reports whether an import path belongs to the standard
// library: not in this module, and its first segment carries no dot (a
// domain would make it an external module).
func isStdlib(path string) bool {
	if inModule(path) {
		return false
	}
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".")
}
