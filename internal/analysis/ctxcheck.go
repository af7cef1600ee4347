package analysis

import (
	"go/ast"
	"regexp"
	"strings"
)

// CtxCheck enforces cancellation discipline in the solver packages:
// every unbounded-form iteration loop (`for { ... }` or
// `for cond { ... }`) must poll cancellation somewhere in its body.
// This is the class of bug PR 4 fixed by hand when the LP and A*
// solvers silently ignored Options.TimeLimit: a pivot loop that never
// looks at its budget turns one oversized request into a wedged worker.
//
// A loop "polls" when its body (at any depth) does one of:
//
//   - call <expr>.Err() or <expr>.Done() — the context idiom, including
//     select-on-Done;
//   - call a function or method whose name matches the budget-helper
//     pattern (interrupted, limitsHit, budgetExpired, checkDeadline,
//     poll, timeout, cancel...);
//   - pass an identifier named ctx (or a Context-suffixed selector) to
//     a callee — delegation: the callee owns the poll.
//
// Counted three-clause loops and range loops are exempt: they are
// bounded by construction. A loop that is bounded for a reason the
// syntax cannot show carries //teccl:allow-ctxcheck <why>.
var CtxCheck = &Analyzer{
	Name: "ctxcheck",
	Doc: "unbounded solver iteration loops in internal/lp, internal/milp and internal/core " +
		"must poll cancellation on every iteration path",
	Run: runCtxCheck,
}

// ctxCheckPkgs are the package subtrees the rule governs.
var ctxCheckPkgs = []string{
	"teccl/internal/lp",
	"teccl/internal/milp",
	"teccl/internal/core",
}

// pollNameRE matches budget-helper callee names.
var pollNameRE = regexp.MustCompile(`(?i)interrupt|cancel|deadline|budget|poll|limit|expired|timeout`)

func runCtxCheck(pass *Pass) error {
	governed := false
	for _, p := range ctxCheckPkgs {
		if pass.PkgPath == p || strings.HasPrefix(pass.PkgPath, p+"/") {
			governed = true
			break
		}
	}
	if !governed {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			// Counted loops (any init or post clause) are bounded by
			// construction; only the while/forever forms iterate on
			// solver progress.
			if loop.Init != nil || loop.Post != nil {
				return true
			}
			if !pollsCancellation(loop.Body) {
				pass.Reportf(loop.For,
					"unbounded iteration loop never polls cancellation: check ctx.Err()/Done() or a budget helper "+
						"(interrupted/limitsHit/...) in the loop body, or annotate //teccl:allow-ctxcheck <why> if it is provably bounded")
			}
			return true
		})
	}
	return nil
}

// pollsCancellation reports whether any statement under body reads a
// cancellation source as defined in the analyzer doc.
func pollsCancellation(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name := fun.Sel.Name
			if name == "Err" || name == "Done" {
				found = true
				return false
			}
			if pollNameRE.MatchString(name) {
				found = true
				return false
			}
		case *ast.Ident:
			if pollNameRE.MatchString(fun.Name) {
				found = true
				return false
			}
		}
		for _, arg := range call.Args {
			if isCtxExpr(arg) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isCtxExpr recognizes a context being handed to a callee: an
// identifier named ctx, or a selector whose final element is ctx or
// *Context.
func isCtxExpr(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "ctx"
	case *ast.SelectorExpr:
		name := e.Sel.Name
		return name == "ctx" || name == "Context" || strings.HasSuffix(name, "Context")
	}
	return false
}
