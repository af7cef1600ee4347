package analysis

import (
	"go/ast"
	"strconv"
)

// SolverLife enforces one lifetime for solve workspaces: outside
// teccl/internal/lp and teccl/internal/milp, no non-test code may make an
// lp.Solver or a milp.Solver — declare a value of the type (a variable or
// a struct field), write a composite literal of it, or new(...) one.
// Planning code solves through lp.Solve and milp.Solve, which borrow a
// workspace from a process-wide pool for one solve; a workspace held in
// a variable or a field outlives that solve, and one held by a session,
// cache entry, Result or Plan pins a model's worth of matrix copies,
// work vectors and LU storage for as long as the holder lives.
var SolverLife = &Analyzer{
	Name: "solverlife",
	Doc:  "lp.Solver and milp.Solver are made only inside their packages; planning code borrows one through lp.Solve/milp.Solve (one workspace lifetime)",
	Run:  runSolverLife,
}

// solverPkgs are the packages that own a Solver type.
var solverPkgs = map[string]bool{
	"teccl/internal/lp":   true,
	"teccl/internal/milp": true,
}

func runSolverLife(pass *Pass) error {
	if solverPkgs[pass.PkgPath] {
		return nil
	}
	for _, f := range pass.Files {
		// Local names under which this file reaches a solver package.
		aliases := make(map[string]string)
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !solverPkgs[path] {
				continue
			}
			name := path[len("teccl/internal/"):]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			aliases[name] = path
		}
		if len(aliases) == 0 {
			continue
		}
		// isSolver reports whether the type expression names a Solver of
		// a solver package, and which.
		isSolver := func(e ast.Expr) (string, bool) {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Solver" {
				return "", false
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || aliases[id.Name] == "" {
				return "", false
			}
			return id.Name + ".Solver", true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ValueSpec:
				if name, ok := isSolver(n.Type); ok {
					pass.Reportf(n.Type.Pos(), "%s variable outlives the solve it serves: call %s instead of holding a workspace", name, solveFunc(name))
				}
			case *ast.Field:
				if name, ok := isSolver(n.Type); ok {
					pass.Reportf(n.Type.Pos(), "%s field holds a workspace for as long as its struct lives: call %s instead", name, solveFunc(name))
				}
			case *ast.CompositeLit:
				if name, ok := isSolver(n.Type); ok {
					pass.Reportf(n.Pos(), "%s literal makes a workspace outside the pool: call %s instead", name, solveFunc(name))
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if name, ok := isSolver(n.Args[0]); ok {
						pass.Reportf(n.Pos(), "new(%s) makes a workspace outside the pool: call %s instead", name, solveFunc(name))
					}
				}
			}
			return true
		})
	}
	return nil
}

// solveFunc names the pooled entry point that replaces a Solver.
func solveFunc(solver string) string {
	return solver[:len(solver)-len("Solver")] + "Solve"
}
