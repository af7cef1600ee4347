// Package analysis implements tecclvet: a suite of custom static
// analyzers that machine-enforce the invariants this repository's
// correctness rests on. Until now these existed only as prose in
// ROADMAP.md and as hand-written review caveats; cmd/tecclvet runs them
// over every package on every push (make vet, and the CI lint job).
//
// The framework mirrors the golang.org/x/tools/go/analysis API
// (Analyzer, Pass, diagnostics, a testdata-driven test harness) but is
// built on the standard library alone — go/ast, go/types, go/importer
// and `go list -export` — because this build environment vendors no
// external modules. Loading is export-data based: `go list -export
// -json -deps` compiles the tree through the build cache and hands back
// export files, so type information is exact without re-typechecking
// dependencies from source.
//
// # Enforced invariants
//
// importrules — package layering:
//
//   - teccl/internal/experiments must never import the root teccl
//     package: the root bench test imports experiments, so the reverse
//     edge is an import cycle.
//   - teccl/wire may import only the standard library: the v1 JSON
//     schema is a pure serialization contract and must not drag solver
//     internals across the API boundary (conversions live in
//     teccl/internal/wireconv).
//   - teccl/client must never import teccl/internal/daemon: the client
//     has to stay deployable without the serving tier.
//
// wirelock — additive-only wire schema evolution: the JSON tag and Go
// type of every exported struct field in teccl/wire is extracted and
// diffed against the committed wire/schema.lock.json. Removing,
// renaming or re-typing a locked field fails the build with a message
// naming the exact field; additions fail until the lock is regenerated
// (`go generate ./wire`, which runs `tecclvet -write-wire-lock`).
//
// ctxcheck — cancellation discipline in solver loops: unbounded-form
// iteration loops (`for { ... }` / `for cond { ... }`) in
// teccl/internal/lp, teccl/internal/milp and teccl/internal/core
// must poll cancellation somewhere in their body — ctx.Err()/Done(), an
// interrupted()/limitsHit()-style budget helper, or delegation to a
// callee that takes the context. This is the class of bug PR 4 fixed by
// hand when LP and A* silently ignored TimeLimit. Counted three-clause
// and range loops are exempt (bounded by construction); a loop that is
// bounded for a non-syntactic reason carries
// //teccl:allow-ctxcheck <why>.
//
// floatcmp — no == or != on floating-point operands in
// teccl/internal/lp. Tolerances are the simplex's lifeblood; exact
// float equality is allowed only for comparisons against the constant
// zero (sparsity checks on exact data), inside tolerance helpers
// (feq/approxEq-style), or under an explicit
// //teccl:allow-floatcmp <why> directive. Identity checks should
// compare math.Float64bits instead (see lp.boundsFixed, Problem.EqualTo).
//
// solverlife — one workspace lifetime: outside teccl/internal/lp and
// teccl/internal/milp, non-test code declares no variable or struct field
// of type lp.Solver or milp.Solver, writes no composite literal of them
// and calls no new on them. Planning code solves through lp.Solve and
// milp.Solve, which borrow a workspace from a process-wide pool for one
// solve, so no session, cache entry, Result or Plan can pin one.
//
// # Suppression
//
// Every analyzer honors a line directive of the form
//
//	//teccl:allow-<analyzer> <justification>
//
// placed on the offending line or the line directly above it. The
// justification is not parsed, but reviewers treat a missing one as a
// defect: the directive exists to document why the invariant provably
// holds without the check, not to mute it.
//
// # Testing
//
// Each analyzer has an analysistest-style suite: testdata packages
// under testdata/src/<analyzer>/ annotated with `// want "regexp"`
// comments, loaded and checked by the harness in
// internal/analysis/analysistest. The suites run under the tier-1
// `go test ./...`.
package analysis
