// Package lp implements a bounded-variable revised simplex solver for
// linear programs. It is the solver substrate for TE-CCL: the paper uses
// Gurobi, which has no Go port, so this package provides an exact
// replacement built on the standard library only.
//
// Problems are stated as
//
//	maximize (or minimize)  c'x
//	subject to              A x  {<=, =, >=}  b
//	                        l <= x <= u
//
// with a sparse A. Solve uses a bounded-variable revised simplex whose
// basis is held as a sparse LU factorization (factor.go): Markowitz-ordered
// elimination with singleton peeling exploits the near-triangular structure
// of time-expanded flow bases, Forrest–Tomlin updates carry the
// factorization between refactorizations (the pivot's spike is spliced
// into U and the replaced row collapses to a compact row eta, so the
// update file grows with actual fill, and refactorization triggers on
// measured nonzero growth and numeric drift rather than a fixed pivot
// count), and FTRAN/BTRAN run in time proportional to the factor nonzeros
// rather than O(m²). Entering variables come from a rotating
// partial-pricing scan (pricing.go) so an iteration does not touch all n
// columns, with Bland's rule as the anti-cycling fallback. Feasibility is
// reached by a composite phase 1 that minimizes the bound violations of
// the basic variables directly — no artificial variables — which is also
// what makes starting bases safe: any Basis installs, and whatever it
// gets wrong is repaired or re-driven to feasibility.
//
// # Starting bases: complete versus partial
//
// Solve reads the kind of start off Options.WarmStart itself:
//
//   - A complete basis — dimensions match the problem and exactly NumRows
//     variables and slacks are basic — is an advanced start. Solve
//     reoptimizes the problem as stated from it: no presolve, no scaling,
//     one factorization. Every Solution.Basis is complete for the problem
//     it solved and stays complete across SetBounds/SetRHS/SetObj edits
//     and Basis.Extended, so re-solving from a solve's own basis costs a
//     pricing pass, and absorbing a bound or right-hand-side edit costs
//     dual-simplex pivots in proportion to the edit, not to the LP. This
//     is the path of branch-and-bound children, Planner replans, and
//     fingerprint-keyed basis-store hits.
//   - Anything else — a basis transferred by column key from a
//     related model (rows unknown, too few basics), an over-full guess,
//     a dimension mismatch, or an Options.Crash seed — is a hint. The
//     solve goes through presolve; the hint's statuses are carried onto
//     the surviving rows and columns and the install pass truncates or
//     slack-pads the result, so the hint shortens phase 1 but does not
//     skip it. Presolve's smaller, equilibrated model is worth more than
//     the hint's exact shape here.
//
// # Columns: keys, names, storage
//
// A model builder that creates columns by the thousand identifies them
// with AddKeyedVar and a packed 64-bit VarKey (key.go) — kind, source,
// chunk, link or node, epoch — instead of a formatted name. The key is
// what a basis is carried between related models by (the core layer
// matches the columns of a shorter horizon, the next window, the next A*
// round by key), it costs eight bytes and no allocation, and Name
// formats the string it stands for — "f[s3,l7,k2]" — on demand, for
// diagnostics and tests only. Where AddVar was given a name, Name
// prefers it; the zero key, which is also what MakeKey returns for an
// index that does not fit its field, leaves a column anonymous: it is
// left out of basis transfers and nothing else changes. Fingerprint and
// EqualTo ignore keys and names alike.
//
// A Problem costs what it holds: Reserve sizes the column arrays exactly
// for a builder that counted its columns, AddRow merges into one scratch
// buffer and stores rows a block at a time rather than one allocation
// each, and Clone shares what is write-once — row terms and keys, both
// capacity-clamped — and copies only what SetBounds/SetObj/SetRHS edit.
//
// # Solve contexts
//
// A solve as stated runs in a context built from the problem's matrix:
// column-wise and row-wise copies of A, static pricing norms, the work
// vectors of both simplex methods, and the LU factor's storage; a solve
// through presolve adds the reduction's scratch and the reduced problem.
// Solve builds all of it, uses it once and drops it, which is what keeps
// it safe to call concurrently on one Problem. A Solver is that storage
// as a workspace one planning call threads through every LP it solves —
// A* rounds, a branch-and-bound root and its nodes, horizon windows: a
// re-solve of the problem it is bound to (same pointer, same structural
// generation) re-reads only bounds, right-hand sides and objective, any
// other problem rebinds the storage it already holds, and either way the
// result is exactly what Solve would return, down to the pivot path. One
// Solver serves one goroutine and one call; results never alias it. See
// its documentation for the full contract.
package lp

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// Inf is the bound value used for unbounded variables.
var Inf = math.Inf(1)

// Sense is the relation of a constraint row.
type Sense int8

// Constraint senses.
const (
	LE Sense = iota // <=
	GE              // >=
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Direction is the optimization direction.
type Direction int8

// Optimization directions.
const (
	Maximize Direction = iota
	Minimize
)

// VarID identifies a variable within a Problem.
type VarID int32

// Term is one coefficient of a constraint row.
type Term struct {
	Var   VarID
	Coeff float64
}

// Problem is a linear program under construction. The zero value is an
// empty maximization problem ready for use.
type Problem struct {
	Dir Direction

	// keys and names are the two identities a column may carry (key.go);
	// both slices stop at the last column that has one, so a problem whose
	// columns are anonymous holds neither. keys is write-once — a column's
	// key never changes after the AddKeyedVar that set it — which is what
	// lets Clone share it.
	keys  []VarKey
	names []string
	lo    []float64
	hi    []float64
	obj   []float64

	rows   [][]Term
	senses []Sense
	rhs    []float64

	// gen counts the structural edits (AddVar, AddRow, AppendToRow) made
	// so far; a Solver compares it against the value it was bound at to
	// notice that its matrix copies are out of date.
	gen uint64

	// scratch is the reusable sort/merge buffer of mergeTerms and block
	// the unused tail of the current rowBlock-term block of row storage, so
	// the model-build hot path (AddRow per constraint, thousands per A*
	// round) allocates once per block of rows, not once per row.
	scratch []Term
	block   []Term
}

// rowBlock is the size, in terms, of the blocks stored rows are cut
// from (4 KB): large enough that a time-expanded model's three-to-ten
// term rows cost one allocation per few dozen, small enough that the
// unused tail a finished model keeps alive is noise beside the model.
const rowBlock = 256

// NewProblem returns an empty problem with the given direction.
func NewProblem(dir Direction) *Problem {
	return &Problem{Dir: dir}
}

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.lo) }

// NumRows reports the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar adds a variable with bounds [lo, hi] and objective coefficient
// obj. Use -Inf/Inf for unbounded sides. The name is used only for
// diagnostics and may be empty; model builders that create columns by
// the thousand identify them with AddKeyedVar instead, which costs no
// string.
func (p *Problem) AddVar(name string, lo, hi, obj float64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", name, lo, hi))
	}
	v := p.addCol(lo, hi, obj)
	if name != "" {
		p.names = append(padTo(p.names, int(v)), name)
	}
	return v
}

// AddKeyedVar is AddVar for a column identified by a packed key rather
// than a name: Key reads it back, Name formats the name it stands for on
// demand, and a zero key leaves the column anonymous.
func (p *Problem) AddKeyedVar(key VarKey, lo, hi, obj float64) VarID {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q has lo %g > hi %g", key, lo, hi))
	}
	v := p.addCol(lo, hi, obj)
	if key != 0 {
		p.keys = append(padTo(p.keys, int(v)), key)
	}
	return v
}

func (p *Problem) addCol(lo, hi, obj float64) VarID {
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.obj = append(p.obj, obj)
	p.gen++
	return VarID(len(p.lo) - 1)
}

// padTo extends s with zero values to length n.
func padTo[T any](s []T, n int) []T {
	if len(s) < n {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}

// Reserve makes room for exactly vars more variables and their keys, so
// a builder that knows how many columns it is about to create pays one
// allocation per column array instead of append's doubling, and leaves
// no spare capacity behind on a model that is then kept.
func (p *Problem) Reserve(vars int) {
	p.keys = reserve(p.keys, len(p.lo)+vars-len(p.keys))
	p.lo = reserve(p.lo, vars)
	p.hi = reserve(p.hi, vars)
	p.obj = reserve(p.obj, vars)
}

func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]T, 0, len(s)+n), s...)
}

// SetObj replaces the objective coefficient of v.
func (p *Problem) SetObj(v VarID, obj float64) { p.obj[v] = obj }

// Obj returns the objective coefficient of v.
func (p *Problem) Obj(v VarID) float64 { return p.obj[v] }

// SetBounds replaces the bounds of v.
func (p *Problem) SetBounds(v VarID, lo, hi float64) {
	if lo > hi {
		panic(fmt.Sprintf("lp: variable %q set to lo %g > hi %g", p.Name(v), lo, hi))
	}
	p.lo[v] = lo
	p.hi[v] = hi
}

// Bounds returns the bounds of v.
func (p *Problem) Bounds(v VarID) (lo, hi float64) { return p.lo[v], p.hi[v] }

// Name returns the diagnostic name of v: the one AddVar was given, else
// the one its key stands for (VarKey.String), else "".
func (p *Problem) Name(v VarID) string {
	if int(v) < len(p.names) && p.names[v] != "" {
		return p.names[v]
	}
	return p.Key(v).String()
}

// Key returns the key AddKeyedVar gave v, zero for an anonymous column.
func (p *Problem) Key(v VarID) VarKey {
	if int(v) < len(p.keys) {
		return p.keys[v]
	}
	return 0
}

// Keys returns the column keys indexed by VarID; like the storage it
// shares, it ends at the last keyed column. It is capacity-clamped and
// read-only: a caller may keep it past the problem, never write it.
func (p *Problem) Keys() []VarKey { return p.keys[:len(p.keys):len(p.keys)] }

// SetRHS replaces the right-hand side of row r. Together with SetBounds
// this is the whole dual-feasible edit surface: changing b or the
// variable bounds leaves the costs and the matrix — and therefore the
// incumbent basis's dual feasibility — intact, so a dual-simplex warm
// start from that basis reoptimizes in a handful of pivots.
func (p *Problem) SetRHS(r int, rhs float64) { p.rhs[r] = rhs }

// RHS returns the right-hand side of row r.
func (p *Problem) RHS(r int) float64 { return p.rhs[r] }

// AddRow adds a constraint row. Terms with duplicate variables are summed.
// Returns the row index. The terms slice is not retained (callers may
// reuse it); the stored row holds the merged terms in variable order.
func (p *Problem) AddRow(terms []Term, sense Sense, rhs float64) int {
	row := p.storeRow(p.mergeTerms(terms, nil))
	p.rows = append(p.rows, row)
	p.senses = append(p.senses, sense)
	p.rhs = append(p.rhs, rhs)
	p.gen++
	return len(p.rows) - 1
}

// AppendToRow merges additional terms into existing row r — the
// column-append counterpart of SetBounds/SetRHS for warm model growth:
// columns created by a later AddVar are wired into the rows they
// participate in without rebuilding the model. The stored row is
// replaced with a freshly stored merged slice, never mutated in place,
// so clones that share the previous term slice (see Clone's write-once
// contract) are unaffected. Note that unlike SetBounds/SetRHS this edits
// the matrix: a basis warm-started across an AppendToRow is only safe if
// the appended variables are nonbasic (see Basis.Extended).
func (p *Problem) AppendToRow(r int, terms []Term) {
	if len(terms) == 0 {
		return
	}
	p.rows[r] = p.storeRow(p.mergeTerms(p.rows[r], terms))
	p.gen++
}

// storeRow copies a merged row into the problem's row storage and
// returns the stored, capacity-clamped slice. Rows are cut from blocks
// of rowBlock terms; a row too long to share a block gets an exact
// allocation of its own and leaves the current block's tail in use.
func (p *Problem) storeRow(row []Term) []Term {
	n := len(row)
	if n == 0 {
		return nil
	}
	if n > len(p.block) {
		if n > rowBlock/4 {
			return append(make([]Term, 0, n), row...)
		}
		p.block = make([]Term, rowBlock)
	}
	out := p.block[:n:n]
	p.block = p.block[n:]
	copy(out, row)
	return out
}

// mergeTerms concatenates two term lists, merges duplicate variables and
// drops zero coefficients, in place on a reusable scratch buffer — no
// map — which the result, in variable order, is a view of, valid until
// the next call. Model builders emit terms in near-variable order, so the
// insertion sort is effectively linear; genuinely shuffled long rows fall
// back to sort.Slice.
func (p *Problem) mergeTerms(a, b []Term) []Term {
	sc := append(append(p.scratch[:0], a...), b...)
	sorted := true
	for i := 1; i < len(sc); i++ {
		if sc[i-1].Var > sc[i].Var {
			sorted = false
			break
		}
	}
	if !sorted {
		if len(sc) > 64 {
			sort.Slice(sc, func(a, b int) bool { return sc[a].Var < sc[b].Var })
		} else {
			for i := 1; i < len(sc); i++ {
				t := sc[i]
				j := i - 1
				//teccl:allow-ctxcheck bounded: insertion-sort inner shift, j strictly decreases to 0
				for j >= 0 && sc[j].Var > t.Var {
					sc[j+1] = sc[j]
					j--
				}
				sc[j+1] = t
			}
		}
	}
	w := 0
	for i := 0; i < len(sc); {
		v := sc[i].Var
		c := sc[i].Coeff
		for i++; i < len(sc) && sc[i].Var == v; i++ {
			c += sc[i].Coeff
		}
		if c != 0 {
			sc[w] = Term{Var: v, Coeff: c}
			w++
		}
	}
	p.scratch = sc[:0]
	return sc[:w]
}

// Status is the outcome of a solve.
type Status int8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	StatusNumericalError
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration limit"
	case StatusNumericalError:
		return "numerical error"
	}
	return "unknown"
}

// BasisStatus describes where a variable sits in a Basis snapshot.
type BasisStatus int8

// Basis statuses.
const (
	BasisAtLower BasisStatus = iota // nonbasic at its lower bound
	BasisAtUpper                    // nonbasic at its upper bound
	BasisBasic                      // in the basis
	BasisFree                       // nonbasic free variable (at 0)
)

// Basis is a compact snapshot of a simplex basis, sufficient to resume a
// later solve of the same problem (or a closely related one, e.g. after a
// bound change in branch-and-bound) from where this one finished. It is
// immutable once returned and safe to share between solves.
type Basis struct {
	Vars []BasisStatus // structural variables, in AddVar order
	Rows []BasisStatus // row slacks, in AddRow order
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64 // objective value in the problem's direction
	// X holds one value per variable, in AddVar order. It is non-nil only
	// when the solve produced a point: StatusOptimal, or StatusIterLimit
	// when the budget expired after feasibility was reached (a limit hit
	// during the feasibility phase yields no point).
	X          []float64
	Iterations int
	// Duals holds one dual value per constraint row, in AddRow order and
	// in the problem's stated direction, populated when the solve reaches
	// an optimal basis. Rows presolve proved redundant report a zero
	// dual; rows presolve folded away but that bind at the optimum
	// (forcing rows, active singleton bounds, doubleton substitutions)
	// get their duals reconstructed during postsolve.
	Duals []float64
	// Refactorizations counts basis factorizations (including the initial
	// one), a measure of numerical churn alongside Iterations.
	Refactorizations int
	// FTUpdates counts Forrest–Tomlin basis updates applied between
	// refactorizations; Iterations-FTUpdates pivots were absorbed by a
	// refactorization instead. UpdateNnz is the total nonzeros the update
	// files accumulated (spike fill plus row-eta entries) — the memory
	// and FTRAN/BTRAN cost the fill-aware refactorization trigger bounds.
	FTUpdates int
	UpdateNnz int
	// Basis is the final basis of the solve, whatever its status; pass it
	// as Options.WarmStart to a later solve to resume from it. Even an
	// infeasible or out-of-budget solve's basis is a useful hint for a
	// related problem (e.g. a branch-and-bound sibling).
	Basis *Basis
}

// Value returns the solved value of v.
func (s *Solution) Value(v VarID) float64 { return s.X[v] }

// Method selects the simplex variant driving a solve.
type Method int8

const (
	// MethodAuto picks per solve: the dual simplex when a warm-start
	// basis prices out dual feasible (the branch-and-bound reoptimization
	// case — a parent optimum stays dual feasible after a bound change),
	// the primal simplex otherwise.
	MethodAuto Method = iota
	// MethodPrimal forces the primal simplex.
	MethodPrimal
	// MethodDual asks for the dual simplex. Boxed nonbasic variables are
	// bound-flipped to restore dual feasibility of the starting basis
	// where possible; if no dual-feasible start exists (or the dual
	// stalls), the solve falls back to the primal method, so MethodDual
	// is always safe to request.
	MethodDual
)

// Options tunes the solver. The zero value uses defaults.
type Options struct {
	// MaxIter caps simplex iterations; 0 means max(20000, 60*rows).
	MaxIter int
	// Deadline, when non-zero, stops the solve with StatusIterLimit once
	// the wall clock passes it (checked periodically between iterations).
	Deadline time.Time
	// Context, when non-nil, stops the solve with StatusIterLimit once the
	// context is done (cancelled or past its deadline), checked at the
	// same cadence as Deadline. The caller distinguishes an interrupt from
	// a genuine iteration limit by inspecting Context.Err() afterwards.
	Context context.Context
	// WarmStart, when non-nil, starts from a basis instead of the
	// all-slack one. What it buys depends on the basis (see the package
	// comment): a complete basis of this problem — matching dimensions,
	// exactly NumRows basics, as every Solution.Basis is — reoptimizes
	// the problem as stated, skipping presolve as NoPresolve does; any
	// other basis is a hint projected through presolve, with short bases
	// padded by slacks and over-full ones truncated. Either way it is
	// safe: dimension mismatches are ignored (cold start), and bases gone
	// stale — singular after problem edits, primal infeasible after bound
	// changes — are repaired or re-driven to feasibility by the composite
	// phase 1.
	WarmStart *Basis
	// Crash, when non-nil and WarmStart is absent, seeds the starting
	// basis from a structural guess instead of the all-slack basis — a
	// "crash basis", typically built from a combinatorial heuristic's
	// support (the core layer derives one from the greedy schedule's flow
	// support). It is installed like a partial WarmStart hint (statuses
	// sanitized, short bases padded with slacks, singular bases repaired)
	// and always goes through presolve, however many basics it names; it
	// is only a phase-1 seed and never routes the solve through the
	// dual-reoptimization path the way a warm basis does.
	Crash *Basis
	// Method selects the simplex variant; the default MethodAuto uses
	// the dual simplex exactly when a warm-start basis is dual feasible.
	Method Method
	// testPerturb pre-applies this many anti-stall bound-perturbation
	// rounds right after the basis is installed, forcing the solve to run
	// on shifted bounds and exit through the restore/re-certification
	// paths. Test hook only (unexported; settable from within the
	// package).
	testPerturb int
	// NoPresolve disables the presolve/scaling layer and solves the
	// problem as stated (a complete WarmStart implies it). Presolve is on
	// otherwise: fixed variables, empty/singleton/forcing/redundant rows,
	// and safe doubleton substitutions are eliminated and the remaining
	// matrix is equilibrated before the simplex runs; the solution (X,
	// Duals, and Basis) is mapped back to the original problem afterwards.
	NoPresolve bool
}

// Solve optimizes the problem. The problem is not modified. A complete
// WarmStart reoptimizes the problem as stated, exactly as NoPresolve
// does; every other solve — cold, crashed, or hinted by a partial basis —
// goes through presolve (see the package comment). Solve is the
// single-use form of Solver: a workspace that solves once and is dropped
// (so it holds exactly what this one solve needs), which lets any number
// of goroutines Solve the same Problem at once.
func Solve(p *Problem, opt Options) (*Solution, error) {
	return new(Solver).solve(p, opt, false)
}

// completeFor reports whether b is a complete basis of p: its dimensions
// match and exactly NumRows of its variables and slacks are basic, so it
// installs as a square basis with nothing truncated or slack-padded (see
// the package comment for which bases are).
func (b *Basis) completeFor(p *Problem) bool {
	if b == nil || len(b.Vars) != p.NumVars() || len(b.Rows) != p.NumRows() {
		return false
	}
	nBasic := 0
	for _, st := range b.Vars {
		if st == BasisBasic {
			nBasic++
		}
	}
	for _, st := range b.Rows {
		if st == BasisBasic {
			nBasic++
		}
	}
	return nBasic == len(b.Rows)
}
