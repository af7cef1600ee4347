// Package milp implements a branch-and-bound mixed-integer linear program
// solver on top of the internal/lp simplex. It provides the pieces of the
// Gurobi feature set that TE-CCL relies on: exact solves, relative
// optimality-gap reporting (the primal-dual gap of §5), an early-stop gap
// threshold (the paper stops Gurobi at a 30% gap for ALLGATHER), time
// limits (the paper applies a 2-hour timeout), and — like Gurobi — a
// concurrent tree search (Options.Workers).
//
// Every node below the root resumes the simplex from its parent's basis
// snapshot (lp.Options.WarmStart): after one branching bound change the
// parent optimum is a few pivots from the child's, so per-node iteration
// counts sit far below the root's (see Solution.RootIterations /
// NodeIterations). The root itself can be seeded from a related solve via
// Options.RootWarmStart, which the core layer uses to chain makespan
// re-solves and A* rounds.
//
// Every driver evaluates nodes through workers: each owns a private clone
// of the problem (bound chains are applied to the clone, never the
// caller's LP), made when the worker gets its first node, and one
// lp.Solver, so a node re-solve re-reads the bounds it changed and reuses
// the matrix copies, work vectors and LU storage of the node before it.
// Parent bases are shared read-only (lp never writes through a warm
// start), so no two LP solves share mutable state.
//
// The workers belong to a Solver, a branch-and-bound workspace: worker
// 0's lp.Solver solves the root relaxation before its first node. Solve
// borrows a Solver from a process-wide pool for one search and hands it
// back when the search returns, so the rounds of an A* plan, and the
// planning calls after it, usually run in the storage an earlier search
// sized, and the garbage collector empties the pool. A Solver holds no
// numeric state — each Solve returns what a new Solver would, and nothing
// a Solution holds aliases it — and no caller memory between searches:
// the clones and the bound-change chains go when a search returns.
// Sessions, caches and results never keep one.
//
// With Workers > 1 nodes run concurrently. The default search is
// opportunistic — workers pull the best open node from a mutex-guarded
// heap and publish incumbents through an atomic for lock-free best-bound
// pruning — which maximizes throughput but lets equal-objective ties
// resolve by arrival order. Options.Deterministic instead evaluates nodes
// in synchronized rounds with a fixed ordering and a
// value-then-lexicographic incumbent rule, making the returned objective
// and point bit-identical for every worker count (see
// Options.Deterministic for the exact guarantee).
package milp

import (
	"container/heap"
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"teccl/internal/lp"
	"teccl/internal/wspool"
)

// Problem is a mixed-integer linear program: an LP plus a set of variables
// constrained to integer values.
type Problem struct {
	LP      *lp.Problem
	Integer []lp.VarID
}

// Status is the outcome of a MILP solve.
type Status int8

// Solve outcomes.
const (
	// StatusOptimal means the incumbent is proven optimal (gap ~ 0).
	StatusOptimal Status = iota
	// StatusFeasible means a limit (time, nodes, gap) stopped the search
	// with an incumbent in hand; Gap reports how far it may be from optimal.
	StatusFeasible
	// StatusInfeasible means no integer-feasible point exists.
	StatusInfeasible
	// StatusNoSolution means a limit stopped the search before any
	// incumbent was found.
	StatusNoSolution
	// StatusError means the underlying LP solver failed numerically.
	StatusError
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusNoSolution:
		return "no solution"
	case StatusError:
		return "error"
	}
	return "unknown"
}

// Options tunes the search. The zero value searches to optimality,
// serially.
type Options struct {
	// TimeLimit stops the search after this wall-clock duration; 0 means
	// no limit.
	TimeLimit time.Duration
	// Context, when non-nil, stops the search once the context is done
	// (cancelled or past its deadline). The search returns whatever it has
	// — the incumbent as StatusFeasible, or StatusNoSolution — exactly as
	// it does when TimeLimit expires; the context is also propagated into
	// every node LP solve so a cancellation interrupts a relaxation
	// mid-pivot rather than waiting for it to finish.
	Context context.Context
	// Progress, when non-nil, is called after every evaluated node (and on
	// root completion) with the search state so far. It must be fast and
	// must not call back into the solver. Calls never overlap — the
	// opportunistic driver invokes it under the search lock, the round
	// driver (serial and deterministic searches) from its single
	// coordinating goroutine — but successive calls may come from
	// different goroutines.
	Progress func(ProgressInfo)
	// GapLimit stops the search once the relative primal-dual gap falls
	// to or below this value (e.g. 0.3 reproduces the paper's Gurobi
	// early-stop). 0 means solve to optimality.
	GapLimit float64
	// MaxNodes caps branch-and-bound nodes; 0 means no limit. With
	// Workers > 1 the cap is approximate: up to one extra round (at most
	// Workers-1 nodes) may be evaluated past it.
	MaxNodes int
	// Workers is the number of branch-and-bound nodes evaluated
	// concurrently; 0 or 1 evaluates serially. Each worker owns a private
	// clone of the LP (the caller's problem is never mutated) and a
	// private lp.Solver warm-started from the parent's basis, so worker
	// count only changes scheduling, never what any single node solve
	// computes.
	Workers int
	// Deterministic makes the search result independent of Workers: open
	// nodes are evaluated in synchronized rounds in a fixed best-first
	// order, incumbents are applied in node order with a
	// value-then-lexicographic tie-break, and bound pruning is exact
	// (a node survives whenever its bound strictly beats the incumbent,
	// so equal-valued optima are always visited and the tie-break sees
	// the same candidate set regardless of evaluation order). For solves
	// run to optimality with no time/node limit, any Workers count
	// returns a bit-identical Objective and X. The price is a barrier
	// per round and the loss of equal-bound pruning; leave it off for
	// raw throughput.
	Deterministic bool
	// LP tunes the per-node LP solves.
	LP lp.Options
	// IncumbentX optionally provides a known integer-feasible point to
	// warm-start pruning (a caller-verified heuristic solution). Its
	// objective is computed from the problem's cost vector. It only
	// prunes: the first point the search finds whose objective equals
	// it (within 1e-9) or beats it replaces it, an integral root
	// relaxation included, so a heuristic that ties the optimum is not
	// returned in place of the solver's own optimum. Under Deterministic
	// the lexicographic tie-break then runs among the search's points
	// only; IncumbentX is returned only when the search finds no point
	// as good.
	IncumbentX []float64
	// RootWarmStart optionally seeds the root relaxation with a basis from
	// an earlier related solve (e.g. the previous horizon in a makespan
	// search, or the previous round of the A* decomposition). It is
	// passed to the root solve as lp.Options.WarmStart, so a complete
	// basis of this model (a re-rooted replan, a basis-store hit)
	// reoptimizes the root as stated and a name-transferred one is a
	// hint that goes through presolve.
	RootWarmStart *lp.Basis
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	Objective float64   // incumbent objective (problem direction)
	X         []float64 // incumbent point
	Bound     float64   // best proven bound on the optimum
	Gap       float64   // relative gap between Objective and Bound
	// Nodes counts the branch-and-bound nodes evaluated after the root.
	// It is not comparable across drivers: the serial search, the
	// opportunistic pool and the Deterministic rounds prune differently,
	// so one problem can report different counts. Deterministic prunes
	// only bounds strictly worse than the incumbent and may evaluate a
	// node whose bound ties it: the DGX1 ALLGATHER MILP closes at its
	// root and reports 0 nodes serially and opportunistically, 1 under
	// Deterministic rounds.
	Nodes   int
	Elapsed time.Duration

	// RootIterations is the simplex iteration count of the root
	// relaxation; NodeIterations is the total across all non-root node
	// re-solves, each warm-started from its parent's basis, so
	// NodeIterations/Nodes is typically far below RootIterations.
	RootIterations int
	NodeIterations int
	// Refactorizations counts basis factorizations across the root and
	// every node re-solve; FTUpdates/UpdateNnz count the Forrest–Tomlin
	// updates (and their accumulated update-file nonzeros) that carried
	// pivots between them.
	Refactorizations int
	FTUpdates        int
	UpdateNnz        int
	// RootBasis is the root relaxation's final basis, reusable to
	// warm-start a related MILP solve via Options.RootWarmStart.
	RootBasis *lp.Basis
}

// ProgressInfo is a snapshot of the branch-and-bound search handed to
// Options.Progress after the root relaxation and after every evaluated
// node.
type ProgressInfo struct {
	Nodes      int     // nodes evaluated so far (0 right after the root)
	Open       int     // open nodes still on the heap
	Iterations int     // simplex iterations so far (root + all nodes)
	Incumbent  float64 // best integer-feasible objective (NaN when none)
	Bound      float64 // best proven bound on the optimum
	Gap        float64 // relative primal-dual gap (+Inf with no incumbent)
}

const intTol = 1e-6

// node is one branch-and-bound subproblem, defined by a chain of bound
// changes relative to the root problem.
type node struct {
	bound   float64 // LP relaxation objective (problem direction)
	changes *boundChange
	basis   *lp.Basis // parent's optimal basis (warm-start hint)
	id      int
	depth   int
}

type boundChange struct {
	v      lp.VarID
	lo, hi float64
	parent *boundChange
}

// nodeHeap is a best-first priority queue (best LP bound first).
type nodeHeap struct {
	nodes []*node
	max   bool // true when the problem maximizes
}

func (h *nodeHeap) Len() int { return len(h.nodes) }
func (h *nodeHeap) Less(i, j int) bool {
	a, b := h.nodes[i], h.nodes[j]
	if a.bound != b.bound {
		if h.max {
			return a.bound > b.bound
		}
		return a.bound < b.bound
	}
	return a.id < b.id
}
func (h *nodeHeap) Swap(i, j int)      { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *nodeHeap) Push(x interface{}) { h.nodes = append(h.nodes, x.(*node)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.nodes
	n := len(old)
	it := old[n-1]
	h.nodes = old[:n-1]
	return it
}

// atomicFloat publishes a float64 through an atomic word, for the
// lock-free incumbent reads of the opportunistic search.
type atomicFloat struct{ bits atomic.Uint64 }

func (a *atomicFloat) Store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat) Load() float64   { return math.Float64frombits(a.bits.Load()) }

// search is the shared state of one branch-and-bound run. In the round
// driver (serial and deterministic searches) it is touched by one
// goroutine at a time; in the opportunistic driver every field below mu
// is guarded by it, and incObj mirrors the incumbent objective for
// lock-free pruning.
type search struct {
	p     *Problem
	opt   Options
	isMax bool
	start time.Time

	childOpt lp.Options // per-node LP options (dual reopt, no presolve)

	sol *Solution

	pool []*worker // the Solver's, one per Options.Workers

	mu         sync.Mutex
	h          *nodeHeap
	nextID     int
	incumbent  float64 // worst value when incumbentX == nil
	incumbentX []float64
	callerInc  bool    // incumbentX is Options.IncumbentX, not a point the search found
	bestBound  float64 // bound of the best node popped so far
	nodes      int
	hitLimit   bool

	incObj atomicFloat // mirrors incumbent for lock-free pruning
}

// Solver is the workspace of branch and bound (see the package comment);
// the zero value is ready.
type Solver struct {
	workers []*worker // Solve grows it to Options.Workers
}

// solvers is the process-wide pool behind the package-level Solve.
var solvers wspool.Pool[Solver]

// worker owns what one node evaluator uses: a private problem clone and
// an lp.Solver. The clone's integer-variable bounds are reset to the
// root's and the node's bound chain applied before every solve, so
// evaluations on different workers never share mutable state; the solver
// keeps the clone's matrix copies, work vectors and LU storage from one
// node to the next, so a re-solve pays for the bounds that changed, not
// for the size of the model. The clone and the chain's nodes live as long
// as the Solve call that made them, the lp.Solver as long as the Solver.
type worker struct {
	prob           *lp.Problem // nil until the worker's first node of this Solve
	clones         int         // clones made so far (test hook)
	solver         lp.Solver
	origLo, origHi []float64      // root bounds per s.p.Integer entry
	chain          []*boundChange // eval's scratch: the node's chain, leaf first
}

// eval solves one node's LP on the worker's private clone, resuming from
// the parent basis (shared with the node's sibling; lp only reads it).
func (w *worker) eval(s *search, nd *node) (*lp.Solution, error) {
	if w.prob == nil {
		w.prob, w.origLo, w.origHi = s.p.LP.Clone(), w.origLo[:0], w.origHi[:0]
		w.clones++
		for _, v := range s.p.Integer {
			lo, hi := w.prob.Bounds(v)
			w.origLo, w.origHi = append(w.origLo, lo), append(w.origHi, hi)
		}
	}
	for i, v := range s.p.Integer {
		w.prob.SetBounds(v, w.origLo[i], w.origHi[i])
	}
	chain := w.chain[:0]
	for c := nd.changes; c != nil; c = c.parent {
		chain = append(chain, c)
	}
	w.chain = chain
	for i := len(chain) - 1; i >= 0; i-- {
		w.prob.SetBounds(chain[i].v, chain[i].lo, chain[i].hi)
	}
	o := s.childOpt
	o.WarmStart = nd.basis
	return w.solver.Solve(w.prob, o)
}

func (s *search) better(a, b float64) bool {
	if s.isMax {
		return a > b
	}
	return a < b
}

// pruned reports whether a node bound cannot beat the incumbent value
// inc. Exact pruning (the deterministic mode) discards only strictly
// worse bounds, keeping equal-bound nodes alive so every equal-valued
// optimum is visited and the lexicographic tie-break sees the same
// candidate set in every run; the slop variant additionally discards
// ties and bounds within 1e-9 of the incumbent.
func (s *search) pruned(bound, inc float64, exact bool) bool {
	if exact {
		if s.isMax {
			return bound < inc
		}
		return bound > inc
	}
	if s.isMax {
		return bound <= inc+1e-9
	}
	return bound >= inc-1e-9
}

func (s *search) relGap(bound, inc float64) float64 {
	return math.Abs(bound-inc) / math.Max(1e-9, math.Abs(inc))
}

// pickBranch selects the branching variable of x: fractionality-driven,
// with the same running-best rule the search has always used (the
// comparison key deliberately matches the historical implementation so
// the explored tree — and therefore which of several equally optimal
// schedules is returned — stays stable across refactors).
func (s *search) pickBranch(x []float64) (lp.VarID, bool) {
	bestV, bestKey, found := lp.VarID(-1), -1.0, false
	for _, v := range s.p.Integer {
		xv := x[v]
		f := xv - math.Floor(xv)
		frac := math.Min(f, 1-f)
		if frac <= intTol {
			continue
		}
		if frac > bestKey {
			bestV, bestKey, found = v, xv, true
		}
	}
	return bestV, found
}

// push enqueues a subproblem. Callers hold mu in the opportunistic driver.
func (s *search) push(bound float64, changes *boundChange, basis *lp.Basis, depth int) {
	heap.Push(s.h, &node{bound: bound, changes: changes, basis: basis, id: s.nextID, depth: depth})
	s.nextID++
}

// branch expands an evaluated node: updates the incumbent on an integer-
// feasible point, or pushes the two children of the branching variable.
// Callers hold mu in the opportunistic driver.
func (s *search) branch(nd *node, lpSol *lp.Solution, exact bool) {
	v, frac := s.pickBranch(lpSol.X)
	if !frac {
		s.offerIncumbent(lpSol.Objective, lpSol.X, exact)
		return
	}
	xv := lpSol.X[v]
	elo, ehi := s.effBounds(nd, v)
	down := math.Floor(xv)
	up := math.Ceil(xv)
	if down >= elo-1e-9 {
		s.push(lpSol.Objective, &boundChange{v: v, lo: elo, hi: down, parent: nd.changes}, lpSol.Basis, nd.depth+1)
	}
	if up <= ehi+1e-9 {
		s.push(lpSol.Objective, &boundChange{v: v, lo: up, hi: ehi, parent: nd.changes}, lpSol.Basis, nd.depth+1)
	}
}

// effBounds resolves the effective bounds of v under nd's change chain
// (the chain may have tightened bounds; the caller's problem is pristine).
func (s *search) effBounds(nd *node, v lp.VarID) (float64, float64) {
	for c := nd.changes; c != nil; c = c.parent {
		if c.v == v {
			return c.lo, c.hi
		}
	}
	return s.p.LP.Bounds(v)
}

// offerIncumbent installs a candidate integer-feasible point. A
// candidate that ties a caller-supplied Options.IncumbentX (within 1e-9)
// replaces it. In exact (deterministic) mode equal-valued candidates
// found by the search are tie-broken toward the lexicographically smaller
// point, so the final incumbent does not depend on the order candidates
// arrive in; the caller's point is never part of that tie-break, since
// the first tying candidate displaces it.
func (s *search) offerIncumbent(obj float64, x []float64, exact bool) {
	replace := false
	if s.incumbentX == nil || s.better(obj, s.incumbent) {
		replace = true
	} else if s.callerInc && math.Abs(obj-s.incumbent) <= 1e-9 {
		replace = true
	} else if exact && obj == s.incumbent && lexLess(x, s.incumbentX) {
		replace = true
	}
	if replace {
		s.incumbent = obj
		s.incumbentX = append([]float64(nil), x...)
		s.callerInc = false
		s.incObj.Store(obj)
	}
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Solve runs branch and bound. The problem is treated as read-only: node
// bound changes are applied to private clones, so concurrent Solve calls
// may even share one Problem. It borrows a Solver from a process-wide
// pool for the search and returns it afterwards.
func Solve(p *Problem, opt Options) *Solution {
	ms := solvers.Get()
	sol := ms.Solve(p, opt)
	// No defer: a search that panics leaves its workers' lp workspaces
	// mid-update, so only a normal return hands the Solver back.
	solvers.Put(ms)
	return sol
}

// Solve runs branch and bound on p in the workspace's storage; see the
// package-level Solve, whose result it returns bit for bit.
func (ms *Solver) Solve(p *Problem, opt Options) *Solution {
	sol := ms.run(p, opt)
	// Drop what belongs to this search: the clones of the caller's problem
	// and the bound-change chains (a truncated slice would still keep its
	// pointers, and through them the last search tree, reachable).
	for _, w := range ms.workers {
		w.prob = nil
		clear(w.chain[:cap(w.chain)])
		w.chain = w.chain[:0]
	}
	return sol
}

// run is Solve's body.
func (ms *Solver) run(p *Problem, opt Options) *Solution {
	workers := max(opt.Workers, 1)
	for i := len(ms.workers); i < workers; i++ {
		ms.workers = append(ms.workers, new(worker))
	}
	s := &search{
		pool:  ms.workers[:workers],
		p:     p,
		opt:   opt,
		isMax: p.LP.Dir == lp.Maximize,
		start: time.Now(),
		sol:   &Solution{Status: StatusNoSolution},
	}

	worst := math.Inf(-1)
	if !s.isMax {
		worst = math.Inf(1)
	}
	s.incumbent = worst
	s.bestBound = worst
	s.incObj.Store(worst)
	if opt.IncumbentX != nil {
		x := append([]float64(nil), opt.IncumbentX...)
		obj := 0.0
		for j := 0; j < p.LP.NumVars(); j++ {
			obj += p.LP.Obj(lp.VarID(j)) * x[j]
		}
		s.incumbentX = x
		s.incumbent = obj
		s.callerInc = true
		s.incObj.Store(obj)
	}

	// Propagate the wall-clock limit and context into individual LP solves
	// so a single slow relaxation cannot blow past the budget or outlive a
	// cancellation.
	lpOpt := opt.LP
	if opt.TimeLimit > 0 && lpOpt.Deadline.IsZero() {
		lpOpt.Deadline = s.start.Add(opt.TimeLimit)
	}
	if opt.Context != nil && lpOpt.Context == nil {
		lpOpt.Context = opt.Context
	}

	// Child-node LP options: reoptimize from the parent basis with the
	// dual simplex — a parent optimum stays dual feasible after the
	// branching bound change, so the dual walks back to the child optimum
	// with no feasibility phase — and skip presolve, since a node LP
	// differs from its parent by a single bound, far too little to repay
	// a fresh reduction pass.
	s.childOpt = lpOpt
	if s.childOpt.Method == lp.MethodAuto {
		s.childOpt.Method = lp.MethodDual
	}
	s.childOpt.NoPresolve = true
	// Nodes always resume from their parent's basis; a root crash basis
	// must not leak into node re-solves.
	s.childOpt.Crash = nil

	// Root.
	lpOpt.WarmStart = opt.RootWarmStart
	rootSol, err := s.pool[0].solver.Solve(p.LP, lpOpt)
	if rootSol != nil {
		s.sol.RootIterations = rootSol.Iterations
		s.sol.Refactorizations = rootSol.Refactorizations
		s.sol.FTUpdates = rootSol.FTUpdates
		s.sol.UpdateNnz = rootSol.UpdateNnz
		s.sol.RootBasis = rootSol.Basis
	}
	if err != nil || rootSol.Status == lp.StatusNumericalError {
		s.sol.Status = StatusError
		s.sol.Elapsed = time.Since(s.start)
		return s.sol
	}
	switch rootSol.Status {
	case lp.StatusInfeasible:
		s.sol.Status = StatusInfeasible
		s.sol.Elapsed = time.Since(s.start)
		return s.sol
	case lp.StatusUnbounded:
		s.sol.Status = StatusError
		s.sol.Elapsed = time.Since(s.start)
		return s.sol
	case lp.StatusIterLimit:
		// The root relaxation ran out of budget. With a caller-provided
		// incumbent the search can still answer (gap unknown); without
		// one there is nothing to return.
		if s.incumbentX != nil {
			s.sol.Status = StatusFeasible
			s.sol.Objective = s.incumbent
			s.sol.X = s.incumbentX
			s.sol.Bound = s.bestBound
			s.sol.Gap = math.Inf(1)
			s.sol.Elapsed = time.Since(s.start)
			return s.sol
		}
		s.sol.Status = StatusError
		s.sol.Elapsed = time.Since(s.start)
		return s.sol
	}

	// An integral root is an incumbent before any node runs: it closes
	// the search at the root (the root node then prunes against it) and
	// displaces a caller point it ties.
	if _, frac := s.pickBranch(rootSol.X); !frac {
		s.offerIncumbent(rootSol.Objective, rootSol.X, opt.Deterministic)
	}
	s.h = &nodeHeap{max: s.isMax}
	heap.Init(s.h)
	s.push(rootSol.Objective, nil, rootSol.Basis, 0)
	s.bestBound = rootSol.Objective
	s.emitProgress()

	if len(s.pool) > 1 && !opt.Deterministic {
		s.runOpportunistic()
	} else {
		s.runRounds()
	}

	s.sol.Nodes = s.nodes
	s.sol.Elapsed = time.Since(s.start)

	if s.h.Len() == 0 && !s.hitLimit {
		// Tree exhausted: incumbent (if any) is optimal.
		if s.incumbentX == nil {
			s.sol.Status = StatusInfeasible
			return s.sol
		}
		s.sol.Status = StatusOptimal
		s.sol.Objective = s.incumbent
		s.sol.X = s.incumbentX
		s.sol.Bound = s.incumbent
		s.sol.Gap = 0
		return s.sol
	}

	if s.incumbentX == nil {
		s.sol.Status = StatusNoSolution
		return s.sol
	}
	s.sol.Status = StatusFeasible
	s.sol.Objective = s.incumbent
	s.sol.X = s.incumbentX
	s.sol.Bound = s.bestBound
	s.sol.Gap = s.relGap(s.bestBound, s.incumbent)
	if s.sol.Gap <= 1e-9 {
		s.sol.Status = StatusOptimal
		s.sol.Gap = 0
	}
	return s.sol
}

// limitsHit checks the node, wall-clock, and context budgets.
func (s *search) limitsHit() bool {
	if s.opt.MaxNodes > 0 && s.nodes >= s.opt.MaxNodes {
		return true
	}
	if s.opt.TimeLimit > 0 && time.Since(s.start) > s.opt.TimeLimit {
		return true
	}
	if s.opt.Context != nil && s.opt.Context.Err() != nil {
		return true
	}
	return false
}

// emitProgress reports the current search state through Options.Progress.
// Callers hold mu in the opportunistic driver, so calls never overlap.
func (s *search) emitProgress() {
	if s.opt.Progress == nil {
		return
	}
	inc, gap := math.NaN(), math.Inf(1)
	if s.incumbentX != nil {
		inc = s.incumbent
		gap = s.relGap(s.bestBound, s.incumbent)
	}
	open := 0
	if s.h != nil {
		open = s.h.Len()
	}
	s.opt.Progress(ProgressInfo{
		Nodes:      s.nodes,
		Open:       open,
		Iterations: s.sol.RootIterations + s.sol.NodeIterations,
		Incumbent:  inc,
		Bound:      s.bestBound,
		Gap:        gap,
	})
}

// integrate folds one evaluated node back into the search: counters,
// pathological-status handling, re-pruning against the fresh LP bound,
// and incumbent update or branching. Callers hold mu in the opportunistic
// driver.
func (s *search) integrate(nd *node, lpSol *lp.Solution, err error, exact bool) {
	if lpSol != nil {
		s.sol.NodeIterations += lpSol.Iterations
		s.sol.Refactorizations += lpSol.Refactorizations
		s.sol.FTUpdates += lpSol.FTUpdates
		s.sol.UpdateNnz += lpSol.UpdateNnz
	}
	defer s.emitProgress()
	if err != nil || lpSol.Status == lp.StatusNumericalError ||
		lpSol.Status == lp.StatusIterLimit || lpSol.Status == lp.StatusUnbounded {
		// Treat pathological subproblems as pruned but remember the
		// search is no longer exhaustive.
		s.hitLimit = true
		return
	}
	if lpSol.Status == lp.StatusInfeasible {
		return
	}
	// Re-prune with the fresh (tighter) LP bound. In exact mode an
	// equal-valued node survives: an integer-feasible point must reach
	// the tie-break, and a fractional one may still hide one below it.
	if s.incumbentX != nil && s.pruned(lpSol.Objective, s.incumbent, exact) {
		return
	}
	s.branch(nd, lpSol, exact)
}

// runRounds is the serial and the reproducible parallel driver: nodes are
// pulled in best-first order into rounds of up to `workers` entries,
// evaluated concurrently on private clones, and integrated in node order
// behind a barrier. With one worker that is the classic best-first loop,
// one node at a time. Under Options.Deterministic, exact pruning plus the
// lexicographic incumbent tie-break make the result a pure function of
// the problem for every worker count.
func (s *search) runRounds() {
	exact := s.opt.Deterministic
	pool, workers := s.pool, len(s.pool)
	type slot struct {
		nd    *node
		lpSol *lp.Solution
		err   error
	}
	batch := make([]slot, 0, workers)
	for s.h.Len() > 0 {
		if s.limitsHit() {
			s.hitLimit = true
			return
		}
		batch = batch[:0]
		//teccl:allow-ctxcheck bounded: every iteration pops the heap or fills the batch; the round loop above polls limitsHit
		for len(batch) < workers && s.h.Len() > 0 {
			nd := heap.Pop(s.h).(*node)
			if len(batch) == 0 {
				s.bestBound = nd.bound // best-first: the round's first pop is the best open bound
			}
			if s.incumbentX != nil && s.pruned(nd.bound, s.incumbent, exact) {
				continue
			}
			batch = append(batch, slot{nd: nd})
		}
		if len(batch) == 0 {
			return // every open node pruned: tree exhausted
		}
		if s.incumbentX != nil && s.opt.GapLimit > 0 &&
			s.relGap(s.bestBound, s.incumbent) <= s.opt.GapLimit {
			s.hitLimit = true
			return
		}
		if len(batch) == 1 {
			// No point paying goroutine fan-out for a singleton round.
			batch[0].lpSol, batch[0].err = pool[0].eval(s, batch[0].nd)
		} else {
			var wg sync.WaitGroup
			for i := range batch {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					batch[i].lpSol, batch[i].err = pool[i].eval(s, batch[i].nd)
				}(i)
			}
			wg.Wait()
		}
		for i := range batch {
			s.nodes++
			s.integrate(batch[i].nd, batch[i].lpSol, batch[i].err, exact)
		}
	}
}

// runOpportunistic is the throughput driver: a free-running pool where
// each worker repeatedly pops the best open node under the heap mutex,
// evaluates it on its private clone, and folds the result back in. The
// incumbent objective is mirrored through an atomic so a worker returning
// from a long LP solve can notice it lost the race and drop its node
// without touching the lock ordering guarantees.
func (s *search) runOpportunistic() {
	workers := len(s.pool)
	cond := sync.NewCond(&s.mu)
	inFlight := make([]float64, workers)
	for i := range inFlight {
		inFlight[i] = math.NaN()
	}
	stopped := false

	// openBound is the tightest provable bound on the optimum: the best
	// of the open heap and the nodes currently being evaluated.
	openBound := func() float64 {
		best := math.NaN()
		if s.h.Len() > 0 {
			best = s.h.nodes[0].bound
		}
		for _, b := range inFlight {
			if math.IsNaN(b) {
				continue
			}
			if math.IsNaN(best) || s.better(b, best) {
				best = b
			}
		}
		return best
	}

	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := s.pool[wi]
			s.mu.Lock()
			defer s.mu.Unlock()
			for {
				if stopped {
					return
				}
				if s.limitsHit() {
					s.hitLimit = true
					stopped = true
					if b := openBound(); !math.IsNaN(b) {
						s.bestBound = b
					}
					cond.Broadcast()
					return
				}
				if s.h.Len() == 0 {
					idle := true
					for _, b := range inFlight {
						if !math.IsNaN(b) {
							idle = false
							break
						}
					}
					if idle {
						cond.Broadcast() // everyone done: release the waiters
						return
					}
					cond.Wait()
					continue
				}
				nd := heap.Pop(s.h).(*node)
				s.bestBound = nd.bound
				// The popped node counts as in flight from here on, so
				// openBound() (and the gap check below) never forgets the
				// bound it still has to disprove.
				inFlight[wi] = nd.bound
				if s.incumbentX != nil {
					if s.pruned(nd.bound, s.incumbent, false) {
						inFlight[wi] = math.NaN()
						continue
					}
					if s.opt.GapLimit > 0 {
						if b := openBound(); !math.IsNaN(b) && s.relGap(b, s.incumbent) <= s.opt.GapLimit {
							s.bestBound = b
							s.hitLimit = true
							stopped = true
							cond.Broadcast()
							return
						}
					}
				}
				s.nodes++
				s.mu.Unlock()

				lpSol, err := w.eval(s, nd)

				// Lock-free last-chance prune: if a better incumbent
				// landed while this node was solving, drop it before
				// re-entering the critical section.
				drop := false
				if err == nil && lpSol.Status == lp.StatusOptimal {
					if inc := s.incObj.Load(); !math.IsInf(inc, 0) && s.pruned(lpSol.Objective, inc, false) {
						drop = true
					}
				}

				s.mu.Lock()
				inFlight[wi] = math.NaN()
				if drop {
					s.sol.NodeIterations += lpSol.Iterations
					s.sol.Refactorizations += lpSol.Refactorizations
					s.sol.FTUpdates += lpSol.FTUpdates
					s.sol.UpdateNnz += lpSol.UpdateNnz
					// The node was counted as evaluated; keep the
					// Progress contract (a sample per evaluated node)
					// even though integrate is skipped.
					s.emitProgress()
					cond.Broadcast()
					continue
				}
				s.integrate(nd, lpSol, err, false)
				cond.Broadcast()
			}
		}(wi)
	}
	wg.Wait()
}
