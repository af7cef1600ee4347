package core

import (
	"context"
	"fmt"

	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// milpModel holds the variable indexing of one general-form instance.
type milpModel struct {
	in *instance
	p  *lp.Problem

	// fvar[ci][l][k] and bvar[ci][n][k] hold VarIDs, -1 where pruned.
	fvar [][][]int32
	bvar [][][]int32
	ints []lp.VarID
	// capRow[l][k] indexes the windowed capacity row of link l ending at
	// epoch k (-1 when not emitted) — the rows the replanning layer
	// rewrites when a churned MILP incumbent re-roots (replan.go).
	capRow [][]int32
}

const noVar = int32(-1)

// bufferless reports whether node n behaves like a switch for commodity
// ci: real switches always, and under NoBuffers any GPU that is neither
// the commodity's source nor one of its destinations.
func (in *instance) bufferless(ci, n int) bool {
	if in.topo.IsSwitch(topo.NodeID(n)) {
		return true
	}
	if !in.opt.NoBuffers {
		return false
	}
	cm := in.comms[ci]
	if n == cm.src {
		return false
	}
	for _, d := range cm.dests {
		if d == n {
			return false
		}
	}
	return true
}

// buildMILP constructs the general formulation of §3.1 (with the
// Appendix A initialization, Appendix B buffer limits, and Appendix F
// windowed capacity constraints).
func buildMILP(in *instance) (*milpModel, error) {
	t := in.topo
	K := in.K
	nL := t.NumLinks()
	nN := t.NumNodes()
	m := &milpModel{in: in, p: lp.NewProblem(lp.Maximize)}
	p := m.p

	// Flow variables F[ci][l][k], binary, pruned by send windows.
	m.fvar = make([][][]int32, len(in.comms))
	for ci := range in.comms {
		m.fvar[ci] = make([][]int32, nL)
		for l := 0; l < nL; l++ {
			col := make([]int32, K)
			for k := range col {
				col[k] = noVar
			}
			m.fvar[ci][l] = col
			for k := 0; k < K; k++ {
				if !in.sendWindow(ci, l, k) {
					continue
				}
				v := p.AddVar(fmt.Sprintf("F[s%d.c%d,l%d,k%d]",
					in.comms[ci].src, in.comms[ci].chunk, l, k), 0, 1, 0)
				col[k] = int32(v)
				m.ints = append(m.ints, v)
			}
		}
	}

	// Buffer variables B[ci][n][k] for buffered nodes only. The source's
	// buffer is fixed at 1 (it never loses its chunk); other nodes start
	// at 0 and can first hold the chunk at their earliest epoch.
	m.bvar = make([][][]int32, len(in.comms))
	wantsIt := func(ci, n int) bool {
		for _, d := range in.comms[ci].dests {
			if d == n {
				return true
			}
		}
		return false
	}
	for ci, cm := range in.comms {
		m.bvar[ci] = make([][]int32, nN)
		for n := 0; n < nN; n++ {
			col := make([]int32, K+1)
			for k := range col {
				col[k] = noVar
			}
			m.bvar[ci][n] = col
			if in.bufferless(ci, n) {
				continue
			}
			if n == cm.src {
				// Fixed 1 across all epochs; materialized lazily as a
				// fixed variable only if the buffer-limit constraint
				// needs it. Flow conservation treats it as the constant 1.
				continue
			}
			e := in.earliest[ci][n]
			for k := e; k <= K; k++ {
				if k < 1 {
					continue // B_0 is 0 for non-sources
				}
				v := p.AddVar(fmt.Sprintf("B[s%d.c%d,n%d,k%d]", cm.src, cm.chunk, n, k), 0, 1, 0)
				col[k] = int32(v)
				// Objective: a destination holding the chunk at the start
				// of epoch k received it by the end of epoch k-1; the
				// paper's 1/(k+1) reward for delivery by end of epoch k
				// becomes a 1/k weight on B_k.
				if wantsIt(ci, n) {
					p.SetObj(v, in.opt.priorityOf(cm.src, cm.chunk, n)/float64(k))
				}
			}
			// Destination constraint: full demand met by the last epoch.
			if wantsIt(ci, n) {
				if col[K] == noVar {
					return nil, fmt.Errorf("core: destination %d cannot receive chunk (%d,%d) within %d epochs",
						n, cm.src, cm.chunk, K)
				}
				p.SetBounds(lp.VarID(col[K]), 1, 1)
			}
		}
	}

	fAt := func(ci, l, k int) int32 {
		if k < 0 || k >= K {
			return noVar
		}
		return m.fvar[ci][l][k]
	}

	// Removal variables for limited buffers (Appendix B).
	var xvar [][][]int32
	if in.opt.BufferLimitChunks > 0 {
		xvar = make([][][]int32, len(in.comms))
		for ci := range in.comms {
			xvar[ci] = make([][]int32, nN)
			for n := 0; n < nN; n++ {
				col := make([]int32, K+1)
				for k := range col {
					col[k] = noVar
				}
				xvar[ci][n] = col
				for k := 0; k <= K; k++ {
					if m.bvar[ci][n][k] != noVar {
						col[k] = int32(p.AddVar("", 0, 1, 0))
					}
				}
			}
		}
	}

	// Buffer evolution: B_k = B_{k-1} (- X_{k-1}) + arrivals forwardable
	// at k, where arrivals at k were sent at k - δ - κ.
	for ci := range in.comms {
		cm := in.comms[ci]
		for n := 0; n < nN; n++ {
			if in.bufferless(ci, n) || n == cm.src {
				continue
			}
			for k := 1; k <= K; k++ {
				bk := m.bvar[ci][n][k]
				bkPrev := m.bvar[ci][n][k-1]
				var terms []lp.Term
				if bk != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(bk), Coeff: 1})
				}
				if bkPrev != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(bkPrev), Coeff: -1})
					if xvar != nil && xvar[ci][n][k-1] != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(xvar[ci][n][k-1]), Coeff: 1})
					}
				}
				hasArrival := false
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					if f := fAt(ci, l, k-in.delta[l]-in.kappa[l]); f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: -1})
						hasArrival = true
					}
				}
				if bk == noVar && bkPrev == noVar && !hasArrival {
					continue
				}
				p.AddRow(terms, lp.EQ, 0)
			}
		}
	}

	// Flow conservation.
	for ci := range in.comms {
		cm := in.comms[ci]
		for n := 0; n < nN; n++ {
			outLinks := t.Out(topo.NodeID(n))
			if len(outLinks) == 0 {
				continue
			}
			if !in.bufferless(ci, n) {
				// Buffered GPU: each outgoing send needs the chunk in the
				// buffer at the start of the epoch. Sources hold their
				// chunks permanently (constant 1), so no row is needed.
				if n == cm.src {
					continue
				}
				for _, lid := range outLinks {
					l := int(lid)
					for k := 0; k < K; k++ {
						f := fAt(ci, l, k)
						if f == noVar {
							continue
						}
						b := m.bvar[ci][n][k]
						if b == noVar {
							// Can never hold the chunk this early; the
							// send window should have pruned this.
							p.SetBounds(lp.VarID(f), 0, 0)
							continue
						}
						p.AddRow([]lp.Term{
							{Var: lp.VarID(f), Coeff: 1},
							{Var: lp.VarID(b), Coeff: -1},
						}, lp.LE, 0)
					}
				}
				continue
			}
			// Bufferless node (switch, or GPU under NoBuffers): outgoing
			// sends at k draw on arrivals forwardable exactly at k.
			copyOK := in.opt.SwitchMode == SwitchCopy || !t.IsSwitch(topo.NodeID(n))
			for k := 0; k < K; k++ {
				var arrivals []lp.Term
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					if f := fAt(ci, l, k-in.delta[l]-in.kappa[l]); f != noVar {
						arrivals = append(arrivals, lp.Term{Var: lp.VarID(f), Coeff: -1})
					}
				}
				if copyOK {
					// Per outgoing link: F_out <= sum(arrivals).
					for _, lid := range outLinks {
						f := fAt(ci, int(lid), k)
						if f == noVar {
							continue
						}
						if len(arrivals) == 0 {
							p.SetBounds(lp.VarID(f), 0, 0)
							continue
						}
						row := append([]lp.Term{{Var: lp.VarID(f), Coeff: 1}}, arrivals...)
						p.AddRow(row, lp.LE, 0)
					}
				} else {
					// Legacy switch: total out <= total in.
					var row []lp.Term
					for _, lid := range outLinks {
						if f := fAt(ci, int(lid), k); f != noVar {
							row = append(row, lp.Term{Var: lp.VarID(f), Coeff: 1})
						}
					}
					if len(row) == 0 {
						continue
					}
					if len(arrivals) == 0 {
						for _, tm := range row {
							p.SetBounds(tm.Var, 0, 0)
						}
						continue
					}
					p.AddRow(append(row, arrivals...), lp.LE, 0)
				}
			}
		}
	}

	// Capacity (windowed when κ > 1, Appendix F), with per-epoch
	// variable-bandwidth scaling (§5).
	m.capRow = make([][]int32, nL)
	for l := 0; l < nL; l++ {
		m.capRow[l] = noVars(K)
		for k := 0; k < K; k++ {
			var row []lp.Term
			for kk := max(k-in.kappa[l]+1, 0); kk <= k; kk++ {
				for ci := range in.comms {
					if f := fAt(ci, l, kk); f != noVar {
						row = append(row, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
			}
			if len(row) == 0 {
				continue
			}
			m.capRow[l][k] = int32(p.AddRow(row, lp.LE, in.capBudget(l, k)))
		}
	}

	// Buffer size limit (Appendix B): sum of buffered chunks per node and
	// epoch, counting the source's own resident chunks as constants.
	if in.opt.BufferLimitChunks > 0 {
		for n := 0; n < nN; n++ {
			if t.IsSwitch(topo.NodeID(n)) {
				continue
			}
			resident := 0
			for _, cm := range in.comms {
				if cm.src == n {
					resident++
				}
			}
			for k := 1; k <= K; k++ {
				var row []lp.Term
				for ci := range in.comms {
					if b := m.bvar[ci][n][k]; b != noVar {
						row = append(row, lp.Term{Var: lp.VarID(b), Coeff: 1})
					}
				}
				if len(row) == 0 {
					continue
				}
				rhs := float64(in.opt.BufferLimitChunks - resident)
				if rhs < 0 {
					return nil, fmt.Errorf("core: buffer limit %d below node %d's own %d chunks",
						in.opt.BufferLimitChunks, n, resident)
				}
				p.AddRow(row, lp.LE, rhs)
			}
		}
	}

	return m, nil
}

// extractSchedule converts a MILP point into a pruned, validated schedule.
func (m *milpModel) extractSchedule(x []float64) (*schedule.Schedule, error) {
	in := m.in
	var sends []schedule.Send
	for ci, cm := range in.comms {
		for l := 0; l < in.topo.NumLinks(); l++ {
			for k := 0; k < in.K; k++ {
				v := m.fvar[ci][l][k]
				if v == noVar || x[v] < 0.5 {
					continue
				}
				sends = append(sends, schedule.Send{
					Src: cm.src, Chunk: cm.chunk,
					Link: topo.LinkID(l), Epoch: k, Fraction: 1,
				})
			}
		}
	}
	s := &schedule.Schedule{
		Topo:           in.topo,
		Demand:         in.demand,
		Tau:            in.tau,
		NumEpochs:      in.K,
		Sends:          sends,
		AllowCopy:      true,
		EpochsPerChunk: in.epochsPerChunk(),
	}
	s = s.Prune()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: MILP produced invalid schedule: %w", err)
	}
	return s, nil
}

// SolveMILP solves the general formulation (§3.1): optimal collective
// schedules with copy and store-and-forward support.
func SolveMILP(t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	return SolveMILPContext(context.Background(), t, d, opt)
}

// SolveMILPContext is SolveMILP under a context: the branch-and-bound
// node loop, its worker pool, and every node's LP relaxation watch ctx,
// so cancellation interrupts the search promptly. When the search is
// cancelled with an incumbent in hand the partial result is returned
// alongside an error wrapping context.Cause(ctx); Options.TimeLimit is
// layered onto ctx as a derived deadline and keeps its historical
// budget semantics (incumbent returned as a feasible result, no error).
func SolveMILPContext(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	res, _, _, err := solveMILP(ctx, t, d, opt, nil)
	return res, err
}

// solveMILP is SolveMILP plus warm-start plumbing: hint seeds the root
// relaxation's basis, and the returned model/root basis let
// MinimizeMakespan's re-solves chain each horizon's basis into the next.
// The caller has already layered Options.TimeLimit onto ctx.
func solveMILP(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, hint *basisHint) (*Result, *milpModel, *lp.Basis, error) {
	start := time.Now()
	in := newInstance(t, d, opt)
	if len(in.comms) == 0 {
		return emptyResult(in, start), nil, nil, nil
	}

	// The greedy warm start assumes buffered GPUs and copy-capable
	// switches; skip it for the other models.
	warmStart := !opt.NoIncumbentHeuristic && !opt.NoBuffers &&
		opt.BufferLimitChunks == 0 && opt.SwitchMode == SwitchCopy
	var inc []schedule.Send
	if warmStart {
		inc = greedyIncumbent(in)
		// When the horizon was auto-estimated, tighten it to the greedy
		// schedule's finish: the optimum finishes no later, so variables
		// beyond it are dead weight.
		if inc != nil && opt.Epochs == 0 {
			if tight := sendsFinishEpoch(in, inc) + 1; tight < in.K {
				opt2 := opt
				opt2.Epochs = tight
				in2 := newInstance(t, d, opt2)
				if inc2 := greedyIncumbent(in2); inc2 != nil {
					in, inc = in2, inc2
				}
			}
		}
	}

	m, err := buildMILP(in)
	if err != nil {
		return nil, nil, nil, err
	}

	opt.Progress.emit(Progress{Solver: "milp", Phase: "model"})
	mopt := milp.Options{
		Context:       ctx,
		GapLimit:      opt.GapLimit,
		Workers:       opt.Workers,
		RootWarmStart: hint.basisFor(m.p),
		Progress:      opt.Progress.milpHook("milp", 0),
	}
	if mopt.RootWarmStart != nil {
		// Horizon re-solves reoptimize the root relaxation with the dual
		// simplex (safe: it falls back to the primal when the transferred
		// basis is not dual feasible).
		mopt.LP.Method = lp.MethodDual
	}
	var incX []float64
	if inc != nil {
		if incX = m.pointFromSends(inc); incX != nil {
			mopt.IncumbentX = incX
		}
	}
	if mopt.RootWarmStart == nil && opt.Crash == CrashAll {
		// Cold root relaxation: crash-start from the greedy incumbent's
		// flow support instead of the all-slack basis.
		mopt.LP.Crash = crashBasisMILP(m, incX)
	}

	msol := milp.Solve(&milp.Problem{LP: m.p, Integer: m.ints}, mopt)
	switch msol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
	case milp.StatusInfeasible:
		return nil, nil, nil, fmt.Errorf("core: infeasible with K=%d epochs (tau=%g); increase Epochs", in.K, in.tau)
	default:
		if ierr := interrupted(ctx); ierr != nil {
			return nil, nil, nil, fmt.Errorf("core: MILP solve interrupted before any incumbent (%v after %d nodes): %w",
				msol.Status, msol.Nodes, ierr)
		}
		if budgetExpired(ctx) {
			return nil, nil, nil, fmt.Errorf("core: MILP hit its time limit before any incumbent (%v after %d nodes); raise TimeLimit",
				msol.Status, msol.Nodes)
		}
		return nil, nil, nil, fmt.Errorf("core: MILP solve failed: %v", msol.Status)
	}

	s, err := m.extractSchedule(msol.X)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &Result{
		Schedule:         s,
		Objective:        msol.Objective,
		Gap:              msol.Gap,
		Optimal:          msol.Status == milp.StatusOptimal,
		SolveTime:        time.Since(start),
		Epochs:           in.K,
		Tau:              in.tau,
		Nodes:            msol.Nodes,
		RootIterations:   msol.RootIterations,
		NodeIterations:   msol.NodeIterations,
		Refactorizations: msol.Refactorizations,
		FTUpdates:        msol.FTUpdates,
		UpdateNnz:        msol.UpdateNnz,
		WarmStarted:      mopt.RootWarmStart != nil,
		CrashStarted:     mopt.LP.Crash != nil,
	}
	basis := msol.RootBasis
	model := m
	if opt.MinimizeMakespan {
		// Shrink the horizon below the current finish until infeasible
		// (the paper's binary search on epochs). Pin tau so quantization
		// stays comparable across horizons, and resume each re-solve from
		// the previous horizon's root basis (matched by variable name).
		// An expired TimeLimit stops the refinement and keeps the last
		// complete schedule; a caller cancellation returns that schedule
		// alongside an error wrapping the cause.
		rootWarm := mopt.RootWarmStart != nil
		rootCrash := mopt.LP.Crash != nil
		cancelled := func() (*Result, *milpModel, *lp.Basis, error) {
			res.WarmStarted = rootWarm
			res.CrashStarted = rootCrash
			return res, model, basis, fmt.Errorf(
				"core: makespan refinement cancelled; returning last complete schedule (finish epoch %d): %w",
				res.Schedule.FinishEpoch(), interrupted(ctx))
		}
		for {
			if interrupted(ctx) != nil {
				return cancelled()
			}
			if budgetExpired(ctx) {
				break // TimeLimit: keep the result, no error
			}
			fe := res.Schedule.FinishEpoch()
			if fe < 1 {
				break
			}
			opt2 := opt
			opt2.MinimizeMakespan = false
			opt2.Epochs = fe // forces completion by epoch fe-1
			opt2.Tau = in.tau
			var h *basisHint
			if model != nil {
				h = hintFromSolve(model.p, basis)
			}
			tighter, m2, b2, err := solveMILP(ctx, t, d, opt2, h)
			if err != nil {
				if interrupted(ctx) != nil {
					return cancelled()
				}
				break // infeasible: current finish is minimal
			}
			if tighter.Schedule.FinishEpoch() >= fe {
				break
			}
			tighter.SolveTime = time.Since(start)
			res, model, basis = tighter, m2, b2
		}
		// WarmStarted/CrashStarted report how THIS REQUEST's root solve
		// started; the re-solves above are always internally warm-started
		// and must not overwrite that.
		res.WarmStarted = rootWarm
		res.CrashStarted = rootCrash
	}
	if !res.Optimal {
		// A cancelled search that still produced an incumbent returns it
		// as a partial result alongside the cancellation cause; a plain
		// TimeLimit expiry keeps the historical no-error budget semantics.
		if ierr := interrupted(ctx); ierr != nil {
			return res, model, basis, fmt.Errorf("core: MILP solve cancelled with incumbent in hand (gap %.1f%%): %w",
				100*res.Gap, ierr)
		}
	}
	return res, model, basis, nil
}

// pointFromSends converts a feasible whole-chunk send list into a variable
// assignment satisfying the model (F set, B propagated). Returns nil if
// any send falls outside the model's variable windows.
func (m *milpModel) pointFromSends(sends []schedule.Send) []float64 {
	in := m.in
	x := make([]float64, m.p.NumVars())
	commIdx := map[[2]int]int{}
	for ci, cm := range in.comms {
		commIdx[[2]int{cm.src, cm.chunk}] = ci
	}
	for _, snd := range sends {
		ci, ok := commIdx[[2]int{snd.Src, snd.Chunk}]
		if !ok {
			return nil
		}
		v := m.fvar[ci][snd.Link][snd.Epoch]
		if v == noVar {
			return nil
		}
		x[v] = 1
	}
	// Propagate buffers: B_k = B_{k-1} + arrivals(k).
	t := in.topo
	for ci, cm := range in.comms {
		for n := 0; n < t.NumNodes(); n++ {
			if in.bufferless(ci, n) || n == cm.src {
				continue
			}
			prev := 0.0
			for k := 1; k <= in.K; k++ {
				cur := prev
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					kk := k - in.delta[l] - in.kappa[l]
					if kk < 0 || kk >= in.K {
						continue
					}
					if f := m.fvar[ci][l][kk]; f != noVar {
						cur += x[f]
					}
				}
				if cur > 1 {
					return nil // duplicate arrival; not model-feasible
				}
				if b := m.bvar[ci][n][k]; b != noVar {
					x[b] = cur
				} else if cur > 0 {
					return nil
				}
				prev = cur
			}
			// Completion check for destinations.
			for _, dd := range cm.dests {
				if dd == n && prev < 1 {
					return nil
				}
			}
		}
	}
	return x
}

// crashBasisMILP builds a crash basis for the general form's root
// relaxation from a model-feasible incumbent point (pointFromSends
// output): every variable the incumbent activates — flows sent, buffers
// held — enters the basis, bounded by the row count. Like the LP-form
// crash this is only a structural phase-1 seed: dependent columns are
// demoted by the solver's install/repair pass. Returns nil when there is
// no incumbent point.
func crashBasisMILP(m *milpModel, x []float64) *lp.Basis {
	if m == nil || x == nil {
		return nil
	}
	p := m.p
	rows := p.NumRows()
	b := &lp.Basis{
		Vars: make([]lp.BasisStatus, p.NumVars()),
		Rows: make([]lp.BasisStatus, rows),
	}
	marked := 0
	for j, v := range x {
		if v > 0 && marked < rows {
			b.Vars[j] = lp.BasisBasic
			marked++
		}
	}
	if marked == 0 {
		return nil
	}
	return b
}

func emptyResult(in *instance, start time.Time) *Result {
	return &Result{
		Schedule: &schedule.Schedule{
			Topo: in.topo, Demand: in.demand, Tau: in.tau,
			NumEpochs: in.K, AllowCopy: true,
			EpochsPerChunk: in.epochsPerChunk(),
		},
		Optimal:   true,
		SolveTime: time.Since(start),
		Epochs:    in.K,
		Tau:       in.tau,
	}
}

// DebugMILPStats reports problem dimensions and root-relaxation effort for
// one instance; used for performance diagnosis during development.
func DebugMILPStats(t *topo.Topology, d *collective.Demand, opt Options) string {
	in := newInstance(t, d, opt)
	inc := greedyIncumbent(in)
	gf := -1
	if inc != nil {
		gf = sendsFinishEpoch(in, inc)
		opt2 := opt
		opt2.Epochs = gf + 1
		if in2 := newInstance(t, d, opt2); greedyIncumbent(in2) != nil {
			in = in2
		}
	}
	m, err := buildMILP(in)
	if err != nil {
		return fmt.Sprintf("build error: %v", err)
	}
	start := time.Now()
	sol, _ := lp.Solve(m.p, lp.Options{})
	return fmt.Sprintf("K=%d greedyFinish=%d vars=%d rows=%d ints=%d rootLP=%v status=%v iters=%d",
		in.K, gf, m.p.NumVars(), m.p.NumRows(), len(m.ints),
		time.Since(start).Round(time.Millisecond), sol.Status, sol.Iterations)
}
