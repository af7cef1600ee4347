package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// milpModel is the §3.1 general form over one span of epochs, with the
// variable and row indexes its solution is read back through. The
// monolithic MILP and every A* round (§4.2) are this one struct, filled
// by emit.
type milpModel struct {
	in *instance
	// hop is in.hopDistances(): reachability pruning and, mid-stream, the
	// Appendix D potential.
	hop [][]float64
	p   *lp.Problem

	// fvar[ci][l][k] and bvar[ci][n][k] hold VarIDs by span-local epoch,
	// -1 where pruned.
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

// buildMILP constructs the general formulation of §3.1 over the whole
// horizon (with the Appendix A initialization, Appendix B buffer limits,
// and Appendix F windowed capacity constraints).
func buildMILP(in *instance) (*milpModel, error) {
	m := &milpModel{in: in, hop: in.hopDistances()}
	return m, m.emit(0, in.K, true, newAStarState(in))
}

// emit is the one statement of the §3.1 MILP: it builds m.p over epochs
// [lo, hi) opened from boundary st, and records the variable and row
// indexes in m. The boundary carries the holders (their buffer is the
// constant 1), the outstanding demands, the GPU and switch arrivals
// already in flight (right-hand-side constants of the rows they land in)
// and the previous span's link load, charged against the capacity windows
// that straddle lo. Two callers:
//
//   - buildMILP: the whole horizon from the initial state, final.
//   - solveRound (astar.go): one A* round from the state the earlier
//     rounds left, not final.
//
// final is the one semantic difference between the end of the horizon and
// a span that carries over: a final span's sends must land by hi and its
// outstanding destinations' last buffers are fixed at 1; otherwise a send
// may land up to one more span later, a GPU receives a chunk at most once
// across the boundary (the dedup rows), and on top of the 1/k delivery
// reward end-of-span positions and carried-over sends earn the Appendix D
// distance potential.
//
// Column keys carry the span-local epoch, so the key-matched warm
// start lines one span's basis up with the next. The creation order — all
// F, all B, the X of limited buffers, then buffer evolution, conservation,
// dedup, capacity and buffer-limit rows — fixes the pivot path of every
// solve and is pinned by TestKernelCountsPinned and
// bench/expected/seed1.json (make bench-verify).
func (m *milpModel) emit(lo, hi int, final bool, st *astarState) error {
	in, hop := m.in, m.hop
	t := in.topo
	span := hi - lo
	nL := t.NumLinks()
	nN := t.NumNodes()
	nC := len(in.comms)
	p := lp.NewProblem(lp.Maximize)
	m.p = p

	// A send at local epoch k on link l is forwardable at fwd(l, k); it
	// must be by the end of this span when final, of the next otherwise.
	fwd := func(l, k int) int { return k + in.delta[l] + in.kappa[l] }
	land := span
	if !final {
		land = 2 * span
	}

	// Per commodity: whether any demand is outstanding (the others need
	// no new flow), and the earliest local epoch it can be forwardable at
	// each node, from its holders and its arrivals in flight. inbound
	// marks GPUs an arrival is already committed to.
	active := make([]bool, nC)
	earliest := make([][]float64, nC)
	for ci := range earliest {
		e := make([]float64, nN)
		for n := range e {
			e[n] = math.Inf(1)
		}
		for n := 0; n < nN; n++ {
			active[ci] = active[ci] || st.needs[n][ci]
			if st.holds[n][ci] {
				for v := range e {
					e[v] = min(e[v], hop[n][v])
				}
			}
		}
		earliest[ci] = e
	}
	inbound := make(map[[2]int]bool, len(st.pendGPU))
	for _, pa := range st.pendGPU {
		inbound[[2]int{pa.node, pa.ci}] = true
	}
	pendAt := map[[3]int]float64{} // (ci, node, local epoch) -> arrivals
	for _, pend := range [][]pendingArrival{st.pendGPU, st.pendSwitch} {
		for _, pa := range pend {
			pendAt[[3]int{pa.ci, pa.node, pa.localEpoch}]++
			e := earliest[pa.ci]
			for v := range e {
				// hop[n][n] is 0: a switch may forward at exactly the
				// arrival epoch.
				e[v] = min(e[v], float64(pa.localEpoch)+hop[pa.node][v])
			}
		}
	}

	// Appendix D: the closer a chunk sits to a node still demanding it,
	// the larger the reward.
	gamma := 0.1 / float64(span)
	potential := func(ci, n int) float64 {
		best := math.Inf(1)
		for dd := 0; dd < nN; dd++ {
			if st.needs[dd][ci] {
				best = min(best, hop[n][dd])
			}
		}
		if math.IsInf(best, 1) {
			return 0
		}
		return gamma / (1 + best)
	}

	// fSpan and bSpan are the local epochs [k0, k1) at which commodity ci
	// has a flow column on link l and a buffer column at node n; k0 >= k1
	// when it has none, and bSpan's k1 is 0 when the node keeps no buffer
	// for ci at all. Flows are pruned by send windows and never lead
	// into the commodity's own source, a holder, or a GPU the chunk is
	// already in flight to: such flows are wasteful or double-deliver.
	// Buffers exist for buffered nodes only; a holder's is the constant 1
	// (it never loses its chunk), other nodes start at 0 and can first
	// hold the chunk at their earliest epoch.
	fSpan := func(ci, l int) (k0, k1 int) {
		if !active[ci] || t.LinkDown(topo.LinkID(l)) {
			return 0, 0
		}
		lk := t.Link(topo.LinkID(l))
		dst := int(lk.Dst)
		if dst == in.comms[ci].src || st.holds[dst][ci] || inbound[[2]int{dst, ci}] || math.IsInf(earliest[ci][lk.Src], 1) {
			return 0, 0
		}
		return int(math.Ceil(earliest[ci][lk.Src])), min(span, land-fwd(l, 0)+1)
	}
	bSpan := func(ci, n int) (k0, k1 int) {
		if !active[ci] || in.bufferless(ci, n) || st.holds[n][ci] || math.IsInf(earliest[ci][n], 1) {
			return 0, 0
		}
		return max(int(earliest[ci][n]), 1), span + 1
	}
	nF, nB := 0, 0
	for ci := 0; ci < nC; ci++ {
		for l := 0; l < nL; l++ {
			k0, k1 := fSpan(ci, l)
			nF += max(k1-k0, 0)
		}
		for n := 0; n < nN; n++ {
			k0, k1 := bSpan(ci, n)
			nB += max(k1-k0, 0)
		}
	}
	if in.opt.BufferLimitChunks > 0 {
		p.Reserve(nF + 2*nB) // one removal variable per buffer variable
	} else {
		p.Reserve(nF + nB)
	}
	m.ints = make([]lp.VarID, 0, nF)

	// Flow variables F[ci][l][k], binary.
	m.fvar = make([][][]int32, nC)
	for ci, cm := range in.comms {
		m.fvar[ci] = noVarGrid(nL, span)
		for l, col := range m.fvar[ci] {
			dst := int(t.Link(topo.LinkID(l)).Dst)
			for k, k1 := fSpan(ci, l); k < k1; k++ {
				w := 0.0
				if fwd(l, k) > span {
					// Lands next span: reward the chunk for being en route
					// toward its destination.
					w = 0.9 * potential(ci, dst)
				}
				v := p.AddKeyedVar(lp.MakeKey(lp.KindChunkFlow, cm.src, cm.chunk, l, k), 0, 1, w)
				col[k] = int32(v)
				m.ints = append(m.ints, v)
			}
		}
	}

	// Buffer variables B[ci][n][k].
	m.bvar = make([][][]int32, nC)
	for ci, cm := range in.comms {
		m.bvar[ci] = noVarGrid(nN, span+1)
		for n, col := range m.bvar[ci] {
			k, k1 := bSpan(ci, n)
			if k1 == 0 {
				continue
			}
			for ; k < k1; k++ {
				// Objective: a destination holding the chunk at the start
				// of epoch k received it by the end of epoch k-1; the
				// paper's 1/(k+1) reward for delivery by end of epoch k
				// becomes a 1/k weight on B_k.
				w := 0.0
				if st.needs[n][ci] {
					w = in.opt.priorityOf(cm.src, cm.chunk, n) / float64(k)
				}
				if !final && k == span {
					w += potential(ci, n)
				}
				col[k] = int32(p.AddKeyedVar(lp.MakeKey(lp.KindChunkBuffer, cm.src, cm.chunk, n, k), 0, 1, w))
			}
			// Destination constraint: full demand met by the last epoch.
			if final && st.needs[n][ci] {
				if col[span] == noVar {
					return fmt.Errorf("core: destination %d cannot receive chunk (%d,%d) within %d epochs",
						n, cm.src, cm.chunk, span)
				}
				p.SetBounds(lp.VarID(col[span]), 1, 1)
			}
		}
	}

	fAt := func(ci, l, k int) int32 {
		if k < 0 || k >= span {
			return noVar
		}
		return m.fvar[ci][l][k]
	}
	// Every row is assembled in these two buffers: AddRow copies what it
	// keeps.
	var terms, out []lp.Term
	// arrivals appends to terms, negated, the flows of ci forwardable at
	// node n at exactly local epoch k.
	arrivals := func(terms []lp.Term, ci, n, k int) []lp.Term {
		for _, lid := range t.In(topo.NodeID(n)) {
			l := int(lid)
			if f := fAt(ci, l, k-in.delta[l]-in.kappa[l]); f != noVar {
				terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: -1})
			}
		}
		return terms
	}

	// Removal variables for limited buffers (Appendix B).
	var xvar [][][]int32
	if in.opt.BufferLimitChunks > 0 {
		xvar = make([][][]int32, nC)
		for ci := range xvar {
			xvar[ci] = noVarGrid(nN, span+1)
			for n, col := range xvar[ci] {
				for k, b := range m.bvar[ci][n] {
					if b != noVar {
						col[k] = int32(p.AddVar("", 0, 1, 0))
					}
				}
			}
		}
	}

	// Buffer evolution: B_k = B_{k-1} (- X_{k-1}) + arrivals forwardable
	// at k, where arrivals at k were sent at k - δ - κ — or before lo, in
	// which case they are a constant.
	for ci := 0; ci < nC; ci++ {
		for n := 0; n < nN; n++ {
			if in.bufferless(ci, n) || st.holds[n][ci] {
				continue
			}
			for k := 1; k <= span; k++ {
				terms = terms[:0]
				if bk := m.bvar[ci][n][k]; bk != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(bk), Coeff: 1})
				}
				if bkPrev := m.bvar[ci][n][k-1]; bkPrev != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(bkPrev), Coeff: -1})
					if xvar != nil && xvar[ci][n][k-1] != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(xvar[ci][n][k-1]), Coeff: 1})
					}
				}
				if terms = arrivals(terms, ci, n, k); len(terms) > 0 {
					p.AddRow(terms, lp.EQ, pendAt[[3]int{ci, n, k}])
				}
			}
		}
	}

	// Flow conservation.
	for ci := 0; ci < nC; ci++ {
		for n := 0; n < nN; n++ {
			outLinks := t.Out(topo.NodeID(n))
			if len(outLinks) == 0 {
				continue
			}
			if !in.bufferless(ci, n) {
				// Buffered GPU: each outgoing send needs the chunk in the
				// buffer at the start of the epoch. Holders keep their
				// chunks permanently (constant 1), so no row is needed.
				if st.holds[n][ci] {
					continue
				}
				for _, lid := range outLinks {
					for k := 0; k < span; k++ {
						f := fAt(ci, int(lid), k)
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
						terms = append(terms[:0],
							lp.Term{Var: lp.VarID(f), Coeff: 1},
							lp.Term{Var: lp.VarID(b), Coeff: -1})
						p.AddRow(terms, lp.LE, 0)
					}
				}
				continue
			}
			// Bufferless node (switch, or GPU under NoBuffers): outgoing
			// sends at k draw on arrivals forwardable exactly at k,
			// carried-over ones included.
			copyOK := in.opt.SwitchMode == SwitchCopy || !t.IsSwitch(topo.NodeID(n))
			for k := 0; k < span; k++ {
				// terms[0] is the slot of one outgoing send, terms[1:] the
				// arrivals.
				terms = arrivals(append(terms[:0], lp.Term{}), ci, n, k)
				carried := pendAt[[3]int{ci, n, k}]
				out = out[:0]
				for _, lid := range outLinks {
					if f := fAt(ci, int(lid), k); f != noVar {
						out = append(out, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
				switch {
				case len(terms) == 1 && carried == 0:
					for _, tm := range out {
						p.SetBounds(tm.Var, 0, 0)
					}
				case copyOK:
					// Per outgoing link: F_out <= sum(arrivals).
					for _, tm := range out {
						terms[0] = tm
						p.AddRow(terms, lp.LE, carried)
					}
				case len(out) > 0:
					// Legacy switch: total out <= total in.
					out = append(out, terms[1:]...)
					p.AddRow(out, lp.LE, carried)
				}
			}
		}
	}

	// Cross-span dedup: a GPU may receive each chunk at most once in
	// total — landings inside the span (reflected in B at its end) plus
	// carryover sends that land in the next.
	if !final {
		for ci := 0; ci < nC; ci++ {
			for n := 0; n < nN; n++ {
				if in.bufferless(ci, n) || st.holds[n][ci] {
					continue
				}
				terms = terms[:0]
				if b := m.bvar[ci][n][span]; b != noVar {
					terms = append(terms, lp.Term{Var: lp.VarID(b), Coeff: 1})
				}
				carried := false
				for _, lid := range t.In(topo.NodeID(n)) {
					l := int(lid)
					for k := 0; k < span; k++ {
						if f := fAt(ci, l, k); f != noVar && fwd(l, k) > span {
							terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
							carried = true
						}
					}
				}
				if carried && len(terms) > 1 {
					p.AddRow(terms, lp.LE, 1)
				}
			}
		}
	}

	// Capacity (windowed when κ > 1, Appendix F), with per-epoch
	// variable-bandwidth scaling (§5); a window straddling lo is charged
	// for the previous span's transmissions still on the wire.
	m.capRow = noVarGrid(nL, span)
	for l := 0; l < nL; l++ {
		for k := 0; k < span; k++ {
			terms = terms[:0]
			carry := 0.0
			for kk := k - in.kappa[l] + 1; kk <= k; kk++ {
				if kk < 0 {
					carry += st.prevLoad[[2]int{l, lo + kk}]
					continue
				}
				for ci := 0; ci < nC; ci++ {
					if f := fAt(ci, l, kk); f != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(f), Coeff: 1})
					}
				}
			}
			if len(terms) > 0 {
				m.capRow[l][k] = int32(p.AddRow(terms, lp.LE, max(in.capBudget(l, lo+k)-carry, 0)))
			}
		}
	}

	// Buffer size limit (Appendix B): sum of buffered chunks per node and
	// epoch, counting the chunks the node holds for good as constants.
	if in.opt.BufferLimitChunks > 0 {
		for n := 0; n < nN; n++ {
			if t.IsSwitch(topo.NodeID(n)) {
				continue
			}
			resident := 0
			for _, held := range st.holds[n] {
				if held {
					resident++
				}
			}
			for k := 1; k <= span; k++ {
				terms = terms[:0]
				for ci := 0; ci < nC; ci++ {
					if b := m.bvar[ci][n][k]; b != noVar {
						terms = append(terms, lp.Term{Var: lp.VarID(b), Coeff: 1})
					}
				}
				if len(terms) == 0 {
					continue
				}
				if resident > in.opt.BufferLimitChunks {
					return fmt.Errorf("core: buffer limit %d below node %d's own %d chunks",
						in.opt.BufferLimitChunks, n, resident)
				}
				p.AddRow(terms, lp.LE, float64(in.opt.BufferLimitChunks-resident))
			}
		}
	}
	return nil
}

// sends reads the whole-chunk sends off a MILP point, span-local epoch k
// at global epoch off+k.
func (m *milpModel) sends(x []float64, off int) []schedule.Send {
	var sends []schedule.Send
	for ci, cm := range m.in.comms {
		for l, col := range m.fvar[ci] {
			for k, v := range col {
				if v == noVar || x[v] < 0.5 {
					continue
				}
				sends = append(sends, schedule.Send{
					Src: cm.src, Chunk: cm.chunk,
					Link: topo.LinkID(l), Epoch: off + k, Fraction: 1,
				})
			}
		}
	}
	return sends
}

// extractSchedule converts a MILP point into a pruned, validated schedule.
func (m *milpModel) extractSchedule(x []float64) (*schedule.Schedule, error) {
	in := m.in
	s := &schedule.Schedule{
		Topo:           in.topo,
		Demand:         in.demand,
		Tau:            in.tau,
		NumEpochs:      in.K,
		Sends:          m.sends(x, 0),
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
// schedules with copy and store-and-forward support. The
// branch-and-bound node loop, its worker pool, and every node's LP
// relaxation watch ctx, so cancellation interrupts the search promptly.
// When the search is cancelled with an incumbent in hand the partial
// result is returned alongside an error wrapping context.Cause(ctx);
// Options.TimeLimit is layered onto ctx as a derived deadline and keeps
// its historical budget semantics (incumbent returned as a feasible
// result, no error).
func SolveMILP(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	res, _, err := solveMILP(ctx, t, d, opt, nil)
	return res, err
}

// solveMILP is SolveMILP plus warm-start plumbing: hint seeds the root
// relaxation's basis, and the returned payload (the solved model, its
// root basis and the integer schedule's sends) lets a session chain the
// next request and Replan re-root this one. The caller has already
// layered Options.TimeLimit onto ctx.
func solveMILP(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options, hint *basisHint) (*Result, incumbentState, error) {
	start := time.Now()
	in, err := newInstance(t, d, opt)
	if err != nil {
		return nil, incumbentState{}, err
	}
	if len(in.comms) == 0 {
		return emptyResult(in, start), incumbentState{}, nil
	}

	// The greedy warm start assumes buffered GPUs, copy-capable switches
	// and a constant link budget; skip it for the other models.
	warmStart := !opt.NoIncumbentHeuristic && !opt.NoBuffers &&
		opt.BufferLimitChunks == 0 && opt.SwitchMode == SwitchCopy && opt.LinkCapacity == nil
	var greedy []schedule.Send
	if warmStart {
		greedy = greedyIncumbent(in)
		// When the horizon was auto-estimated, tighten it to the greedy
		// schedule's finish: the optimum finishes no later, so variables
		// beyond it are dead weight.
		if greedy != nil && opt.Epochs == 0 {
			if tight := sendsFinishEpoch(in, greedy) + 1; tight < in.K {
				opt2 := opt
				opt2.Epochs = tight
				in2, _ := newInstance(t, d, opt2) // the same τ, accepted above
				if greedy2 := greedyIncumbent(in2); greedy2 != nil {
					in, greedy = in2, greedy2
				}
			}
		}
	}

	m, err := buildMILP(in)
	if err != nil {
		return nil, incumbentState{}, err
	}
	mopt := milp.Options{RootWarmStart: hint.basisFor(m.p)}
	if greedy != nil {
		mopt.IncumbentX = m.pointFromSends(greedy)
	}
	if mopt.RootWarmStart == nil && opt.Crash == CrashAll {
		// Cold root relaxation: crash-start from the greedy incumbent's
		// flow support instead of the all-slack basis.
		mopt.RootCrash = crashBasisMILP(m, mopt.IncumbentX)
	}
	res, msol, err := m.run(ctx, mopt, start)
	if err != nil {
		return nil, incumbentState{}, err
	}
	inc := incumbentState{mmodel: m, basis: msol.RootBasis, sends: res.Schedule.Sends}
	if opt.MinimizeMakespan {
		res, inc, err = refineMakespan(ctx, "milp", opt, res, inc, start, func(opt2 Options, prev *incumbentState) (*Result, incumbentState, error) {
			return solveMILP(ctx, t, d, opt2, hintFromSolve(prev.mmodel.p, prev.basis))
		})
		if err != nil {
			return res, inc, err
		}
	}
	if !res.Optimal {
		// A cancelled search that still produced an incumbent returns it
		// as a partial result alongside the cancellation cause; a plain
		// TimeLimit expiry keeps the historical no-error budget semantics.
		if ierr := interrupted(ctx); ierr != nil {
			return res, inc, fmt.Errorf("core: MILP solve cancelled with incumbent in hand (gap %.1f%%): %w",
				100*res.Gap, ierr)
		}
	}
	return res, inc, nil
}

// run is the general form's one solve tail, shared by cold plans,
// makespan re-solves and Replan's re-rooted incumbents, which differ
// only in how m was built or edited and in the start they pass (root
// basis, incumbent point, crash basis): announce the model, run
// branch-and-bound under the instance's gap limit, worker count and
// progress hook, turn its status into the caller-facing error, extract
// the schedule (validated against m's instance, so an edited model
// re-validates on the churned world) and report the effort. The
// milp.Solution comes back whenever the search ran.
func (m *milpModel) run(ctx context.Context, mopt milp.Options, start time.Time) (*Result, *milp.Solution, error) {
	in := m.in
	mopt.Context = ctx
	mopt.GapLimit = in.opt.GapLimit
	mopt.Workers = in.opt.Workers
	mopt.Progress = in.opt.Progress.milpHook("milp", 0)
	in.opt.Progress.emit(Progress{Solver: "milp", Phase: "model"})
	msol := milp.Solve(&milp.Problem{LP: m.p, Integer: m.ints}, mopt)
	switch msol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
	case milp.StatusInfeasible:
		return nil, msol, fmt.Errorf("core: infeasible with K=%d epochs (tau=%g); increase Epochs", in.K, in.tau)
	default:
		if ierr := interrupted(ctx); ierr != nil {
			return nil, msol, fmt.Errorf("core: MILP solve interrupted before any incumbent (%v after %d nodes): %w",
				msol.Status, msol.Nodes, ierr)
		}
		if budgetExpired(ctx) {
			return nil, msol, fmt.Errorf("core: MILP hit its time limit before any incumbent (%v after %d nodes); raise TimeLimit",
				msol.Status, msol.Nodes)
		}
		return nil, msol, fmt.Errorf("core: MILP solve failed: %v", msol.Status)
	}
	s, err := m.extractSchedule(msol.X)
	if err != nil {
		return nil, msol, err
	}
	res := &Result{
		Schedule:     s,
		Objective:    msol.Objective,
		Gap:          msol.Gap,
		Optimal:      msol.Status == milp.StatusOptimal,
		SolveTime:    time.Since(start),
		Epochs:       in.K,
		Tau:          in.tau,
		WarmStarted:  mopt.RootWarmStart != nil,
		CrashStarted: mopt.RootCrash != nil,
	}
	res.addMILP(msol)
	return res, msol, nil
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
