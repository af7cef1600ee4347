package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"teccl/internal/collective"
	"teccl/internal/lp"
	"teccl/internal/milp"
	"teccl/internal/schedule"
	"teccl/internal/topo"
)

// astarState carries chunk positions between A* rounds: which GPU holds
// which commodity, which demands remain, and the in-flight arrivals (the
// Q variables of Appendix D) that land in the next round.
type astarState struct {
	holds [][]bool // [node][ci]: resident and forwardable
	needs [][]bool // [node][ci]: still demanded here
	// pending arrivals for the next round: local forwardable epoch.
	pendGPU    []pendingArrival
	pendSwitch []pendingArrival
	remaining  int
	// prevLoad records chunks placed on each link per global epoch in the
	// previous round, so κ-window capacity constraints straddling a round
	// boundary stay honest.
	prevLoad map[[2]int]float64
}

type pendingArrival struct {
	node, ci, localEpoch int
}

// SolveAStar solves the collective with the A*-inspired round partitioning
// of §4.2: a sequence of small MILPs, each rewarded for delivering chunks
// and for moving undelivered chunks closer to their destinations (the
// Floyd-Warshall potential of Appendix D). Rounds continue until every
// demand is met. Sub-optimal but far more scalable than the one-shot MILP,
// and still copy-capable. The round loop checks ctx before every round,
// and each round's MILP (its node loop, worker pool, and LP relaxations)
// watches the same ctx, so cancellation interrupts the solve promptly
// with an error wrapping context.Cause(ctx). Options.TimeLimit is layered
// onto ctx as a derived deadline covering the whole round sequence.
func SolveAStar(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, error) {
	res, _, err := solveAStar(ctx, t, d, opt)
	return res, err
}

// astarRoundLength derives the round horizon Kr: long enough that an
// in-flight chunk lands within the following round (§5 "Number of
// epochs in a round").
func astarRoundLength(in *instance) int {
	if in.opt.RoundEpochs > 0 {
		return in.opt.RoundEpochs
	}
	maxHop := 1
	for l := range in.delta {
		if h := in.delta[l] + in.kappa[l]; h > maxHop {
			maxHop = h
		}
	}
	Kr := maxHop + 2
	if Kr < 3 {
		Kr = 3
	}
	return Kr
}

// newAStarState builds the initial chunk-position state of an instance:
// every source holds its chunks, every demand is outstanding.
func newAStarState(in *instance) *astarState {
	nN := in.topo.NumNodes()
	st := &astarState{
		holds: make([][]bool, nN),
		needs: make([][]bool, nN),
	}
	for n := 0; n < nN; n++ {
		st.holds[n] = make([]bool, len(in.comms))
		st.needs[n] = make([]bool, len(in.comms))
	}
	for ci, cm := range in.comms {
		st.holds[cm.src][ci] = true
		for _, dd := range cm.dests {
			st.needs[dd][ci] = true
			st.remaining++
		}
	}
	return st
}

// astarLoop runs the round loop from round `rounds` — st describing the
// world at that round's start, sends and gap what the earlier rounds sent
// and proved — until every demand is met, then assembles the pruned,
// validated schedule, the Result of the whole round sequence and the
// payload Replan resumes from. A plan enters at round 0 with nothing
// sent; the replanning layer enters mid-stream, having replayed the
// unaffected rounds through advanceState on the churned instance.
func astarLoop(ctx context.Context, in *instance, st *astarState, Kr, rounds int, sends []schedule.Send, gap float64, start time.Time) (*Result, incumbentState, error) {
	res := &Result{Tau: in.tau} // every round adds its effort
	maxRounds := in.opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	var hop [][]float64
	if st.remaining > 0 {
		hop = in.hopDistances()
	}
	var hint *basisHint
	// One solve workspace for every round's MILP: it dies with this call
	// (a session, Result or Plan must never hold one).
	var ms milp.Solver
	for st.remaining > 0 {
		if rounds >= maxRounds {
			return nil, incumbentState{}, fmt.Errorf("core: A* did not finish within %d rounds (%d demands left)",
				maxRounds, st.remaining)
		}
		if budgetExpired(ctx) {
			if ierr := interrupted(ctx); ierr != nil {
				return nil, incumbentState{}, fmt.Errorf("core: A* cancelled at round %d with %d demands left: %w",
					rounds, st.remaining, ierr)
			}
			return nil, incumbentState{}, fmt.Errorf("core: A* hit its time limit at round %d with %d demands left; raise TimeLimit",
				rounds, st.remaining)
		}
		in.opt.Progress.emit(Progress{
			Solver: "astar", Phase: "round", Round: rounds + 1,
			Incumbent: math.NaN(), Bound: math.NaN(), Gap: math.Inf(1),
		})
		off := rounds * Kr
		roundSends, msol, roundHint, err := solveRound(ctx, &ms, in, st, hop, Kr, off, hint)
		if err != nil {
			return nil, incumbentState{}, err
		}
		res.addMILP(msol)
		hint = roundHint
		progressed := advanceState(in, st, roundSends, off, Kr)
		if !progressed && len(roundSends) == 0 && st.remaining > 0 {
			return nil, incumbentState{}, fmt.Errorf("core: A* stalled at round %d with %d demands left", rounds, st.remaining)
		}
		sends = append(sends, roundSends...)
		gap = max(gap, msol.Gap)
		rounds++
	}

	s := &schedule.Schedule{
		Topo:           in.topo,
		Demand:         in.demand,
		Tau:            in.tau,
		NumEpochs:      rounds * Kr,
		Sends:          sends,
		AllowCopy:      true,
		EpochsPerChunk: in.epochsPerChunk(),
	}
	s = s.Prune()
	if err := s.Validate(); err != nil {
		return nil, incumbentState{}, fmt.Errorf("core: A* produced invalid schedule: %w", err)
	}
	res.Schedule, res.Gap, res.Epochs, res.Rounds = s, gap, rounds*Kr, rounds
	res.SolveTime = time.Since(start)
	return res, incumbentState{ain: in, aKr: Kr, aRounds: rounds, aGap: gap, sends: s.Sends}, nil
}

// solveAStar is SolveAStar returning the incremental payload the session
// layer records for replanning.
func solveAStar(ctx context.Context, t *topo.Topology, d *collective.Demand, opt Options) (*Result, incumbentState, error) {
	// The round state tracks holders and arrivals in flight only: it has
	// no bufferless-GPU or eviction case to carry between rounds.
	if opt.NoBuffers {
		return nil, incumbentState{}, errors.New("core: A* does not support Options.NoBuffers; use SolverMILP or SolverLP")
	}
	if opt.BufferLimitChunks > 0 {
		return nil, incumbentState{}, errors.New("core: A* does not support Options.BufferLimitChunks; use SolverMILP or SolverLP")
	}
	ctx, cancel := withTimeLimit(ctx, opt.TimeLimit)
	defer cancel()
	start := time.Now()
	in := newInstance(t, d, opt)
	if len(in.comms) == 0 {
		return emptyResult(in, start), incumbentState{}, nil
	}
	return astarLoop(ctx, in, newAStarState(in), astarRoundLength(in), 0, nil, 0, start)
}

// solveRound builds and solves one A* round MILP: the §3.1 model over the
// round's epochs, opened from the state the earlier rounds left and
// allowed to carry over into the next (milpModel.emit). hint optionally
// seeds the root relaxation from the previous round's basis; the returned
// hint carries this round's basis forward, and the milp.Solution carries
// the round's gap and iteration counters. ms is the loop's workspace.
func solveRound(ctx context.Context, ms *milp.Solver, in *instance, st *astarState, hop [][]float64, Kr, off int, hint *basisHint) ([]schedule.Send, *milp.Solution, *basisHint, error) {
	m := &milpModel{in: in, hop: hop}
	if err := m.emit(off, off+Kr, false, st); err != nil {
		return nil, nil, nil, err
	}
	aopt := milp.Options{
		Context:       ctx,
		GapLimit:      in.opt.GapLimit,
		Workers:       in.opt.Workers,
		RootWarmStart: hint.basisFor(m.p),
		Progress:      in.opt.Progress.milpHook("astar", off/Kr+1),
	}
	if aopt.RootWarmStart != nil {
		// Later A* rounds reoptimize from the previous round's basis with
		// the dual simplex (falls back to primal when not dual feasible).
		aopt.LP.Method = lp.MethodDual
	}
	msol := ms.Solve(&milp.Problem{LP: m.p, Integer: m.ints}, aopt)
	switch msol.Status {
	case milp.StatusOptimal, milp.StatusFeasible:
	default:
		if ierr := interrupted(ctx); ierr != nil {
			return nil, nil, nil, fmt.Errorf("core: A* round %d interrupted: %w", off/Kr+1, ierr)
		}
		if budgetExpired(ctx) {
			return nil, nil, nil, fmt.Errorf("core: A* hit its time limit in round %d; raise TimeLimit", off/Kr+1)
		}
		return nil, nil, nil, fmt.Errorf("core: A* round failed: %v", msol.Status)
	}
	return m.sends(msol.X, off), msol, hintFromSolve(m.p, msol.RootBasis), nil
}

// advanceState applies a round's sends to the A* state: materializes
// arrivals, records deliveries, and queues carryovers for the next round.
// Reports whether any demand was newly satisfied or any send was made.
func advanceState(in *instance, st *astarState, roundSends []schedule.Send, off, Kr int) bool {
	t := in.topo
	commIdx := map[[2]int]int{}
	for ci, cm := range in.comms {
		commIdx[[2]int{cm.src, cm.chunk}] = ci
	}
	// Pending GPU arrivals queued at the previous transition have landed
	// during this round: promote them to holds before rebuilding.
	for _, pa := range st.pendGPU {
		st.holds[pa.node][pa.ci] = true
	}
	st.pendGPU = nil
	st.pendSwitch = nil
	st.prevLoad = map[[2]int]float64{}
	progressed := len(roundSends) > 0
	for _, snd := range roundSends {
		ci := commIdx[[2]int{snd.Src, snd.Chunk}]
		l := int(snd.Link)
		st.prevLoad[[2]int{l, snd.Epoch}]++
		fwd := snd.Epoch + in.delta[l] + in.kappa[l] // global forwardable epoch
		dst := t.Link(snd.Link).Dst
		local := fwd - (off + Kr)
		if t.IsSwitch(dst) {
			if local >= 0 {
				st.pendSwitch = append(st.pendSwitch, pendingArrival{int(dst), ci, local})
			}
			continue
		}
		if local <= 0 {
			// Resident by the start of the next round.
			if !st.holds[dst][ci] {
				st.holds[dst][ci] = true
				if st.needs[dst][ci] {
					st.needs[dst][ci] = false
					st.remaining--
				}
			}
		} else {
			st.pendGPU = append(st.pendGPU, pendingArrival{int(dst), ci, local})
			// The arrival is committed: nothing can stop it landing, so
			// the demand no longer steers later rounds.
			if st.needs[dst][ci] {
				st.needs[dst][ci] = false
				st.remaining--
			}
		}
	}
	return progressed
}
